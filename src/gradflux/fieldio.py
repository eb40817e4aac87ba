"""Field files as NumPy ``.npy`` bytes, and the one number format of every text output.

A field file holds one float64 array of shape (n+1, n+1), n >= 2, in the ``.npy`` format
(NEP 1), and reads back bit for bit.  A read refuses any other content or byte count, and
a non-finite value, with one FieldFormatError naming the file; it never unpickles.
"""

from __future__ import annotations

import os

import numpy as np

from .grid import GridSpec, NonFiniteFieldError, ScalarField

__all__ = ["FLOAT_SPEC", "fmt", "FieldFormatError", "read_field_meta", "write_field"]

FLOAT_SPEC = ".17g"  # 17 significant digits: every double prints and reads back exactly

_READ_HEADER = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def fmt(v) -> str:
    """A value as every text output writes it: floats in FLOAT_SPEC, the rest by str()."""
    if isinstance(v, (float, np.floating)):
        return format(v, FLOAT_SPEC)
    return str(v)


class FieldFormatError(ValueError):
    pass


def write_field(field: ScalarField, path, kind: str = "u", problem: str = "custom") -> None:
    # kind and problem are accepted and not written: the benchmark's set-up still passes them
    with open(path, "wb") as f:  # np.save(path) would append .npy to the name
        np.save(f, field.values, allow_pickle=False)


def read_field_meta(path) -> ScalarField:
    """The field a ``.npy`` field file holds, read into an array the field owns."""
    try:
        with open(path, "rb") as f:
            version = np.lib.format.read_magic(f)
            if version not in _READ_HEADER:
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = _READ_HEADER[version](f)
            if dtype != np.float64 or len(shape) != 2 or shape[0] != shape[1] or shape[0] < 3:
                raise ValueError(f"{dtype} of shape {shape}, not a float64 square of side >= 3")
            nbytes = 8 * shape[0] * shape[1]
            if (held := os.fstat(f.fileno()).st_size - f.tell()) == nbytes:  # before allocating
                values = np.empty(shape, order="F" if fortran_order else "C")
                if (held := f.readinto(values.reshape(-1, order="A"))) == nbytes:
                    return ScalarField.adopt(GridSpec(shape[0] - 1), values)
            raise ValueError(f"shape {shape} needs {nbytes} bytes of values, file holds {held}")
    except OSError as exc:
        raise FieldFormatError(f"{path}: cannot read field file ({exc})") from exc
    except NonFiniteFieldError:
        i, j = np.argwhere(~np.isfinite(values))[0].tolist()
        raise FieldFormatError(f"{path}: non-finite value {values[i, j]} at node ({i}, {j})")
    except ValueError as exc:
        raise FieldFormatError(f"{path}: not a field file ({exc})") from None
