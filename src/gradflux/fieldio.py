"""Plain-text field files and the one number format of every text output.

One header line ``gradflux-field n=<n> kind=<kind> problem=<tag>`` followed
by (n+1) rows of (n+1) whitespace-separated values printed with 17
significant digits (``FLOAT_SPEC``), which round-trips doubles exactly:
write -> read -> write reproduces the file byte for byte.

Files are UTF-8 text; a byte that does not decode is a format error naming
the file.  Writing streams one row at a time.  Reading streams one line at a
time and holds one value array per line, under 1.0x the file size in all.
numpy's C text parser reads each line with the bits ``float()`` gives;
``float()`` decides the lines that parser rejects or reads as non-finite or
as whitespace-only, and errors name the file and line.  Lines end at ``\\n``,
``\\r\\n`` or ``\\r``; other line breaks (``\\v``, ``\\f``, ``\\x85``, ...)
separate values inside a line.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = ["FLOAT_SPEC", "fmt", "FieldFormatError", "read_field_meta", "write_field"]

FLOAT_SPEC = ".17g"  # 17 significant digits: every double prints and reads back exactly

_HEADER_RE = re.compile(r"^gradflux-field n=(\d+) kind=(\S+) problem=(\S+)\s*$")


def fmt(v) -> str:
    """A value as every text output writes it: floats in FLOAT_SPEC, the rest by str()."""
    if isinstance(v, (float, np.floating)):
        return format(v, FLOAT_SPEC)
    return str(v)


class FieldFormatError(ValueError):
    pass


def write_field(field: ScalarField, path, kind: str = "u", problem: str = "custom") -> None:
    if not re.fullmatch(r"\S+", kind) or not re.fullmatch(r"\S+", problem):
        raise ValueError("kind and problem tags must be nonempty and contain no whitespace")
    row = " ".join(["%" + FLOAT_SPEC] * (field.grid.n + 1)) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"gradflux-field n={field.grid.n} kind={kind} problem={problem}\n")
        for values in field.values:
            f.write(row % tuple(values.tolist()))


def read_field_meta(path) -> tuple[ScalarField, str, str]:
    """Read a field file, returning (field, kind, problem tag).

    Errors, in order of precedence: the first unparsable token, then a value
    count other than the header's, then the first non-finite value."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline()
            if not header.strip():
                raise FieldFormatError(f"{path}: missing header")
            m = _HEADER_RE.match(header)
            if m is None:
                raise FieldFormatError(
                    f"{path}:1: malformed header (expected 'gradflux-field n=<n> kind=<kind> "
                    f"problem=<tag>')"
                )
            n, kind, problem = int(m.group(1)), m.group(2), m.group(3)
            if n < 2:
                raise FieldFormatError(f"{path}:1: header n={n} is below the minimum of 2")
            rows = []
            first_non_finite = None
            for lineno, line in enumerate(f, start=2):
                try:
                    row = np.fromstring(line, dtype=float, sep=" ")
                except ValueError:
                    row = None
                # numpy rejects '1_0' and fullwidth digits, which float() accepts,
                # reads 'nan(1)', which float() rejects, as nan, and reads a
                # whitespace-only line as [-1.0]
                if row is None or (row.size == 1 and line.isspace()) or not np.isfinite(row).all():
                    row = np.array(_float_tokens(path, lineno, line))
                    bad = np.flatnonzero(~np.isfinite(row))
                    if bad.size and first_non_finite is None:
                        value = row[bad[0]].item()
                        first_non_finite = f"{path}:{lineno}: non-finite value {value!r}"
                rows.append(row)
    except OSError as exc:
        raise FieldFormatError(f"{path}: cannot read field file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"{path}: not UTF-8 text ({exc})") from None
    expected = (n + 1) * (n + 1)
    count = sum(row.size for row in rows)
    if count != expected:
        raise FieldFormatError(
            f"{path}: header announces n={n} ({expected} values) but file holds {count}"
        )
    if first_non_finite is not None:
        raise FieldFormatError(first_non_finite)
    # the field adopts the array the rows are joined into: a reshape would be
    # a view, which it copies
    values = np.empty((n + 1, n + 1))
    np.concatenate(rows, out=values.reshape(-1))
    del rows  # hold one copy of the values
    return ScalarField.adopt(GridSpec(n), values), kind, problem


def _float_tokens(path: Path, lineno: int, line: str) -> list[float]:
    values = []
    for tok in line.split():
        try:
            values.append(float(tok))
        except ValueError:
            raise FieldFormatError(f"{path}:{lineno}: cannot parse value {tok!r}") from None
    return values
