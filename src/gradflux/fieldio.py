"""Plain-text field files.

One header line ``gradflux-field n=<n> kind=<kind> problem=<tag>`` followed
by (n+1) rows of (n+1) whitespace-separated values printed with 17
significant digits, which round-trips doubles exactly: write -> read ->
write reproduces the file byte for byte.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = ["FieldFormatError", "read_field_meta", "write_field"]

_HEADER_RE = re.compile(r"^gradflux-field n=(\d+) kind=(\S+) problem=(\S+)\s*$")


class FieldFormatError(ValueError):
    pass


def write_field(field: ScalarField, path, kind: str = "u", problem: str = "custom") -> None:
    if re.search(r"\s", kind) or re.search(r"\s", problem):
        raise ValueError("kind and problem tags must not contain whitespace")
    lines = [f"gradflux-field n={field.grid.n} kind={kind} problem={problem}"]
    for row in field.values:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_field_meta(path) -> tuple[ScalarField, str, str]:
    """Read a field file, returning (field, kind, problem tag)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FieldFormatError(f"{path}: cannot read field file ({exc})") from exc
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FieldFormatError(f"{path}: missing header")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise FieldFormatError(
            f"{path}:1: malformed header (expected 'gradflux-field n=<n> kind=<kind> "
            f"problem=<tag>')"
        )
    n, kind, problem = int(m.group(1)), m.group(2), m.group(3)
    if n < 2:
        raise FieldFormatError(f"{path}:1: header n={n} is below the minimum of 2")
    values: list[float] = []
    line_ends: list[int] = []  # len(values) after each data line
    for lineno, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise FieldFormatError(
                    f"{path}:{lineno}: cannot parse value {tok!r}"
                ) from None
        line_ends.append(len(values))
    expected = (n + 1) * (n + 1)
    if len(values) != expected:
        raise FieldFormatError(
            f"{path}: header announces n={n} ({expected} values) but file holds "
            f"{len(values)}"
        )
    arr = np.array(values)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        lineno = 2 + bisect_right(line_ends, bad[0])
        raise FieldFormatError(f"{path}:{lineno}: non-finite value {float(arr[bad[0]])!r}")
    arr = arr.reshape(n + 1, n + 1)
    return ScalarField(GridSpec(n), arr), kind, problem
