"""Plain-text field files.

One header line ``gradflux-field n=<n> kind=<kind> problem=<tag>`` followed
by (n+1) rows of (n+1) whitespace-separated values printed with 17
significant digits, which round-trips doubles exactly: write -> read ->
write reproduces the file byte for byte.

Writing streams one row at a time.  Reading holds about one copy of the
body text plus the array, which numpy's C text parser fills with the bits
``float()`` gives; the per-line parse runs only to decide a body that
parse cannot, and its errors name the file and line.
"""

from __future__ import annotations

import re
import warnings
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
    row = " ".join(["%.17g"] * (field.grid.n + 1)) + "\n"
    with open(path, "w") as f:
        f.write(f"gradflux-field n={field.grid.n} kind={kind} problem={problem}\n")
        for values in field.values:
            f.write(row % tuple(values.tolist()))


def read_field_meta(path) -> tuple[ScalarField, str, str]:
    """Read a field file, returning (field, kind, problem tag)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FieldFormatError(f"{path}: cannot read field file ({exc})") from exc
    # the first line as splitlines() ends it, without splitting the body into lines
    header = (text.partition("\n")[0].splitlines() or [""])[0]
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
    body = text[len(header):]
    del text  # hold one copy of the body text
    # numpy's C parser gives float()'s bits for every finite token it
    # accepts.  Text it rejects ('1_0' and fullwidth digits, which float()
    # accepts), a non-finite value ('nan(1)', which float() rejects, reads as
    # nan) and a wrong count (a whitespace-only body reads as [-1.0]) go to
    # the per-line parse, which decides.  Older numpy warns, not raises.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            arr = np.fromstring(body, dtype=float, sep=" ")
    except (ValueError, DeprecationWarning):
        arr = None
    if arr is None or arr.size != (n + 1) * (n + 1) or not np.isfinite(arr).all():
        arr = _parse_lines(path, body, n)
    return ScalarField(GridSpec(n), arr.reshape(n + 1, n + 1)), kind, problem


def _parse_lines(path: Path, body: str, n: int) -> np.ndarray:
    """Parse the body (the text after the header line, from the line break
    that ends it) line by line, raising the error that names the first bad
    line: an unparsable token, then a count mismatch, then a non-finite value."""
    values: list[float] = []
    line_ends: list[int] = []  # len(values) after each data line
    for lineno, line in enumerate(body.splitlines()[1:], start=2):
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
    return arr
