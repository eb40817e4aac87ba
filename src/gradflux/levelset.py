"""Level-set length measurement by marching squares.

Cells whose corner values straddle the level t contribute straight segments
with linearly interpolated endpoints; saddle cells (four crossings) are
paired using the cell-center average.  Node values exactly equal to t count
as nonnegative, so a contour running along a grid line is traced once.
Each level is measured in one array pass, and segment lengths are summed in
cell order (row-major, then pair order in a saddle cell), so results equal
a per-cell loop (the test oracle) bit for bit.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField

__all__ = ["level_set_length", "level_set_lengths"]

# Corner order within a cell anchored at (i, j); edge k joins corner k to k+1.
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def level_set_length(v: ScalarField, t: float) -> float:
    """Total length of the contour {v = t}; zero when t is out of range."""
    f = v.values - t
    h = v.grid.h
    neg = f < 0
    crossings = neg[:-1, :-1].astype(np.int8) + neg[1:, :-1] + neg[1:, 1:] + neg[:-1, 1:]
    i, j = np.nonzero((crossings > 0) & (crossings < 4))
    if i.size == 0:
        return 0.0
    # row k of these (4, cells) arrays is corner k; edge k ends at row k + 1 (mod 4)
    ci = np.stack([i + di for di, _ in _CORNERS])
    cj = np.stack([j + dj for _, dj in _CORNERS])
    fc = f[ci, cj]
    ci2, cj2, fc2 = (np.roll(a, -1, axis=0) for a in (ci, cj, fc))
    cross = (fc < 0) != (fc2 < 0)
    al = np.divide(fc, fc - fc2, out=np.zeros_like(fc), where=cross)
    x, y = (ci + al * (ci2 - ci)) * h, (cj + al * (cj2 - cj)) * h
    # two crossings join the first and last crossed edge; a saddle pairs its
    # edges so the contour separates the center from the corners whose sign
    # disagrees with it: (0, 3), (1, 2), or (0, 1), (2, 3) when split
    saddle = cross.all(axis=0)
    split = saddle & ((fc[0] < 0) != ((fc[0] + fc[1] + fc[2] + fc[3]) < 0))
    a = np.stack([cross.argmax(axis=0), 1 + split])
    b = np.stack([np.where(split, 1, 3 - cross[::-1].argmax(axis=0)), 2 + split])
    cells = np.arange(i.size)
    seg = np.hypot(x[a, cells] - x[b, cells], y[a, cells] - y[b, cells])
    return np.cumsum(seg.T[np.column_stack((np.ones_like(saddle), saddle))])[-1]


def level_set_lengths(v: ScalarField, num_levels: int = 50) -> list[tuple[float, float]]:
    """Lengths over a uniform t-grid strictly inside [min v, max v]."""
    lo, hi = float(v.values.min()), float(v.values.max())
    if num_levels < 1:
        raise ValueError("num_levels must be positive")
    if lo == hi:
        return [(lo, 0.0)]
    ts = np.linspace(lo, hi, num_levels + 2)[1:-1]
    return [(float(t), level_set_length(v, float(t))) for t in ts]
