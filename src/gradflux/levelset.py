"""Level-set length measurement by marching squares.

Cells whose corner values straddle the level t contribute straight segments
with linearly interpolated endpoints; saddle cells (four crossings) are
paired using the cell-center average.  Node values exactly equal to t count
as nonnegative, so a contour running along a grid line is traced once.
All levels are measured in one array pass.  A cell crosses level t exactly
when min corner < t <= max corner, so counting the levels at or below each
node and taking that count's min and max over a cell's corners gives the
cell's range of levels.  The segments of every (cell, level) pair are then
built together, and each level's segment lengths are summed on their own in
cell order (row-major, then pair order in a saddle cell), so every length
equals a per-cell loop (the test oracle) bit for bit.  ``level_set_length``
is the one-level call of the same pass.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField

__all__ = ["level_set_length", "level_set_lengths"]

# Corner k of the cell anchored at (i, j) is (i + _DI[k], j + _DJ[k]); edge k
# joins corner k to corner k + 1 (mod 4) and steps by (_STEP_I[k], _STEP_J[k]).
_DI, _DJ = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
_STEP_I, _STEP_J = np.roll(_DI, -1) - _DI, np.roll(_DJ, -1) - _DJ
# First and last crossed edge of each sign pattern (bit k: corner k below the
# level); the saddle patterns 5 and 10 cross all four edges, and the patterns
# 0 and 15 cross none and never reach the tables.
_CROSSED = [
    [k for k in range(4) if (c >> k & 1) != (c >> (k + 1) % 4 & 1)] or [0] for c in range(16)
]
_FIRST = np.array([edges[0] for edges in _CROSSED])
_LAST = np.array([edges[-1] for edges in _CROSSED])
# Pairs per block of the segment pass, which bounds its (4, pairs) temporaries.
_BLOCK = 1 << 16


def _segments(vals: np.ndarray, h: float, i: np.ndarray, j: np.ndarray, t: np.ndarray):
    """Segment lengths of the cells anchored at (i, j) on the levels t, in pair
    order (two segments for a saddle cell), and the saddle mask."""
    m = vals.shape[1]
    fc = vals.ravel()[i * m + j + (_DI * m + _DJ)[:, None]] - t  # row k: corner k
    neg = fc < 0
    pattern = neg[0] + 2 * neg[1] + 4 * neg[2] + 8 * neg[3]
    saddle = (pattern == 5) | (pattern == 10)
    split = saddle & (neg[0] != ((fc[0] + fc[1] + fc[2] + fc[3]) < 0))
    flat = fc.ravel()

    def length(a, b, p):
        """Distance between the crossings on edges a and b of the pairs p."""
        x, y = [], []
        for e in (a, b):
            f0, f1 = flat[e * i.size + p], flat[(e + 1) % 4 * i.size + p]
            al = f0 / (f0 - f1)
            x.append((i[p] + _DI[e] + al * _STEP_I[e]) * h)
            y.append((j[p] + _DJ[e] + al * _STEP_J[e]) * h)
        return np.hypot(x[0] - x[1], y[0] - y[1])

    # two crossings join the first and last crossed edge; a saddle pairs its
    # edges so the contour separates the center from the corners whose sign
    # disagrees with it: (0, 3), (1, 2), or (0, 1), (2, 3) when split
    s = np.flatnonzero(saddle)
    seg = length(_FIRST[pattern], np.where(split, 1, _LAST[pattern]), np.arange(i.size))
    return np.insert(seg, s + 1, length(1 + split[s], 2 + split[s], s)), saddle


def _lengths(v: ScalarField, ts: np.ndarray) -> list[float]:
    """Contour length of each level in the ascending array ``ts``."""
    vals, n, h = v.values, v.grid.n, v.grid.h
    # below[node] counts the levels t <= value; a cell crosses the levels
    # ts[first:first + count], where first and first + count are the min and
    # max of below over its corners: some corner < t and some corner >= t
    below = np.searchsorted(ts, vals, side="right")
    quad = [below[di:di + n, dj:dj + n] for di, dj in zip(_DI, _DJ)]
    first = np.minimum(np.minimum(quad[0], quad[1]), np.minimum(quad[2], quad[3])).ravel()
    count = np.maximum(np.maximum(quad[0], quad[1]), np.maximum(quad[2], quad[3])).ravel() - first
    cells = np.flatnonzero(count)
    reps = count[cells]
    # one key per (cell, level) pair, sorted level-major so that cells stay
    # row-major within a level
    nn = n * n
    key = np.repeat((first[cells] - np.cumsum(reps) + reps) * nn + cells, reps)
    key += np.arange(0, key.size * nn, nn)
    key.sort()
    seg, per_level = [np.zeros(0)], np.zeros(ts.size, dtype=np.intp)
    for start in range(0, key.size, _BLOCK):
        level, cell = np.divmod(key[start:start + _BLOCK], nn)
        part, saddle = _segments(vals, h, *np.divmod(cell, n), ts[level])
        seg.append(part)
        per_level += np.bincount(level, minlength=ts.size)
        per_level += np.bincount(level[saddle], minlength=ts.size)
    seg = np.concatenate(seg)
    # each level sums its own segments sequentially, as the per-level loop does
    ends = np.cumsum(per_level)
    return [float(np.cumsum(seg[e - k:e])[-1]) if k else 0.0 for k, e in zip(per_level, ends)]


def level_set_length(v: ScalarField, t: float) -> float:
    """Total length of the contour {v = t}; zero when t is out of range."""
    return _lengths(v, np.array([t], dtype=float))[0]


def level_set_lengths(v: ScalarField, num_levels: int = 50) -> list[tuple[float, float]]:
    """Lengths over a uniform t-grid strictly inside [min v, max v]."""
    lo, hi = float(v.values.min()), float(v.values.max())
    if num_levels < 1:
        raise ValueError("num_levels must be positive")
    if lo == hi:
        return [(lo, 0.0)]
    ts = np.linspace(lo, hi, num_levels + 2)[1:-1]
    return list(zip(ts.tolist(), _lengths(v, ts)))
