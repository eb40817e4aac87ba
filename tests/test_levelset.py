import warnings

import numpy as np
import pytest

from gradflux import GridSpec, ScalarField, example1, level_set_length, level_set_lengths, levelset

_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def loop_oracle(v, t):
    """Per-cell marching squares: the reference the array pass must equal bit for bit."""
    f = v.values - t
    h = v.grid.h
    neg = f < 0
    crossings = (
        neg[:-1, :-1].astype(np.int8) + neg[1:, :-1] + neg[1:, 1:] + neg[:-1, 1:]
    )
    total = 0.0
    for i, j in zip(*np.nonzero((crossings > 0) & (crossings < 4))):
        pts = []
        for k in range(4):
            i1, j1 = i + _CORNERS[k][0], j + _CORNERS[k][1]
            i2, j2 = i + _CORNERS[(k + 1) % 4][0], j + _CORNERS[(k + 1) % 4][1]
            f1, f2 = f[i1, j1], f[i2, j2]
            if (f1 < 0) != (f2 < 0):
                al = f1 / (f1 - f2)
                pts.append(((i1 + al * (i2 - i1)) * h, (j1 + al * (j2 - j1)) * h))
        if len(pts) == 2:
            total += np.hypot(pts[0][0] - pts[1][0], pts[0][1] - pts[1][1])
        elif len(pts) == 4:
            center_neg = (f[i, j] + f[i + 1, j] + f[i + 1, j + 1] + f[i, j + 1]) < 0
            pairs = ((0, 3), (1, 2)) if (f[i, j] < 0) == center_neg else ((0, 1), (2, 3))
            for a, b in pairs:
                total += np.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])
    return total


def _saddle_count(v, t):
    neg = v.values < t
    diag = (neg[:-1, :-1] == neg[1:, 1:]) & (neg[1:, :-1] == neg[:-1, 1:])
    return int((diag & (neg[:-1, :-1] != neg[1:, :-1])).sum())


_RNG = np.random.default_rng(20261018)
ORACLE_FIELDS = {
    "random": ScalarField(GridSpec(48), _RNG.standard_normal((49, 49))),
    # half-integer values: at the levels 0 and 0.5 many nodes sit exactly on t
    "integer": ScalarField(GridSpec(40), _RNG.integers(-3, 4, (41, 41)) / 2.0),
    "x": ScalarField.from_function(GridSpec(40), lambda x, y: x),
    "x+y": ScalarField.from_function(GridSpec(37), lambda x, y: x + y),
    "circle": ScalarField.from_function(
        GridSpec(60), lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2
    ),
    "constant": ScalarField.full(GridSpec(12), 3.0),
}


def _oracle_levels(v):
    lo, hi = float(v.values.min()), float(v.values.max())
    interior = np.linspace(lo, hi, 22)[1:-1]
    return [float(t) for t in interior] + [lo, hi, lo - 1.0, hi + 1.0, 0.0, 0.5]


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_array_pass_equals_loop_oracle_bitwise(name):
    v = ORACLE_FIELDS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in _oracle_levels(v):
            assert level_set_length(v, t) == loop_oracle(v, t), t


# a seeded random walk: smooth enough for long contours, rough enough for saddles
SEEDED = ScalarField(
    GridSpec(64), np.random.default_rng(7).standard_normal((65, 65)).cumsum(axis=0).cumsum(axis=1)
)


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS) + ["seeded"])
def test_batched_levels_equal_loop_oracle_bitwise(name):
    v = ORACLE_FIELDS.get(name, SEEDED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = level_set_lengths(v)
        assert table == [(t, loop_oracle(v, t)) for t, _ in table]
    lo, hi = float(v.values.min()), float(v.values.max())
    if lo < hi:
        assert [t for t, _ in table] == np.linspace(lo, hi, 52)[1:-1].tolist()


def test_block_boundaries_do_not_change_lengths(monkeypatch):
    # the segment pass works in blocks of pairs; cut the random field's
    # pairs into many small blocks and compare with the one-block result
    v = ORACLE_FIELDS["random"]
    whole = level_set_lengths(v)
    monkeypatch.setattr(levelset, "_BLOCK", 97)
    assert level_set_lengths(v) == whole


def test_oracle_inputs_cover_saddles_and_grid_line_contours():
    v = ORACLE_FIELDS["random"]
    assert sum(_saddle_count(v, t) for t in _oracle_levels(v)) > 0
    assert _saddle_count(ORACLE_FIELDS["integer"], 0.0) > 0
    # x = 0.5 is a grid line at n=40: its nodes sit exactly at the level
    x = ORACLE_FIELDS["x"]
    assert (x.values == 0.5).any()
    assert level_set_length(x, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_vertical_line():
    g = GridSpec(100)
    v = ScalarField.from_function(g, lambda x, y: x)
    assert level_set_length(v, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_line_not_on_grid_nodes():
    g = GridSpec(101)
    v = ScalarField.from_function(g, lambda x, y: x)
    assert level_set_length(v, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_diagonal_line():
    g = GridSpec(64)
    v = ScalarField.from_function(g, lambda x, y: x + y)
    assert level_set_length(v, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_circle_circumference():
    # oracle: the level set is a circle of radius 0.2, circumference 2 pi 0.2
    g = GridSpec(100)
    v = ScalarField.from_function(g, lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2)
    length = level_set_length(v, 0.04)
    assert length == pytest.approx(2 * np.pi * 0.2, rel=0.02)


def test_out_of_range_level_is_empty():
    g = GridSpec(30)
    v = ScalarField.from_function(g, lambda x, y: x)
    assert level_set_length(v, v.values.max() + 1.0) == 0.0
    assert level_set_length(v, v.values.min() - 1.0) == 0.0


def test_constant_field():
    g = GridSpec(12)
    v = ScalarField.full(g, 3.0)
    assert level_set_lengths(v) == [(3.0, 0.0)]


def test_length_bound_stable_under_refinement():
    # the benchmark solution's level sets are nested closed curves; the
    # empirical sup over 50 levels must be grid-stable
    k = {}
    for n in (50, 100):
        u = example1(GridSpec(n)).exact_u
        k[n] = max(length for _, length in level_set_lengths(u))
    assert k[100] > 0
    assert abs(k[100] - k[50]) / k[100] <= 0.10


def test_lengths_table_shape():
    g = GridSpec(40)
    v = ScalarField.from_function(g, lambda x, y: x * y)
    table = level_set_lengths(v)
    assert len(table) == levelset.LEVELS == 50
    assert all(length >= 0.0 for _, length in table)


def test_level_counts_are_small_integers(traced_peak):
    """Beyond the field, a pass with few crossed cells holds one intp array of
    the levels below each node and its 1-byte copy, min and max over cells."""
    g = GridSpec(200)
    v = np.zeros(g.shape)
    v[100, 100] = 1.0
    field = ScalarField(g, v)
    assert traced_peak(lambda: level_set_lengths(field)) <= 1.5 * v.nbytes


def test_many_crossed_cells_peak_stays_bounded(traced_peak):
    """With every level crossing the grid, the (cell, level) keys, the segment
    lengths and one block of the segment pass stay under ten fields."""
    u = example1(GridSpec(200)).exact_u
    assert traced_peak(lambda: level_set_lengths(u)) <= 10.0 * u.values.nbytes
