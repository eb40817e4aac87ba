import numpy as np
import pytest

from gradflux import (
    GridSpec,
    ProblemData,
    ProblemDataError,
    ScalarField,
    VectorField,
    example1,
    gradient,
)


class TestExample1:
    def test_corner_values(self, grid100, prob100):
        # a(0,0) = sqrt(1 + 0) = 1, H = 1, exact solution vanishes at corners
        assert prob100.a.values[0, 0] == 1.0
        assert prob100.H.values[0, 0] == 1.0
        assert prob100.exact_u.values[0, 0] == 0.0
        assert prob100.a.values[-1, -1] == pytest.approx(np.sqrt(5.0), rel=0, abs=0)

    def test_weight_bounds(self, prob100):
        assert prob100.m == 1.0
        assert prob100.M == pytest.approx(np.sqrt(5.0))

    def test_discrete_identity_gradient_plus_drift(self, grid100, prob100):
        # symbolic check: grad(u) + F = (1, x+y), whose magnitude is the weight
        x, y = grid100.meshgrid()
        g = gradient(prob100.exact_u) + prob100.F
        assert np.abs(g.x.values - 1.0).max() <= 1e-12
        assert np.abs(g.y.values - (x + y)).max() <= 1e-12
        mag = np.hypot(g.x.values, g.y.values)
        assert np.abs(mag - prob100.a.values).max() <= 1e-12

    def test_drift_is_not_conservative(self, prob100):
        # curl(1, x+y) = d_y 1 - d_x (x+y) = -1, and the discrete curl of
        # gradient(u) vanishes where the forward stencils stay inside the grid
        F = prob100.F
        curl = gradient(F.x).y.values - gradient(F.y).x.values
        assert np.abs(curl[:-1, :-1] + 1.0).max() <= 1e-9

    def test_exact_solution_vanishes_on_boundary(self, prob100):
        assert np.abs(prob100.exact_u.boundary_values()).max() == 0.0

    @pytest.mark.parametrize("n", [7, 100, 400])
    def test_bit_identical_to_inline_formulas(self, n):
        g = GridSpec(n)
        x, y = g.meshgrid()
        u = x * y * (1.0 - x) * (1.0 - y)
        gu = gradient(ScalarField(g, u))
        p = example1(g)
        for mine, ref in (
            (p.exact_u, u),
            (p.F.x, 1.0 - gu.x.values),
            (p.F.y, x + y - gu.y.values),
            (p.a, np.sqrt(1.0 + (x + y) ** 2)),
            (p.H, np.ones(g.shape)),
        ):
            assert mine.values.tobytes() == ref.tobytes()


class TestProblemData:
    def test_exact_solution_boundary_enforced(self):
        g = GridSpec(8)
        with pytest.raises(ValueError, match="boundary"):
            ProblemData(
                g,
                a=ScalarField.full(g, 1.0),
                F=VectorField.zeros(g),
                H=ScalarField.zeros(g),
                exact_u=ScalarField.full(g, 1.0),
            )

    def test_grid_consistency_enforced(self):
        with pytest.raises(ValueError, match="grids"):
            ProblemData(
                GridSpec(8),
                a=ScalarField.full(GridSpec(8), 1.0),
                F=VectorField.zeros(GridSpec(8)),
                H=ScalarField.zeros(GridSpec(9)),
            )

    def test_grid_mismatch_names_each_fields_n(self):
        g, g9 = GridSpec(8), GridSpec(9)
        with pytest.raises(ProblemDataError) as info:
            ProblemData(
                g,
                a=ScalarField.full(g9, 1.0),
                F=VectorField.zeros(g),
                H=ScalarField.zeros(g),
                exact_u=ScalarField.zeros(g9),
                name="mixed",
            )
        assert str(info.value) == (
            "grid mismatch in mixed: n=8, field grids {'a': 9, 'F': 8, 'H': 8, 'exact_u': 9}"
        )

    @pytest.mark.parametrize("bad", [-0.25, 0.0])
    def test_weight_must_be_positive_at_every_node(self, bad):
        g = GridSpec(8)
        a = np.ones(g.shape)
        a[2, 5] = bad
        with pytest.raises(ProblemDataError) as info:
            ProblemData(
                g, a=ScalarField(g, a), F=VectorField.zeros(g), H=ScalarField.zeros(g), name="w"
            )
        assert str(info.value) == (
            f"w: the weight must be positive at every node, but its minimum is {bad:g}"
        )
