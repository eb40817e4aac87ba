import numpy as np
import pytest

from gradflux import (
    GridSpec,
    ProblemData,
    ScalarField,
    VectorField,
    example1,
    gradient,
    norm,
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
        assert prob100.potential_f is None

    def test_exact_solution_vanishes_on_boundary(self, prob100):
        assert np.abs(prob100.exact_u.boundary_values()).max() == 0.0


class TestProblemData:
    def test_potential_must_reproduce_drift(self):
        g = GridSpec(10)
        f = ScalarField.from_function(g, lambda x, y: x * x + y)
        good = ProblemData(
            g,
            a=ScalarField.full(g, 1.0),
            F=gradient(f),
            H=ScalarField.zeros(g),
            potential_f=f,
        )
        assert norm(good.F - gradient(good.potential_f), "linf") == 0.0
        with pytest.raises(ValueError, match="potential"):
            ProblemData(
                g,
                a=ScalarField.full(g, 1.0),
                F=gradient(f) + VectorField.from_arrays(
                    g, np.full(g.shape, 0.1), np.zeros(g.shape)
                ),
                H=ScalarField.zeros(g),
                potential_f=f,
            )

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
