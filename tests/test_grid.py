import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflux import (
    GridSpec,
    PoissonSolver,
    ScalarField,
    VectorField,
    divergence,
    example1,
    gradient,
    inner,
    integrate,
    norm,
    shrink_step,
)
from gradflux.fieldio import read_field_meta, write_field
from gradflux.grid import NonFiniteFieldError
from gradflux.perturb import apply_table1_noise


def random_interior_field(grid, rng):
    v = np.zeros(grid.shape)
    v[1:-1, 1:-1] = rng.standard_normal((grid.n - 1, grid.n - 1))
    return ScalarField(grid, v)


def random_vector(grid, rng):
    return VectorField(
        ScalarField(grid, rng.standard_normal(grid.shape)),
        ScalarField(grid, rng.standard_normal(grid.shape)),
    )


class TestGridSpec:
    def test_h_times_n_is_one(self):
        for n in (2, 3, 10, 100, 127):
            g = GridSpec(n)
            assert abs(g.h * n - 1.0) <= 1e-15

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            GridSpec(1)

    def test_node_coordinates_span_closed_square(self):
        g = GridSpec(10)
        x, y = g.meshgrid()
        assert x[0, 0] == 0.0 and x[-1, -1] == 1.0
        assert y[0, 3] == pytest.approx(0.3, abs=1e-15)


class TestGradient:
    def test_zero_field(self):
        g = GridSpec(16)
        out = gradient(ScalarField.zeros(g))
        assert np.all(out.x.values == 0.0)
        assert np.all(out.y.values == 0.0)

    def test_linear_function_exact_at_interior(self):
        g = GridSpec(20)
        x, _ = g.meshgrid()
        out = gradient(ScalarField(g, x))
        assert np.allclose(out.x.values[:-1, :], 1.0, atol=1e-13)
        assert np.allclose(out.y.values[1:-1, 1:-1], 0.0, atol=1e-13)

    def test_affine_exact_at_interior(self):
        g = GridSpec(13)
        x, y = g.meshgrid()
        u = ScalarField(g, 2.0 * x - 3.0 * y + 0.25)
        out = gradient(u)
        assert np.allclose(out.x.values[1:-1, 1:-1], 2.0, atol=1e-12)
        assert np.allclose(out.y.values[1:-1, 1:-1], -3.0, atol=1e-12)

    def test_product_stencil_hand_value(self):
        # oracle: forward-difference stencil evaluated by hand at (0.5, 0.5);
        # d/dx (x*y) differenced forward equals y exactly, so the value is 0.5
        g = GridSpec(100)
        x, y = g.meshgrid()
        u = ScalarField(g, x * y)
        v = u.values
        i = j = 50
        hand_x = (v[i + 1, j] - v[i, j]) / g.h
        hand_y = (v[i, j + 1] - v[i, j]) / g.h
        out = gradient(u)
        assert out.x.values[i, j] == hand_x
        assert out.y.values[i, j] == hand_y
        assert out.x.values[i, j] == pytest.approx(0.5, abs=1e-12)
        assert out.y.values[i, j] == pytest.approx(0.5, abs=1e-12)


class TestDivergence:
    def test_zero_field(self):
        g = GridSpec(16)
        out = divergence(VectorField.zeros(g))
        assert np.all(out.values == 0.0)

    def test_constant_field_vanishes_at_interior(self):
        g = GridSpec(16)
        p = VectorField(ScalarField.full(g, 2.5), ScalarField.full(g, -1.5))
        out = divergence(p)
        assert np.allclose(out.values[1:, 1:], 0.0, atol=1e-12)

    def test_identity_field_hand_value(self):
        # oracle: backward differences of (x, y) give 1 + 1 at nodes with both
        # neighbors inside
        g = GridSpec(20)
        x, y = g.meshgrid()
        out = divergence(VectorField(ScalarField(g, x), ScalarField(g, y)))
        assert np.allclose(out.values[1:, 1:], 2.0, atol=1e-12)


class TestAdjointnessAndComposition:
    def test_adjointness_200_random_pairs(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            g = GridSpec(int(rng.integers(2, 24)))
            u = random_interior_field(g, rng)
            p = random_vector(g, rng)
            lhs = inner(gradient(u), p)
            rhs = -inner(u, divergence(p))
            scale = norm(u, "l2") * norm(p, "l2")
            assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-30)

    def test_div_grad_is_five_point_laplacian(self):
        rng = np.random.default_rng(3)
        for n in (5, 16, 33):
            g = GridSpec(n)
            u = ScalarField(g, rng.standard_normal(g.shape))
            v = u.values
            lap = divergence(gradient(u)).values
            stencil = (
                v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
                - 4.0 * v[1:-1, 1:-1]
            ) / g.h ** 2
            assert np.allclose(lap[1:-1, 1:-1], stencil, rtol=0, atol=1e-12 / g.h ** 2)


class TestNorms:
    def test_constant_one_l1_interior_convention(self):
        g = GridSpec(100)
        f = ScalarField.full(g, 1.0)
        assert norm(f, "L1") == pytest.approx((1 - g.h) ** 2, rel=1e-12)

    def test_zero_field_all_kinds(self):
        g = GridSpec(10)
        z = ScalarField.zeros(g)
        for kind in ("l1", "l2", "linf"):
            assert norm(z, kind) == 0.0

    def test_x_l1_matches_analytic_integral(self):
        # oracle: the integral of x over the unit square is 1/2
        g = GridSpec(100)
        x, _ = g.meshgrid()
        assert abs(norm(ScalarField(g, x), "l1") - 0.5) < 2 * g.h

    def test_vector_norm_uses_euclidean_magnitude(self):
        g = GridSpec(8)
        p = VectorField(ScalarField.full(g, 3.0), ScalarField.full(g, 4.0))
        assert norm(p, "linf") == pytest.approx(5.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            norm(ScalarField.zeros(GridSpec(4)), "l3")

    @given(
        c=st.floats(-1e6, 1e6, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["l1", "l2", "linf"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c, seed, kind):
        g = GridSpec(9)
        f = ScalarField(g, np.random.default_rng(seed).standard_normal(g.shape))
        cf = ScalarField(g, c * f.values)
        assert norm(cf, kind) == pytest.approx(abs(c) * norm(f, kind), rel=1e-9, abs=1e-12)


class TestFields:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScalarField(GridSpec(4), np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        v = np.zeros((5, 5))
        v[2, 2] = np.nan
        with pytest.raises(ValueError):
            ScalarField(GridSpec(4), v)

    def test_values_are_immutable(self):
        f = ScalarField.zeros(GridSpec(4))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_vector_components_share_grid(self):
        with pytest.raises(ValueError):
            VectorField(ScalarField.zeros(GridSpec(4)), ScalarField.zeros(GridSpec(5)))


class TestOwnership:
    """A field adopts a float64 array that is read-only and owns its memory,
    and copies anything else."""

    def test_writable_source_mutated_later_leaves_field_unchanged(self):
        v = np.zeros((5, 5))
        f = ScalarField(GridSpec(4), v)
        v[2, 2] = 7.0
        assert f.values is not v and f.values[2, 2] == 0.0

    def test_read_only_owned_float64_array_is_adopted(self):
        v = np.arange(25.0).reshape(5, 5).copy()
        v.setflags(write=False)
        assert ScalarField(GridSpec(4), v).values is v
        w = np.ones((5, 5))
        assert ScalarField.adopt(GridSpec(4), w).values is w and not w.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: np.arange(36.0).reshape(6, 6)[:5, :5],
        lambda: np.ones(25).reshape(5, 5),
        lambda: np.broadcast_to(np.arange(5.0), (5, 5)),
        lambda: np.frombuffer(np.ones(25).tobytes()).reshape(5, 5),
        lambda: np.ones((5, 5), dtype=int),
        lambda: np.ones((5, 5), dtype=np.float32),
        lambda: np.ones((5, 5), dtype=">f8"),
    ], ids=["slice", "reshape", "broadcast_to", "frombuffer", "int",
            "float32", "big-endian"])
    def test_views_and_other_dtypes_are_copied(self, make):
        v = make()
        if v.flags.writeable:
            v.setflags(write=False)
        f = ScalarField(GridSpec(4), v)
        assert f.values is not v and f.values.flags.owndata
        assert f.values.dtype == np.float64 and not f.values.flags.writeable
        np.testing.assert_array_equal(f.values, v)

    def test_adopted_array_holding_nan_is_rejected(self):
        v = np.zeros((5, 5))
        v[1, 3] = np.nan
        v.setflags(write=False)
        with pytest.raises(NonFiniteFieldError):
            ScalarField(GridSpec(4), v)
        with pytest.raises(ValueError, match="shape"):
            ScalarField.adopt(GridSpec(5), np.zeros((5, 5)))

    def test_library_producers_hand_over_read_only_owned_arrays(self, tmp_path, monkeypatch):
        g = GridSpec(6)
        p = example1(g)
        u, gu = p.exact_u, gradient(p.exact_u)
        write_field(u, tmp_path / "u.field")
        producers = {
            "gradient": lambda: gradient(u),
            "divergence": lambda: divergence(gu),
            "solve_dirichlet": lambda: PoissonSolver(g).solve_dirichlet(p.H),
            "shrink_step": lambda: shrink_step(gu, gu, p.F, p.a, 1.0),
            "read_field_meta": lambda: read_field_meta(tmp_path / "u.field"),
            "sum": lambda: u + u,
            "difference": lambda: gu - gu,
            "example1": lambda: example1(g),
            "apply_table1_noise": lambda: apply_table1_noise(p, 0.05, 3),
        }
        handed = []
        init = ScalarField.__init__

        def spy(self, grid, values):
            init(self, grid, values)
            handed.append((values, self.values))

        monkeypatch.setattr(ScalarField, "__init__", spy)
        for name, make in producers.items():
            handed.clear()
            make()
            assert handed, name
            for given, held in handed:
                assert held is given, name
                assert held.flags.owndata and not held.flags.writeable, name


class TestIntegrate:
    def test_exact_for_affine(self):
        g = GridSpec(14)
        x, y = g.meshgrid()
        f = ScalarField(g, 3.0 * x - y + 2.0)
        # integral over the unit square: 3/2 - 1/2 + 2 = 3
        assert integrate(f) == pytest.approx(3.0, rel=1e-12)

    def test_second_order_for_smooth(self):
        vals = []
        for n in (20, 40):
            g = GridSpec(n)
            x, y = g.meshgrid()
            f = ScalarField(g, np.sin(np.pi * x) * y**2)
            vals.append(abs(integrate(f) - (2 / np.pi) * (1 / 3)))
        assert vals[1] <= vals[0] / 3.0

    def test_never_samples_boundary(self):
        g = GridSpec(10)
        v = np.zeros(g.shape)
        v[0, :] = v[-1, :] = v[:, 0] = v[:, -1] = 1e9
        assert integrate(ScalarField(g, v)) == 0.0
