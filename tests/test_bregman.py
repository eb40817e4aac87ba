import numpy as np
import pytest

from gradflux import (
    GridSpec,
    PoissonSolver,
    ProblemData,
    ScalarField,
    SolverConfig,
    SolverState,
    VectorField,
    divergence,
    flux,
    gradient,
    iterate,
    norm,
    shrink_step,
    solve,
)


def homogeneous_problem(n=16):
    g = GridSpec(n)
    return ProblemData(
        g, a=ScalarField.full(g, 1.0), F=VectorField.zeros(g), H=ScalarField.zeros(g)
    )


def hypot_shrink(b, grad_u, F, a, lam):
    """The shrinkage written with np.hypot and np.where, as a reference."""
    sx = b.x.values + grad_u.x.values + F.x.values
    sy = b.y.values + grad_u.y.values + F.y.values
    mag = np.hypot(sx, sy)
    nonzero = mag > 1e-14
    scale = np.where(
        nonzero, np.maximum(mag - a.values / lam, 0.0) / np.where(nonzero, mag, 1.0), 0.0
    )
    return scale * sx - F.x.values, scale * sy - F.y.values


class TestShrinkStep:
    def test_hand_computed_case(self):
        # oracle: s = (3,4), threshold 1, so max(5-1,0)/5 * (3,4) = (2.4, 3.2)
        g = GridSpec(4)
        b = VectorField.from_arrays(g, np.full(g.shape, 3.0), np.full(g.shape, 4.0))
        out = shrink_step(
            b, VectorField.zeros(g), VectorField.zeros(g), ScalarField.full(g, 1.0), 1.0
        )
        expect_x = max(5.0 - 1.0, 0.0) / 5.0 * 3.0
        expect_y = max(5.0 - 1.0, 0.0) / 5.0 * 4.0
        assert np.all(out.x.values == expect_x)
        assert np.all(out.y.values == expect_y)
        assert out.x.values[0, 0] == pytest.approx(2.4, abs=1e-15)
        assert out.y.values[0, 0] == pytest.approx(3.2, abs=1e-15)

    def test_zero_argument_returns_minus_drift(self):
        g = GridSpec(4)
        x, y = g.meshgrid()
        F = VectorField.from_arrays(g, x + 1.0, y - 2.0)
        out = shrink_step(-1.0 * F, VectorField.zeros(g), F, ScalarField.full(g, 1.0), 1.0)
        assert np.array_equal(out.x.values, -F.x.values)
        assert np.array_equal(out.y.values, -F.y.values)

    def test_clamp_case_returns_minus_drift(self):
        # |s| <= a/lam with s nonzero collapses to -F through the max(..., 0)
        g = GridSpec(4)
        b = VectorField.from_arrays(g, np.full(g.shape, 0.3), np.full(g.shape, 0.4))
        F = VectorField.from_arrays(g, np.full(g.shape, 0.1), np.zeros(g.shape))
        out = shrink_step(b, VectorField.zeros(g), F, ScalarField.full(g, 10.0), 1.0)
        assert np.array_equal(out.x.values, -F.x.values)
        assert np.array_equal(out.y.values, -F.y.values)

    def test_lambda_scales_threshold(self):
        g = GridSpec(4)
        b = VectorField.from_arrays(g, np.full(g.shape, 3.0), np.full(g.shape, 4.0))
        out = shrink_step(
            b, VectorField.zeros(g), VectorField.zeros(g), ScalarField.full(g, 1.0), 0.5
        )
        scale = max(5.0 - 2.0, 0.0) / 5.0
        assert np.allclose(out.x.values, scale * 3.0)

    def test_magnitude_overflow_is_rejected(self):
        # |s| = sqrt(sx*sx + sy*sy) is finite up to about 1e154 per component
        g = GridSpec(4)
        zero, a = VectorField.zeros(g), ScalarField.full(g, 1.0)

        def diagonal(size):
            return VectorField.from_arrays(g, np.full(g.shape, size), np.full(g.shape, size))

        assert np.all(shrink_step(diagonal(1e153), zero, zero, a, 1.0).x.values == 1e153)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                shrink_step(diagonal(1e155), zero, zero, a, 1.0)

    @pytest.mark.parametrize("n, seed", [(8, 0), (8, 1), (100, 2)])
    def test_matches_hypot_reference(self, n, seed):
        g = GridSpec(n)
        rng = np.random.default_rng(seed)
        bx, by, gx, gy, fx, fy = rng.standard_normal((6,) + g.shape)
        av = rng.uniform(0.5, 2.0, g.shape)
        # s = 0 exactly on the first row; |s| is below a/lam on the second;
        # on the third 0 < |s| <= 1e-14 < a/lam fails, so only the mask gives -F
        gx[0] = gy[0] = 0.0
        bx[0], by[0] = -fx[0], -fy[0]
        bx[1], by[1] = 0.1 - gx[1] - fx[1], 0.1 - gy[1] - fy[1]
        gx[2] = gy[2] = 0.0
        bx[2], by[2] = 3e-15 - fx[2], 4e-15 - fy[2]
        av[2] = 1e-20
        a = ScalarField(g, av)
        b, gu, F = (
            VectorField.from_arrays(g, vx, vy)
            for vx, vy in ((bx, by), (gx, gy), (fx, fy))
        )
        sx, sy = bx + gx + fx, by + gy + fy
        assert np.all(sx[0] == 0.0) and np.all(sy[0] == 0.0)
        tiny = np.hypot(sx[2], sy[2])
        assert np.all((tiny > av[2]) & (tiny <= 1e-14))
        clamped = np.hypot(sx, sy) <= av
        assert clamped[1].all() and 0 < clamped[2:].sum() < clamped[2:].size

        out = shrink_step(b, gu, F, a, 1.0)
        ref_x, ref_y = hypot_shrink(b, gu, F, a, 1.0)
        ulp = np.spacing(np.abs(sx) + np.abs(sy) + np.abs(fx) + np.abs(fy))
        assert np.all(np.abs(out.x.values - ref_x) <= 4 * ulp)
        assert np.all(np.abs(out.y.values - ref_y) <= 4 * ulp)
        assert np.array_equal(out.x.values[:3], -fx[:3])
        assert np.array_equal(out.y.values[:3], -fy[:3])
        assert np.array_equal(out.x.values[clamped], -fx[clamped])
        assert np.array_equal(out.y.values[clamped], -fy[clamped])


class TestIterate:
    def test_rhs_matches_negated_divergence_bitwise(self):
        g = GridSpec(24)
        rng = np.random.default_rng(3)
        p = ProblemData(
            g,
            a=ScalarField(g, rng.uniform(0.5, 2.0, g.shape)),
            F=VectorField.from_arrays(g, *rng.standard_normal((2,) + g.shape)),
            H=ScalarField(g, rng.standard_normal(g.shape)),
        )
        b, d = (
            VectorField.from_arrays(g, *rng.standard_normal((2,) + g.shape))
            for _ in range(2)
        )
        state = SolverState(u=ScalarField(g, rng.standard_normal(g.shape)), b=b, d=d, k=7)
        lam, solver = 0.7, PoissonSolver(g)
        rhs = -divergence(b - d).values + p.H.values / lam
        u_ref = solver.solve_dirichlet(ScalarField(g, rhs))
        gu = gradient(u_ref)
        d_ref = shrink_step(b, gu, p.F, p.a, lam)
        b_ref = b + gu - d_ref

        new = iterate(state, p, SolverConfig(lam=lam), solver)
        assert new.u.values.tobytes() == u_ref.values.tobytes()
        for got, ref in ((new.d, d_ref), (new.b, b_ref)):
            assert got.x.values.tobytes() == ref.x.values.tobytes()
            assert got.y.values.tobytes() == ref.y.values.tobytes()
        assert new.k == 8

    def test_homogeneous_fixed_point_at_zero(self):
        p = homogeneous_problem()
        state = SolverState.initial(p.grid)
        new = iterate(state, p, SolverConfig(), PoissonSolver(p.grid))
        assert np.all(new.u.values == 0.0)
        assert np.all(new.d.x.values == 0.0)
        assert np.all(new.b.x.values == 0.0)
        assert new.k == 1

    def test_first_sweep_reduces_to_poisson_solve(self, grid100, prob100, psolver100):
        # with b = d = 0 and lam = 1 the first update is the Dirichlet solve of H
        state = SolverState.initial(grid100)
        new = iterate(state, prob100, SolverConfig(lam=1.0), psolver100)
        direct = psolver100.solve_dirichlet(prob100.H)
        assert np.array_equal(new.u.values, direct.values)

    def test_exactly_one_poisson_solve_per_sweep(self):
        p = homogeneous_problem()

        class CountingSolver(PoissonSolver):
            calls = 0

            def solve_dirichlet(self, rhs):
                CountingSolver.calls += 1
                return super().solve_dirichlet(rhs)

        solver = CountingSolver(p.grid)
        state = SolverState.initial(p.grid)
        for expected in (1, 2, 3):
            state = iterate(state, p, SolverConfig(), solver)
            assert CountingSolver.calls == expected

    def test_global_clamp_gives_minus_drift(self):
        g = GridSpec(12)
        x, y = g.meshgrid()
        p = ProblemData(
            g,
            a=ScalarField.full(g, 1e6),
            F=VectorField.from_arrays(g, np.ones(g.shape), x + y),
            H=ScalarField.full(g, 1.0),
        )
        new = iterate(SolverState.initial(g), p, SolverConfig(), PoissonSolver(g))
        assert np.array_equal(new.d.x.values, -p.F.x.values)
        assert np.array_equal(new.d.y.values, -p.F.y.values)


class TestSolve:
    def test_zero_budget_returns_initial_state(self, prob100, psolver100):
        res = solve(prob100, SolverConfig(max_iter=0), psolver100)
        assert not res.converged
        assert res.iterations == 0
        assert np.all(res.state.u.values == 0.0)

    def test_homogeneous_converges_immediately(self):
        p = homogeneous_problem()
        res = solve(p, SolverConfig(), PoissonSolver(p.grid))
        assert res.converged
        assert res.iterations == 1
        assert np.all(res.state.u.values == 0.0)

    def test_deterministic_bitwise(self):
        g = GridSpec(24)
        from gradflux import example1

        p = example1(g)
        cfg = SolverConfig(record_history=True)
        ps = PoissonSolver(g)
        r1 = solve(p, cfg, ps)
        r2 = solve(p, cfg, ps)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.state.u.values, r2.state.u.values)
        assert r1.history == r2.history

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                SolverConfig(lam=bad)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                SolverConfig(tol=bad)
        for bad in (2.5, True, "10"):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                SolverConfig(max_iter=bad)
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            SolverConfig(max_iter=-1)
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


class TestConvergedProperties:
    """Behavior of the n=100 benchmark solve (shared session fixture)."""

    def test_noiseless_error_vs_exact(self, prob100, solved100):
        rel = norm(solved100.state.u - prob100.exact_u, "l2") / norm(
            prob100.exact_u, "l2"
        )
        assert rel <= 0.03

    def test_energy_history_settles_monotone(self, solved100):
        energies = [e for _, _, e in solved100.history]
        increases = [
            k for k in range(len(energies) - 1) if energies[k + 1] > energies[k] + 1e-6
        ]
        # transient wiggles die out quickly; monotone within 1e-6 afterwards
        assert not increases or max(increases) + 1 <= 50

    def test_energy_limit_near_exact_value(self, solved100):
        # symbolic minimum: 13/6 + 1/36 = 79/36
        target = 79.0 / 36.0
        assert abs(solved100.history[-1][2] - target) / target <= 1e-2

    def test_stopping_rule_fired(self, solved100):
        assert solved100.converged
        assert solved100.history[-1][1] < 1e-7
        assert solved100.iterations == solved100.history[-1][0]

    def test_splitting_variable_tracks_gradient(self, prob100, solved100):
        d = solved100.state.d
        gu = gradient(solved100.state.u)
        rel = norm(d - gu, "l1") / norm(gu + prob100.F, "l1")
        assert rel <= 5e-2

    def test_scaled_bregman_variable_tracks_flux(self, prob100, solved100):
        lam = 1.0
        fp = flux(solved100.state.u, prob100)
        g = gradient(solved100.state.u) + prob100.F
        region = np.hypot(g.x.values, g.y.values) >= 0.5
        b = solved100.state.b
        num = np.sqrt(
            (
                (lam * b.x.values - fp.J.x.values) ** 2
                + (lam * b.y.values - fp.J.y.values) ** 2
            )[region].sum()
        )
        den = np.sqrt((fp.J.x.values**2 + fp.J.y.values**2)[region].sum())
        assert num / den <= 0.1
