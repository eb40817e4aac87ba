import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradflux import (
    GridSpec,
    PoissonSolver,
    ProblemData,
    ScalarField,
    SolverConfig,
    SolverState,
    VectorField,
    apply_table1_noise,
    certify,
    divergence,
    example1,
    flux,
    gradient,
    inner,
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
        b = VectorField(ScalarField.full(g, 3.0), ScalarField.full(g, 4.0))
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
        F = VectorField(ScalarField(g, x + 1.0), ScalarField(g, y - 2.0))
        minus_F = VectorField(ScalarField(g, -F.x.values), ScalarField(g, -F.y.values))
        out = shrink_step(minus_F, VectorField.zeros(g), F, ScalarField.full(g, 1.0), 1.0)
        assert np.array_equal(out.x.values, -F.x.values)
        assert np.array_equal(out.y.values, -F.y.values)

    def test_clamp_case_returns_minus_drift(self):
        # |s| <= a/lam with s nonzero collapses to -F through the max(..., 0)
        g = GridSpec(4)
        b = VectorField(ScalarField.full(g, 0.3), ScalarField.full(g, 0.4))
        F = VectorField(ScalarField.full(g, 0.1), ScalarField.zeros(g))
        out = shrink_step(b, VectorField.zeros(g), F, ScalarField.full(g, 10.0), 1.0)
        assert np.array_equal(out.x.values, -F.x.values)
        assert np.array_equal(out.y.values, -F.y.values)

    def test_lambda_scales_threshold(self):
        g = GridSpec(4)
        b = VectorField(ScalarField.full(g, 3.0), ScalarField.full(g, 4.0))
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
            return VectorField(ScalarField.full(g, size), ScalarField.full(g, size))

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
            VectorField(ScalarField(g, vx), ScalarField(g, vy))
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
            F=VectorField(*(ScalarField(g, c) for c in rng.standard_normal((2,) + g.shape))),
            H=ScalarField(g, rng.standard_normal(g.shape)),
        )
        b, d = (
            VectorField(*(ScalarField(g, c) for c in rng.standard_normal((2,) + g.shape)))
            for _ in range(2)
        )
        state = SolverState(u=ScalarField(g, rng.standard_normal(g.shape)), b=b, d=d)
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

    def test_homogeneous_fixed_point_at_zero(self):
        p = homogeneous_problem()
        state = SolverState.initial(p.grid)
        new = iterate(state, p, SolverConfig(), PoissonSolver(p.grid))
        assert np.all(new.u.values == 0.0)
        assert np.all(new.d.x.values == 0.0)
        assert np.all(new.b.x.values == 0.0)

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
            F=VectorField(ScalarField.full(g, 1.0), ScalarField(g, x + y)),
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
        assert solved100.iterations == solved100.history[-1][0] == 1449

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


def lam_b(state, lam):
    """The solver's dual iterate J = lam b."""
    b, g = state.b, state.b.grid
    return VectorField(ScalarField(g, lam * b.x.values), ScalarField(g, lam * b.y.values))


def dual_measures(u, J, p):
    """(P_h, gap_h, |div J - H|_L1, max(|J| - a)) with the h^2 all-node pairing,
    under which gradient and divergence are exact adjoints; gap_h = P_h(u) - <F, J>_h."""
    g = gradient(u)
    gx, gy = g.x.values + p.F.x.values, g.y.values + p.F.y.values
    primal = p.grid.h ** 2 * (p.a.values * np.hypot(gx, gy) + p.H.values * u.values).sum()
    excess = (np.hypot(J.x.values, J.y.values) - p.a.values).max()
    return primal, primal - inner(p.F, J), norm(divergence(J) - p.H, "l1"), excess


def dual_certified(u, J, p):
    """Whether J certifies u: |gap_h| <= 1e-6 P_h, |div J - H|_L1 <= 1e-5 |H|_L1
    and |J| <= a."""
    primal, gap, residual, excess = dual_measures(u, J, p)
    return abs(gap) <= 1e-6 * primal and residual / norm(p.H, "l1") <= 1e-5 and excess <= 1e-12


@st.composite
def weak_duality_draws(draw):
    """A grid with n = 3..11, a in [0.1, 10], F, H, J0 and a w that vanishes
    on the boundary, each component in [-10, 10]."""
    g = GridSpec(draw(st.integers(3, 11)))

    def values(lo, hi):
        floats = st.floats(lo, hi, allow_subnormal=False)
        return draw(hnp.arrays(np.float64, g.shape, elements=floats))

    a = ScalarField(g, values(0.1, 10.0))
    F, J0 = (
        VectorField(ScalarField(g, values(-10, 10)), ScalarField(g, values(-10, 10)))
        for _ in range(2)
    )
    H, w = values(-10, 10), values(-10, 10)
    w[[0, -1], :] = 0.0
    w[:, [0, -1]] = 0.0
    return g, a, F, ScalarField(g, H), J0, ScalarField(g, w)


def drift_gradient(w, F):
    """The components of grad w + F and their pointwise magnitude."""
    g = gradient(w)
    gx, gy = g.x.values + F.x.values, g.y.values + F.y.values
    return gx, gy, np.hypot(gx, gy)


@given(weak_duality_draws())
@settings(max_examples=200, deadline=None)
def test_weak_duality_is_an_equality_at_the_pointwise_flux(draw):
    # J = a (grad w + F) / |grad w + F| and H := div J make w a minimizer
    # certified by J: <grad w + F, J>_h = A_h(w) and <grad w, J>_h = -<w, H>_h,
    # so P_h(w) = <F, J>_h in the h^2 all-node pairing (6e-16 of the scale
    # at most over 3000 draws)
    g, a, F, _, _, w = draw
    gx, gy, mag = drift_gradient(w, F)
    ux = np.divide(gx, mag, out=np.zeros_like(mag), where=mag > 0)
    uy = np.divide(gy, mag, out=np.zeros_like(mag), where=mag > 0)
    J = VectorField(ScalarField(g, a.values * ux), ScalarField(g, a.values * uy))
    p = ProblemData(g, a=a, F=F, H=divergence(J))
    _, gap, _, _ = dual_measures(w, J, p)
    scale = g.h ** 2 * (a.values * mag + np.abs(p.H.values * w.values)).sum()
    assert abs(gap) <= 1e-13 * scale


@given(weak_duality_draws())
@settings(max_examples=200, deadline=None)
def test_weak_duality_bounds_the_pairing_of_a_repaired_flux(draw):
    # J = J0 + grad phi with div grad phi = H - div J0 has div J = H at the
    # interior nodes, where w lives; with |J| <= (1 + eps) a,
    # <F, J>_h = <grad w + F, J>_h + <H, w>_h <= P_h(w) + eps A_h(w)
    g, a, F, H, J0, w = draw
    J = J0 + gradient(PoissonSolver(g).solve_dirichlet(H - divergence(J0)))
    p = ProblemData(g, a=a, F=F, H=H)
    primal, _, residual, _ = dual_measures(w, J, p)
    assert residual <= 1e-13 * (1.0 + norm(H - divergence(J0), "l1"))
    _, _, mag = drift_gradient(w, F)
    j = np.hypot(J.x.values, J.y.values)
    eps = max((j / a.values).max() - 1.0, 0.0)
    area = g.h ** 2 * (a.values * mag).sum()
    pairs = j * (mag + np.hypot(F.x.values, F.y.values)) + np.abs(H.values * w.values)
    scale = g.h ** 2 * pairs.sum()
    assert inner(F, J) - eps * area <= primal + 1e-13 * scale


def pdhg_oracle(p, max_iter=50_000):
    """Chambolle-Pock primal-dual iteration (Chambolle & Pock 2011) on the
    saddle problem min_u max_{|J| <= a} <grad u + F, J>_h + <H, u>_h with
    u = 0 on the boundary, on the package's gradient/divergence pair.  Steps
    tau = sigma = 0.99 h / sqrt(8), so tau sigma |gradient|^2 < 1.  Returns u
    at the first multiple of 100 iterations where (u, J) is certified."""
    g = p.grid
    tau = sigma = 0.99 * g.h / np.sqrt(8.0)
    a, H = p.a.values, p.H.values
    u, ubar, jx, jy = (np.zeros(g.shape) for _ in range(4))
    for k in range(1, max_iter + 1):
        gu = gradient(ScalarField(g, ubar))
        jx += sigma * (gu.x.values + p.F.x.values)
        jy += sigma * (gu.y.values + p.F.y.values)
        scale = a / np.maximum(np.hypot(jx, jy), a)  # projection onto |J| <= a
        jx *= scale
        jy *= scale
        J = VectorField(ScalarField(g, jx), ScalarField(g, jy))
        u_new = u + tau * (divergence(J).values - H)
        u_new[[0, -1], :] = 0.0
        u_new[:, [0, -1]] = 0.0
        ubar = 2.0 * u_new - u
        u = u_new
        if k % 100 == 0 and dual_certified(ScalarField(g, u), J, p):
            return ScalarField(g, u)
    raise AssertionError(f"PDHG did not certify within {max_iter} iterations")


def test_split_bregman_and_pdhg_certify_the_same_noised_minimizer():
    # a criterion-1 instance at small n; iterate is driven directly because
    # solve's relative-change rule stops this lambda = 0.25 run after 4 sweeps,
    # even at tol = 1e-14
    p = apply_table1_noise(example1(GridSpec(24)), 0.035, 0)
    cfg = SolverConfig(lam=0.25)
    poisson = PoissonSolver(p.grid)
    state = SolverState.initial(p.grid)
    for _ in range(50):
        for _ in range(100):
            state = iterate(state, p, cfg, poisson)
        if dual_certified(state.u, lam_b(state, cfg.lam), p):
            break
    else:
        pytest.fail("split Bregman did not certify within 5000 iterations")
    u_pdhg = pdhg_oracle(p)
    assert norm(state.u - u_pdhg, "l2") <= 1e-3 * norm(u_pdhg, "l2")
    # the sigma-flux certificate of that minimizer misses criterion 2's
    # thresholds (el_residual_l1 / |H|_L1 = 5.09 and |gap| / primal = 0.044
    # as measured), while lambda b meets them (|gap_h| / P_h = 2.3e-8)
    cert, h_l1 = certify(state.u, p), norm(p.H, "l1")
    assert cert.el_residual_l1 > 5e-2 * h_l1 and abs(cert.gap) > 2e-2 * cert.primal
    primal, gap, residual, excess = dual_measures(state.u, lam_b(state, cfg.lam), p)
    assert abs(gap) <= 2e-2 * primal and residual <= 5e-2 * h_l1 and excess <= 1e-10


def test_criterion_1_instances_certify_above_their_bands(prob100, psolver100):
    # criterion 1's seed-0 instances, lambda-b-certified at lambda = 0.25 (3950,
    # 1950 and 1850 iterations as measured): their exact discrete minimizers
    # lie above each band's upper edge, 1.5 x the reference mean, so the
    # criterion's failure is the experiment's, not the solver's stop
    upper = {0.01: 1.5 * 0.0260, 0.035: 1.5 * 0.0978, 0.06: 1.5 * 0.1718}
    cfg = SolverConfig(lam=0.25)
    exact = prob100.exact_u
    for delta, edge in upper.items():
        p = apply_table1_noise(prob100, delta, 0)
        state = SolverState.initial(p.grid)
        for _ in range(100):
            for _ in range(50):
                state = iterate(state, p, cfg, psolver100)
            if dual_certified(state.u, lam_b(state, cfg.lam), p):
                break
        else:
            pytest.fail(f"delta = {delta}: lambda b did not certify within 5000 iterations")
        assert norm(state.u - exact, "l2") / norm(exact, "l2") > edge


@pytest.mark.parametrize(
    "n, lam, delta, iterations",
    [(50, 0.2, 0.0, 100), (50, 0.2, 0.01, 1500), (100, 0.1, 0.0, 150), (100, 0.1, 0.01, 1550)],
)
def test_iterations_to_lambda_b_certificate_at_lambda_10h(n, lam, delta, iterations):
    # lambda = 10 h certifies example1 and its seed-0 noised instances within
    # these counts (multiples of 50); delta = 0.035 / 0.06 took 950 / 950 at
    # n = 50 and 1050 / 1150 at n = 100 as measured.  A change to the
    # iteration or to the choice of lambda must keep them.
    p = example1(GridSpec(n))
    if delta:
        p = apply_table1_noise(p, delta, 0)
    cfg = SolverConfig(lam=lam)
    poisson = PoissonSolver(p.grid)
    state = SolverState.initial(p.grid)
    for k in range(50, iterations + 1, 50):
        for _ in range(50):
            state = iterate(state, p, cfg, poisson)
        if dual_certified(state.u, lam_b(state, lam), p):
            break
    assert k == iterations and dual_certified(state.u, lam_b(state, lam), p)


@pytest.mark.parametrize(
    "lam",
    [
        1.0,
        pytest.param(
            0.25,
            marks=pytest.mark.xfail(
                strict=True, reason="ROADMAP item 3: the relative-change rule stops at k = 4"
            ),
        ),
    ],
)
def test_converged_solve_is_lambda_b_certified(lam, prob100, psolver100, solved100):
    # lam = 1 is the reference solve: it stops at 1449 with |gap_h| = 3.2e-11
    # and |div lam b - H|_L1 = 6.3e-6; lam = 0.25 stops at k = 4 with
    # |gap_h| / P_h = 4.0e-3 and still reports converged
    res = solved100 if lam == 1.0 else solve(prob100, SolverConfig(lam=lam), psolver100)
    assert res.converged
    assert dual_certified(res.state.u, lam_b(res.state, lam), prob100)


def heisenberg(n):
    """The p-area of a graph over the square in the Heisenberg group (Cheng,
    Hwang, Malchiodi & Yang 2005), centred: a = 1, F = (-(y - 1/2), x - 1/2),
    H = 0.  F vanishes at the centre, the characteristic point."""
    g = GridSpec(n)
    x, y = g.meshgrid()
    F = VectorField(ScalarField(g, 0.5 - y), ScalarField(g, x - 0.5))
    return ProblemData(g, a=ScalarField.full(g, 1.0), F=F, H=ScalarField.zeros(g))


def test_heisenberg_p_area_certifies_from_lambda_b_but_not_from_sigma():
    # u = 0 is the continuum minimizer and J = F/|F| certifies it: |J| = 1 and
    # div J = 0; its energy is the mean distance to the centre
    exact = (np.sqrt(2.0) + np.log1p(np.sqrt(2.0))) / 6.0  # 0.382598
    cfg = SolverConfig(lam=0.25)
    errors = {}
    for n, expected_iterations in ((32, 300), (64, 600)):
        p = heisenberg(n)
        poisson = PoissonSolver(p.grid)
        state = SolverState.initial(p.grid)
        for _ in range(2 * expected_iterations // 100):
            for _ in range(100):
                state = iterate(state, p, cfg, poisson)
            # H = 0, so the divergence residual is bounded relative to P_h
            primal, gap, residual, excess = dual_measures(state.u, lam_b(state, cfg.lam), p)
            if abs(gap) <= 1e-6 * primal and residual <= 1e-5 * primal and excess <= 1e-12:
                break
        else:
            pytest.fail(f"lambda b did not certify within {2 * expected_iterations} iterations")
        errors[n] = primal - exact
        if n == 32:
            # sigma = a / |grad u + F| is not the dual near the characteristic point
            cert = certify(state.u, p)
            assert cert.el_residual_l1 == pytest.approx(0.39, abs=0.02)
            assert cert.el_residual_l1 > 1e4 * residual
    assert errors[32] == pytest.approx(0.0367, abs=5e-4)
    assert 0.45 <= errors[64] / errors[32] <= 0.55  # first order in h


def test_readme_library_quick_start(capsys, prob100, solved100):
    # the README's snippet runs against the current API and prints the
    # reference solve's count, error and certificate
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    err = norm(solved100.state.u - prob100.exact_u, "l2")
    cert = certify(solved100.state.u, prob100)
    assert capsys.readouterr().out == f"{solved100.iterations} {err}\n{cert.as_text()}\n"
