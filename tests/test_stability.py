import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflux import (
    GridSpec,
    PoissonSolver,
    ScalarField,
    SolverConfig,
    SweepSpec,
    example1,
    fit_rate,
    flux,
    integrate,
    make_perturbed,
    norm,
    run_sweep,
    solve,
    table1_experiment,
)

FAST = SolverConfig(tol=1e-7, max_iter=4000)


class TestFitRate:
    def test_square_root_law(self):
        fit = fit_rate([(1.0, 2.0), (4.0, 4.0)])
        assert fit.slope == pytest.approx(0.5, rel=1e-12)
        assert fit.points_used == 2

    def test_constant_law(self):
        fit = fit_rate([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_law_zero_residual(self):
        fit = fit_rate([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])
        assert fit.slope == pytest.approx(2.0, rel=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="2 points"):
            fit_rate([(1.0, 1.0)])

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(1.0, 0.0), (2.0, 1.0)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(-1.0, 1.0), (2.0, 1.0)])

    @given(
        c=st.floats(0.01, 100.0),
        q=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_exact_power_laws(self, c, q, seed):
        rng = np.random.default_rng(seed)
        eps = sorted(rng.uniform(0.01, 2.0, size=4), reverse=True)
        pts = [(e, c * e**q) for e in eps]
        if len({round(np.log(e), 12) for e in eps}) < 2:
            return
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(q, rel=1e-6, abs=1e-6)


class TestSweepSpec:
    def test_epsilons_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            SweepSpec(param="a", epsilons=(0.01, 0.02))

    def test_empty_epsilons_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(param="a", epsilons=())

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            SweepSpec(param="b", epsilons=(0.1,))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SweepSpec(param="a", epsilons=(0.1,), mode="bogus")

    def test_noise_mode_on_drift_rejected(self):
        with pytest.raises(ValueError, match="param must be a or H"):
            SweepSpec(param="f", epsilons=(0.1,), mode="noise", seeds=(0,))

    def test_noise_mode_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            SweepSpec(param="a", epsilons=(0.1,), mode="noise")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_epsilons_rejected(self, bad):
        with pytest.raises(ValueError, match="epsilons must be nonnegative and finite"):
            SweepSpec(param="a", epsilons=(bad,))
        with pytest.raises(ValueError, match="epsilons must be nonnegative and finite"):
            SweepSpec(param="a", epsilons=(0.04, bad))

    @pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0, -1e-8])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            SweepSpec(param="a", epsilons=(0.02,), eta=eta)

    def test_smooth_bump_on_drift_rejected(self):
        with pytest.raises(ValueError, match="f always moves by the potential bump"):
            SweepSpec(param="f", epsilons=(0.1,), mode="smooth-bump")
        SweepSpec(param="f", epsilons=(0.1,))
        SweepSpec(param="combined", epsilons=(0.1,), mode="smooth-bump")


class TestRunSweepSmall:
    """Cheap structural checks at low resolution; rate assertions live in the
    acceptance suite at n=100."""

    def test_zero_perturbation_identity(self):
        g = GridSpec(16)
        p = example1(g)
        spec = SweepSpec(param="a", epsilons=(0.0,), solver=FAST)
        report = run_sweep(p, spec)
        row = report.rows[0]
        assert row.err_u_l1 == 0.0
        assert row.err_gradu_l1 == 0.0
        assert row.err_sigma_l1 == 0.0
        assert row.err_J_l1 == 0.0
        assert row.energy_diff == 0.0
        assert row.misalignment == 0.0
        assert report.fits["err_u_l1"] is None

    def test_columns_decrease_with_epsilon(self):
        g = GridSpec(24)
        p = example1(g)
        spec = SweepSpec(param="a", epsilons=(0.04, 0.01), solver=FAST)
        report = run_sweep(p, spec)
        by_eps = {r.eps: r for r in report.rows}
        assert by_eps[0.01].err_u_l1 < by_eps[0.04].err_u_l1
        assert by_eps[0.01].err_J_l1 < by_eps[0.04].err_J_l1

    def test_misalignment_nonnegative(self):
        g = GridSpec(20)
        p = example1(g)
        spec = SweepSpec(param="combined", epsilons=(0.05, 0.02), mode="smooth-bump", solver=FAST)
        report = run_sweep(p, spec)
        assert all(r.misalignment >= 0.0 for r in report.rows)

    def test_stochastic_rows_carry_seeds(self):
        g = GridSpec(16)
        p = example1(g)
        spec = SweepSpec(
            param="a", epsilons=(0.05, 0.02), mode="noise", seeds=(0, 1), solver=FAST
        )
        report = run_sweep(p, spec)
        assert [r.seed for r in report.rows] == [0, 1, 0, 1]
        assert all(r.valid for r in report.rows)

    def test_drift_bounds_only_for_conservative_sweeps(self):
        g = GridSpec(16)
        p = example1(g)
        with_f = run_sweep(p, SweepSpec(param="f", epsilons=(0.02,), solver=FAST))
        with_a = run_sweep(p, SweepSpec(param="a", epsilons=(0.02,), solver=FAST))
        assert {b.name for b in with_f.bounds} == {
            "energy_vs_drift",
            "misalignment_vs_drift",
            "flux_vs_drift_sqrt",
        }
        assert with_a.bounds == []

    def test_rows_carry_sigma1_and_only_measured_sizes(self):
        g = GridSpec(16)
        p = example1(g)
        poisson = PoissonSolver(g)
        spec = SweepSpec(
            param="a", epsilons=(0.05, 0.02), mode="noise", seeds=(0, 1), solver=FAST
        )
        report = run_sweep(p, spec, poisson)
        base_max = flux(report.base_result.state.u, p, spec.eta).sigma.values.max()
        for row in report.rows:
            pp = make_perturbed(p, "a", row.eps, "noise", row.seed)
            assert row.measured_sizes == pp.measured_sizes
            u1 = solve(pp.perturbed, FAST, poisson).state.u
            row_max = flux(u1, pp.perturbed, spec.eta).sigma.values.max()
            assert row.sigma1 == max(base_max, row_max)
        assert report.sigma1_est == max(r.sigma1 for r in report.rows)

    def test_reuses_supplied_base_solve(self):
        g = GridSpec(16)
        p = example1(g)
        poisson = PoissonSolver(g)
        base = solve(p, FAST, poisson)
        report = run_sweep(p, SweepSpec(param="a", epsilons=(0.02,), solver=FAST), poisson, base=base)
        assert report.base_result is base


def test_conservative_drift_sweep_matches_closed_form():
    """The f sweep adds eps * grad_h(bump) to the drift, bump = sin(pi x) sin(pi y).

    grad_h is linear and bump vanishes on the boundary, so the perturbed grid
    minimizer is exactly u0 - eps * bump, with J and sigma unchanged.  On this
    sweep err_u_l1 and energy_diff have closed forms, and err_J_l1,
    err_sigma_l1 and misalignment are stop error, not a stability response.
    Measured at n=24: relative deviations up to 8.8e-7 (err_u_l1) and 6.1e-6
    (energy_diff); err_J_l1 and err_sigma_l1 at most 5.1e-5 and 8.6e-4 of
    err_u_l1; misalignment at most 2.8e-12.  Each bound keeps a 10x margin.
    """
    g = GridSpec(24)
    p = example1(g)
    report = run_sweep(p, SweepSpec(param="f", epsilons=(0.04, 0.02, 0.01, 0.005)))
    x, y = g.meshgrid()
    bump = ScalarField(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    bump_l1 = norm(bump, "l1")
    h_bump = abs(integrate(ScalarField(g, p.H.values * bump.values)))
    assert [r.eps for r in report.rows] == [0.04, 0.02, 0.01, 0.005]
    for row in report.rows:
        assert row.valid
        assert row.err_u_l1 == pytest.approx(row.eps * bump_l1, rel=1e-3)
        assert row.energy_diff == pytest.approx(row.eps * h_bump, rel=1e-3)
        assert row.err_J_l1 <= 1e-3 * row.err_u_l1
        assert row.err_sigma_l1 <= 1e-2 * row.err_u_l1
        assert row.misalignment <= 1e-9


class TestTable1Small:
    def test_structure_and_determinism(self):
        cfg = SolverConfig(tol=1e-7, max_iter=300)
        r1 = table1_experiment(cfg, seeds=(0, 1), n=16, deltas=(0.05,))
        r2 = table1_experiment(cfg, seeds=(0, 1), n=16, deltas=(0.05,))
        assert not r1.replication
        assert len(r1.rows) == 2
        assert [r.seed for r in r1.rows] == [0, 1]
        for a, b in zip(r1.rows, r2.rows):
            assert a == b  # frozen dataclass equality is bitwise on floats

    def test_single_seed_replays_row(self):
        cfg = SolverConfig(tol=1e-7, max_iter=300)
        full = table1_experiment(cfg, seeds=(0, 1, 2), n=16, deltas=(0.05,))
        replay = table1_experiment(cfg, seeds=(1,), n=16, deltas=(0.05,))
        target = [r for r in full.rows if r.seed == 1][0]
        assert replay.rows[0] == target

    def test_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            table1_experiment(SolverConfig(), seeds=(), n=16)
