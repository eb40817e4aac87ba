from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradflux.stability
from gradflux import (
    GridSpec,
    PoissonSolver,
    ProblemDataError,
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
from gradflux.stability import BOUND_SLACK, RATE_EXPONENTS, SLOPE_THRESHOLDS, SWEEP_COLUMNS

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

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be distinct"):
            SweepSpec(param="a", epsilons=(0.1,), mode="noise", seeds=(1, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_epsilons_rejected(self, bad):
        with pytest.raises(ValueError, match="epsilons must be nonnegative and finite"):
            SweepSpec(param="a", epsilons=(bad,))
        with pytest.raises(ValueError, match="epsilons must be nonnegative and finite"):
            SweepSpec(param="a", epsilons=(0.04, bad))

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
        base_max = flux(solve(p, FAST, poisson).state.u, p).sigma.values.max()
        for row in report.rows:
            pp = make_perturbed(p, "a", row.eps, "noise", row.seed)
            assert row.measured_sizes == pp.measured_sizes
            u1 = solve(pp.perturbed, FAST, poisson).state.u
            row_max = flux(u1, pp.perturbed).sigma.values.max()
            assert row.sigma1 == max(base_max, row_max)
            diff = u1 - p.exact_u
            assert row.rel_l2 == norm(diff, "l2") / norm(p.exact_u, "l2")
            assert row.max_err == norm(diff, "linf")
        assert report.sigma1_est == max(r.sigma1 for r in report.rows)

    def test_reuses_supplied_base_solve(self, monkeypatch, same_row):
        g = GridSpec(16)
        p = example1(g)
        poisson = PoissonSolver(g)
        spec = SweepSpec(param="a", epsilons=(0.02,), solver=FAST)
        base = solve(p, FAST, poisson)
        calls = []

        def counting_solve(*args):
            calls.append(args[0])
            return solve(*args)

        monkeypatch.setattr(gradflux.stability, "solve", counting_solve)
        with_base = run_sweep(p, spec, poisson, base=base)
        assert [q is p for q in calls] == [False]
        calls.clear()
        without_base = run_sweep(p, spec, poisson)
        assert [q is p for q in calls] == [True, False]
        assert len(with_base.rows) == 1 and same_row(with_base.rows[0], without_base.rows[0])


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


def test_report_numbers_follow_their_formulas(monkeypatch):
    """Every fit, shape and bound value of an f sweep, recomputed from its rows
    with the formulas of the module docstring.  The eps = 0.02 solve stops at
    30 iterations and reports converged=False: it enters sigma1_est, and no
    fit, shape or bound; the bound constants read the rows their ratios read."""
    g = GridSpec(16)
    p = example1(g)
    poisson = PoissonSolver(g)
    base = solve(p, FAST, poisson)

    def capped_at_002(instance, cfg, poisson):
        if not instance.name.endswith("eps = 0.02"):
            return solve(instance, cfg, poisson)
        return replace(solve(instance, replace(cfg, max_iter=30), poisson), converged=False)

    monkeypatch.setattr(gradflux.stability, "solve", capped_at_002)
    spec = SweepSpec(param="f", epsilons=(0.04, 0.02, 0.01), solver=FAST)
    report = run_sweep(p, spec, poisson, base=base)
    rows = report.rows
    assert [(r.eps, r.valid) for r in rows] == [(0.04, True), (0.02, False), (0.01, True)]
    capped, valid = rows[1], [rows[0], rows[2]]

    def close(x):
        return pytest.approx(x, rel=1e-12, abs=0)

    for col in SWEEP_COLUMNS:  # least squares on (log eps, log v) over the converged rows
        x = np.log([r.eps for r in valid])
        y = np.log([getattr(r, col) for r in valid])
        slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
        fit = report.fits[col]
        assert (fit.slope, fit.intercept) == (close(slope), close(y.mean() - slope * x.mean()))
        assert fit.points_used == 2  # the capped row is not a point
    for col, q in RATE_EXPONENTS.items():
        (e_large, v_large), (e_small, v_small) = [(r.eps, getattr(r, col)) for r in valid]
        shape = report.shapes[col]
        assert shape.slope == close(report.fits[col].slope)
        assert shape.slope_ok == (shape.slope >= SLOPE_THRESHOLDS[q] - 1e-12)
        assert shape.ratio == close((v_small / e_small**q) / (v_large / e_large**q))
        assert shape.ratio_ok == (shape.ratio <= 1.5)
        assert shape.non_increasing == (v_small <= v_large + 1e-15)

    # sigma1_est reads every row, and the capped row holds its largest sigma1;
    # the bound constants take theirs from the converged rows
    sigma1, M = max(r.sigma1 for r in valid), p.M
    assert report.sigma1_est == max(r.sigma1 for r in rows) == capped.sigma1 > sigma1
    formulas = {
        "energy_vs_drift": (M, lambda r, dF: r.energy_diff / (M * dF)),
        "misalignment_vs_drift": (
            2 * M * sigma1,
            lambda r, dF: r.misalignment / (2 * M * r.sigma1 * dF),
        ),
        "flux_vs_drift_sqrt": (
            np.sqrt(4 * M * sigma1),
            lambda r, dF: r.err_J_l1 / np.sqrt(4 * M * r.sigma1 * dF),
        ),
    }
    assert [b.name for b in report.bounds] == list(formulas)
    for b in report.bounds:
        constant, ratio = formulas[b.name]
        worst = max(ratio(r, r.measured_sizes["F_l1"]) for r in valid)
        assert (b.constant, b.max_ratio) == (close(constant), close(worst))
        assert b.holds == (b.max_ratio <= 1 + BOUND_SLACK)
        if b.name != "energy_vs_drift":  # the capped row would have raised these two
            assert ratio(capped, capped.measured_sizes["F_l1"]) > 10 * b.max_ratio


class TestTable1Small:
    def test_structure_and_determinism(self, same_row):
        cfg = SolverConfig(tol=1e-7, max_iter=300)
        r1 = table1_experiment(cfg, seeds=(0, 1), n=16, deltas=(0.05,))
        r2 = table1_experiment(cfg, seeds=(0, 1), n=16, deltas=(0.05,))
        assert len(r1) == 2
        assert [r.seed for r in r1] == [0, 1]
        for a, b in zip(r1, r2):
            assert same_row(a, b)  # == on every value is bitwise on floats
        for r in r1:  # no base: the fields measured against one are nan
            base_fields = (*SWEEP_COLUMNS, "excluded_fraction", "sigma1")
            assert all(np.isnan(getattr(r, c)) for c in base_fields)
            assert r.measured_sizes == {} and 0 < r.rel_l2 and 0 < r.max_err < np.inf

    def test_single_seed_replays_row(self, same_row):
        cfg = SolverConfig(tol=1e-7, max_iter=300)
        full = table1_experiment(cfg, seeds=(0, 1, 2), n=16, deltas=(0.05,))
        replay = table1_experiment(cfg, seeds=(1,), n=16, deltas=(0.05,))
        target = [r for r in full if r.seed == 1][0]
        assert same_row(replay[0], target)

    def test_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            table1_experiment(SolverConfig(), seeds=(), n=16)

    def test_bad_instance_rejected_before_first_solve(self, monkeypatch):
        # delta = 0.5 pushes the n=16 weight below zero; delta = 0.01 comes first
        def no_solve(*args, **kwargs):
            pytest.fail("table1 solved before building every noised instance")

        monkeypatch.setattr(gradflux.stability, "solve", no_solve)
        with pytest.raises(ProblemDataError, match="minimum is -1.03287"):
            table1_experiment(SolverConfig(), seeds=(0,), n=16, deltas=(0.01, 0.5))
