"""Fast tests of the benchmark's harness, oracles and checks, on small grids.

    python -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import gradflux.bregman
import gradflux.grid
import gradflux.perturb
import gradflux.stability
from gradflux import GridSpec, PoissonSolver, SolverConfig, example1, make_perturbed, primal_energy
from gradflux.grid import ScalarField
from gradflux.levelset import level_set_length
from perfbench import harness, oracles
from perfbench.workloads import (
    CheckFailed,
    Outcome,
    check_clean_solution,
    check_noisy_solution,
    stop_rule_check,
)

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Small grids keep every workload to a second or two; max_iter is cut on the
# noise table so its solves still stop at the cap.
SMALL = {
    "clean-sweep": {"n": 32},
    "noise-table": {"n": 40, "max_iter": 300},
    "postprocess": {"n": 100},
}


def test_energy_oracle_matches_primal_energy():
    n = 16
    p = example1(GridSpec(n))
    u = np.random.default_rng(3).standard_normal((n + 1, n + 1))
    u[[0, -1], :] = u[:, [0, -1]] = 0.0
    mine = oracles.energy(u, *oracles.example1_data(n))
    assert mine == pytest.approx(primal_energy(ScalarField(p.grid, u), p), rel=1e-13)


def test_energy_oracle_rejects_perturbed_u():
    n = 64
    exact = oracles.example1_u(n)
    check_clean_solution(exact)
    x, y = oracles.nodes(n)
    with pytest.raises(CheckFailed, match="energy"):
        check_clean_solution(exact + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    # the exact clean u is no minimizer of a noised energy it does not beat
    noisy = gradflux.perturb.apply_table1_noise(example1(GridSpec(n)), 0.01, 0)
    with pytest.raises(CheckFailed, match="not below"):
        check_noisy_solution(exact, noisy)


def test_stop_rule_rejects_false_convergence():
    grid = GridSpec(100)
    p = example1(grid)
    res = gradflux.bregman.solve(p, SolverConfig(lam=0.25), PoissonSolver(grid))
    assert res.converged and res.iterations == 4
    with pytest.raises(CheckFailed, match="false convergence"):
        stop_rule_check(p, res, max_iter=5000)


def test_drift_oracle_matches_measured_size():
    n = 20
    pp = make_perturbed(example1(GridSpec(n)), "f", 0.1)
    assert pp.measured_sizes["F_l1"] == pytest.approx(oracles.drift_bump_l1(n, 0.1), rel=1e-12)


def test_clipped_circle_oracle():
    assert oracles.clipped_circle_length(0.25) == pytest.approx(np.pi)
    assert oracles.clipped_circle_length(0.5) == pytest.approx(0.0, abs=1e-12)
    v = ScalarField(GridSpec(200), oracles.radial_field(200))
    for t in (0.04, 0.3, 0.45):
        assert level_set_length(v, t) == pytest.approx(oracles.clipped_circle_length(t), abs=2e-3)


def test_run_keeps_the_fastest_call_of_each_position():
    run = harness.Run()
    run.add(Outcome(attempted=2, op_seconds={"solve": [3.0, 1.0]}), 4.0)
    run.add(Outcome(attempted=2, op_seconds={"solve": [2.0, 5.0]}), 7.0)
    assert run.op_fastest() == {"solve": [2.0, 1.0]}
    assert run.op_s() == 1.5


@pytest.mark.parametrize("workload, failed_per_round", [
    ("clean-sweep", 0), ("noise-table", 3), ("postprocess", 0)])
def test_workload_runs_end_to_end(workload, failed_per_round, tmp_path):
    run = harness.Run()
    metrics = harness.measure(workload, 0.0, tmp_path, run, SMALL[workload])
    assert len(run.round_seconds) == 1
    assert run.failed == failed_per_round and run.attempted >= max(run.failed, 1)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


def test_traced_run_reports_every_layer_metric_and_restores_the_program(tmp_path):
    originals = (gradflux.bregman.solve, gradflux.stability.solve,
                 gradflux.grid.gradient, gradflux.grid.ScalarField.__init__)
    run = harness.Run()
    metrics, tracer = harness.measure_traced("clean-sweep", tmp_path, run, SMALL["clean-sweep"])
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["bregman.solve.calls"] == 5
    assert metrics["bregman.certified_solves"] == 5
    # 14 field constructions per iteration plus the 5 of each initial state
    assert metrics["grid.fields_per_iter"] == pytest.approx(14 + 25 / metrics["bregman.iterations"])
    inclusive, summed = tracer.solve_accounting()
    assert summed == pytest.approx(inclusive, rel=1e-9)
    assert (gradflux.bregman.solve, gradflux.stability.solve,
            gradflux.grid.gradient, gradflux.grid.ScalarField.__init__) == originals


def test_layer_units_match_benchmark_file():
    for m in BENCHMARK["per_layer"]:
        assert harness.layer_unit(m["name"]) == m["unit"], m["name"]
    for m in BENCHMARK["end_to_end"]:
        assert harness.END_TO_END_UNITS[m["name"]] == m["unit"], m["name"]
