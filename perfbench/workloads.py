"""The benchmark's workloads: set-up, one timed round, and the checks on a round.

Every workload drives example1, whose minimizer u = x y (1-x) (1-y) and
energy 79/36 are known in closed form.  A round is always the same sequence
of operations, so the share of failed operations is the same in every run.
Checks compare the program's outputs with ``oracles`` or with properties any
correct output must have, and raise ``CheckFailed`` when one is violated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gradflux.bregman
import gradflux.cli
import gradflux.duality
import gradflux.fieldio
import gradflux.perturb
import gradflux.stability
from gradflux.bregman import SolverConfig
from gradflux.grid import GridSpec, ScalarField
from gradflux.poisson import PoissonSolver
from gradflux.problems import example1
from gradflux.stability import SweepSpec

from . import oracles

LAM, TOL, MAX_ITER = 1.0, 1e-7, 5000
EPSILONS = (0.04, 0.02, 0.01, 0.005)
DELTAS = (0.01, 0.035, 0.06)
# The noise-table solves are counted as failed (they stop at max_iter
# uncertified), and a counted failure must not depend on the run's seed, so
# the instance is fixed at replication-table seed 0.
NOISE_SEED = 0

# Acceptance-criterion-2 thresholds of a certified solve.
GAP_REL, EL_REL, FLUX_VIOLATION, PRIMAL_REL = 2e-2, 5e-2, 1e-10, 1e-2
# Agreement demanded between a program value and its oracle recomputation.
SAME = 1e-9


class CheckFailed(Exception):
    """A program output violated a correctness check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def same(value: float, reference: float, what: str) -> None:
    require(abs(value - reference) <= SAME * max(abs(reference), 1.0),
            f"{what}: program {value!r} vs oracle {reference!r}")


@dataclass
class Outcome:
    """What one round did: operations attempted and failed, certified solves,
    and the seconds of each call by operation kind."""

    attempted: int = 0
    failed: int = 0
    certified: int = 0
    op_seconds: dict[str, list[float]] = field(default_factory=dict)


def certificate_passes(cert, H_values: np.ndarray) -> bool:
    n = H_values.shape[0] - 1
    return (abs(cert.gap) / cert.primal <= GAP_REL
            and cert.el_residual_l1 / oracles.interior_l1(H_values, n) <= EL_REL
            and cert.flux_bound_violation <= FLUX_VIOLATION)


def stop_rule_check(p, res, max_iter: int) -> bool:
    """True for a certified solve, False for one that ran to max_iter uncertified.

    A solve that stopped early without passing the certificate is a false
    convergence and raises.
    """
    cert = gradflux.duality.certify(res.state.u, p)
    if certificate_passes(cert, p.H.values):
        return True
    require(res.iterations == max_iter,
            f"false convergence on {p.name}: stopped after {res.iterations} of {max_iter} "
            f"iterations with gap {cert.gap:.3e}, el_residual_l1 {cert.el_residual_l1:.3e}")
    return False


def _judge_solves(calls, max_iter: int, out: Outcome) -> None:
    for p, res, seconds in calls:
        out.attempted += 1
        if stop_rule_check(p, res, max_iter):
            out.certified += 1
        else:
            out.failed += 1
        out.op_seconds.setdefault("solve", []).append(seconds)


def _solver_setup(n: int):
    grid = GridSpec(n)
    p = example1(grid)
    solver = PoissonSolver(grid)
    solver.solve_dirichlet(ScalarField.zeros(grid))  # builds the DST eigenvalue table
    return p, solver


def check_example1_data(p) -> None:
    n = p.grid.n
    for name, mine, ref in zip(("a", "F.x", "F.y", "H"),
                               (p.a.values, p.F.x.values, p.F.y.values, p.H.values),
                               oracles.example1_data(n)):
        require(np.abs(mine - ref).max() <= 1e-12, f"example1 {name} differs from its closed form")


def check_clean_solution(u: np.ndarray) -> None:
    """The clean example1 solve reproduces the closed-form u and energy 79/36."""
    n = u.shape[0] - 1
    e = oracles.energy(u, *oracles.example1_data(n))
    require(abs(e - oracles.EXAMPLE1_ENERGY) <= PRIMAL_REL * oracles.EXAMPLE1_ENERGY,
            f"clean solve energy {e!r} not within 1e-2 of 79/36")
    rel = oracles.relative_l2(u, oracles.example1_u(n))
    require(rel <= 1e-3, f"clean solve relative L2 error {rel:.3e} > 1e-3")


class CleanSweep:
    """One clean solve, then a drift sweep anchored on it: the converging path."""

    name = "clean-sweep"

    def __init__(self, n: int = 100, max_iter: int = MAX_ITER):
        self.n = n
        self.cfg = SolverConfig(lam=LAM, tol=TOL, max_iter=max_iter)

    def setup(self, workdir: Path) -> None:
        self.p, self.solver = _solver_setup(self.n)

    def round(self):
        base = gradflux.bregman.solve(self.p, self.cfg, self.solver)
        spec = SweepSpec(param="f", epsilons=EPSILONS, solver=self.cfg)
        return gradflux.stability.run_sweep(self.p, spec, self.solver, base=base)

    def check(self, report, calls) -> Outcome:
        check_example1_data(self.p)
        require(len(calls) == 1 + len(EPSILONS), f"expected {1 + len(EPSILONS)} solves, saw {len(calls)}")
        out = Outcome()
        _judge_solves(calls, self.cfg.max_iter, out)
        u0 = calls[0][1].state.u.values
        check_clean_solution(u0)
        cert = gradflux.duality.certify(calls[0][1].state.u, self.p)
        require(certificate_passes(cert, self.p.H.values)
                and abs(cert.primal - oracles.EXAMPLE1_ENERGY) <= PRIMAL_REL * oracles.EXAMPLE1_ENERGY,
                f"clean solve certificate outside criterion 2: {cert}")

        n = self.n
        a, fx, fy, H = oracles.example1_data(n)
        M = float(a.max())
        x, y = oracles.nodes(n)
        bx, by = oracles.forward_gradient(np.sin(np.pi * x) * np.sin(np.pi * y), n)
        e0 = oracles.energy(u0, a, fx, fy, H)
        require([r.eps for r in report.rows] == list(EPSILONS), "sweep rows out of order")
        for row, (pp, res, _) in zip(report.rows, calls[1:]):
            require(row.valid, f"sweep row eps={row.eps} did not converge")
            Fx, Fy = fx + row.eps * bx, fy + row.eps * by
            require(max(np.abs(pp.F.x.values - Fx).max(), np.abs(pp.F.y.values - Fy).max()) <= 1e-12,
                    f"perturbed drift at eps={row.eps} differs from F + eps grad(bump)")
            dF = oracles.drift_bump_l1(n, row.eps)
            same(row.measured_sizes["F_l1"], dF, f"|F - F~|_L1 at eps={row.eps}")
            same(row.energy_diff, abs(e0 - oracles.energy(res.state.u.values, a, Fx, Fy, H)),
                 f"energy_diff at eps={row.eps}")
            require(row.energy_diff <= 1.1 * M * dF,
                    f"energy bound violated at eps={row.eps}: {row.energy_diff:.3e} > 1.1 M |dF|")
        errs = [r.err_u_l1 for r in report.rows]
        require(all(b <= a_ for a_, b in zip(errs, errs[1:])),
                f"err_u_l1 increases as eps decreases: {errs}")
        return out


def check_noisy_solution(u: np.ndarray, noisy) -> float:
    """A computed minimizer of the noised energy vanishes on the boundary, is
    finite and has a lower energy than the exact clean u; returns rel L2 error."""
    n = u.shape[0] - 1
    require(np.all(np.isfinite(u)), f"{noisy.name}: solution is not finite")
    edge = np.concatenate([u[0], u[-1], u[:, 0], u[:, -1]])
    require(not edge.any(), f"{noisy.name}: solution does not vanish on the boundary")
    data = (noisy.a.values, noisy.F.x.values, noisy.F.y.values, noisy.H.values)
    exact = oracles.example1_u(n)
    e_u, e_exact = oracles.energy(u, *data), oracles.energy(exact, *data)
    require(e_u < e_exact, f"{noisy.name}: E_noisy(u) = {e_u!r} is not below E_noisy(u_exact) = {e_exact!r}")
    return oracles.relative_l2(u, exact)


def check_noise_level(noisy, delta: float) -> None:
    """Each noised field moves by exactly delta in relative Frobenius norm."""
    a, fx, fy, H = oracles.example1_data(noisy.grid.n)
    for name, mine, ref in (("H", noisy.H.values, H), ("a", noisy.a.values, a),
                            ("F", np.stack([noisy.F.x.values, noisy.F.y.values]), np.stack([fx, fy]))):
        same(np.linalg.norm(mine - ref) / np.linalg.norm(ref), delta, f"noise level of {name}")


class NoiseTable:
    """The noise-robustness table for one noise seed, one instance per delta."""

    name = "noise-table"

    def __init__(self, n: int = 100, max_iter: int = MAX_ITER):
        self.n = n
        self.cfg = SolverConfig(lam=LAM, tol=TOL, max_iter=max_iter)

    def setup(self, workdir: Path) -> None:
        p, self.solver = _solver_setup(self.n)
        self.instances = [gradflux.perturb.apply_table1_noise(p, d, NOISE_SEED) for d in DELTAS]

    def round(self):
        return [gradflux.bregman.solve(q, self.cfg, self.solver) for q in self.instances]

    def check(self, results, calls) -> Outcome:
        require(len(calls) == len(DELTAS), f"expected {len(DELTAS)} solves, saw {len(calls)}")
        out = Outcome()
        _judge_solves(calls, self.cfg.max_iter, out)
        rel = []
        for delta, q, res in zip(DELTAS, self.instances, results):
            check_noise_level(q, delta)
            rel.append(check_noisy_solution(res.state.u.values, q))
        require(all(b > a for a, b in zip(rel, rel[1:])), f"rel_l2 not increasing in delta: {rel}")
        return out


def read_certificate(path: Path) -> dict[str, float]:
    pairs = (line.split(" = ") for line in path.read_text().splitlines() if line)
    return {k: float(v) for k, v in pairs}


def read_contour(path: Path) -> list[tuple[float, float]]:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")]
    return [(float(t), float(length)) for t, length in rows]


class Postprocess:
    """CLI certify and contour on n=400 field files; the solver does no work."""

    name = "postprocess"

    def __init__(self, n: int = 400):
        self.n = n

    def setup(self, workdir: Path) -> None:
        grid = GridSpec(self.n)
        self.u_file = workdir / "u_exact.field"
        self.radial_file = workdir / "radial.field"
        gradflux.fieldio.write_field(ScalarField(grid, oracles.example1_u(self.n)), self.u_file,
                                     kind="u", problem="example1")
        gradflux.fieldio.write_field(ScalarField(grid, oracles.radial_field(self.n)), self.radial_file,
                                     kind="u", problem="radial")
        self.runs = {}
        for command, u_file in (("certify", self.u_file), ("contour", self.radial_file)):
            config = workdir / f"{command}.cfg"
            config.write_text(f"problem = example1\nn = {self.n}\nu_file = {u_file}\n")
            self.runs[command] = (config, workdir / f"{command}-out")

    def round(self):
        codes, seconds = {}, {}
        for command, (config, out) in self.runs.items():
            t0 = time.perf_counter()
            codes[command] = gradflux.cli.main([command, "--config", str(config), "--out", str(out)])
            seconds[command] = time.perf_counter() - t0
        return codes, seconds

    def check(self, outputs, calls) -> Outcome:
        codes, seconds = outputs
        require(not calls, "post-processing ran the solver")
        out = Outcome(attempted=len(codes))
        for command, code in codes.items():
            require(code == 0, f"gradflux {command} exited with {code}")
            out.op_seconds[command] = [seconds[command]]

        cert = read_certificate(self.runs["certify"][1] / "certificate.txt")
        target = oracles.EXAMPLE1_ENERGY
        require(cert["el_residual_l1"] <= 1e-10, f"exact u: el_residual_l1 {cert['el_residual_l1']:.3e} is not ~0")
        require(cert["flux_bound_violation"] <= 1e-12,
                f"exact u: flux bound violation {cert['flux_bound_violation']:.3e} > 1e-12")
        require(abs(cert["primal"] - target) <= 1e-3 * target, f"exact u: primal {cert['primal']!r} not within 1e-3 of 79/36")
        require(abs(cert["gap"]) / cert["primal"] <= GAP_REL, f"exact u: |gap|/primal {abs(cert['gap']) / cert['primal']:.3e} > 2e-2")
        same(cert["primal"], oracles.energy(oracles.example1_u(self.n), *oracles.example1_data(self.n)),
             "certificate primal of the exact u")

        table = read_contour(self.runs["contour"][1] / "contour.csv")
        require(len(table) == 50, f"contour.csv holds {len(table)} levels, expected 50")
        worst = max(abs(length - oracles.clipped_circle_length(t)) for t, length in table)
        require(worst <= 1e-3, f"radial level-set lengths off the clipped circles by {worst:.3e} > 1e-3")
        for _, out_dir in self.runs.values():  # so the next round's check sees fresh files
            for f in out_dir.iterdir():
                f.unlink()
        return out


WORKLOADS = {w.name: w for w in (CleanSweep, NoiseTable, Postprocess)}
