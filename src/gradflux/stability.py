"""Perturbation sweeps, empirical decay rates and explicit-constant bounds.

Both experiments build every instance first and then hand the list to one
runner, which solves each instance and returns one ``SweepRow`` for it.
``run_sweep`` solves the base instance once, then runs a family of
perturbed instances against it and measures how far the minimizer, its
gradient, the flux and its coefficient move, fitting log-log decay rates
against the perturbation amplitude.  For conservative drift perturbations
it also checks the explicit bounds

    |E - E~|            <= M |F - F~|_L1
    int |J||J~| - J.J~  <= 2 M sigma1 |F - F~|_L1
    |J - J~|_L1         <= (4 M sigma1 |Omega|)^(1/2) |F - F~|_L1^(1/2)

with a 10% discretization allowance.  Each row records its own sigma1, the
largest coefficient value on the base or the perturbed instance, and
``sigma1_est`` is the largest over all rows.  Rows whose solve did not
converge are kept: they enter ``sigma1_est`` and the excluded fraction, but
no fit, shape check or bound; a bound's constant, like its ratios, takes
sigma1 from the converged rows.
Each column is averaged over seeds at each eps.  Its ``RateFit`` is the
log-log least-squares line through the points with eps > 0 and value v > 0,
when there are at least 2; its shape ratio, which exists with the fit, is
v / eps^q at the smallest of those eps over v / eps^q at the largest.  A
bound's ratio on a row with eps > 0 and F~ != F is its left side over its
right side, with the row's sigma1 and |Omega| = 1; ``max_ratio`` is the
largest, or 0.

``table1_experiment`` is the stochastic-noise robustness table: all three
data fields are noised at levels delta in {0.01, 0.035, 0.06}, and its rows,
which have no base, carry the errors against the known solution and nan in
the sweep columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bregman import SolveResult, SolverConfig, solve
from .duality import flux
from .grid import GridSpec, ScalarField, gradient, interior_l1, norm
from .perturb import apply_table1_noise, check_param_mode, make_perturbed
from .poisson import PoissonSolver
from .problems import ProblemData, ProblemDataError, example1

__all__ = [
    "BaseNotConvergedError",
    "SweepSpec",
    "SweepRow",
    "RateFit",
    "BoundCheck",
    "ShapeCheck",
    "StabilityReport",
    "fit_rate",
    "run_sweep",
    "table1_experiment",
    "SWEEP_COLUMNS",
    "REPORT_COLUMNS",
    "RATE_EXPONENTS",
    "SLOPE_THRESHOLDS",
    "BOUND_SLACK",
    "TABLE1_DELTAS",
]

SWEEP_COLUMNS = (
    "err_u_l1",
    "err_gradu_l1",
    "err_sigma_l1",
    "err_J_l1",
    "energy_diff",
    "misalignment",
)
# Schema of the sweep and table1 CSVs; table1 rows carry nan in the sweep columns.
REPORT_COLUMNS = ("eps", "seed", *SWEEP_COLUMNS, "iters", "rel_l2")

# Theoretical decay exponents and the acceptance slopes for the rate columns.
RATE_EXPONENTS = {
    "err_u_l1": 0.5,
    "err_J_l1": 0.5,
    "err_gradu_l1": 0.25,
    "err_sigma_l1": 0.25,
}
SLOPE_THRESHOLDS = {0.5: 0.45, 0.25: 0.20}
# Discretization allowance on the explicit-constant drift bounds.
BOUND_SLACK = 0.1
TABLE1_DELTAS = (0.01, 0.035, 0.06)  # noise levels of the robustness table


class BaseNotConvergedError(RuntimeError):
    """The base solve of a sweep stopped at max_iter, so no row has an anchor."""


@dataclass(frozen=True)
class SweepSpec:
    """One perturbation study: which parameter moves, how, and by how much."""

    param: str
    epsilons: tuple[float, ...]
    mode: str = "constant-shift"
    seeds: tuple[int, ...] = ()
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        check_param_mode(self.param, self.mode)
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValueError("epsilon list must not be empty")
        if not all(np.isfinite(e) and e >= 0 for e in eps):
            raise ValueError("epsilons must be nonnegative and finite")
        if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
            raise ValueError("epsilons must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.mode == "noise" and not self.seeds:
            raise ValueError("stochastic sweeps need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be distinct")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    points_used: int


@dataclass(frozen=True)
class BoundCheck:
    name: str
    holds: bool
    max_ratio: float
    constant: float


@dataclass(frozen=True)
class ShapeCheck:
    column: str
    q: float
    slope: float | None
    slope_ok: bool
    non_increasing: bool
    ratio: float | None
    ratio_ok: bool


@dataclass(frozen=True, eq=False)
class SweepRow:
    """The outcome of one solved instance, a sweep row or a table1 run.

    The six ``SWEEP_COLUMNS``, ``excluded_fraction`` and ``sigma1`` compare
    the solution with the base solve and are nan in a row with no base (every
    table1 row).  ``rel_l2`` and ``max_err`` compare it with the exact
    solution and are nan when the problem has none.
    """

    eps: float  # the perturbation amplitude; a table1 row's noise level delta
    seed: int  # -1 for deterministic rows
    err_u_l1: float  # |u - u0|_L1
    err_gradu_l1: float  # |grad u - grad u0|_L1 over nodes unmasked in both fluxes
    err_sigma_l1: float  # |sigma - sigma0|_L1 over the same nodes
    err_J_l1: float  # |J - J0|_L1
    energy_diff: float  # |E - E0|
    misalignment: float  # the integral of |J||J0| - J.J0
    iters: int
    rel_l2: float  # |u - exact|_L2 / |exact|_L2
    max_err: float  # |u - exact|_Linf
    valid: bool  # the solve converged; invalid rows are left out of fits and bounds
    measured_sizes: dict[str, float]  # sizes of the data changes; empty for table1
    excluded_fraction: float  # share of interior nodes masked in either flux
    sigma1: float  # the largest coefficient on the base or this instance


@dataclass(frozen=True, eq=False)
class StabilityReport:
    rows: list[SweepRow]
    fits: dict[str, RateFit | None]
    bounds: list[BoundCheck]
    shapes: dict[str, ShapeCheck]
    sigma1_est: float
    base_result: SolveResult


def fit_rate(points) -> RateFit:
    """Ordinary least squares on (log eps, log e); needs >= 2 positive points."""
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 2:
        raise ValueError("rate fit needs at least 2 points")
    if any(e <= 0 or v <= 0 for e, v in pts):
        raise ValueError("rate fit needs strictly positive values")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]), points_used=len(pts))


def _misalignment(grid: GridSpec, J0, J1) -> float:
    # sqrt(|J0|^2 |J1|^2) - J0.J1 recovers an exact zero for bitwise-equal
    # fluxes, which the zero-perturbation identity relies on
    msq0 = J0.x.values * J0.x.values + J0.y.values * J0.y.values
    msq1 = J1.x.values * J1.x.values + J1.y.values * J1.y.values
    dot = J0.x.values * J1.x.values + J0.y.values * J1.y.values
    integrand = np.sqrt(msq0 * msq1) - dot
    if integrand.min() < -1e-12 * max(msq0.max(), msq1.max(), 1.0):
        raise AssertionError("misalignment integrand went negative")
    return interior_l1(grid, np.maximum(integrand, 0.0))


def _seed_averaged(valid: list[SweepRow], column: str) -> list[tuple[float, float]]:
    by_eps: dict[float, list[float]] = {}
    for r in valid:
        by_eps.setdefault(r.eps, []).append(getattr(r, column))
    return [(e, float(np.mean(v))) for e, v in sorted(by_eps.items(), reverse=True)]


def _positive(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    return [(e, v) for e, v in pts if e > 0 and v > 0]


def _shape_check(
    column: str, q: float, pts: list[tuple[float, float]], fit: RateFit | None
) -> ShapeCheck:
    """Monotonicity, slope and rate-normalised ratio of one seed-averaged column.

    ``pts`` is sorted by decreasing eps and ``fit`` is its rate fit, which
    exists exactly when ``pts`` has the 2 positive points the ratio needs.
    """
    vals = [v for _, v in pts]
    non_increasing = all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))
    ratio = None
    if fit is not None:
        (e_large, v_large), *_, (e_small, v_small) = _positive(pts)
        ratio = (v_small / e_small ** q) / (v_large / e_large ** q)
    return ShapeCheck(
        column, q, slope=None if fit is None else fit.slope,
        slope_ok=fit is not None and fit.slope >= SLOPE_THRESHOLDS[q] - 1e-12,
        non_increasing=non_increasing, ratio=ratio, ratio_ok=ratio is None or ratio <= 1.5,
    )


def _drift_bounds(valid: list[SweepRow], M: float) -> list[BoundCheck]:
    """Explicit-constant checks for conservative drift perturbations, one
    (name, constant, ratio on a row with drift size dF) per bound."""
    sigma1 = max((r.sigma1 for r in valid), default=0.0)
    table = (
        ("energy_vs_drift", M, lambda r, dF: r.energy_diff / (M * dF)),
        ("misalignment_vs_drift", 2.0 * M * sigma1,
         lambda r, dF: r.misalignment / (2.0 * M * r.sigma1 * dF)),
        ("flux_vs_drift_sqrt", float(np.sqrt(4.0 * M * sigma1)),
         lambda r, dF: r.err_J_l1 / (np.sqrt(4.0 * M * r.sigma1 * 1.0) * np.sqrt(dF))),
    )
    drifted = [(r, dF) for r in valid if r.eps != 0 and (dF := r.measured_sizes["F_l1"])]
    checks = []
    for name, constant, ratio in table:
        worst = max((ratio(r, dF) for r, dF in drifted), default=0.0)
        checks.append(BoundCheck(name, worst <= 1.0 + BOUND_SLACK, float(worst), constant))
    return checks


def _solve_instances(
    instances,
    solver: SolverConfig,
    poisson: PoissonSolver,
    exact_u: ScalarField | None,
    base: tuple[ProblemData, SolveResult] | None = None,
) -> list[SweepRow]:
    """Solve each (eps, seed, instance, measured sizes) in order, one row each.

    ``rel_l2`` and ``max_err`` are measured against ``exact_u`` and the base
    fields against the base (problem, solve); without them they are nan.
    """
    if exact_u is not None:
        exact_norm = norm(exact_u, "l2")
    if base is not None:
        base_problem, base_result = base
        u0 = base_result.state.u
        g0 = gradient(u0)
        base_flux = flux(u0, base_problem)
        sigma0 = base_flux.sigma.values.max(initial=0.0)

    def against_base(instance: ProblemData, u1: ScalarField) -> dict[str, float]:
        if base is None:
            return dict.fromkeys((*SWEEP_COLUMNS, "excluded_fraction", "sigma1"), float("nan"))
        grid = instance.grid
        g1 = gradient(u1)
        new_flux = flux(u1, instance)
        joint = base_flux.mask & new_flux.mask
        grad_diff = np.hypot(g0.x.values - g1.x.values, g0.y.values - g1.y.values)
        sigma_diff = np.abs(base_flux.sigma.values - new_flux.sigma.values)
        return dict(
            err_u_l1=norm(u1 - u0, "l1"),
            err_gradu_l1=interior_l1(grid, np.where(joint, grad_diff, 0.0)),
            err_sigma_l1=interior_l1(grid, np.where(joint, sigma_diff, 0.0)),
            err_J_l1=norm(base_flux.J - new_flux.J, "l1"),
            energy_diff=abs(base_flux.energy - new_flux.energy),
            misalignment=_misalignment(grid, base_flux.J, new_flux.J),
            excluded_fraction=float(1.0 - joint[1:-1, 1:-1].mean()),
            sigma1=float(max(sigma0, new_flux.sigma.values.max(initial=0.0))),
        )

    def against_exact(u1: ScalarField) -> dict[str, float]:
        if exact_u is None:
            return dict.fromkeys(("rel_l2", "max_err"), float("nan"))
        diff = u1 - exact_u
        return dict(rel_l2=norm(diff, "l2") / exact_norm, max_err=norm(diff, "linf"))

    rows = []
    for eps, seed, instance, sizes in instances:
        res = solve(instance, solver, poisson)
        u1 = res.state.u
        rows.append(
            SweepRow(
                eps=eps,
                seed=seed,
                iters=res.iterations,
                valid=res.converged,
                measured_sizes=sizes,
                **against_base(instance, u1),
                **against_exact(u1),
            )
        )
    return rows


def run_sweep(
    p: ProblemData,
    spec: SweepSpec,
    poisson: PoissonSolver | None = None,
    base: SolveResult | None = None,
) -> StabilityReport:
    """Solve the base instance once, then one perturbed solve per (eps, seed).

    Every perturbed instance is built before the first solve, so data that
    cannot be perturbed is rejected without solver work.  Gradient and
    coefficient differences are restricted to nodes unmasked in both flux
    constructions; the excluded fraction is recorded per row.  Rows whose
    inner solve fails to converge are kept but marked invalid: the fits,
    shape checks and bounds, constants included, read the converged rows
    only, while ``sigma1_est`` and the excluded fraction the summary reports
    read every row.
    """
    seeds: tuple[int | None, ...] = spec.seeds if spec.mode == "noise" else (None,)
    instances = []
    for eps in spec.epsilons:
        for seed in seeds:
            pp = make_perturbed(p, spec.param, eps, spec.mode, seed)
            instances.append((eps, -1 if seed is None else seed, pp.perturbed, pp.measured_sizes))
    poisson = poisson or PoissonSolver(p.grid)
    base = base or solve(p, spec.solver, poisson)
    if not base.converged:
        raise BaseNotConvergedError("base solve did not converge; cannot anchor the sweep")
    rows = _solve_instances(instances, spec.solver, poisson, p.exact_u, (p, base))
    valid = [r for r in rows if r.valid]
    averaged = {col: _seed_averaged(valid, col) for col in SWEEP_COLUMNS}
    fits = {
        col: fit_rate(positive) if len(positive := _positive(pts)) >= 2 else None
        for col, pts in averaged.items()
    }
    shapes = {
        col: _shape_check(col, q, averaged[col], fits[col])
        for col, q in RATE_EXPONENTS.items()
    }
    sigma1 = max((r.sigma1 for r in rows), default=0.0)
    bounds = _drift_bounds(valid, p.M) if spec.param == "f" else []
    return StabilityReport(
        rows=rows, fits=fits, bounds=bounds, shapes=shapes, sigma1_est=sigma1, base_result=base
    )


def table1_experiment(
    cfg: SolverConfig,
    seeds,
    n: int = 100,
    deltas=TABLE1_DELTAS,
) -> list[SweepRow]:
    """Noise-robustness table: noise H, a, F jointly and measure errors vs exact.

    Runs the benchmark instance at resolution n (n=100 is the replication
    setting) for every (delta, seed) pair and returns one row per run, in that
    order, with delta as its ``eps``.  The rows have no base, so their sweep
    columns are nan.  Each row is replayable from its recorded seed through
    :func:`gradflux.perturb.apply_table1_noise`.  All noised instances are
    built before the first solve.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    grid = GridSpec(n)
    p = example1(grid)
    instances = []
    for d in map(float, deltas):
        for s in seeds:
            try:
                instances.append((d, s, apply_table1_noise(p, d, s), {}))
            except ProblemDataError as exc:  # the instance name does not say which run
                raise ProblemDataError(f"{exc} (delta = {d:g}, seed = {s})") from None
    return _solve_instances(instances, cfg, PoissonSolver(grid), p.exact_u)
