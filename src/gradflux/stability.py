"""Perturbation sweeps, empirical decay rates and explicit-constant bounds.

``run_sweep`` solves the base instance once, then re-solves a family of
perturbed instances and measures how far the minimizer, its gradient, the
flux and its coefficient move, fitting log-log decay rates against the
perturbation amplitude.  For conservative drift perturbations it also
checks the explicit bounds

    |E - E~|            <= M |F - F~|_L1
    int |J||J~| - J.J~  <= 2 M sigma1 |F - F~|_L1
    |J - J~|_L1         <= (4 M sigma1 |Omega|)^(1/2) |F - F~|_L1^(1/2)

with a 10% discretization allowance.  Each row records its own sigma1, the
largest coefficient value on the base or the perturbed instance, and
``sigma1_est`` is the largest over all rows.  ``table1_experiment``
is the stochastic-noise robustness table: all three data fields are noised
at levels delta in {0.01, 0.035, 0.06} and the relative L2 error against
the known solution is aggregated over seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bregman import SolveResult, SolverConfig, solve
from .duality import ETA, check_eta, flux_and_energy
from .grid import GridSpec, gradient, norm
from .perturb import PerturbedProblem, apply_table1_noise, check_param_mode, make_perturbed
from .poisson import PoissonSolver
from .problems import ProblemData, example1

__all__ = [
    "BaseNotConvergedError",
    "SweepSpec",
    "SweepRow",
    "RateFit",
    "BoundCheck",
    "ShapeCheck",
    "StabilityReport",
    "Table1Row",
    "Table1Report",
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
    eta: float = ETA

    def __post_init__(self):
        check_param_mode(self.param, self.mode)
        check_eta(self.eta)
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
    eps: float
    seed: int  # -1 for deterministic rows
    err_u_l1: float
    err_gradu_l1: float
    err_sigma_l1: float
    err_J_l1: float
    energy_diff: float
    misalignment: float
    iters: int
    rel_l2: float
    valid: bool
    measured_sizes: dict[str, float]
    excluded_fraction: float
    sigma1: float


@dataclass(frozen=True, eq=False)
class StabilityReport:
    rows: list[SweepRow]
    fits: dict[str, RateFit | None]
    bounds: list[BoundCheck]
    shapes: dict[str, ShapeCheck]
    sigma1_est: float
    base_result: SolveResult


@dataclass(frozen=True)
class Table1Row:
    delta: float
    seed: int
    rel_l2: float
    iters: int
    max_err: float
    converged: bool


@dataclass(frozen=True, eq=False)
class Table1Report:
    rows: list[Table1Row]
    mean_rel_l2: dict[float, float]
    mean_iters: dict[float, float]
    max_err: dict[float, float]
    n: int

    @property
    def replication(self) -> bool:
        return self.n == 100


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


def _l1_interior(grid: GridSpec, vals: np.ndarray) -> float:
    return float(grid.h ** 2 * vals[1:-1, 1:-1].sum())


def _joint_l1(grid: GridSpec, vals: np.ndarray, joint_mask: np.ndarray) -> float:
    return _l1_interior(grid, np.where(joint_mask, vals, 0.0))


def _misalignment(grid: GridSpec, J0, J1) -> float:
    # sqrt(|J0|^2 |J1|^2) - J0.J1 recovers an exact zero for bitwise-equal
    # fluxes, which the zero-perturbation identity relies on
    msq0 = J0.x.values * J0.x.values + J0.y.values * J0.y.values
    msq1 = J1.x.values * J1.x.values + J1.y.values * J1.y.values
    dot = J0.x.values * J1.x.values + J0.y.values * J1.y.values
    integrand = np.sqrt(msq0 * msq1) - dot
    if integrand.min() < -1e-12 * max(msq0.max(), msq1.max(), 1.0):
        raise AssertionError("misalignment integrand went negative")
    return _l1_interior(grid, np.maximum(integrand, 0.0))


def _seed_averaged(rows: list[SweepRow], column: str) -> list[tuple[float, float]]:
    by_eps: dict[float, list[float]] = {}
    for r in rows:
        if r.valid:
            by_eps.setdefault(r.eps, []).append(getattr(r, column))
    return [(e, float(np.mean(v))) for e, v in sorted(by_eps.items(), reverse=True)]


def _positive(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    return [(e, v) for e, v in pts if e > 0 and v > 0]


def _fit_points(pts: list[tuple[float, float]]) -> RateFit | None:
    positive = _positive(pts)
    return fit_rate(positive) if len(positive) >= 2 else None


def _shape_check(
    column: str, q: float, pts: list[tuple[float, float]], fit: RateFit | None
) -> ShapeCheck:
    """Monotonicity, slope and rate-normalised ratio of one seed-averaged column.

    ``pts`` is sorted by decreasing eps and ``fit`` is its rate fit.
    """
    vals = [v for _, v in pts]
    non_increasing = all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))
    slope = fit.slope if fit is not None else None
    slope_ok = slope is not None and slope >= SLOPE_THRESHOLDS[q] - 1e-12
    positive = _positive(pts)
    if len(positive) >= 2:
        e_large, v_large = positive[0]
        e_small, v_small = positive[-1]
        ratio = (v_small / e_small ** q) / (v_large / e_large ** q)
        ratio_ok = ratio <= 1.5
    else:
        ratio, ratio_ok = None, True
    return ShapeCheck(
        column=column,
        q=q,
        slope=slope,
        slope_ok=slope_ok,
        non_increasing=non_increasing,
        ratio=ratio,
        ratio_ok=ratio_ok,
    )


def _drift_bounds(rows: list[SweepRow], M: float, sigma1: float) -> list[BoundCheck]:
    """Explicit-constant checks for conservative drift perturbations."""
    ratios = {"energy_vs_drift": [], "misalignment_vs_drift": [], "flux_vs_drift_sqrt": []}
    for r in rows:
        dF = r.measured_sizes["F_l1"]
        if not r.valid or r.eps == 0 or not dF:
            continue
        ratios["energy_vs_drift"].append(r.energy_diff / (M * dF))
        ratios["misalignment_vs_drift"].append(r.misalignment / (2.0 * M * r.sigma1 * dF))
        ratios["flux_vs_drift_sqrt"].append(
            r.err_J_l1 / (np.sqrt(4.0 * M * r.sigma1 * 1.0) * np.sqrt(dF))
        )
    constants = {
        "energy_vs_drift": M,
        "misalignment_vs_drift": 2.0 * M * sigma1,
        "flux_vs_drift_sqrt": float(np.sqrt(4.0 * M * sigma1)),
    }
    checks = []
    for name, rs in ratios.items():
        worst = max(rs) if rs else 0.0
        checks.append(
            BoundCheck(
                name=name,
                holds=worst <= 1.0 + BOUND_SLACK,
                max_ratio=float(worst),
                constant=constants[name],
            )
        )
    return checks


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
    inner solve fails to converge are kept but marked invalid and excluded
    from fits and bound checks.
    """
    seeds: tuple[int | None, ...] = spec.seeds if spec.mode == "noise" else (None,)
    instances = [
        (eps, seed, make_perturbed(p, spec.param, eps, spec.mode, seed))
        for eps in spec.epsilons
        for seed in seeds
    ]
    poisson = poisson or PoissonSolver(p.grid)
    base = base or solve(p, spec.solver, poisson)
    if not base.converged:
        raise BaseNotConvergedError("base solve did not converge; cannot anchor the sweep")
    grid = p.grid
    # one gradient per solution serves its flux, energy and gradient difference
    u0 = base.state.u
    g0 = gradient(u0)
    base_flux, e0 = flux_and_energy(u0, g0, p, spec.eta)
    sigma0 = base_flux.sigma.values.max(initial=0.0)

    def measure(eps: float, seed: int | None, pp: PerturbedProblem) -> SweepRow:
        res = solve(pp.perturbed, spec.solver, poisson)
        u1 = res.state.u
        g1 = gradient(u1)
        new_flux, e1 = flux_and_energy(u1, g1, pp.perturbed, spec.eta)
        joint = base_flux.mask & new_flux.mask
        grad_diff = np.hypot(g0.x.values - g1.x.values, g0.y.values - g1.y.values)
        sigma_diff = np.abs(base_flux.sigma.values - new_flux.sigma.values)
        if p.exact_u is not None:
            rel_l2 = norm(u1 - p.exact_u, "l2") / norm(p.exact_u, "l2")
        else:
            rel_l2 = float("nan")
        return SweepRow(
            eps=eps,
            seed=-1 if seed is None else seed,
            err_u_l1=norm(u1 - u0, "l1"),
            err_gradu_l1=_joint_l1(grid, grad_diff, joint),
            err_sigma_l1=_joint_l1(grid, sigma_diff, joint),
            err_J_l1=norm(base_flux.J - new_flux.J, "l1"),
            energy_diff=abs(e0 - e1),
            misalignment=_misalignment(grid, base_flux.J, new_flux.J),
            iters=res.iterations,
            rel_l2=rel_l2,
            valid=res.converged,
            measured_sizes=pp.measured_sizes,
            excluded_fraction=float(1.0 - joint[1:-1, 1:-1].mean()),
            sigma1=float(max(sigma0, new_flux.sigma.values.max(initial=0.0))),
        )

    rows = [measure(eps, seed, pp) for eps, seed, pp in instances]
    averaged = {col: _seed_averaged(rows, col) for col in SWEEP_COLUMNS}
    fits = {col: _fit_points(pts) for col, pts in averaged.items()}
    shapes = {
        col: _shape_check(col, q, averaged[col], fits[col])
        for col, q in RATE_EXPONENTS.items()
    }
    sigma1 = max((r.sigma1 for r in rows), default=0.0)
    bounds = _drift_bounds(rows, p.M, sigma1) if spec.param == "f" else []
    return StabilityReport(
        rows=rows,
        fits=fits,
        bounds=bounds,
        shapes=shapes,
        sigma1_est=sigma1,
        base_result=base,
    )


def table1_experiment(
    cfg: SolverConfig,
    seeds,
    n: int = 100,
    deltas=TABLE1_DELTAS,
) -> Table1Report:
    """Noise-robustness table: noise H, a, F jointly and measure errors vs exact.

    Runs the benchmark instance at resolution n (n=100 is the replication
    setting) for every (delta, seed) pair; each row is replayable from its
    recorded seed through :func:`gradflux.perturb.apply_table1_noise`.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    grid = GridSpec(n)
    p = example1(grid)
    poisson = PoissonSolver(grid)
    exact = p.exact_u
    exact_norm = norm(exact, "l2")
    rows: list[Table1Row] = []
    for delta in deltas:
        for seed in seeds:
            noisy = apply_table1_noise(p, float(delta), seed)
            res = solve(noisy, cfg, poisson)
            diff = res.state.u - exact
            rows.append(
                Table1Row(
                    delta=float(delta),
                    seed=seed,
                    rel_l2=norm(diff, "l2") / exact_norm,
                    iters=res.iterations,
                    max_err=norm(diff, "linf"),
                    converged=res.converged,
                )
            )
    by_delta: dict[float, list[Table1Row]] = {}
    for r in rows:
        by_delta.setdefault(r.delta, []).append(r)
    mean_rel = {d: float(np.mean([r.rel_l2 for r in g])) for d, g in by_delta.items()}
    mean_iters = {d: float(np.mean([r.iters for r in g])) for d, g in by_delta.items()}
    max_err = {d: float(max(r.max_err for r in g)) for d, g in by_delta.items()}
    return Table1Report(
        rows=rows, mean_rel_l2=mean_rel, mean_iters=mean_iters, max_err=max_err, n=n
    )
