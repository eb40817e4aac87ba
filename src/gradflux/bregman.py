"""Split-Bregman iteration for the drift-weighted least-gradient energy.

Each sweep performs one Dirichlet Poisson solve

    divergence(gradient(u)) = div(d - b) + H / lam,

then the pointwise shrinkage producing the splitting variable d, and the
Bregman update b <- b + grad(u) - d.  The shrinkage folds the drift into d
directly (d tracks grad(u); the shifted copy d + F tracks grad(u) + F), so
the b update carries no drift term.  This is algebraically equivalent to
the more common variant that keeps the drift out of d and subtracts it
inside the b update instead.

The iteration starts from b = d = 0 and stops when the relative change
|u_new - u_old| / |u_new| in the discrete L2 norm drops below the
tolerance.  At the fixed point, lam * b approximates the dual flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import primal_energy
from .grid import ScalarField, VectorField, divergence, gradient, norm
from .poisson import PoissonSolver
from .problems import ProblemData

__all__ = ["SolverConfig", "SolverState", "SolveResult", "shrink_step", "iterate", "solve"]


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 1.0
    tol: float = 1e-7
    max_iter: int = 5000
    record_history: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be positive and finite")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass(frozen=True, eq=False)
class SolverState:
    u: ScalarField
    b: VectorField
    d: VectorField

    @staticmethod
    def initial(grid) -> "SolverState":
        return SolverState(
            u=ScalarField.zeros(grid),
            b=VectorField.zeros(grid),
            d=VectorField.zeros(grid),
        )


@dataclass(frozen=True, eq=False)
class SolveResult:
    state: SolverState
    converged: bool
    iterations: int
    history: list[tuple[int, float, float]] | None


def shrink_step(
    b: VectorField, grad_u: VectorField, F: VectorField, a: ScalarField, lam: float
) -> VectorField:
    """Pointwise shrinkage: with s = b + grad_u + F, return
    max(|s| - a/lam, 0) * s/|s| - F, and -F where |s| <= 1e-14.

    |s| is sqrt(sx*sx + sy*sy), within a few ulps of hypot.  It is finite
    for component sizes up to about 1e154; beyond that it overflows, the
    result holds nan, and the returned field rejects it as non-finite.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    sx = b.x.values + grad_u.x.values
    sx += F.x.values
    sy = b.y.values + grad_u.y.values
    sy += F.y.values
    mag = np.sqrt(sx * sx + sy * sy)
    shrunk = mag - a.values / lam
    np.maximum(shrunk, 0.0, out=shrunk)
    scale = np.divide(shrunk, mag, out=np.zeros_like(mag), where=mag > 1e-14)
    sx *= scale
    sx -= F.x.values
    sy *= scale
    sy -= F.y.values
    return VectorField(ScalarField.adopt(b.grid, sx), ScalarField.adopt(b.grid, sy))


def iterate(
    state: SolverState, p: ProblemData, cfg: SolverConfig, solver: PoissonSolver
) -> SolverState:
    """One sweep of the iteration; exactly one Poisson solve per call."""
    lam = cfg.lam
    rhs = p.H.values / lam
    rhs += divergence(state.d - state.b).values  # div(d - b) + H/lam: addition commutes
    u_new = solver.solve_dirichlet(ScalarField.adopt(p.grid, rhs))
    gu = gradient(u_new)
    d_new = shrink_step(state.b, gu, p.F, p.a, lam)
    b_new = state.b + gu - d_new
    return SolverState(u=u_new, b=b_new, d=d_new)


def _relative_change(u_new: ScalarField, u_old: ScalarField) -> float:
    diff = norm(u_new - u_old, "l2")
    base = norm(u_new, "l2")
    if base > 0.0:
        return diff / base
    return 0.0 if diff == 0.0 else np.inf


def solve(p: ProblemData, cfg: SolverConfig, solver: PoissonSolver) -> SolveResult:
    """Run the iteration from b = d = 0 until the relative-change rule fires.

    Returns converged=False with the last state when max_iter is exhausted;
    the caller decides whether that is acceptable.
    """
    state = SolverState.initial(p.grid)
    history: list[tuple[int, float, float]] | None = (
        [] if cfg.record_history else None
    )
    converged = False
    k = 0
    while k < cfg.max_iter and not converged:
        new = iterate(state, p, cfg, solver)
        k += 1
        rel = _relative_change(new.u, state.u)
        if history is not None:
            history.append((k, rel, primal_energy(new.u, p)))
        state = new
        converged = rel < cfg.tol
    return SolveResult(state=state, converged=converged, iterations=k, history=history)
