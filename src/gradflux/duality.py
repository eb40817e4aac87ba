"""Flux construction and optimality certification.

For a candidate minimizer u, the flux J = sigma (grad u + F) with
sigma = a / |grad u + F| satisfies |J| = a wherever the gradient term is
nonzero.  At an exact minimizer the flux is additionally a solution of the
dual problem: it satisfies div J = H, and the primal energy equals the dual
pairing <F, J>, so the duality gap vanishes.  ``certify`` measures how far
a computed solution is from those identities; a large gap is a finding
about the solution, not an error.

Nodes where |grad u + F| falls below the safeguard eta are masked out:
sigma and J are set to zero there and the certification residual skips any
interior node whose divergence stencil touches a masked node.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import ScalarField, VectorField, divergence, gradient, integrate
from .problems import ProblemData

__all__ = [
    "FluxPair",
    "Certificate",
    "flux",
    "primal_energy",
    "dual_value",
    "certify",
    "divergence_residual_l1",
]


@dataclass(frozen=True, eq=False)
class FluxPair:
    """Flux J and coefficient sigma, with the degenerate-gradient mask."""

    J: VectorField
    sigma: ScalarField
    mask: np.ndarray


@dataclass(frozen=True)
class Certificate:
    primal: float
    dual: float
    gap: float
    el_residual_l1: float
    flux_bound_violation: float

    def as_text(self) -> str:
        lines = [f"{k} = {v:.17g}" for k, v in self.as_dict().items()]
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def flux(u: ScalarField, p: ProblemData, eta: float = 1e-8) -> FluxPair:
    """Build J = sigma (grad u + F), masking nodes with |grad u + F| < eta."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    g = gradient(u) + p.F
    mag = np.hypot(g.x.values, g.y.values)
    mask = mag >= eta
    safe = np.where(mask, mag, 1.0)
    sigma = np.where(mask, p.a.values / safe, 0.0)
    jx = sigma * g.x.values
    jy = sigma * g.y.values
    return FluxPair(
        J=VectorField.from_arrays(u.grid, jx, jy),
        sigma=ScalarField(u.grid, sigma),
        mask=mask,
    )


def primal_energy(u: ScalarField, p: ProblemData) -> float:
    """Energy integral( a |grad u + F| + H u ) of a boundary-vanishing field."""
    g = gradient(u) + p.F
    mag = np.hypot(g.x.values, g.y.values)
    return integrate(ScalarField(u.grid, p.a.values * mag + p.H.values * u.values))


def dual_value(J: VectorField, F: VectorField) -> float:
    """Dual pairing integral( F . J )."""
    if J.grid != F.grid:
        raise ValueError("flux and drift live on different grids")
    dots = F.x.values * J.x.values + F.y.values * J.y.values
    return integrate(ScalarField(J.grid, dots))


def divergence_residual_l1(
    J: VectorField, H: ScalarField, mask: np.ndarray | None = None
) -> float:
    """Interior L1 norm of div J - H, restricted to nodes whose backward
    stencil (the node itself, its west and its south neighbor) is unmasked."""
    r = np.abs(divergence(J).values - H.values)[1:-1, 1:-1]
    if mask is not None:
        ok = mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[1:-1, :-2]
        r = np.where(ok, r, 0.0)
    return float(J.grid.h ** 2 * r.sum())


def certify(u: ScalarField, p: ProblemData, eta: float = 1e-8) -> Certificate:
    """Assemble the optimality certificate for a candidate minimizer."""
    fp = flux(u, p, eta)
    primal = primal_energy(u, p)
    dual = dual_value(fp.J, p.F)
    jmag = np.hypot(fp.J.x.values, fp.J.y.values)
    violation = float(np.maximum(jmag - p.a.values, 0.0).max())
    return Certificate(
        primal=primal,
        dual=dual,
        gap=primal - dual,
        el_residual_l1=divergence_residual_l1(fp.J, p.H, fp.mask),
        flux_bound_violation=violation,
    )
