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
    "ETA",
    "check_eta",
    "FluxPair",
    "Certificate",
    "flux",
    "flux_and_energy",
    "primal_energy",
    "dual_value",
    "certify",
    "divergence_residual_l1",
]


ETA = 1e-8  # default degenerate-gradient safeguard


def check_eta(eta: float) -> None:
    """Reject a safeguard that is not finite and positive."""
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError("eta must be positive and finite")


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


def _drift_gradient(grad_u: VectorField, p: ProblemData) -> tuple[np.ndarray, np.ndarray]:
    """The two components of grad u + F, as new arrays."""
    if grad_u.grid != p.grid:
        raise ValueError("fields live on different grids")
    return grad_u.x.values + p.F.x.values, grad_u.y.values + p.F.y.values


def _flux(grad_u: VectorField, p: ProblemData, eta: float) -> tuple[FluxPair, np.ndarray]:
    """The flux and |grad u + F|; J is built in the arrays of grad u + F."""
    gx, gy = _drift_gradient(grad_u, p)
    mag = np.hypot(gx, gy)
    mask = mag >= eta
    sigma = np.divide(p.a.values, mag, out=np.zeros_like(mag), where=mask)
    # each component is dropped as soon as its field holds a copy
    jx = ScalarField(p.grid, np.multiply(sigma, gx, out=gx))
    del gx
    jy = ScalarField(p.grid, np.multiply(sigma, gy, out=gy))
    del gy
    fp = FluxPair(J=VectorField(jx, jy), sigma=ScalarField(p.grid, sigma), mask=mask)
    return fp, mag


def _energy(u: ScalarField, p: ProblemData, mag: np.ndarray) -> float:
    """Primal energy of u; overwrites mag, |grad u + F|, with the integrand."""
    integrand = np.multiply(p.a.values, mag, out=mag)
    integrand += p.H.values * u.values
    return integrate(ScalarField(u.grid, integrand))


def flux(u: ScalarField, p: ProblemData, eta: float = ETA) -> FluxPair:
    """Build J = sigma (grad u + F), masking nodes with |grad u + F| < eta."""
    check_eta(eta)
    return _flux(gradient(u), p, eta)[0]


def flux_and_energy(
    u: ScalarField, grad_u: VectorField, p: ProblemData, eta: float = ETA
) -> tuple[FluxPair, float]:
    """``flux(u, p, eta)`` and ``primal_energy(u, p)`` from one grad u + F,
    for a caller that already holds grad_u = gradient(u)."""
    check_eta(eta)
    fp, mag = _flux(grad_u, p, eta)
    return fp, _energy(u, p, mag)


def primal_energy(u: ScalarField, p: ProblemData) -> float:
    """Energy integral( a |grad u + F| + H u ) of a boundary-vanishing field."""
    return _energy(u, p, np.hypot(*_drift_gradient(gradient(u), p)))


def dual_value(J: VectorField, F: VectorField) -> float:
    """Dual pairing integral( F . J )."""
    if J.grid != F.grid:
        raise ValueError("flux and drift live on different grids")
    dots = F.x.values * J.x.values
    dots += F.y.values * J.y.values
    return integrate(ScalarField(J.grid, dots))


def divergence_residual_l1(
    J: VectorField, H: ScalarField, mask: np.ndarray | None = None
) -> float:
    """Interior L1 norm of div J - H, restricted to nodes whose backward
    stencil (the node itself, its west and its south neighbor) is unmasked."""
    r = np.subtract(divergence(J).values, H.values)
    r = np.abs(r, out=r)[1:-1, 1:-1]
    if mask is not None:
        ok = mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[1:-1, :-2]
        r = np.where(ok, r, 0.0)
    return float(J.grid.h ** 2 * r.sum())


def certify(u: ScalarField, p: ProblemData, eta: float = ETA) -> Certificate:
    """Assemble the optimality certificate for a candidate minimizer."""
    fp, primal = flux_and_energy(u, gradient(u), p, eta)
    dual = dual_value(fp.J, p.F)
    el_residual = divergence_residual_l1(fp.J, p.H, fp.mask)
    excess = np.hypot(fp.J.x.values, fp.J.y.values)
    excess -= p.a.values
    return Certificate(
        primal=primal,
        dual=dual,
        gap=primal - dual,
        el_residual_l1=el_residual,
        flux_bound_violation=float(np.maximum(excess, 0.0, out=excess).max()),
    )
