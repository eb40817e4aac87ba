"""Flux construction and optimality certification.

For a candidate minimizer u, the flux J = sigma (grad u + F) with
sigma = a / |grad u + F| satisfies |J| = a wherever the gradient term is
nonzero.  At an exact minimizer the flux is additionally a solution of the
dual problem: it satisfies div J = H, and the primal energy equals the dual
pairing <F, J>, so the duality gap vanishes.  ``certify`` measures how far
a computed solution is from those identities; a large gap is a finding
about the solution, not an error.  ``FluxPair.energy``, the primal energy
of u from the same |grad u + F|, is the primal value ``certify`` reports.

Nodes where |grad u + F| falls below the safeguard ``ETA`` are masked out:
sigma and J are set to zero there and the certification residual skips any
interior node whose divergence stencil touches a masked node.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fieldio import fmt
from .grid import ScalarField, VectorField, divergence, gradient_arrays, integrate, interior_l1
from .problems import ProblemData

__all__ = [
    "ETA",
    "FluxPair",
    "Certificate",
    "flux",
    "primal_energy",
    "dual_value",
    "certify",
    "divergence_residual_l1",
]


ETA = 1e-8  # degenerate-gradient safeguard of the flux mask
_BLOCK = 1 << 14  # nodes per row block of the H u term in the energy


@dataclass(frozen=True, eq=False)
class FluxPair:
    """Flux J, coefficient sigma, degenerate-gradient mask and primal energy of u."""

    J: VectorField
    sigma: ScalarField
    mask: np.ndarray
    energy: float


@dataclass(frozen=True)
class Certificate:
    primal: float
    dual: float
    gap: float
    el_residual_l1: float
    flux_bound_violation: float

    def as_text(self) -> str:
        lines = [f"{k} = {fmt(v)}" for k, v in self.as_dict().items()]
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _drift_gradient(u: ScalarField, p: ProblemData) -> tuple[np.ndarray, np.ndarray]:
    """The two components of grad u + F, as new arrays: F is added in place
    to the two arrays of grad u."""
    if u.grid != p.grid:
        raise ValueError("fields live on different grids")
    gx, gy = gradient_arrays(u)
    gx += p.F.x.values
    gy += p.F.y.values
    return gx, gy


def _energy(u: ScalarField, p: ProblemData, mag: np.ndarray) -> float:
    """Primal energy of u; overwrites mag, |grad u + F|, with the integrand.

    H u is added in blocks of whole grid rows of at most _BLOCK nodes (a
    single block while n < 128), so its scratch is a 128 KB product, not a
    full-grid one; the sum is elementwise, so the bits are the same."""
    integrand = np.multiply(p.a.values, mag, out=mag)
    h, v = p.H.values, u.values
    rows = max(1, _BLOCK // integrand.shape[1])
    for s in range(0, integrand.shape[0], rows):
        integrand[s:s + rows] += h[s:s + rows] * v[s:s + rows]
    return integrate(ScalarField.adopt(u.grid, integrand))


def flux(u: ScalarField, p: ProblemData) -> FluxPair:
    """Build J = sigma (grad u + F), masking nodes with |grad u + F| < ETA,
    and the primal energy of u from the same |grad u + F|."""
    gx, gy = _drift_gradient(u, p)
    mag = np.hypot(gx, gy)
    mask = mag >= ETA
    sigma = np.divide(p.a.values, mag, out=np.zeros_like(mag), where=mask)
    energy = _energy(u, p, mag)
    # J is built in the arrays of grad u + F, which its fields then hold
    jx = ScalarField.adopt(p.grid, np.multiply(sigma, gx, out=gx))
    jy = ScalarField.adopt(p.grid, np.multiply(sigma, gy, out=gy))
    return FluxPair(VectorField(jx, jy), ScalarField.adopt(p.grid, sigma), mask, energy)


def primal_energy(u: ScalarField, p: ProblemData) -> float:
    """Energy integral( a |grad u + F| + H u ) of a boundary-vanishing field."""
    return _energy(u, p, np.hypot(*_drift_gradient(u, p)))


def dual_value(J: VectorField, F: VectorField) -> float:
    """Dual pairing integral( F . J )."""
    if J.grid != F.grid:
        raise ValueError("flux and drift live on different grids")
    dots = F.x.values * J.x.values
    dots += F.y.values * J.y.values
    return integrate(ScalarField.adopt(J.grid, dots))


def divergence_residual_l1(
    J: VectorField, H: ScalarField, mask: np.ndarray | None = None
) -> float:
    """Interior L1 norm of div J - H, restricted to nodes whose backward
    stencil (the node itself, its west and its south neighbor) is unmasked."""
    r = np.subtract(divergence(J).values, H.values)
    ok = None if mask is None else mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[1:-1, :-2]
    return interior_l1(J.grid, np.abs(r, out=r), ok)


def certify(u: ScalarField, p: ProblemData) -> Certificate:
    """Assemble the optimality certificate for a candidate minimizer.

    Only J, the mask and the energy are kept from the flux; sigma is released
    before the dual, the residual and the bound excess are formed, and each
    of those holds at most two full-grid arrays of its own at a time."""
    fp = flux(u, p)
    J, mask, primal = fp.J, fp.mask, fp.energy
    del fp  # frees sigma
    dual = dual_value(J, p.F)
    el_residual = divergence_residual_l1(J, p.H, mask)
    excess = np.hypot(J.x.values, J.y.values)
    excess -= p.a.values
    return Certificate(
        primal=primal,
        dual=dual,
        gap=primal - dual,
        el_residual_l1=el_residual,
        flux_bound_violation=float(np.maximum(excess, 0.0, out=excess).max()),
    )
