"""Problem instances for the drift-weighted least-gradient energy.

An instance collects the weight a, the drift F, the forcing H and optionally
a known exact minimizer and a scalar potential f with F = gradient(f).  The
energy being minimized over fields vanishing on the boundary is

    E(w) = integral( a |grad w + F| + H w ).

``example1`` builds the benchmark instance with the closed-form minimizer
u(x, y) = x y (1-x) (1-y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, gradient, norm

__all__ = ["ProblemData", "example1"]


@dataclass(frozen=True, eq=False)
class ProblemData:
    """One instance (a, F, H) plus optional exact solution and drift potential.

    m and M are the measured bounds of the weight (min/max over all nodes).
    When ``potential_f`` is present it must reproduce F through the discrete
    gradient; when ``exact_u`` is present it must vanish on the boundary.
    """

    grid: GridSpec
    a: ScalarField
    F: VectorField
    H: ScalarField
    exact_u: ScalarField | None = None
    potential_f: ScalarField | None = None
    name: str = "custom"
    m: float = field(init=False)
    M: float = field(init=False)

    def __post_init__(self):
        for f_ in (self.a, self.F, self.H, self.exact_u, self.potential_f):
            if f_ is not None and f_.grid != self.grid:
                raise ValueError("problem fields live on different grids")
        object.__setattr__(self, "m", float(self.a.values.min()))
        object.__setattr__(self, "M", float(self.a.values.max()))
        if self.potential_f is not None:
            drift_gap = norm(self.F - gradient(self.potential_f), "linf")
            if drift_gap > 1e-12 * max(self.M, 1.0):
                raise ValueError(
                    f"potential does not reproduce the drift: "
                    f"|F - grad f|_inf = {drift_gap:.3e}"
                )
        if self.exact_u is not None:
            if np.abs(self.exact_u.boundary_values()).max() != 0.0:
                raise ValueError("exact solution must vanish on the boundary")


def example1(grid: GridSpec) -> ProblemData:
    """Benchmark instance with exact minimizer u(x, y) = x y (1-x) (1-y).

    The drift is assembled as F = (1, x+y) - gradient(u) with the discrete
    gradient, so the identity gradient(u) + F = (1, x+y) holds exactly at
    every node; the weight a = sqrt(1 + (x+y)^2) = |gradient(u) + F| then
    gives a flux with unit coefficient (sigma = 1) on the whole grid.

    The forcing is H = div(1, x+y) = 1.  The drift is not conservative
    (curl(1, x+y) = -1), so no potential is attached.
    """
    ax = grid.axis()
    x, y = ax[:, None], ax[None, :]  # the node coordinates, by broadcasting
    u = x * y
    u *= 1.0 - x
    u *= 1.0 - y
    # Each raw array is built in place and dropped once a field holds its
    # copy, which keeps the peak to about seven (n+1)^2 arrays.
    u = ScalarField(grid, u)
    gu = gradient(u)
    xy = x + y
    # target gradient-plus-drift is (1, x+y)
    F = VectorField(ScalarField(grid, 1.0 - gu.x.values), ScalarField(grid, xy - gu.y.values))
    del gu
    xy **= 2
    xy += 1.0
    a = ScalarField(grid, np.sqrt(xy, out=xy))
    del xy
    return ProblemData(
        grid, a=a, F=F, H=ScalarField.full(grid, 1.0), exact_u=u, name="example1"
    )
