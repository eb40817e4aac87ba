"""Problem instances for the drift-weighted least-gradient energy.

An instance collects the weight a, the drift F, the forcing H and optionally
a known exact minimizer.  The energy being minimized over fields vanishing
on the boundary is

    E(w) = integral( a |grad w + F| + H w ).

``ProblemData`` checks every instance, however built: one grid, a weight
positive at every node (the stability estimates assume a >= m > 0) and an
exact solution vanishing on the boundary; a breach raises ProblemDataError.

``example1`` builds the benchmark instance with the closed-form minimizer
u(x, y) = x y (1-x) (1-y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, gradient_arrays

__all__ = ["ProblemData", "ProblemDataError", "example1"]


class ProblemDataError(ValueError):
    """Data that cannot make a valid instance."""


@dataclass(frozen=True, eq=False)
class ProblemData:
    """One instance (a, F, H) plus an optional exact solution.

    m > 0 and M are the measured bounds of the weight (min/max over all nodes).
    When ``exact_u`` is present it must vanish on the boundary.
    """

    grid: GridSpec
    a: ScalarField
    F: VectorField
    H: ScalarField
    exact_u: ScalarField | None = None
    name: str = "custom"
    m: float = field(init=False)
    M: float = field(init=False)

    def __post_init__(self):
        named = {"a": self.a, "F": self.F, "H": self.H, "exact_u": self.exact_u}
        ns = {k: f_.grid.n for k, f_ in named.items() if f_ is not None}
        if set(ns.values()) != {self.grid.n}:
            grids = f"n={self.grid.n}, field grids {ns}"
            raise ProblemDataError(f"grid mismatch in {self.name}: {grids}")
        object.__setattr__(self, "m", float(self.a.values.min()))
        object.__setattr__(self, "M", float(self.a.values.max()))
        if self.m <= 0.0:
            rule = f"the weight must be positive at every node, but its minimum is {self.m:g}"
            raise ProblemDataError(f"{self.name}: {rule}")
        if self.exact_u is not None:
            if np.abs(self.exact_u.boundary_values()).max() != 0.0:
                raise ProblemDataError("exact solution must vanish on the boundary")


def example1(grid: GridSpec) -> ProblemData:
    """Benchmark instance with exact minimizer u(x, y) = x y (1-x) (1-y).

    The drift is assembled as F = (1, x+y) - gradient(u) with the discrete
    gradient, so the identity gradient(u) + F = (1, x+y) holds exactly at
    every node; the weight a = sqrt(1 + (x+y)^2) = |gradient(u) + F| then
    gives a flux with unit coefficient (sigma = 1) on the whole grid.

    The forcing is H = div(1, x+y) = 1.  The drift is not conservative:
    curl(1, x+y) = -1.
    """
    ax = grid.axis()
    x, y = ax[:, None], ax[None, :]  # the node coordinates, by broadcasting
    u = x * y
    u *= 1.0 - x
    u *= 1.0 - y
    # Each array is built in place and handed to the field that holds it.
    u = ScalarField.adopt(grid, u)
    gx, gy = gradient_arrays(u)
    xy = x + y
    # target gradient-plus-drift is (1, x+y): F = (1 - gx, x+y - gy), in place
    np.subtract(1.0, gx, out=gx)
    np.subtract(xy, gy, out=gy)
    F = VectorField(ScalarField.adopt(grid, gx), ScalarField.adopt(grid, gy))
    xy **= 2
    xy += 1.0
    a = ScalarField.adopt(grid, np.sqrt(xy, out=xy))
    return ProblemData(
        grid, a=a, F=F, H=ScalarField.full(grid, 1.0), exact_u=u, name="example1"
    )
