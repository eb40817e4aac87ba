"""Solver for the discrete Dirichlet Poisson problem.

``solve_dirichlet`` returns the field vanishing on the boundary whose 5-point
Laplacian (the divergence-of-gradient composition from :mod:`gradflux.grid`)
matches the right-hand side at every interior node.  It diagonalizes the
interior operator with the type-I discrete sine transform, making the solve
exact up to roundoff in O(n^2 log n).  ``scipy.fft`` is imported by the first
solve, so commands that never solve do not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = ["PoissonSolver"]


@dataclass(frozen=True)
class PoissonSolver:
    """Immutable solver bound to one grid; safe for concurrent solves."""

    grid: GridSpec

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        # Eigenvalues of the interior 5-point Laplacian in the sine basis.
        n = self.grid.n
        k = np.arange(1, n)
        lam = (2.0 * np.cos(np.pi * k / n) - 2.0) / self.grid.h ** 2
        ev = lam[:, None] + lam[None, :]
        ev.setflags(write=False)
        return ev

    @cached_property
    def _dst(self):
        import scipy.fft

        return scipy.fft.dstn

    def solve_dirichlet(self, rhs: ScalarField) -> ScalarField:
        """Solve laplacian(u) = rhs at interior nodes with u = 0 on the boundary.

        Only interior values of ``rhs`` enter the solve.
        """
        if rhs.grid != self.grid:
            raise ValueError(
                f"right-hand side grid (n={rhs.grid.n}) does not match solver grid "
                f"(n={self.grid.n})"
            )
        dst = self._dst
        fh = dst(rhs.values[1:-1, 1:-1], type=1, norm="ortho")
        fh /= self._eigenvalues
        ui = dst(fh, type=1, norm="ortho")
        out = np.zeros(self.grid.shape)
        out[1:-1, 1:-1] = ui
        return ScalarField(self.grid, out)
