"""Uniform grids on the unit square and the discrete calculus built on them.

Fields live on the nodes (i*h, j*h), 0 <= i, j <= n with h = 1/n, stored as
(n+1) x (n+1) arrays indexed values[i, j] = f(i*h, j*h).  The gradient uses
forward differences with zero ghost values past the last row/column, and the
divergence uses the matching backward differences with zero ghost values
before the first row/column.  With those conventions

    <gradient(u), p> = -<u, divergence(p)>

holds to machine precision in the h^2-weighted inner product over all nodes,
and divergence(gradient(u)) reproduces the standard 5-point Laplacian at
every interior node.  Both facts are what the Poisson step of the split
Bregman iteration and the certification residuals rely on.

A ScalarField never changes after construction.  It adopts, without a copy,
an array that is float64, read-only and owns its memory: nothing else can
write to it unless its holder flips the flag back, which the library's own
producers never do.  Each producer here (``gradient``, ``divergence``, ``+``
and ``-``, ``zeros``, ``full``) and in the other modules hands over a fresh
array through ``ScalarField.adopt``.  Any other input, such as a writable
array, a view, a broadcast or any other dtype, is copied.  Adopted arrays
are still checked for shape and finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "NonFiniteFieldError",
    "ScalarField",
    "VectorField",
    "gradient",
    "gradient_arrays",
    "divergence",
    "norm",
    "interior_l1",
    "inner",
    "integrate",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform node-collocated grid with n subdivisions per axis of [0,1]^2."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"grid needs an integer n >= 2, got n={self.n!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n + 1, self.n + 1)

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates (x, y) as (n+1, n+1) arrays, x varying along axis 0."""
        return np.meshgrid(self.axis(), self.axis(), indexing="ij")

    @cached_property
    def _quad_weights(self) -> np.ndarray:
        # 1-D weights of the boundary-free second-order rule: interior nodes
        # weigh 1, the first interior ring 3/2, boundary nodes 0.
        c = np.ones(self.n + 1)
        c[0] = c[-1] = 0.0
        c[1] += 0.5
        c[-2] += 0.5
        c.setflags(write=False)
        return c


class NonFiniteFieldError(ValueError):
    """A field value is inf or nan: the input held one, or a computation overflowed."""


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values sampled at every node of a GridSpec, held read-only.

    ``values`` is adopted as is when it is a float64 ndarray that is read-only
    and owns its memory; anything else is copied into a new float64 array.
    Either way the shape must match the grid and every value must be finite.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not (type(v) is np.ndarray and v.dtype == np.float64
                and not v.flags.writeable and v.flags.owndata):
            v = np.array(v, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(v).all():
            raise NonFiniteFieldError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def adopt(grid: GridSpec, values: np.ndarray) -> "ScalarField":
        """The field of a fresh array the caller hands over and never writes
        again: marked read-only, a float64 array that owns its memory is held
        without a copy."""
        values.setflags(write=False)
        return ScalarField(grid, values)

    @staticmethod
    def zeros(grid: GridSpec) -> "ScalarField":
        return ScalarField.adopt(grid, np.zeros(grid.shape))

    @staticmethod
    def full(grid: GridSpec, value: float) -> "ScalarField":
        return ScalarField.adopt(grid, np.full(grid.shape, float(value)))

    def boundary_values(self) -> np.ndarray:
        v = self.values
        return np.concatenate([v[0, :], v[-1, :], v[1:-1, 0], v[1:-1, -1]])

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField.adopt(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField.adopt(self.grid, self.values - other.values)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Pair of scalar components on one grid; houses drifts, fluxes, gradients."""

    x: ScalarField
    y: ScalarField

    def __post_init__(self):
        if self.x.grid != self.y.grid:
            raise ValueError("vector field components live on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.x.grid

    @staticmethod
    def zeros(grid: GridSpec) -> "VectorField":
        return VectorField(ScalarField.zeros(grid), ScalarField.zeros(grid))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.x - other.x, self.y - other.y)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def gradient_arrays(u: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """The two components of gradient(u) as new writable arrays."""
    h = u.grid.h
    v = u.values
    gx = np.empty_like(v)
    gy = np.empty_like(v)
    # Each component takes its differences and ghost values in place, then is
    # divided by h in one contiguous pass: (v[i+1] - v[i]) / h and -v / h, with
    # the bits of those expressions and no full-grid temporary.  The ghost
    # column is negated into a fresh array, not into the strided view: numpy
    # 2.4.6 on AVX-512 gets np.negative(x, out=o) wrong at an 8-element stride.
    np.subtract(v[1:, :], v[:-1, :], out=gx[:-1, :])
    np.negative(v[-1, :], out=gx[-1, :])
    gx /= h
    np.subtract(v[:, 1:], v[:, :-1], out=gy[:, :-1])
    gy[:, -1] = -v[:, -1]
    gy /= h
    return gx, gy


def gradient(u: ScalarField) -> VectorField:
    """Forward-difference gradient with zero ghost values past the last row/column."""
    gx, gy = gradient_arrays(u)
    return VectorField(ScalarField.adopt(u.grid, gx), ScalarField.adopt(u.grid, gy))


def divergence(p: VectorField) -> ScalarField:
    """Backward-difference divergence, the exact negative adjoint of gradient."""
    h = p.grid.h
    px, py = p.x.values, p.y.values
    # in place, then divided by h, as in gradient_arrays
    dx = np.empty_like(px)
    np.subtract(px[1:, :], px[:-1, :], out=dx[1:, :])
    dx[0, :] = px[0, :]
    dx /= h
    dy = np.empty_like(py)
    np.subtract(py[:, 1:], py[:, :-1], out=dy[:, 1:])
    dy[:, 0] = py[:, 0]
    dy /= h
    dx += dy
    del dy
    return ScalarField.adopt(p.grid, dx)


def _pointwise_magnitude(field) -> np.ndarray:
    if isinstance(field, VectorField):
        return np.hypot(field.x.values, field.y.values)
    return np.abs(field.values)


def norm(field, kind: str) -> float:
    """Discrete norms: L1 = h^2 * interior sum, L2 = (h^2 * full sum)^(1/2),
    Linf = max over all nodes.  Vector fields are measured through their
    pointwise Euclidean magnitude."""
    mag = _pointwise_magnitude(field)
    k = kind.lower()
    if k == "l1":
        return interior_l1(field.grid, mag)
    if k == "l2":
        return float(np.sqrt(field.grid.h ** 2 * (mag ** 2).sum()))
    if k == "linf":
        return float(mag.max())
    raise ValueError(f"unknown norm kind {kind!r}; expected L1, L2 or Linf")


def interior_l1(grid: GridSpec, mag: np.ndarray, mask: np.ndarray | None = None) -> float:
    """The discrete L1 rule: h^2 * the sum of mag over interior nodes, counting
    only the interior nodes where mask, an (n-1) x (n-1) array, holds if given."""
    interior = mag[1:-1, 1:-1]
    if mask is not None:
        interior = np.where(mask, interior, 0.0)
    return float(grid.h ** 2 * interior.sum())


def inner(a, b) -> float:
    """h^2-weighted inner product over all nodes (vector fields pair componentwise)."""
    if isinstance(a, VectorField) != isinstance(b, VectorField):
        raise ValueError("cannot pair a scalar field with a vector field")
    h2 = a.grid.h ** 2
    if isinstance(a, VectorField):
        s = (a.x.values * b.x.values).sum() + (a.y.values * b.y.values).sum()
    else:
        s = (a.values * b.values).sum()
    return float(h2 * s)


def integrate(field: ScalarField) -> float:
    """Quadrature over the open square that never samples boundary nodes.

    Tensor product of the 1-D rule h*(3/2 f_1 + f_2 + ... + f_{n-2} + 3/2 f_{n-1}),
    which is exact for affine integrands and O(h^2) for smooth ones.  Used for
    the energy and duality pairings, where plain Riemann summation would lose
    an O(h) boundary band.
    """
    c = field.grid._quad_weights
    return float(field.grid.h ** 2 * np.einsum("i,ij,j->", c, field.values, c))
