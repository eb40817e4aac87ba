"""Reference computations made apart from gradflux.

Everything here uses plain numpy on (n+1) x (n+1) node arrays indexed
values[i, j] = f(i/n, j/n), and nothing from the package under test, so the
benchmark's correctness checks compare the program against an independent
calculation or a closed form rather than against its own earlier output.
"""

from __future__ import annotations

import numpy as np

EXAMPLE1_ENERGY = 79.0 / 36.0


def nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates (x, y), x varying along axis 0."""
    t = np.arange(n + 1) / n
    return np.meshgrid(t, t, indexing="ij")


def forward_gradient(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences with a zero ghost value past the last row/column."""
    gx = np.diff(w, axis=0, append=np.zeros((1, w.shape[1]))) * n
    gy = np.diff(w, axis=1, append=np.zeros((w.shape[0], 1))) * n
    return gx, gy


def quadrature(values: np.ndarray, n: int) -> float:
    """Boundary-free tensor rule h*(3/2 f_1 + f_2 + ... + f_{n-2} + 3/2 f_{n-1})."""
    c = np.ones(n + 1)
    c[[0, n]] = 0.0
    c[[1, n - 1]] = 1.5
    return float((c[:, None] * values * c[None, :]).sum() / n**2)


def energy(w: np.ndarray, a: np.ndarray, Fx: np.ndarray, Fy: np.ndarray, H: np.ndarray) -> float:
    """E(w) = integral(a |grad w + F| + H w) by the boundary-free rule."""
    n = w.shape[0] - 1
    gx, gy = forward_gradient(w, n)
    return quadrature(a * np.sqrt((gx + Fx) ** 2 + (gy + Fy) ** 2) + H * w, n)


def example1_u(n: int) -> np.ndarray:
    """The closed-form minimizer u = x y (1-x) (1-y)."""
    x, y = nodes(n)
    return x * y * (1.0 - x) * (1.0 - y)


def example1_data(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, Fx, Fy, H) of example1: a = |(1, x+y)|, F = (1, x+y) - grad u, H = 1."""
    x, y = nodes(n)
    gx, gy = forward_gradient(example1_u(n), n)
    return np.sqrt(1.0 + (x + y) ** 2), 1.0 - gx, x + y - gy, np.ones_like(x)


def interior_l1(values: np.ndarray, n: int) -> float:
    return float(np.abs(values[1:-1, 1:-1]).sum() / n**2)


def drift_bump_l1(n: int, eps: float) -> float:
    """|F - F~|_L1 for the drift moved by eps * grad(sin(pi x) sin(pi y))."""
    x, y = nodes(n)
    gx, gy = forward_gradient(np.sin(np.pi * x) * np.sin(np.pi * y), n)
    return eps * interior_l1(np.hypot(gx, gy), n)


def relative_l2(w: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(w - ref) / np.linalg.norm(ref))


def radial_field(n: int) -> np.ndarray:
    x, y = nodes(n)
    return (x - 0.5) ** 2 + (y - 0.5) ** 2


def clipped_circle_length(t: float) -> float:
    """Length of {(x-1/2)^2 + (y-1/2)^2 = t} inside the unit square.

    Past radius 1/2 each side cuts an arc of half-angle arccos(1/(2r)) out
    of the circle; the four arcs are disjoint for r < sqrt(2)/2.
    """
    r = float(np.sqrt(t))
    if r <= 0.5:
        return 2.0 * np.pi * r
    return r * (2.0 * np.pi - 8.0 * np.arccos(0.5 / r))
