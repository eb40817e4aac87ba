"""Deterministic and stochastic perturbations of problem data.

The stochastic model draws a standard-normal array R over all nodes and
rescales it so the relative change in the unweighted grid (Frobenius) norm
equals the requested noise level exactly:

    out = field + gamma * R,   gamma = delta * |field|_F / |R|_F.

Structured perturbations are a constant shift or a smooth interior bump of
a and H, and a potential bump of the drift: F moves by the discrete
gradient of df = epsilon sin(pi x) sin(pi y).  ``make_perturbed`` measures
each change as it applies it, in the norms the stability estimates are
stated in: |a - a~|_inf, |H - H~|_inf, |F - F~|_L1 and |f - f~|_W11.
Everything is deterministic given the inputs, the seed and the amplitude.
A bad noise level, noise on a zero field and an instance that breaks a
rule of ``ProblemData`` (say, a weight no longer positive) raise ProblemDataError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, gradient, norm
from .problems import ProblemData, ProblemDataError

__all__ = [
    "PerturbedProblem",
    "noise_scalar",
    "noise_vector",
    "perturb_weight",
    "make_perturbed",
    "apply_table1_noise",
    "check_param_mode",
]

PARAMS = ("a", "f", "H", "combined")
MODES = ("constant-shift", "smooth-bump", "noise")


def check_param_mode(param: str, mode: str) -> None:
    """Reject a sweep parameter/mode pair that :func:`make_perturbed` cannot build."""
    if param not in PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r}: param must be one of {', '.join(PARAMS)}"
        )
    if mode not in MODES:
        raise ValueError(
            f"unknown perturbation mode {mode!r}: mode must be one of {', '.join(MODES)}"
        )
    if mode == "noise" and param not in ("a", "H"):
        raise ValueError(
            f"mode = noise perturbs only the scalar data: param must be a or H, got {param!r}"
        )
    if mode == "smooth-bump" and param == "f":
        raise ValueError(
            "mode = smooth-bump does not apply to param = f: f always moves by the "
            "potential bump, and mode selects how a and H move"
        )


def _noise(values: np.ndarray, delta: float, seed: int) -> tuple[float, np.ndarray]:
    """gamma and R of the noise on values: gamma = delta |values|_F / |R|_F."""
    if not (np.isfinite(delta) and delta >= 0):
        raise ProblemDataError(f"noise level must be nonnegative and finite, got {delta:g}")
    size = np.sqrt((values * values).sum())
    if size == 0.0:
        raise ProblemDataError("noise scale undefined for a zero field")
    r = np.random.default_rng(seed).standard_normal(values.shape)
    return delta * size / np.sqrt((r * r).sum()), r


def noise_scalar(field: ScalarField, delta: float, seed: int) -> ScalarField:
    """Relative noise on one scalar field; exact identity at delta=0."""
    if delta == 0.0:
        return field
    gamma, r = _noise(field.values, delta, seed)
    return ScalarField.adopt(field.grid, field.values + gamma * r)


def noise_vector(F: VectorField, delta: float, seed: int) -> VectorField:
    """Joint noise over both components: one R, one gamma for the stacked field.
    Each component is noised on its own, into a fresh array its field holds."""
    if delta == 0.0:
        return F
    gamma, (rx, ry) = _noise(np.stack([F.x.values, F.y.values]), delta, seed)
    return VectorField(
        ScalarField.adopt(F.grid, F.x.values + gamma * rx),
        ScalarField.adopt(F.grid, F.y.values + gamma * ry),
    )


def _bump(grid: GridSpec) -> np.ndarray:
    x, y = grid.meshgrid()
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def perturb_weight(a: ScalarField, epsilon: float, mode: str = "constant-shift") -> ScalarField:
    """Structured scalar perturbation with sup-norm size epsilon.

    constant-shift adds epsilon everywhere; smooth-bump adds
    epsilon * sin(pi x) sin(pi y), which attains the sup at the center node
    when n is even.  Works on any scalar field (also used for the forcing).
    """
    if mode == "constant-shift":
        return ScalarField.adopt(a.grid, a.values + epsilon)
    if mode == "smooth-bump":
        return ScalarField.adopt(a.grid, a.values + epsilon * _bump(a.grid))
    raise ValueError(f"unknown perturbation mode {mode!r}")


@dataclass(frozen=True, eq=False)
class PerturbedProblem:
    """Perturbed instance with the sizes of the changes that built it."""

    perturbed: ProblemData
    measured_sizes: dict[str, float]


def make_perturbed(
    base: ProblemData,
    param: str,
    epsilon: float,
    mode: str = "constant-shift",
    seed: int | None = None,
) -> PerturbedProblem:
    """Build the perturbed instance for one sweep row.

    param selects which data moves: the weight a, the drift through its
    potential f, the forcing H, or all three combined (a and H via the
    requested mode, the drift always by F + grad df, a discrete gradient and
    so curl-free).  mode="noise" draws stochastic perturbations for a or H at
    level epsilon and needs a seed.  The name records eps and the seed; the
    perturbed instance has no known exact solution.
    """
    check_param_mode(param, mode)
    if mode == "noise" and seed is None:
        raise ValueError("stochastic mode needs a seed")

    a, F, H = base.a, base.F, base.H
    sizes: dict[str, float] = {}

    def scalar_op(field: ScalarField) -> ScalarField:
        if mode == "noise":
            return noise_scalar(field, epsilon, seed)
        return perturb_weight(field, epsilon, mode)

    if param in ("a", "combined"):
        a = scalar_op(a)
        sizes["a_linf"] = norm(base.a - a, "linf")
    if param in ("H", "combined"):
        H = scalar_op(H)
        sizes["H_linf"] = norm(base.H - H, "linf")
    if param in ("f", "combined"):
        df = ScalarField.adopt(base.grid, epsilon * _bump(base.grid))
        dF = gradient(df)
        F = F + dF
        sizes["F_l1"] = norm(base.F - F, "l1")
        sizes["f_w11"] = norm(df, "l1") + norm(dF, "l1")

    tag = "" if seed is None else f", seed = {seed}"
    name = f"{base.name}+{param} at eps = {epsilon:g}{tag}"
    perturbed = ProblemData(base.grid, a=a, F=F, H=H, name=name)
    return PerturbedProblem(perturbed=perturbed, measured_sizes=sizes)


def apply_table1_noise(p: ProblemData, delta: float, seed: int) -> ProblemData:
    """Noise all three data fields the way the replication experiment does.

    One run seed drives three derived generator seeds (3s, 3s+1, 3s+2) for
    H, a and F, so every row is replayable from its recorded seed.  The
    noised instance has no known exact solution.
    """
    H = noise_scalar(p.H, delta, 3 * seed)
    a = noise_scalar(p.a, delta, 3 * seed + 1)
    F = noise_vector(p.F, delta, 3 * seed + 2)
    return ProblemData(p.grid, a=a, F=F, H=H, name=f"{p.name}+noise")
