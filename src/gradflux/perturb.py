"""Deterministic and stochastic perturbations of problem data.

The stochastic model draws a standard-normal array R over all nodes and
rescales it so the relative change in the unweighted grid (Frobenius) norm
equals the requested noise level exactly:

    out = field + gamma * R,   gamma = delta * |field|_F / |R|_F.

Structured perturbations (constant shift, smooth interior bump, potential
bump for conservative drifts) produce families whose perturbation norms are
known in closed form, which is what the sweep harness needs for rate fits
and explicit-constant bound checks.  Everything is deterministic given the
inputs, the seed and the amplitude.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, gradient, norm
from .problems import ProblemData

__all__ = [
    "NoiseScaleError",
    "NoiseSpec",
    "PerturbedProblem",
    "noise_scalar",
    "noise_vector",
    "perturb_weight",
    "perturb_potential",
    "make_perturbed",
    "apply_table1_noise",
    "measure_sizes",
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


class NoiseScaleError(ValueError):
    """Relative noise was requested on a field that is zero everywhere."""


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level and generator seed; gamma is scaled in the grid Frobenius norm."""

    delta: float
    seed: int

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("noise level must be nonnegative")


def _noised(values: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """values + gamma R with gamma = delta |values|_F / |R|_F."""
    size = np.sqrt((values * values).sum())
    if size == 0.0:
        raise NoiseScaleError("noise scale undefined for a zero field")
    r = np.random.default_rng(spec.seed).standard_normal(values.shape)
    gamma = spec.delta * size / np.sqrt((r * r).sum())
    return values + gamma * r


def noise_scalar(field: ScalarField, spec: NoiseSpec) -> ScalarField:
    """Relative noise on one scalar field; exact identity at delta=0."""
    if spec.delta == 0.0:
        return field
    return ScalarField(field.grid, _noised(field.values, spec))


def noise_vector(F: VectorField, spec: NoiseSpec) -> VectorField:
    """Joint noise over both components: one R, one gamma for the stacked field."""
    if spec.delta == 0.0:
        return F
    x, y = _noised(np.stack([F.x.values, F.y.values]), spec)
    return VectorField.from_arrays(F.grid, x, y)


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
        out = a.values + epsilon
        if epsilon < 0 and out.min() < 0.5 * a.values.min():
            warnings.warn("constant shift pushed the weight below half its minimum")
        return ScalarField(a.grid, out)
    if mode == "smooth-bump":
        return ScalarField(a.grid, a.values + epsilon * _bump(a.grid))
    raise ValueError(f"unknown perturbation mode {mode!r}")


def perturb_potential(f: ScalarField, epsilon: float) -> tuple[ScalarField, VectorField]:
    """Potential bump f + epsilon sin(pi x) sin(pi y) and its discrete gradient.

    The returned drift is a discrete gradient by construction, hence
    curl-free under the forward-difference operators.
    """
    f_new = ScalarField(f.grid, f.values + epsilon * _bump(f.grid))
    return f_new, gradient(f_new)


@dataclass(frozen=True, eq=False)
class PerturbedProblem:
    """Base/perturbed instance pair with the measured perturbation sizes."""

    base: ProblemData
    perturbed: ProblemData
    applied: frozenset[str]
    measured_sizes: dict[str, float]


def measure_sizes(
    base: ProblemData, perturbed: ProblemData, applied, epsilon: float
) -> dict[str, float]:
    """Recompute the perturbation norms the stability theory is stated in.

    ``epsilon`` is the amplitude of the potential bump; it gives f's W^{1,1}
    size when the perturbed instance carries no potential to measure.
    """
    sizes: dict[str, float] = {}
    if "a" in applied:
        sizes["a_linf"] = norm(base.a - perturbed.a, "linf")
    if "H" in applied:
        sizes["H_linf"] = norm(base.H - perturbed.H, "linf")
    if "f" in applied or "F" in applied:
        sizes["F_l1"] = norm(base.F - perturbed.F, "l1")
    if "f" in applied:
        f0 = base.potential_f if base.potential_f is not None else ScalarField.zeros(base.grid)
        f1 = perturbed.potential_f
        if f1 is None:
            bump = ScalarField(base.grid, _bump(base.grid))
            sizes["f_w11"] = sizes["F_l1"] + abs(epsilon) * norm(bump, "l1")
        else:
            diff = f1 - f0
            sizes["f_w11"] = norm(diff, "l1") + norm(gradient(diff), "l1")
    return sizes


def _perturb_drift_conservatively(p: ProblemData, epsilon: float):
    """Drift perturbation along a discrete-gradient direction.

    When the instance stores a potential, this is exactly the potential bump
    (F_new = gradient(f_new)); otherwise the same gradient increment is added
    to the non-conservative drift, so the perturbation itself stays curl-free.
    """
    if p.potential_f is not None:
        f_new, F_new = perturb_potential(p.potential_f, epsilon)
        return f_new, F_new
    f_new, dF = perturb_potential(ScalarField.zeros(p.grid), epsilon)
    return None, p.F + dF


def make_perturbed(
    base: ProblemData,
    param: str,
    epsilon: float,
    mode: str = "constant-shift",
    seed: int | None = None,
) -> PerturbedProblem:
    """Build the perturbed instance for one sweep row.

    param selects which data moves: the weight a, the drift potential f, the
    forcing H, or all three combined (a and H via the requested mode, the
    drift always via the conservative bump).  mode="noise" draws stochastic
    perturbations for a or H at level epsilon and needs a seed.  The base
    instance's exact solution is carried over for error reporting.
    """
    check_param_mode(param, mode)
    if mode == "noise" and seed is None:
        raise ValueError("stochastic mode needs a seed")

    a, F, H = base.a, base.F, base.H
    potential = base.potential_f
    applied: set[str] = set()

    def scalar_op(field: ScalarField) -> ScalarField:
        if mode == "noise":
            return noise_scalar(field, NoiseSpec(epsilon, seed))
        return perturb_weight(field, epsilon, mode)

    if param in ("a", "combined"):
        a = scalar_op(a)
        applied.add("a")
    if param in ("H", "combined"):
        H = scalar_op(H)
        applied.add("H")
    if param in ("f", "combined"):
        potential, F = _perturb_drift_conservatively(base, epsilon)
        applied.add("f")

    perturbed = ProblemData(
        base.grid,
        a=a,
        F=F,
        H=H,
        exact_u=base.exact_u,
        potential_f=potential,
        name=f"{base.name}+{param}",
    )
    return PerturbedProblem(
        base=base,
        perturbed=perturbed,
        applied=frozenset(applied),
        measured_sizes=measure_sizes(base, perturbed, applied, epsilon),
    )


def apply_table1_noise(p: ProblemData, delta: float, seed: int) -> ProblemData:
    """Noise all three data fields the way the replication experiment does.

    One run seed drives three derived generator seeds (3s, 3s+1, 3s+2) for
    H, a and F, so every row is replayable from its recorded seed.
    """
    H = noise_scalar(p.H, NoiseSpec(delta, 3 * seed))
    a = noise_scalar(p.a, NoiseSpec(delta, 3 * seed + 1))
    F = noise_vector(p.F, NoiseSpec(delta, 3 * seed + 2))
    return ProblemData(
        p.grid, a=a, F=F, H=H, exact_u=p.exact_u, name=f"{p.name}+noise"
    )
