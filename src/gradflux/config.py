"""Flat ``key = value`` run configuration.

Every numeric default mirrors the reference experiments (n=100, lambda=1,
tol=1e-7), read from the library type that uses it where one does.  Keys are
range-checked before any compute happens, mostly by building those types;
unknown or out-of-place keys are rejected with a message naming the key; and
the fully resolved configuration can be rendered as stable comment lines so
every output CSV embeds the settings that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .bregman import SolverConfig
from .duality import ETA
from .grid import GridSpec
from .stability import TABLE1_DELTAS, SweepSpec

__all__ = ["UsageError", "RunConfig", "parse_config_file", "build_config"]


class UsageError(ValueError):
    """Configuration or invocation problem; maps to exit code 1."""


@dataclass
class RunConfig:
    n: int = 100
    lam: float = SolverConfig.lam
    tol: float = SolverConfig.tol
    max_iter: int = SolverConfig.max_iter
    eta: float = ETA
    delta: float = 0.0
    deltas: tuple[float, ...] = TABLE1_DELTAS
    seeds: tuple[int, ...] = tuple(range(10))
    param: str = "a"
    epsilons: tuple[float, ...] = (0.04, 0.02, 0.01, 0.005)
    mode: str = SweepSpec.mode
    problem: str = "example1"
    a_file: str | None = None
    f_file: str | None = None
    h_file: str | None = None
    u_file: str | None = None


# Config keys are the RunConfig field names; 'lambda' is a Python keyword.
_KEY_OF_FIELD = {"lam": "lambda"}
# config key -> RunConfig field, in field order
_FIELDS = {_KEY_OF_FIELD.get(f.name, f.name): f.name for f in fields(RunConfig)}
_TYPES = get_type_hints(RunConfig)

_PROBLEM_KEYS = ("problem", "a_file", "f_file", "h_file")

ALLOWED_KEYS = {
    "solve": ("n", "lambda", "tol", "max_iter", "eta", "delta", "seeds") + _PROBLEM_KEYS,
    "certify": ("n", "eta", "u_file") + _PROBLEM_KEYS,
    "sweep": ("n", "lambda", "tol", "max_iter", "eta", "param", "epsilons", "mode", "seeds")
    + _PROBLEM_KEYS,
    "table1": ("n", "lambda", "tol", "max_iter", "deltas", "seeds", "problem"),
    "contour": ("n", "u_file") + _PROBLEM_KEYS,
    "plotdata": tuple(_FIELDS),
}


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


_TYPE_NAMES = {int: "an integer", float: "a number"}


def _parse(key: str, value: str, kind):
    """Parse one value by the type of its RunConfig field."""
    if get_origin(kind) is tuple:
        items = [tok.strip() for tok in value.split(",") if tok.strip()]
        if not items:
            raise UsageError(f"key {key!r} needs a non-empty comma-separated list")
        return tuple(_parse(key, tok, get_args(kind)[0]) for tok in items)
    if kind not in _TYPE_NAMES:
        return value
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"key {key!r} needs {_TYPE_NAMES[kind]}, got {value!r}") from None


def build_config(raw: dict[str, str], command: str) -> RunConfig:
    """Turn raw key/value strings into a validated RunConfig for one command."""
    allowed = ALLOWED_KEYS[command]
    for key in raw:
        if key not in _FIELDS:
            raise UsageError(f"unknown config key {key!r}")
        if key not in allowed:
            raise UsageError(f"config key {key!r} is not used by '{command}'")

    cfg = RunConfig()
    for key, value in raw.items():
        attr = _FIELDS[key]
        setattr(cfg, attr, _parse(key, value, _TYPES[attr]))

    _range_checks(cfg, command)
    return cfg


def _range_checks(cfg: RunConfig, command: str) -> None:
    for key, attr in _FIELDS.items():
        kind = _TYPES[attr]
        if float in (kind, *get_args(kind)) and not np.all(np.isfinite(getattr(cfg, attr))):
            raise UsageError(f"key {key!r} must be finite")
    if cfg.lam <= 0:
        raise UsageError("key 'lambda' must be positive")
    try:
        GridSpec(cfg.n)
        SolverConfig(cfg.lam, cfg.tol, cfg.max_iter)
        SweepSpec(cfg.param, cfg.epsilons, cfg.mode, cfg.seeds, eta=cfg.eta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if cfg.delta < 0:
        raise UsageError("key 'delta' must be nonnegative")
    if any(d < 0 for d in cfg.deltas):
        raise UsageError("key 'deltas' must be nonnegative")
    if any(s < 0 for s in cfg.seeds):
        raise UsageError("key 'seeds' must be nonnegative integers")
    if cfg.problem not in ("example1", "files"):
        raise UsageError("key 'problem' must be example1 or files")
    if command == "table1" and cfg.problem != "example1":
        raise UsageError("table1 runs on the built-in example1 instance only")
    if cfg.problem == "files":
        if cfg.a_file is None or cfg.h_file is None:
            raise UsageError("problem = files needs at least a_file and h_file")
    if command == "solve" and cfg.delta > 0 and len(cfg.seeds) != 1:
        raise UsageError("solve with delta > 0 needs exactly one entry in 'seeds'")


def resolved_lines(cfg: RunConfig, command: str) -> list[str]:
    """Render the effective configuration as stable 'key = value' lines."""
    out = [f"command = {command}"]
    for key, attr in _FIELDS.items():
        if key not in ALLOWED_KEYS[command]:
            continue
        value = getattr(cfg, attr)
        if value is None:
            continue
        if isinstance(value, tuple):
            rendered = ", ".join(_fmt(v) for v in value)
        else:
            rendered = _fmt(value)
        out.append(f"{key} = {rendered}")
    return out


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)
