"""In-memory span tracing around gradflux's public functions.

Functions are replaced at every module attribute that holds them, because
each caller looks its callee up in its own namespace (``bregman.iterate``
calls ``gradflux.bregman.gradient``, ``run_sweep`` calls
``gradflux.stability.solve``).  Methods are replaced on their class, and
``ScalarField`` constructions are counted at ``ScalarField.__init__``:
swapping the class object itself would break ``isinstance`` checks and the
static constructors that name it.  Every replacement is undone on exit.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

import gradflux.bregman
import gradflux.cli
import gradflux.duality
import gradflux.fieldio
import gradflux.grid
import gradflux.levelset
import gradflux.perturb
import gradflux.poisson
import gradflux.stability

# (metric prefix, owner, attribute); an owner that is a module is searched
# for in every gradflux module, an owner that is a class is patched in place.
TRACED = (
    ("poisson.solve_dirichlet", gradflux.poisson.PoissonSolver, "solve_dirichlet"),
    ("grid.gradient", gradflux.grid, "gradient"),
    ("grid.divergence", gradflux.grid, "divergence"),
    ("grid.ScalarField", gradflux.grid.ScalarField, "__init__"),
    ("bregman.solve", gradflux.bregman, "solve"),
    ("bregman.iterate", gradflux.bregman, "iterate"),
    ("bregman.shrink_step", gradflux.bregman, "shrink_step"),
    ("duality.certify", gradflux.duality, "certify"),
    ("duality.flux", gradflux.duality, "flux"),
    ("duality.primal_energy", gradflux.duality, "primal_energy"),
    ("perturb.make_perturbed", gradflux.perturb, "make_perturbed"),
    ("perturb.apply_table1_noise", gradflux.perturb, "apply_table1_noise"),
    ("stability.run_sweep", gradflux.stability, "run_sweep"),
    ("levelset.level_set_lengths", gradflux.levelset, "level_set_lengths"),
    ("levelset.level_set_length", gradflux.levelset, "level_set_length"),
    ("fieldio.read_field_meta", gradflux.fieldio, "read_field_meta"),
    ("fieldio.write_field", gradflux.fieldio, "write_field"),
    ("cli.main", gradflux.cli, "main"),
)


def _gradflux_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gradflux" or name.startswith("gradflux."))]


class Patches:
    """Replacements of gradflux attributes that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, make_wrapper) -> None:
        """Wrap ``owner.attr`` where every caller finds it, with make_wrapper(current)."""
        current = getattr(owner, attr)
        wrapper = make_wrapper(current)
        owners = [owner] if isinstance(owner, type) else [
            m for m in _gradflux_modules() if getattr(m, attr, None) is current
        ]
        for o in owners:
            self._undo.append((o, attr, current))
            setattr(o, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


class SolveTimer:
    """One timer around each ``bregman.solve`` call, keeping its inputs and result.

    This is the end-to-end solve measurement and is installed on untraced
    runs too; it adds two clock reads per solve.
    """

    def __init__(self, patches: Patches):
        self.calls: list[tuple[object, object, float]] = []  # (problem, result, seconds)
        patches.rebind(gradflux.bregman, "solve", self._wrap)

    def _wrap(self, solve):
        @functools.wraps(solve)
        def timed(p, cfg, solver):
            t0 = time.perf_counter()
            res = solve(p, cfg, solver)
            self.calls.append((p, res, time.perf_counter() - t0))
            return res

        return timed


def _path_arg(args, kwargs, index: int) -> str:
    return os.fspath(kwargs["path"] if "path" in kwargs else args[index])


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until ``save``."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.iterations = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._stack = [-1]

    def install(self, patches: Patches) -> None:
        for nid, (_, owner, attr) in enumerate(TRACED):
            patches.rebind(owner, attr, functools.partial(self._wrap, nid))

    def _wrap(self, nid: int, fn):
        name = self.names[nid]
        clock = time.perf_counter
        stack, starts, ends = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if name == "bregman.solve":
                self.iterations += out.iterations
            elif name == "fieldio.read_field_meta":
                self.bytes_read += os.path.getsize(_path_arg(args, kwargs, 0))
            elif name == "fieldio.write_field":
                self.bytes_written += os.path.getsize(_path_arg(args, kwargs, 1))
            return out

        return traced

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16).astype(np.intp),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int64))

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        _, start, end, parent = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def inside(self, name: str) -> np.ndarray:
        """Mask of spans that are, or descend from, a span called ``name``."""
        nid, _, _, parent = self.arrays()
        flag = nid == self.names.index(name)
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        while True:  # one pass per nesting level
            grown = flag | (has_parent & flag[up])
            if np.array_equal(grown, flag):
                return flag
            flag = grown

    def summary(self) -> dict[str, float]:
        """calls and self seconds per traced name, plus the derived layer ratios."""
        nid, start, end, _ = self.arrays()
        own = self.self_times()
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=own, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        solve_id = self.names.index("bregman.solve")
        solve_s = float((end - start)[nid == solve_id].sum())
        fields_in_solve = int(((nid == self.names.index("grid.ScalarField"))
                               & self.inside("bregman.solve")).sum())
        out["bregman.iterations"] = self.iterations
        out["bregman.ms_per_iter"] = 1e3 * solve_s / self.iterations if self.iterations else 0.0
        out["grid.fields_per_iter"] = fields_in_solve / self.iterations if self.iterations else 0.0
        out["fieldio.bytes_read"] = self.bytes_read
        out["fieldio.bytes_written"] = self.bytes_written
        return out

    def solve_accounting(self) -> tuple[float, float]:
        """(inclusive seconds of all bregman.solve spans, summed self seconds of
        the spans under them); equal up to rounding when spans nest properly."""
        nid, start, end, _ = self.arrays()
        top = nid == self.names.index("bregman.solve")
        return float((end - start)[top].sum()), float(self.self_times()[self.inside("bregman.solve")].sum())

    def save(self, path) -> None:
        nid, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, start=start, end=end, parent=parent)
