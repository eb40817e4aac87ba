"""Measurement loop: repeated set-up, whole rounds for the time budget,
checks after every round, and the traced run that gives per-layer metrics."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .tracing import Patches, SolveTimer, Tracer
from .workloads import WORKLOADS, Outcome

# Set-up is repeated and its median reported, so one slow repetition does not
# decide setup_s.
SETUP_REPEATS = 7
SRC = Path(__file__).resolve().parent.parent / "src"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_per_iter"):
        return "ms"
    if name.startswith("fieldio.bytes"):
        return "B"
    return "count"


class Run:
    """The operations one run attempted and failed, and its per-round times.

    Timings are reduced by repeat-and-min: a round repeats the same calls in
    the same order, and the fastest repeat of each is kept.  The host's
    speed drifts by up to 2x over tens of seconds (see README), and a slow
    spell only ever adds time, so the minimum is the figure it moves least.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.round_seconds: list[float] = []
        # per round: operation kind -> seconds of each call, in call order
        self.op_seconds: list[dict[str, list[float]]] = []

    def add(self, outcome: Outcome, wall: float) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.round_seconds.append(wall)
        self.op_seconds.append(outcome.op_seconds)

    def op_fastest(self) -> dict[str, list[float]]:
        """Per kind, the fastest time over the rounds of each call position."""
        kinds = self.op_seconds[0] if self.op_seconds else {}
        return {kind: [min(calls) for calls in zip(*(r[kind] for r in self.op_seconds))]
                for kind in kinds}

    def op_s(self) -> float:
        """One call of each kind, summed over kinds: the mean over call
        positions of each position's fastest time."""
        return sum(statistics.fmean(calls) for calls in self.op_fastest().values())


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing every gradflux module.

    The benchmark process imports only once, so the import share of a set-up
    repetition is measured in a child interpreter, which is what each CLI
    invocation pays.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gradflux.cli"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def _round(wl, timer: SolveTimer):
    """Run one round; returns (outputs, wall seconds, the solves it made)."""
    timer.calls.clear()
    t0 = time.perf_counter()
    outputs = wl.round()
    wall = time.perf_counter() - t0
    return outputs, wall, list(timer.calls)


def measure(workload: str, seconds: float, workdir: Path, run: Run, params=None) -> dict[str, float]:
    """Untraced run: repeated set-up, then the whole number of rounds that
    comes nearest to ``seconds`` (at least one), counted into ``run``.
    Returns the end-to-end metrics."""
    wl = WORKLOADS[workload](**(params or {}))
    with Patches() as patches:
        timer = SolveTimer(patches)
        setups = []
        for _ in range(SETUP_REPEATS):
            imports = import_seconds()
            t0 = time.perf_counter()
            wl.setup(workdir)
            setups.append(imports + time.perf_counter() - t0)
        start = time.perf_counter()
        while True:
            outputs, wall, calls = _round(wl, timer)
            run.add(wl.check(outputs, calls), wall)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(run.round_seconds) / 2 > seconds:
                break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": min(run.round_seconds),
        "op_s": run.op_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics


def measure_traced(workload: str, workdir: Path, run: Run, params=None) -> tuple[dict[str, float], Tracer]:
    """One untraced round, then one traced set-up and round, counted into
    ``run``; per-layer metrics come from the traced part, trace.overhead_s
    from the difference of the two rounds."""
    wl = WORKLOADS[workload](**(params or {}))
    with Patches() as patches:
        timer = SolveTimer(patches)
        wl.setup(workdir)
        outputs, plain_wall, calls = _round(wl, timer)
        run.add(wl.check(outputs, calls), plain_wall)

        tracer = Tracer()
        with Patches() as traced:
            tracer.install(traced)
            wl.setup(workdir)
            outputs, traced_wall, calls = _round(wl, timer)
        outcome = wl.check(outputs, calls)
        run.add(outcome, traced_wall)
    metrics = tracer.summary()
    metrics["bregman.certified_solves"] = outcome.certified
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics, tracer
