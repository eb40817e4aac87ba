"""Run one benchmark workload of gradflux and print its metrics.

    python3 perfbench/run.py --workload clean-sweep --seed 0 --seconds 30 --trace 0

Builds nothing: gradflux is imported from ``src/`` next to this directory
and nowhere else.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones of a
traced run.  Span files and generated inputs go under ``.perfbench-out/``.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("clean-sweep", "noise-table", "postprocess")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_program() -> None:
    """Import gradflux, insisting on the copy in ``ROOT/src``."""
    import gradflux

    where = Path(gradflux.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise ImportError(f"gradflux was imported from {where}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; every workload's inputs are closed-form or fixed, see README")
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread per numeric library, and the whole run (with the child
    # interpreters that time imports) on one core, the highest-numbered one
    # allowed, so that no solve migrates between cores while it is timed.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    allowed = os.sched_getaffinity(0)
    core = max(allowed)
    os.sched_setaffinity(0, {core})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import gradflux: {exc}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    from perfbench import harness
    from perfbench.workloads import CheckFailed

    print(f"env: python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} cores={len(allowed)} pinned_core={core} threads=1")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    correct = True
    run = harness.Run()
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        try:
            if args.trace:
                metrics, tracer = harness.measure_traced(args.workload, Path(work), run)
                spans = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
                tracer.save(spans)
                inclusive, summed = tracer.solve_accounting()
                print(f"trace: {len(tracer.start)} spans written to {spans.relative_to(ROOT)}")
                print(f"trace: bregman.solve inclusive {inclusive:.6f} s, "
                      f"self times under it {summed:.6f} s")
                units = {name: harness.layer_unit(name) for name in metrics}
            else:
                metrics = harness.measure(args.workload, args.seconds, Path(work), run)
                units = harness.END_TO_END_UNITS
        except CheckFailed as exc:
            print(f"check failed: {exc}")
            correct = False
            metrics, units = {}, {}

    print(f"rounds: {len(run.round_seconds)}, attempted {run.attempted}, failed {run.failed}")
    print("round_s: " + " ".join(f"{s:.4f}" for s in run.round_seconds))
    for kind, fastest in run.op_fastest().items():
        print(f"op_s[{kind}]: " + " | ".join(" ".join(f"{s:.4f}" for s in r[kind]) for r in run.op_seconds))
        print(f"op: {kind} {statistics.fmean(fastest):.6f} s per call "
              f"(fastest of {len(run.op_seconds)} rounds per call position, mean over {len(fastest)} positions)")
    for name, value in metrics.items():
        print(f"metric: {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        # a round whose check failed is not counted; report at least one attempt
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
