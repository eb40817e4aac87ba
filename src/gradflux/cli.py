"""Command-line entry point.

Subcommands::

    gradflux solve    --config cfg [--out DIR] [--strict]
    gradflux certify  --config cfg [--out DIR]
    gradflux sweep    --config cfg [--out DIR] [--strict]
    gradflux table1   --config cfg [--out DIR] [--strict]
    gradflux contour  --config cfg [--out DIR]
    gradflux plotdata --config cfg [--out DIR]

Exit codes: 0 success, 1 usage/configuration error or a failed write, 2
compute failure (non-convergence under --strict, or a sweep whose base solve
did not converge).  --strict changes only the exit code: a run that stops
unconverged writes every output first, and its one ``gradflux: ...`` line
naming what did not converge is printed with or without the flag.

Each command runs with numpy's overflow and invalid-value warnings off.  A
computation that overflows leaves an inf or nan, the field built from it
raises NonFiniteFieldError, and stderr holds one line, ``gradflux: field
contains non-finite values``, and no RuntimeWarning.

Every CSV embeds the fully resolved configuration as '#' comment lines, so
any run can be replayed from its own output.  Two invocations with the same
configuration produce byte-identical files; nothing time- or path-dependent
is written.

``_build_problem`` reads and checks every field file a command names.  Each
command computes before it writes, and its first write creates --out;
``plotdata`` reads and checks history.csv, solution.field and u_exact.field,
and that no file it writes under plots/ is a directory, before it creates
plots/.  So a refused run leaves no output directory, and no plots/ or file
in it, behind.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bregman import solve
from .config import RunConfig, UsageError, build_config, parse_config_file, resolved_lines
from .duality import Certificate, certify
from .fieldio import FLOAT_SPEC, FieldFormatError, fmt, read_field_meta, write_field
from .grid import GridSpec, NonFiniteFieldError, ScalarField, VectorField, gradient
from .levelset import level_set_lengths
from .perturb import apply_table1_noise
from .poisson import PoissonSolver
from .problems import ProblemData, ProblemDataError, example1
from .stability import (
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    BaseNotConvergedError,
    StabilityReport,
    SweepRow,
    run_sweep,
    table1_experiment,
)

__all__ = ["main"]

HISTORY_COLUMNS = ("k", "rel_change", "energy")  # the header of solve's history.csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise UsageError(message)


def _write_csv(path: Path, comments, columns, rows) -> None:
    """Each command writes a CSV first: that write makes the output directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_rows(path: Path, comments, rows: list[SweepRow]) -> None:
    """sweep.csv and table1.csv: one REPORT_COLUMNS line per row."""
    lines = [tuple(getattr(r, c) for c in REPORT_COLUMNS) for r in rows]
    _write_csv(path, comments, REPORT_COLUMNS, lines)


def _build_problem(
    cfg: RunConfig, example: bool = True
) -> tuple[ProblemData | None, ScalarField | None, ScalarField | None]:
    """The instance (a, F, H); the potential f of F = grad f, if an f_file
    gives it, which ``solve`` writes back and ``contour`` adds to u; and the
    u_file's field, if the command names one, checked against the instance.

    A files run takes its grid from the files and records that n in cfg.
    With example=False, an example1 run builds no instance and returns None
    for it: a command that reads only the u_file asks for that."""
    potential = None
    if cfg.problem == "example1":
        grid = GridSpec(cfg.n)
        p = example1(grid) if example else None
    else:
        paths = {"a_file": cfg.a_file, "h_file": cfg.h_file, "f_file": cfg.f_file}
        a, h, potential = (
            None if path is None else read_field_meta(path)[0] for path in paths.values()
        )
        drift = VectorField.zeros(a.grid) if potential is None else gradient(potential)
        try:
            p = ProblemData(a.grid, a=a, F=drift, H=h, name="files")
        except ProblemDataError as exc:
            named = ", ".join(f"{key} {path}" for key, path in paths.items() if path is not None)
            raise UsageError(f"{exc} (field files: {named})") from None
        grid = a.grid
        if cfg.n is None:
            cfg.n = grid.n
        elif cfg.n != grid.n:
            raise UsageError(f"key 'n' = {cfg.n} does not match the field files' n={grid.n}")
    u = None if cfg.u_file is None else read_field_meta(cfg.u_file)[0]
    if u is not None and u.grid != grid:
        raise UsageError(f"grid mismatch: u_file has n={u.grid.n}, problem has n={grid.n}")
    return p, potential, u


def _write_certificate(out: Path, cert: Certificate, comments) -> None:
    d = cert.as_dict()
    _write_csv(out / "certificate.csv", comments, tuple(d), [tuple(d.values())])
    (out / "certificate.txt").write_text(cert.as_text(), encoding="utf-8")


def _cmd_solve(cfg: RunConfig, out: Path) -> str | None:
    p, potential, _ = _build_problem(cfg)
    exact = p.exact_u
    if cfg.delta != 0:
        p = apply_table1_noise(p, cfg.delta, cfg.seeds[0])
        potential = None  # the noise moves F, so f is no longer its potential
    res = solve(p, replace(cfg.solver, record_history=True), PoissonSolver(p.grid))
    comments = resolved_lines(cfg, "solve")
    _write_csv(out / "history.csv", comments, HISTORY_COLUMNS, res.history or [])
    write_field(res.state.u, out / "solution.field", kind="u", problem=p.name)
    write_field(p.a, out / "a.field", kind="a", problem=p.name)
    write_field(p.H, out / "h.field", kind="h", problem=p.name)
    if potential is not None:
        write_field(potential, out / "f.field", kind="f", problem=p.name)
    if exact is not None:
        write_field(exact, out / "u_exact.field", kind="u_exact", problem=p.name)
    _write_certificate(out, certify(res.state.u, p), comments)
    if not res.converged:
        return f"solve stopped at max_iter={cfg.max_iter} without meeting tol={cfg.tol:g}"


def _cmd_certify(cfg: RunConfig, out: Path) -> None:
    p, _, u = _build_problem(cfg)
    p = replace(p, exact_u=None)  # certify never reads it, so it is freed first
    if np.abs(u.boundary_values()).max() != 0.0:
        raise UsageError("solution in u_file must vanish on the boundary")
    _write_certificate(out, certify(u, p), resolved_lines(cfg, "certify"))


def _sweep_summary(report: StabilityReport, unconverged: list[str]) -> list[str]:
    lines = [f"summary: sigma1_est = {fmt(report.sigma1_est)}"]
    for col in SWEEP_COLUMNS:
        fit = report.fits[col]
        if fit is None:
            lines.append(f"summary: fit {col}: not enough positive points")
        else:
            lines.append(
                f"summary: fit {col}: slope = {fmt(fit.slope)}, "
                f"intercept = {fmt(fit.intercept)}, points = {fit.points_used}"
            )
    for shape in report.shapes.values():
        lines.append(
            f"summary: shape {shape.column} (exponent {shape.q}): "
            f"non_increasing = {shape.non_increasing}, slope_ok = {shape.slope_ok}, "
            f"ratio_ok = {shape.ratio_ok}"
        )
    for b in report.bounds:
        lines.append(
            f"summary: bound {b.name}: holds = {b.holds}, "
            f"max_ratio = {fmt(b.max_ratio)}, constant = {fmt(b.constant)}"
        )
    excluded = max((r.excluded_fraction for r in report.rows), default=0.0)
    lines.append(f"summary: max excluded node fraction = {fmt(excluded)}")
    lines += [f"summary: not converged, excluded from fits and bounds: {r}" for r in unconverged]
    return lines


def _cmd_sweep(cfg: RunConfig, out: Path) -> str | None:
    report = run_sweep(_build_problem(cfg)[0], cfg.sweep)
    unconverged = [f"eps = {fmt(r.eps)}, seed = {r.seed}" for r in report.rows if not r.valid]
    comments = resolved_lines(cfg, "sweep") + _sweep_summary(report, unconverged)
    _write_rows(out / "sweep.csv", comments, report.rows)
    if unconverged:
        return f"{len(unconverged)} sweep row(s) did not converge: {'; '.join(unconverged)}"


def _cmd_table1(cfg: RunConfig, out: Path) -> str | None:
    rows = table1_experiment(cfg.solver, seeds=cfg.seeds, n=cfg.n, deltas=cfg.deltas)
    comments = resolved_lines(cfg, "table1")
    comments.append(f"summary: replication = {cfg.n == 100}")
    for d in cfg.deltas:
        runs = [r for r in rows if r.eps == d]
        comments.append(
            f"summary: delta = {fmt(float(d))}: "
            f"mean_rel_l2 = {fmt(np.mean([r.rel_l2 for r in runs]))}, "
            f"mean_iters = {fmt(np.mean([r.iters for r in runs]))}, "
            f"max_err = {fmt(max(r.max_err for r in runs))}, "
            f"capped = {sum(not r.valid for r in runs)} of {len(runs)}"
        )
    unconverged = [f"delta = {fmt(r.eps)}, seed = {r.seed}" for r in rows if not r.valid]
    comments += [f"summary: not converged: {r}" for r in unconverged]
    comments.append("note: err_* columns apply to perturbation sweeps; table1 rows carry nan")
    _write_rows(out / "table1.csv", comments, rows)
    if unconverged:
        return f"{len(unconverged)} table1 run(s) did not converge: {'; '.join(unconverged)}"


def _contour_field(cfg: RunConfig) -> ScalarField:
    """v = u + f, the field whose level sets ``contour`` measures; example1
    is built only for its exact u, when no u_file is given."""
    p, potential, u = _build_problem(cfg, example=cfg.u_file is None)
    u = p.exact_u if u is None else u
    return u if potential is None else u + potential


def _cmd_contour(cfg: RunConfig, out: Path) -> None:
    # the problem data is dropped before the level-set pass
    table = level_set_lengths(_contour_field(cfg))
    sup_len = max(length for _, length in table)
    comments = resolved_lines(cfg, "contour")
    comments.append(f"summary: sup_length = {fmt(sup_len)} over {len(table)} levels")
    _write_csv(out / "contour.csv", comments, ("t", "length"), table)


def _read_history_csv(path: Path) -> list[tuple[int, float, float]]:
    """The rows of a ``solve`` history: '#' lines, the exact header, then int,float,float lines."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: cannot read history ({exc})") from None
    header = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    if lines[header : header + 1] != [",".join(HISTORY_COLUMNS)]:
        raise UsageError(f"{path}:{header + 1}: expected the header {','.join(HISTORY_COLUMNS)}")
    rows = []
    for lineno, line in enumerate(lines[header + 1 :], start=header + 2):
        try:
            k, rel, energy = line.split(",")
            rows.append((int(k), float(rel), float(energy)))
        except ValueError:
            raise UsageError(f"{path}:{lineno}: expected int,float,float, got {line!r}") from None
    return rows


def _write_surface(path: Path, field: ScalarField) -> None:
    """gnuplot surface data: one "x y value" line per node, a blank line after each row."""
    ax = field.grid.axis().tolist()
    with open(path, "w", encoding="utf-8") as f:
        for x, row in zip(ax, field.values):
            f.writelines(
                f"{x:{FLOAT_SPEC}} {y:{FLOAT_SPEC}} {v:{FLOAT_SPEC}}\n"
                for y, v in zip(ax, row.tolist())
            )
            f.write("\n")


def _cmd_plotdata(cfg: RunConfig, out: Path) -> None:
    """Read and check every input and every target, then create plots/ and
    write each file with its gnuplot lines."""
    history, solution, exact, plots = (
        out / name for name in ("history.csv", "solution.field", "u_exact.field", "plots")
    )
    if not (history.exists() or solution.exists()):
        raise UsageError(f"nothing to plot: no history.csv or solution.field found in {out}")
    if plots.exists() and not plots.is_dir():
        raise UsageError(f"{plots}: exists and is not a directory")
    rows = _read_history_csv(history) if history.exists() else None
    surfaces = []
    if solution.exists():
        u = read_field_meta(solution)[0]
        surfaces.append(("solution", "numerical solution", u))
        ue = read_field_meta(exact)[0] if exact.exists() else None
        if ue is not None and ue.grid == u.grid:
            surfaces += [("exact", "exact solution", ue), ("error", "error", u - ue)]

    script = ["# generated by gradflux plotdata; run with: gnuplot plot.gp"]
    texts, fields = {}, {}  # file name under plots/ -> its text, or the field of a surface
    if rows:  # a zero-iteration history has no curve to plot
        for name, col, title, setup in (
            ("convergence", 1, "relative change", ["set logscale y", "set xlabel 'iteration'"]),
            ("energy", 2, "energy", ["unset logscale y"]),
        ):
            texts[f"{name}.dat"] = "\n".join(f"{row[0]} {fmt(row[col])}" for row in rows) + "\n"
            plot = f"plot '{name}.dat' with lines title '{title}'"
            script += [*setup, f"set ylabel '{title}'", plot, "pause -1 'press enter'"]
    for name, title, field in surfaces:
        fields[f"surface_{name}.dat"] = field
        splot = f"splot 'surface_{name}.dat' with pm3d title '{title}'"
        script += ["set xlabel 'x'", "set ylabel 'y'", splot, "pause -1 'press enter'"]
    texts["plot.gp"] = "\n".join(script) + "\n"
    # a directory in the way of any file fails the run before its first write
    for target in map(plots.joinpath, [*texts, *fields]):
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))

    plots.mkdir(exist_ok=True)
    for name, text in texts.items():
        (plots / name).write_text(text, encoding="utf-8")
    for name, field in fields.items():
        _write_surface(plots / name, field)


# each command takes (cfg, out) and returns what did not converge, or None
_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "contour": _cmd_contour,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    parser = _Parser(prog="gradflux", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="flat key = value config file")
        sp.add_argument("--out", default="gradflux-out", help="output directory")
        if name in ("solve", "sweep", "table1"):  # the commands that can stop unconverged
            sp.add_argument("--strict", action="store_true", help="non-convergence is fatal")
    try:
        args = parser.parse_args(argv)
        raw = parse_config_file(args.config)
        cfg = build_config(raw, args.command)
        out = Path(args.out)
        nearest = next(d for d in (out, *out.parents) if d.exists())
        if not nearest.is_dir():
            raise UsageError(f"--out {out}: {nearest} exists and is not a directory")
        # an overflow is reported once, by the field that rejects its inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            unconverged = _COMMANDS[args.command](cfg, out)
    except (UsageError, FieldFormatError, ProblemDataError, NonFiniteFieldError,
            BaseNotConvergedError) as exc:
        print(f"gradflux: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BaseNotConvergedError) else 1
    except OSError as exc:  # every read reports its own errors, so this is a failed write
        print(f"gradflux: {exc.filename or args.out}: cannot write ({exc.strerror or exc})",
              file=sys.stderr)
        return 1
    if unconverged is None:
        return 0
    print(f"gradflux: {unconverged}", file=sys.stderr)
    return 2 if args.strict else 0  # only the commands that have --strict can stop unconverged


if __name__ == "__main__":
    sys.exit(main())
