"""Command-line entry point.

Subcommands::

    gradflux solve    --config cfg [--out DIR] [--strict]
    gradflux certify  --config cfg [--out DIR]
    gradflux sweep    --config cfg [--out DIR] [--strict]
    gradflux table1   --config cfg [--out DIR] [--strict]
    gradflux contour  --config cfg [--out DIR]
    gradflux plotdata --config cfg [--out DIR]

Exit codes: 0 success, 1 usage/configuration error, 2 compute failure
(non-convergence under --strict, or a sweep whose base solve did not converge).

Every CSV embeds the fully resolved configuration as '#' comment lines, so
any run can be replayed from its own output.  Two invocations with the same
configuration produce byte-identical files; nothing time- or path-dependent
is written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bregman import SolverConfig, solve
from .config import (
    RunConfig,
    UsageError,
    _fmt,
    build_config,
    parse_config_file,
    resolved_lines,
)
from .duality import Certificate, certify
from .fieldio import FieldFormatError, read_field_meta, write_field
from .grid import GridSpec, ScalarField, VectorField, gradient
from .levelset import level_set_lengths
from .perturb import NoiseScaleError, apply_table1_noise
from .poisson import PoissonSolver
from .problems import ProblemData, example1
from .stability import (
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    BaseNotConvergedError,
    StabilityReport,
    SweepSpec,
    run_sweep,
    table1_experiment,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise UsageError(message)


def _write_csv(path: Path, comments, columns, rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _build_problem(cfg: RunConfig) -> ProblemData:
    if cfg.problem == "example1":
        return example1(GridSpec(cfg.n))
    fields = {}
    for key, path in (("a", cfg.a_file), ("h", cfg.h_file), ("f", cfg.f_file)):
        if path is None:
            continue
        fields[key], _, _ = read_field_meta(path)
    ns = {k: f.grid.n for k, f in fields.items()}
    if len(set(ns.values())) > 1:
        raise UsageError(f"grid mismatch between field files: {ns}")
    grid = fields["a"].grid
    if "f" in fields:
        potential = fields["f"]
        drift = gradient(potential)
    else:
        potential = ScalarField.zeros(grid)
        drift = VectorField.zeros(grid)
    p = ProblemData(
        grid,
        a=fields["a"],
        F=drift,
        H=fields["h"],
        potential_f=potential,
        name="files",
    )
    if p.m <= 0.0:
        raise UsageError(
            f"a_file {cfg.a_file}: the weight must be positive at every node, "
            f"but its minimum is {p.m:g}"
        )
    return p


def _solver_config(cfg: RunConfig, record_history: bool = False) -> SolverConfig:
    return SolverConfig(
        lam=cfg.lam, tol=cfg.tol, max_iter=cfg.max_iter, record_history=record_history
    )


def _read_u_file(cfg: RunConfig, grid: GridSpec) -> ScalarField:
    u, _, _ = read_field_meta(cfg.u_file)
    if u.grid != grid:
        raise UsageError(f"grid mismatch: u_file has n={u.grid.n}, problem has n={grid.n}")
    return u


def _write_certificate(out: Path, cert: Certificate, comments) -> None:
    (out / "certificate.txt").write_text(cert.as_text())
    d = cert.as_dict()
    _write_csv(out / "certificate.csv", comments, tuple(d), [tuple(d.values())])


def _nonconvergence_status(failed: bool, message: str, strict: bool) -> int:
    """Report non-convergence on stderr; it is fatal (exit 2) only under --strict."""
    if not failed:
        return 0
    print(f"gradflux: {message}", file=sys.stderr)
    return 2 if strict else 0


def _cmd_solve(cfg: RunConfig, out: Path, strict: bool) -> int:
    p = _build_problem(cfg)
    exact = p.exact_u
    if cfg.delta > 0:
        p = apply_table1_noise(p, cfg.delta, cfg.seeds[0])
    res = solve(p, _solver_config(cfg, record_history=True), PoissonSolver(p.grid))
    comments = resolved_lines(cfg, "solve")

    write_field(res.state.u, out / "solution.field", kind="u", problem=p.name)
    write_field(p.a, out / "a.field", kind="a", problem=p.name)
    write_field(p.H, out / "h.field", kind="h", problem=p.name)
    if p.potential_f is not None:
        write_field(p.potential_f, out / "f.field", kind="f", problem=p.name)
    if exact is not None:
        write_field(exact, out / "u_exact.field", kind="u_exact", problem=p.name)
    _write_csv(
        out / "history.csv",
        comments,
        ("k", "rel_change", "energy"),
        res.history or [],
    )
    _write_certificate(out, certify(res.state.u, p, cfg.eta), comments)

    return _nonconvergence_status(
        not res.converged,
        f"solve stopped at max_iter={cfg.max_iter} without meeting tol={cfg.tol:g}",
        strict,
    )


def _cmd_certify(cfg: RunConfig, out: Path, strict: bool) -> int:
    if cfg.u_file is None:
        raise UsageError("certify needs key 'u_file' (the solution field to check)")
    p = _build_problem(cfg)
    u = _read_u_file(cfg, p.grid)
    if np.abs(u.boundary_values()).max() != 0.0:
        raise UsageError("solution in u_file must vanish on the boundary")
    _write_certificate(out, certify(u, p, cfg.eta), resolved_lines(cfg, "certify"))
    return 0


def _sweep_summary(report: StabilityReport, unconverged: list[str]) -> list[str]:
    lines = [f"summary: sigma1_est = {report.sigma1_est:.17g}"]
    for col in SWEEP_COLUMNS:
        fit = report.fits[col]
        if fit is None:
            lines.append(f"summary: fit {col}: not enough positive points")
        else:
            lines.append(
                f"summary: fit {col}: slope = {fit.slope:.6g}, "
                f"intercept = {fit.intercept:.6g}, points = {fit.points_used}"
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
            f"max_ratio = {b.max_ratio:.6g}, constant = {b.constant:.6g}"
        )
    excluded = max((r.excluded_fraction for r in report.rows), default=0.0)
    lines.append(f"summary: max excluded node fraction = {excluded:.6g}")
    lines += [f"summary: not converged, excluded from fits and bounds: {r}" for r in unconverged]
    return lines


def _cmd_sweep(cfg: RunConfig, out: Path, strict: bool) -> int:
    p = _build_problem(cfg)
    spec = SweepSpec(
        param=cfg.param,
        epsilons=cfg.epsilons,
        mode=cfg.mode,
        seeds=cfg.seeds,
        solver=_solver_config(cfg),
        eta=cfg.eta,
    )
    report = run_sweep(p, spec)
    unconverged = [f"eps = {_fmt(r.eps)}, seed = {r.seed}" for r in report.rows if not r.valid]
    comments = resolved_lines(cfg, "sweep") + _sweep_summary(report, unconverged)
    rows = [tuple(getattr(r, c) for c in REPORT_COLUMNS) for r in report.rows]
    _write_csv(out / "sweep.csv", comments, REPORT_COLUMNS, rows)
    return _nonconvergence_status(
        bool(unconverged),
        f"{len(unconverged)} sweep row(s) did not converge: {'; '.join(unconverged)}",
        strict,
    )


def _cmd_table1(cfg: RunConfig, out: Path, strict: bool) -> int:
    report = table1_experiment(
        _solver_config(cfg), seeds=cfg.seeds, n=cfg.n, deltas=cfg.deltas
    )
    comments = resolved_lines(cfg, "table1")
    comments.append(f"summary: replication = {report.replication}")
    for d in cfg.deltas:
        runs = [r for r in report.rows if r.delta == d]
        capped = sum(not r.converged for r in runs)
        comments.append(
            f"summary: delta = {_fmt(float(d))}: mean_rel_l2 = "
            f"{report.mean_rel_l2[d]:.17g}, mean_iters = {report.mean_iters[d]:.17g}, "
            f"max_err = {report.max_err[d]:.17g}, capped = {capped} of {len(runs)}"
        )
    unconverged = [
        f"delta = {_fmt(r.delta)}, seed = {r.seed}" for r in report.rows if not r.converged
    ]
    comments += [f"summary: not converged: {r}" for r in unconverged]
    comments.append("note: err_* columns apply to perturbation sweeps; table1 rows carry nan")
    rows = []
    for r in report.rows:
        known = {"eps": r.delta, "seed": r.seed, "iters": r.iters, "rel_l2": r.rel_l2}
        rows.append(tuple(known.get(c, float("nan")) for c in REPORT_COLUMNS))
    _write_csv(out / "table1.csv", comments, REPORT_COLUMNS, rows)
    return _nonconvergence_status(
        bool(unconverged),
        f"{len(unconverged)} table1 run(s) did not converge: {'; '.join(unconverged)}",
        strict,
    )


def _contour_field(cfg: RunConfig) -> ScalarField:
    """v = u + f, the field whose level sets ``contour`` measures."""
    p = _build_problem(cfg)
    if cfg.u_file is not None:
        u = _read_u_file(cfg, p.grid)
    elif p.exact_u is not None:
        u = p.exact_u
    else:
        raise UsageError("contour needs 'u_file' or a problem with a known solution")
    return u if p.potential_f is None else u + p.potential_f


def _cmd_contour(cfg: RunConfig, out: Path, strict: bool) -> int:
    # the problem data is dropped before the level-set pass
    table = level_set_lengths(_contour_field(cfg))
    sup_len = max(length for _, length in table)
    comments = resolved_lines(cfg, "contour")
    comments.append(f"summary: sup_length = {sup_len:.17g} over {len(table)} levels")
    _write_csv(out / "contour.csv", comments, ("t", "length"), table)
    return 0


def _read_history_csv(path: Path) -> list[tuple[float, float, float]]:
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("k,"):
            continue
        k, rel, energy = line.split(",")
        rows.append((float(k), float(rel), float(energy)))
    return rows


def _write_surface(path: Path, field: ScalarField) -> None:
    """gnuplot surface data: one "x y value" line per node, a blank line after each row."""
    ax = field.grid.axis().tolist()
    with open(path, "w") as f:
        for x, row in zip(ax, field.values):
            f.writelines(f"{x:.17g} {y:.17g} {v:.17g}\n" for y, v in zip(ax, row.tolist()))
            f.write("\n")


def _cmd_plotdata(cfg: RunConfig, out: Path, strict: bool) -> int:
    plots = out / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    produced = []

    history = out / "history.csv"
    if history.exists():
        rows = _read_history_csv(history)
        (plots / "convergence.dat").write_text(
            "\n".join(f"{int(k)} {rel:.17g}" for k, rel, _ in rows) + "\n"
        )
        (plots / "energy.dat").write_text(
            "\n".join(f"{int(k)} {e:.17g}" for k, _, e in rows) + "\n"
        )
        produced += ["convergence.dat", "energy.dat"]

    solution = out / "solution.field"
    exact_path = out / "u_exact.field"
    if solution.exists():
        u, _, _ = read_field_meta(solution)
        _write_surface(plots / "surface_solution.dat", u)
        produced.append("surface_solution.dat")
        if exact_path.exists():
            ue, _, _ = read_field_meta(exact_path)
            if ue.grid == u.grid:
                _write_surface(plots / "surface_exact.dat", ue)
                _write_surface(plots / "surface_error.dat", u - ue)
                produced += ["surface_exact.dat", "surface_error.dat"]

    if not produced:
        raise UsageError(
            f"nothing to plot: no history.csv or solution.field found in {out}"
        )

    script = ["# generated by gradflux plotdata; run with: gnuplot plot.gp"]
    if "convergence.dat" in produced:
        script += [
            "set logscale y",
            "set xlabel 'iteration'",
            "set ylabel 'relative change'",
            "plot 'convergence.dat' with lines title 'relative change'",
            "pause -1 'press enter'",
            "unset logscale y",
            "set ylabel 'energy'",
            "plot 'energy.dat' with lines title 'energy'",
            "pause -1 'press enter'",
        ]
    for name, title in (
        ("surface_solution.dat", "numerical solution"),
        ("surface_exact.dat", "exact solution"),
        ("surface_error.dat", "error"),
    ):
        if name in produced:
            script += [
                "set xlabel 'x'",
                "set ylabel 'y'",
                f"splot '{name}' with pm3d title '{title}'",
                "pause -1 'press enter'",
            ]
    (plots / "plot.gp").write_text("\n".join(script) + "\n")
    return 0


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
        sp.add_argument("--strict", action="store_true", help="non-convergence is fatal")
    try:
        args = parser.parse_args(argv)
        raw = parse_config_file(args.config)
        cfg = build_config(raw, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args.strict)
    except (UsageError, FieldFormatError, NoiseScaleError, BaseNotConvergedError) as exc:
        print(f"gradflux: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BaseNotConvergedError) else 1


if __name__ == "__main__":
    sys.exit(main())
