import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradflux.cli
import gradflux.stability
from gradflux import GridSpec, ScalarField, SolverConfig, SweepSpec, example1
from gradflux.cli import main
from gradflux.config import ALLOWED_KEYS, UsageError, build_config, parse_config_file
from gradflux.fieldio import fmt, read_field_meta, write_field


def write_cfg(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


SOLVE_KEYS = dict(problem="example1", n=32, tol="1e-7", max_iter=4000)


class TestConfigParsing:
    def test_flat_format_with_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\nn = 16\n\nlambda = 2.0  # trailing\n")
        raw = parse_config_file(cfg)
        assert raw == {"n": "16", "lambda": "2.0"}
        built = build_config(raw, "solve")
        assert built.n == 16
        assert built.lam == 2.0

    def test_defaults_mirror_reference_experiments(self):
        cfg = build_config({}, "solve")
        assert cfg.n == 100
        assert cfg.lam == 1.0
        assert cfg.tol == 1e-7

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # 'eta' names no key: the flux safeguard is the constant duality.ETA
        for key in ("foo", "eta"):
            with pytest.raises(UsageError, match=f"unknown config key '{key}'"):
                build_config({key: "1"}, "solve")
        cfg = write_cfg(tmp_path / "c.cfg", n=8, eta="1e-8")
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "gradflux: unknown config key 'eta'\n"
        assert not out.exists()

    def test_out_of_place_key_rejected(self):
        with pytest.raises(UsageError, match="not used by 'solve'"):
            build_config({"epsilons": "0.1"}, "solve")

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 16\nn = 17\n")
        with pytest.raises(UsageError, match="duplicate"):
            parse_config_file(cfg)

    def test_undecodable_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"# caf\xe9\nn = 16\n")
        with pytest.raises(UsageError, match=f"cannot read config file {cfg}: .*0xe9"):
            parse_config_file(cfg)

    def test_type_errors_name_the_key(self):
        with pytest.raises(UsageError, match="'n' needs an integer"):
            build_config({"n": "ten"}, "solve")
        with pytest.raises(UsageError, match="'tol' needs a number"):
            build_config({"tol": "tiny"}, "solve")

    def test_range_checks(self):
        with pytest.raises(UsageError, match="'lambda'"):
            build_config({"lambda": "0"}, "solve")
        with pytest.raises(UsageError, match="decreasing"):
            build_config({"epsilons": "0.01, 0.02"}, "sweep")
        with pytest.raises(UsageError, match="param must be one of"):
            build_config({"param": "b"}, "sweep")
        with pytest.raises(UsageError, match="mode must be one of"):
            build_config({"mode": "bogus"}, "sweep")
        with pytest.raises(UsageError, match="param must be a or H"):
            build_config({"param": "f", "mode": "noise"}, "sweep")
        with pytest.raises(UsageError, match="f always moves by the potential bump"):
            build_config({"param": "f", "mode": "smooth-bump"}, "sweep")

    @pytest.mark.parametrize("key, value, command", [
        ("lambda", "nan", "solve"), ("lambda", "inf", "solve"), ("tol", "nan", "solve"),
        ("delta", "nan", "solve"),
        ("deltas", "0.01, nan", "table1"), ("epsilons", "inf, 0.01", "sweep")])
    def test_non_finite_numbers_rejected(self, key, value, command, tmp_path, capsys):
        with pytest.raises(UsageError, match=f"key '{key}' must be finite"):
            build_config({key: value}, command)
        cfg = write_cfg(tmp_path / "c.cfg", n=8, **{key: value})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"'{key}' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, command, message", [
        ("n", "1", "solve", "grid needs an integer n >= 2, got n=1"),
        ("tol", "0", "solve", "tol must be positive and finite"),
        ("max_iter", "-1", "table1", "max_iter must be nonnegative"),
        ("epsilons", "-0.01", "sweep", "epsilons must be nonnegative and finite")])
    def test_out_of_range_rejected_by_library_rule(
        self, key, value, command, message, tmp_path, capsys
    ):
        with pytest.raises(UsageError, match=re.escape(message)):
            build_config({key: value}, command)
        cfg = write_cfg(tmp_path / "c.cfg", **{key: value})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"gradflux: {message}\n"
        assert not out.exists()

    def test_solver_and_sweep_built_from_the_keys(self):
        raw = {"lambda": "0.5", "tol": "1e-6", "max_iter": "300",
               "param": "a", "epsilons": "0.02, 0.01", "mode": "noise", "seeds": "0, 1"}
        cfg = build_config(raw, "sweep")
        solver = SolverConfig(lam=0.5, tol=1e-6, max_iter=300)
        assert cfg.solver == solver
        assert cfg.sweep == SweepSpec("a", (0.02, 0.01), "noise", (0, 1), solver)
        with pytest.raises(AttributeError):
            cfg.sweep = cfg.sweep

    def test_empty_list_rejected(self):
        with pytest.raises(UsageError, match="non-empty"):
            build_config({"epsilons": ""}, "sweep")

    def test_readme_key_table_matches_allowed_keys(self):
        # plotdata accepts every key, so the table's "used by" column leaves it out
        commands = [c for c in ALLOWED_KEYS if c != "plotdata"]
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = {}
        for line in text.splitlines():
            if not line.startswith("| `"):
                continue
            cells = [c.strip() for c in line.strip("|").split("|")]
            used_by = commands if cells[2] == "all" else cells[2].split(", ")
            for key in re.findall(r"`([^`]+)`", cells[0]):
                documented[key] = set(used_by)
        assert documented.keys() == set(ALLOWED_KEYS["plotdata"])
        for key, used_by in documented.items():
            assert used_by == {c for c in commands if key in ALLOWED_KEYS[c]}, key


class TestSolveCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "solve.cfg", **SOLVE_KEYS)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        for name in (
            "solution.field",
            "a.field",
            "h.field",
            "u_exact.field",
            "history.csv",
            "certificate.txt",
            "certificate.csv",
        ):
            assert (out / name).exists(), name
        cert = dict(
            line.split(" = ")
            for line in (out / "certificate.txt").read_text().strip().splitlines()
        )
        assert abs(float(cert["gap"])) / float(cert["primal"]) <= 2e-2
        history = (out / "history.csv").read_text()
        assert "k,rel_change,energy" in history
        assert "# command = solve" in history

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_strict_flags_non_convergence(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "solve.cfg", problem="example1", n=32, max_iter=3)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out), "--strict"]) == 2
        assert "max_iter" in capsys.readouterr().err
        # non-strict keeps going
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["solve", "sweep", "table1", "certify", "contour", "plotdata"])
def test_strict_only_on_commands_that_can_stop_unconverged(command, tmp_path, capsys):
    # an unknown key fails after the arguments parse, so its message shows --strict was accepted
    cfg = write_cfg(tmp_path / "c.cfg", foo=1)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--strict"]) == 1
    if command in ("solve", "sweep", "table1"):
        assert capsys.readouterr().err == "gradflux: unknown config key 'foo'\n"
    else:
        assert capsys.readouterr().err == "gradflux: unrecognized arguments: --strict\n"
    assert not out.exists()


class TestCertifyCommand:
    def test_certify_solved_field(self, tmp_path):
        cfg = write_cfg(tmp_path / "solve.cfg", **SOLVE_KEYS)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        ccfg = write_cfg(
            tmp_path / "cert.cfg",
            problem="example1",
            n=32,
            u_file=str(out / "solution.field"),
        )
        cout = tmp_path / "cert"
        assert main(["certify", "--config", ccfg, "--out", str(cout)]) == 0
        assert (
            (cout / "certificate.txt").read_text()
            == (out / "certificate.txt").read_text()
        )

    def test_grid_mismatch_reported(self, tmp_path, capsys):
        p = example1(GridSpec(16))
        upath = tmp_path / "u.field"
        write_field(p.exact_u, upath)
        ccfg = write_cfg(
            tmp_path / "cert.cfg", problem="example1", n=32, u_file=str(upath)
        )
        assert main(["certify", "--config", ccfg, "--out", str(tmp_path / "o")]) == 1
        assert "grid mismatch" in capsys.readouterr().err

    def test_non_finite_u_file_reported(self, tmp_path, capsys):
        upath = tmp_path / "u.field"
        values = example1(GridSpec(4)).exact_u.values.copy()
        values[2, 2] = np.nan
        with open(upath, "wb") as f:
            np.save(f, values)
        ccfg = write_cfg(
            tmp_path / "cert.cfg", problem="example1", n=4, u_file=str(upath)
        )
        assert main(["certify", "--config", ccfg, "--out", str(tmp_path / "o")]) == 1
        assert f"gradflux: {upath}: non-finite value nan at node (2, 2)" in capsys.readouterr().err

    def test_u_file_must_vanish_on_the_boundary(self, tmp_path, capsys):
        upath = tmp_path / "u.field"
        write_field(ScalarField.full(GridSpec(8), 1.0), upath)
        ccfg = write_cfg(tmp_path / "cert.cfg", problem="example1", n=8, u_file=str(upath))
        out = tmp_path / "o"
        assert main(["certify", "--config", ccfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "gradflux: solution in u_file must vanish on the boundary\n"
        )
        assert not (out / "certificate.txt").exists()

    def test_missing_u_file_key(self, tmp_path, capsys):
        ccfg = write_cfg(tmp_path / "cert.cfg", problem="example1", n=32)
        assert main(["certify", "--config", ccfg, "--out", str(tmp_path / "o")]) == 1
        assert "u_file" in capsys.readouterr().err


class TestUndecodableInput:
    def test_contour_on_undecodable_field_exits_1(self, tmp_path, capsys):
        """A field file in the text format of earlier versions gets one line."""
        upath = tmp_path / "u.field"
        upath.write_bytes(b"gradflux-field n=2 kind=u problem=t\n0 0 0\n0 \xff 0\n0 0 0\n")
        cfg = write_cfg(tmp_path / "c.cfg", problem="example1", n=2, u_file=str(upath))
        assert main(["contour", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gradflux: {upath}: not a field file (the magic string")
        assert len(err.splitlines()) == 1

    def test_solve_on_undecodable_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"problem = example1  # caf\xe9\nn = 8\n")
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"gradflux: cannot read config file {cfg}" in capsys.readouterr().err
        assert not out.exists()


def write_constant_files(tmp_path, n, a=1.0, h=0.5, h_n=None):
    write_field(ScalarField.full(GridSpec(n), a), tmp_path / "a.field")
    write_field(ScalarField.full(GridSpec(h_n or n), h), tmp_path / "h.field")
    return dict(problem="files", a_file=tmp_path / "a.field", h_file=tmp_path / "h.field")


class TestFilesProblem:
    def test_solve_from_field_files(self, tmp_path):
        g = GridSpec(24)
        x, y = g.meshgrid()
        a = ScalarField(g, 1.0 + x)
        f = ScalarField(g, 0.2 * x * y)
        h = ScalarField.full(g, 0.5)
        write_field(a, tmp_path / "a.field")
        write_field(f, tmp_path / "f.field")
        write_field(h, tmp_path / "h.field")
        cfg = write_cfg(
            tmp_path / "solve.cfg",
            problem="files",
            a_file=str(tmp_path / "a.field"),
            f_file=str(tmp_path / "f.field"),
            h_file=str(tmp_path / "h.field"),
            max_iter=4000,
        )
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        u = read_field_meta(out / "solution.field")
        assert u.grid == g
        assert np.abs(u.boundary_values()).max() == 0.0
        assert (out / "f.field").exists()

    def test_files_problem_needs_paths(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "solve.cfg", problem="files")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "a_file" in capsys.readouterr().err

    def test_noise_on_zero_drift_reported(self, tmp_path, capsys):
        g = GridSpec(8)
        write_field(ScalarField.full(g, 1.0), tmp_path / "a.field")
        write_field(ScalarField.full(g, 0.5), tmp_path / "h.field")
        cfg = write_cfg(
            tmp_path / "solve.cfg",
            problem="files",
            a_file=str(tmp_path / "a.field"),
            h_file=str(tmp_path / "h.field"),
            delta=0.01,
            seeds=0,
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "gradflux: noise scale undefined for a zero field" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [-1.0, 0.0])
    @pytest.mark.parametrize(
        "command, written", [("solve", "solution.field"), ("sweep", "sweep.csv")]
    )
    @pytest.mark.parametrize("strict", [False, True])
    def test_nonpositive_weight_rejected(self, tmp_path, capsys, bad, command, written, strict):
        g = GridSpec(8)
        a = np.ones(g.shape)
        a[3, 4] = bad
        write_field(ScalarField(g, a), tmp_path / "a.field")
        write_field(ScalarField.full(g, 0.5), tmp_path / "h.field")
        cfg = write_cfg(
            tmp_path / "run.cfg",
            problem="files",
            a_file=str(tmp_path / "a.field"),
            h_file=str(tmp_path / "h.field"),
        )
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)] + ["--strict"] * strict) == 1
        err = capsys.readouterr().err
        assert "a_file" in err and f"minimum is {bad:g}" in err
        assert not (out / written).exists()

    def test_n_that_disagrees_with_the_files_rejected_before_solve(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "solve.cfg", n=50, **write_constant_files(tmp_path, 16))
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "key 'n' = 50 does not match the field files' n=16" in err
        assert not (out / "solution.field").exists()

    @pytest.mark.parametrize("n_key", [{}, {"n": 16}])
    def test_resolved_n_is_the_files_n(self, tmp_path, n_key):
        cfg = write_cfg(
            tmp_path / "solve.cfg", max_iter=20, **n_key, **write_constant_files(tmp_path, 16)
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        history = (out / "history.csv").read_text().splitlines()
        assert [line for line in history if "n =" in line] == ["# n = 16"]
        assert not (out / "f.field").exists()  # no f_file, no potential

    def test_mismatched_field_grids_reported(self, tmp_path, capsys):
        write_field(ScalarField.full(GridSpec(8), 1.0), tmp_path / "a.field")
        write_field(ScalarField.zeros(GridSpec(9)), tmp_path / "h.field")
        cfg = write_cfg(
            tmp_path / "solve.cfg",
            problem="files",
            a_file=str(tmp_path / "a.field"),
            h_file=str(tmp_path / "h.field"),
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "grid mismatch" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv_schema(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "sweep.cfg",
            problem="example1",
            n=20,
            param="a",
            epsilons="0.04, 0.02",
            max_iter=4000,
        )
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == (
            "eps,seed,err_u_l1,err_gradu_l1,err_sigma_l1,err_J_l1,"
            "energy_diff,misalignment,iters,rel_l2"
        )
        assert any("summary: fit err_u_l1" in l for l in lines)

    def test_summary_values_read_back_exactly(self, tmp_path, monkeypatch):
        reports = []

        def run_and_keep(*args):
            reports.append(gradflux.stability.run_sweep(*args))
            return reports[-1]

        monkeypatch.setattr(gradflux.cli, "run_sweep", run_and_keep)
        cfg = write_cfg(
            tmp_path / "sweep.cfg", problem="example1", n=16, param="f", epsilons="0.04, 0.02"
        )
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        (report,) = reports
        expected = [report.sigma1_est]
        for fit in filter(None, report.fits.values()):
            expected += [fit.slope, fit.intercept]
        for b in report.bounds:
            expected += [b.max_ratio, b.constant]
        expected.append(max(r.excluded_fraction for r in report.rows))
        summary = [l for l in (out / "sweep.csv").read_text().splitlines() if "summary:" in l]
        names = r"\b(sigma1_est|slope|intercept|max_ratio|constant|fraction) = ([^,\s]+)"
        printed = [m.group(2) for l in summary for m in re.finditer(names, l)]
        assert [float(v) for v in printed] == expected
        assert len(report.bounds) == 3 and any(fmt(v) != f"{v:.6g}" for v in expected)

    def test_empty_epsilons_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("problem = example1\nepsilons =\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "epsilons" in capsys.readouterr().err


    def test_noise_mode_on_drift_rejected_before_solve(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "sweep.cfg", problem="example1", n=20, param="f", mode="noise"
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "mode = noise" in err and "param" in err
        assert not out.exists()


    def test_noise_on_zero_forcing_rejected_before_solve(self, tmp_path, capsys, monkeypatch):
        g = GridSpec(8)
        write_field(ScalarField.full(g, 1.0), tmp_path / "a.field")
        write_field(ScalarField.zeros(g), tmp_path / "h.field")
        cfg = write_cfg(
            tmp_path / "sweep.cfg",
            problem="files",
            a_file=str(tmp_path / "a.field"),
            h_file=str(tmp_path / "h.field"),
            param="H",
            mode="noise",
            seeds=0,
        )

        def no_solve(*args, **kwargs):
            pytest.fail("sweep solved before rejecting the zero forcing")

        monkeypatch.setattr(gradflux.stability, "solve", no_solve)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "gradflux: noise scale undefined for a zero field" in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [False, True])
    def test_unconverged_rows_named(self, tmp_path, capsys, strict):
        # the base solve converges within 500 iterations at n=8; the noised rows do not;
        # --strict changes the exit code only: the CSV is written in full either way
        cfg = write_cfg(
            tmp_path / "sweep.cfg",
            problem="example1",
            n=8,
            param="a",
            mode="noise",
            epsilons="0.04, 0.02",
            seeds=0,
            max_iter=500,
        )
        out = tmp_path / "run"
        argv = ["sweep", "--config", cfg, "--out", str(out)] + ["--strict"] * strict
        assert main(argv) == (2 if strict else 0)
        named = ["eps = 0.040000000000000001, seed = 0", "eps = 0.02, seed = 0"]
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 rows
        assert [l for l in lines if "not converged" in l] == [
            f"# summary: not converged, excluded from fits and bounds: {r}" for r in named
        ]
        err = capsys.readouterr().err
        assert err == f"gradflux: 2 sweep row(s) did not converge: {'; '.join(named)}\n"

    @pytest.mark.parametrize("strict", [False, True])
    def test_unconverged_base_reported(self, tmp_path, capsys, strict):
        # at n=24 the base solve needs more than 300 iterations
        cfg = write_cfg(
            tmp_path / "sweep.cfg",
            problem="example1",
            n=24,
            param="a",
            mode="noise",
            seeds="0, 1",
            max_iter=300,
        )
        out = tmp_path / "o"
        argv = ["sweep", "--config", cfg, "--out", str(out)]
        assert main(argv + ["--strict"] * strict) == 2
        err = capsys.readouterr().err
        assert err == "gradflux: base solve did not converge; cannot anchor the sweep\n"
        assert not out.exists()


class TestTable1Command:
    def test_mini_run_schema(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "t1.cfg", n=16, deltas="0.05", seeds="0, 1", max_iter=300
        )
        out = tmp_path / "run"
        assert main(["table1", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "table1.csv").read_text()
        assert "summary: delta" in text
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(body) == 3  # header + 2 rows

    def test_rows_are_the_experiment_rows(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "t1.cfg", n=16, deltas="0.05, 0.01", seeds="0, 1", max_iter=300
        )
        out = tmp_path / "run"
        assert main(["table1", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "table1.csv").read_text().splitlines()
        assert "# summary: replication = False" in lines
        body = lines[lines.index(",".join(gradflux.stability.REPORT_COLUMNS)) + 1 :]
        rows = gradflux.stability.table1_experiment(
            SolverConfig(max_iter=300), seeds=(0, 1), n=16, deltas=(0.05, 0.01)
        )
        assert len(body) == len(rows) == 4
        for line, r in zip(body, rows):
            assert line == ",".join(
                [fmt(r.eps), fmt(r.seed), *["nan"] * 6, fmt(r.iters), fmt(r.rel_l2)]
            )

    @pytest.mark.parametrize("strict", [False, True])
    def test_unconverged_runs_named(self, tmp_path, capsys, strict):
        # at n=8 and delta 0.06, seed 0 stops by tolerance after 261 iterations
        # and seed 1 runs to max_iter = 500; at max_iter = 1000 both converge;
        # --strict changes the exit code only: the CSV is written in full either way
        run = "delta = 0.059999999999999998, seed = 1"
        for max_iter, named in ((500, [run]), (1000, [])):
            cfg = write_cfg(
                tmp_path / "t1.cfg", n=8, deltas="0.06", seeds="0, 1", max_iter=max_iter
            )
            out = tmp_path / f"run{max_iter}"
            argv = ["table1", "--config", cfg, "--out", str(out)] + ["--strict"] * strict
            assert main(argv) == (2 if strict and named else 0)
            lines = (out / "table1.csv").read_text().splitlines()
            assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 rows
            assert [l for l in lines if "not converged" in l] == [
                f"# summary: not converged: {r}" for r in named
            ]
            (delta_line,) = [l for l in lines if l.startswith("# summary: delta")]
            assert delta_line.endswith(f", capped = {len(named)} of 2")
            err = capsys.readouterr().err
            assert err == (f"gradflux: 1 table1 run(s) did not converge: {run}\n" if named else "")


class TestContourCommand:
    def test_benchmark_contours(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", problem="example1", n=32)
        out = tmp_path / "run"
        assert main(["contour", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "contour.csv").read_text()
        assert "t,length" in text
        assert "sup_length" in text
        body = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(body) == 50

    @pytest.mark.parametrize("u_n, code, err", [
        (8, 0, ""),
        (16, 1, "gradflux: grid mismatch: u_file has n=16, problem has n=8\n"),
    ], ids=["same-grid", "grid-mismatch"])
    def test_u_file_run_builds_no_example1(self, u_n, code, err, tmp_path, capsys, monkeypatch):
        """The u_file is the field measured, so the example1 instance is never built."""
        def no_example1(grid):
            pytest.fail("contour built example1 although a u_file gives the field")

        monkeypatch.setattr(gradflux.cli, "example1", no_example1)
        u = example1(GridSpec(u_n)).exact_u
        write_field(u, tmp_path / "u.field")
        cfg = write_cfg(tmp_path / "c.cfg", problem="example1", n=8, u_file=tmp_path / "u.field")
        out = tmp_path / "run"
        assert main(["contour", "--config", cfg, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert (out / "contour.csv").exists() == (code == 0)


def rewrite_line(path, index, edit):
    """Replace line `index` (from 0) of a text file by edit(line)."""
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def bad_history_row(text):
    def damage(out):
        path = out / "history.csv"
        row = path.read_text().splitlines().index("k,rel_change,energy") + 1
        rewrite_line(path, row, lambda line: text)
        return f"{path}:{row + 1}: expected int,float,float, got {text!r}"
    return damage


def directory_instead(name, *removed):
    def damage(out):
        for path in (*removed, name):
            (out / path).unlink()
        (out / name).mkdir()
        return f"{out / name}: cannot read"
    return damage


def undecodable_history(out):
    with open(out / "history.csv", "ab") as f:
        f.write(b"2,\xff,1\n")
    return f"{out / 'history.csv'}: cannot read history"


def truncated_solution(out):
    path = out / "solution.field"
    path.write_bytes(path.read_bytes()[:-8])
    return f"{path}: not a field file (shape (13, 13) needs 1352 bytes of values, file holds 1344)"


def malformed_exact(out):
    (out / "u_exact.field").write_text("gradflux-field n=12 kind=u_exact problem=example1\n")
    return f"{out / 'u_exact.field'}: not a field file (the magic string"


def plots_file(out):
    (out / "plots").write_text("kept\n")
    return f"{out / 'plots'}: exists and is not a directory"


# Each damages a copy of a solve directory and returns the start of the error it must cause.
PLOTDATA_DAMAGE = {
    "solution-truncated": truncated_solution,
    "history-two-columns": bad_history_row("1,abc"),
    "history-not-numbers": bad_history_row("a,b,c"),
    "history-not-utf8": undecodable_history,
    "history-directory": directory_instead("history.csv"),
    "solution-directory": directory_instead("solution.field", "history.csv"),
    "exact-malformed": malformed_exact,
    "plots-file": plots_file,
}


class TestPlotdataCommand:
    def test_from_solve_output(self, tmp_path):
        cfg = write_cfg(tmp_path / "solve.cfg", **SOLVE_KEYS)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert main(["plotdata", "--config", cfg, "--out", str(out)]) == 0
        plots = out / "plots"
        for name in (
            "convergence.dat",
            "energy.dat",
            "surface_solution.dat",
            "surface_exact.dat",
            "surface_error.dat",
            "plot.gp",
        ):
            assert (plots / name).exists(), name
        first = (plots / "convergence.dat").read_text().splitlines()[0]
        assert first.startswith("1 ")
        # the streamed surface equals the same lines built as one joined string
        u = read_field_meta(out / "solution.field")
        ax = u.grid.axis()
        lines = []
        for i, x in enumerate(ax):
            lines += [f"{x:.17g} {y:.17g} {u.values[i, j]:.17g}" for j, y in enumerate(ax)]
            lines.append("")
        assert (plots / "surface_solution.dat").read_text() == "\n".join(lines) + "\n"

    def test_zero_iteration_history_writes_no_curves(self, tmp_path):
        # a header-only history.csv has no curve: an empty .dat would stop gnuplot
        cfg = write_cfg(tmp_path / "solve.cfg", problem="example1", n=12, max_iter=0)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert main(["plotdata", "--config", cfg, "--out", str(out)]) == 0
        plots = out / "plots"
        surfaces = {f"surface_{name}.dat" for name in ("solution", "exact", "error")}
        assert {f.name for f in plots.iterdir()} == {"plot.gp", *surfaces}
        script = (plots / "plot.gp").read_text().splitlines()
        assert [l for l in script if l.startswith("plot ")] == []  # only splot lines

    def test_keys_it_does_not_read_are_not_range_checked(self, tmp_path):
        # 'problem = files' without its field files would fail every other command
        out = tmp_path / "run"
        out.mkdir()
        write_field(example1(GridSpec(4)).exact_u, out / "solution.field")
        cfg = write_cfg(tmp_path / "plot.cfg", problem="files")
        assert main(["plotdata", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "plots" / "surface_solution.dat").exists()

    def test_empty_dir_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "solve.cfg", **SOLVE_KEYS)
        out = tmp_path / "x"
        out.mkdir()
        assert main(["plotdata", "--config", cfg, "--out", str(out)]) == 1
        assert "nothing to plot" in capsys.readouterr().err
        assert not list(out.iterdir())  # no plots/ left behind

    @pytest.mark.parametrize("damage", list(PLOTDATA_DAMAGE))
    def test_bad_input_exits_1_and_writes_nothing(self, damage, n12_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(n12_run, out)
        named = PLOTDATA_DAMAGE[damage](out)
        before = snapshot(out)
        cfg = write_cfg(tmp_path / "plot.cfg", problem="example1")
        assert main(["plotdata", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gradflux: {named}") and len(err.splitlines()) == 1
        assert snapshot(out) == before  # no plots/ and no file changed


def snapshot(root):
    """Every path under root, with the bytes of each file."""
    return {p: None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.fixture(scope="module")
def n12_run(tmp_path_factory):
    """One solve directory at n=12, copied by each test that damages it."""
    root = tmp_path_factory.mktemp("n12")
    cfg = write_cfg(root / "solve.cfg", problem="example1", n=12, max_iter=2000)
    assert main(["solve", "--config", cfg, "--out", str(root / "run")]) == 0
    return root / "run"


HISTORY_ROWS = st.lists(st.tuples(
    st.integers(0, 10**9),
    st.one_of(st.just(math.inf), st.floats(min_value=0.0, allow_nan=False)),
    st.floats(allow_nan=False),
))


@given(rows=HISTORY_ROWS)
@settings(max_examples=50, deadline=None)
def test_history_rows_read_back_exactly(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("history") / "history.csv"
    gradflux.cli._write_csv(path, ["command = solve"], gradflux.cli.HISTORY_COLUMNS, rows)
    back = gradflux.cli._read_history_csv(path)
    assert back == rows and all(type(k) is int for k, _, _ in back)


@pytest.mark.parametrize("header", [
    "k,rel_change", "k,rel_change,energy,extra", "rel_change,k,energy", "K,rel_change,energy",
    "k, rel_change, energy", "1,0.5,2.0", "",
])
def test_history_header_must_be_exact(header, tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(f"# command = solve\n{header}\n1,0.5,2.0\n")
    with pytest.raises(UsageError, match=re.escape(f"{path}:2: expected the header")):
        gradflux.cli._read_history_csv(path)


NOISE_SWEEP = dict(problem="example1", param="a", mode="noise")


def write_u(tmp_path, n, value=0.0):
    write_field(ScalarField.full(GridSpec(n), value), tmp_path / "u.field")
    return tmp_path / "u.field"


@pytest.mark.parametrize("command, keys, message", [
    ("sweep", lambda t: dict(param="H", mode="noise", seeds=0, **write_constant_files(t, 8, h=0)),
     "noise scale undefined for a zero field"),
    ("solve", lambda t: write_constant_files(t, 8, a=-1),
     "files: the weight must be positive at every node, but its minimum is -1 "
     "(field files: a_file"),
    ("solve", lambda t: write_constant_files(t, 8, h_n=9), "grid mismatch"),
    ("sweep", lambda t: dict(NOISE_SWEEP, n=16, seeds=0, epsilons="0.4, 0.2"),
     "example1+a at eps = 0.4, seed = 0: the weight must be positive at every node, "
     "but its minimum is -0.467388"),
    ("table1", lambda t: dict(n=16, deltas="0.01, 0.5", seeds="0, 1"),
     "example1+noise: the weight must be positive at every node, but its minimum is -1.03287 "
     "(delta = 0.5, seed = 0)"),
    ("solve", lambda t: dict(problem="example1", n=8, delta=-0.01, seeds=0),
     "noise level must be nonnegative and finite, got -0.01"),
    ("table1", lambda t: dict(n=8, deltas="0.01, -0.01", seeds=0),
     "noise level must be nonnegative and finite, got -0.01"),
    ("sweep", lambda t: dict(NOISE_SWEEP, n=8, seeds="1, 1"), "seeds must be distinct"),
    ("table1", lambda t: dict(n=8, deltas=0.01, seeds="0, 0"), "seeds must be distinct"),
    ("table1", lambda t: dict(n=8, deltas="0.01, 0.01"), "key 'deltas' must be distinct"),
    ("certify", lambda t: dict(problem="example1", n=8),
     "certify needs key 'u_file' (the solution field to check)"),
    # refused by the config before the bad a_file is read
    ("contour", lambda t: write_constant_files(t, 8, a=-1),
     "contour needs 'u_file' or a problem with a known solution"),
    ("contour", lambda t: dict(problem="example1", n=8, u_file=write_u(t, 16)),
     "grid mismatch: u_file has n=16, problem has n=8"),
    ("certify", lambda t: dict(problem="example1", n=8, u_file=write_u(t, 8, 1.0)),
     "solution in u_file must vanish on the boundary"),
    ("plotdata", lambda t: SOLVE_KEYS, "nothing to plot: no history.csv or solution.field"),
], ids=["zero-field-noise", "nonpositive-a-file", "mismatched-grids", "sweep-weight-below-0",
        "table1-weight-below-0", "negative-delta", "negative-deltas", "repeated-sweep-seeds",
        "repeated-table1-seeds", "repeated-deltas", "certify-without-u-file",
        "files-contour-without-u-file", "u-file-grid-mismatch", "u-file-off-the-boundary",
        "nothing-to-plot"])
def test_bad_data_exits_1_before_any_solve(command, keys, message, tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        pytest.fail(f"{command} solved before rejecting its data")

    monkeypatch.setattr(gradflux.cli, "solve", no_solve)
    monkeypatch.setattr(gradflux.stability, "solve", no_solve)
    cfg = write_cfg(tmp_path / "c.cfg", **keys(tmp_path))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("gradflux: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_cannot_be_a_directory_exits_1(below, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gradflux.cli, "solve", lambda *a, **k: pytest.fail("solved"))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / below
    cfg = write_cfg(tmp_path / "solve.cfg", **SOLVE_KEYS)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"gradflux: --out {out}: {afile} exists and is not a directory\n"
    )
    assert afile.read_text() == "kept\n"


def write_interior_u(tmp_path, n, value):
    v = np.zeros(GridSpec(n).shape)
    v[1:-1, 1:-1] = value
    write_field(ScalarField(GridSpec(n), v), tmp_path / "u.field")
    return tmp_path / "u.field"


@pytest.mark.parametrize("command, keys", [
    ("solve", lambda t: dict(write_constant_files(t, 8, h=1e300), max_iter=20)),
    ("certify", lambda t: dict(problem="example1", n=8, u_file=write_interior_u(t, 8, 1e307))),
], ids=["solve-huge-h", "certify-huge-u"])
def test_overflow_exits_1_with_one_line(command, keys, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", **keys(tmp_path))
    out = tmp_path / "o"
    # no errstate here: the CLI silences numpy's overflow warning itself, and
    # pytest turns any RuntimeWarning into an error
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "gradflux: field contains non-finite values\n"
    assert not out.exists()


@pytest.mark.parametrize("command, blocked", [
    ("solve", "history.csv"),
    ("plotdata", "plots/energy.dat"),
])
def test_failed_write_exits_1_with_one_line(command, blocked, n12_run, tmp_path, capsys):
    """A directory where an output file goes: one gradflux: line naming it, no traceback."""
    out = tmp_path / "run"
    shutil.copytree(n12_run, out)
    (out / blocked).unlink(missing_ok=True)
    (out / blocked).mkdir(parents=True)
    cfg = write_cfg(tmp_path / "c.cfg", problem="example1", n=12, max_iter=2000)
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"gradflux: {out / blocked}: cannot write (Is a directory)\n"
    if command == "plotdata":  # every target is checked before the first write
        assert [path.name for path in (out / "plots").iterdir()] == ["energy.dat"]


def test_certify_cli_peak_stays_bounded(tmp_path, traced_peak):
    """certify of example1 on a u_file holds a, F, H, the u read and the
    certificate's working set, but not example1's exact u."""
    u = example1(GridSpec(200)).exact_u
    write_field(u, tmp_path / "u.field")
    cfg = write_cfg(tmp_path / "c.cfg", problem="example1", n=200, u_file=tmp_path / "u.field")
    args = ["certify", "--config", cfg, "--out", str(tmp_path / "o")]
    assert traced_peak(lambda: main(args)) <= 11.0 * u.values.nbytes
    assert (tmp_path / "o" / "certificate.txt").exists()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "solve.cfg", **SOLVE_KEYS)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("history.csv", "certificate.csv", "solution.field"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_console_script_subprocess(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("problem = example1\nn = 16\nmax_iter = 2000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gradflux", "solve", "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "solution.field").exists()


def test_every_command_names_its_text_encoding(tmp_path):
    """All six commands in one interpreter that turns every text open relying
    on the locale's default encoding into an error (PEP 597)."""
    run = tmp_path / "run"
    keys = dict(problem="example1", n=8)
    configs = {
        "solve": dict(keys, max_iter=2000),
        "plotdata": keys,
        "certify": dict(keys, u_file=run / "solution.field"),
        "contour": dict(keys, u_file=run / "solution.field"),
        "sweep": dict(keys, max_iter=2000, epsilons="0.04, 0.02"),
        "table1": dict(n=8, deltas=0.01, seeds=0),
    }
    argvs = [
        [command, "--config", write_cfg(tmp_path / f"{command}.cfg", **k), "--out", str(run)]
        for command, k in configs.items()
    ]
    code = f"import sys\nfrom gradflux.cli import main\nsys.exit(any([main(a) for a in {argvs!r}]))"
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    written = ("history.csv", "plots", "certificate.txt", "contour.csv", "sweep.csv", "table1.csv")
    assert all((run / name).exists() for name in written)
