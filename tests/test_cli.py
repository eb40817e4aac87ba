import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradflux.stability
from gradflux import GridSpec, ScalarField, example1
from gradflux.cli import main
from gradflux.config import ALLOWED_KEYS, UsageError, build_config, parse_config_file
from gradflux.fieldio import read_field_meta, write_field


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

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown config key 'foo'"):
            build_config({"foo": "1"}, "solve")

    def test_out_of_place_key_rejected(self):
        with pytest.raises(UsageError, match="not used by 'solve'"):
            build_config({"epsilons": "0.1"}, "solve")

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 16\nn = 17\n")
        with pytest.raises(UsageError, match="duplicate"):
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
        ("delta", "nan", "solve"), ("eta", "-inf", "certify"),
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
        ("eta", "0", "certify", "eta must be positive and finite"),
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
        write_field(example1(GridSpec(4)).exact_u, upath)
        lines = upath.read_text().splitlines()
        lines[3] = "0 0.5 nan 0.5 0"
        upath.write_text("\n".join(lines) + "\n")
        ccfg = write_cfg(
            tmp_path / "cert.cfg", problem="example1", n=4, u_file=str(upath)
        )
        assert main(["certify", "--config", ccfg, "--out", str(tmp_path / "o")]) == 1
        assert f"gradflux: {upath}:4: non-finite value nan" in capsys.readouterr().err

    def test_missing_u_file_key(self, tmp_path, capsys):
        ccfg = write_cfg(tmp_path / "cert.cfg", problem="example1", n=32)
        assert main(["certify", "--config", ccfg, "--out", str(tmp_path / "o")]) == 1
        assert "u_file" in capsys.readouterr().err


class TestFilesProblem:
    def test_solve_from_field_files(self, tmp_path):
        g = GridSpec(24)
        a = ScalarField.from_function(g, lambda x, y: 1.0 + x)
        f = ScalarField.from_function(g, lambda x, y: 0.2 * x * y)
        h = ScalarField.full(g, 0.5)
        write_field(a, tmp_path / "a.field", kind="a")
        write_field(f, tmp_path / "f.field", kind="f")
        write_field(h, tmp_path / "h.field", kind="h")
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
        u = read_field_meta(out / "solution.field")[0]
        assert u.grid == g
        assert np.abs(u.boundary_values()).max() == 0.0
        assert (out / "f.field").exists()

    def test_files_problem_needs_paths(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "solve.cfg", problem="files")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "a_file" in capsys.readouterr().err

    def test_noise_on_zero_drift_reported(self, tmp_path, capsys):
        g = GridSpec(8)
        write_field(ScalarField.full(g, 1.0), tmp_path / "a.field", kind="a")
        write_field(ScalarField.full(g, 0.5), tmp_path / "h.field", kind="h")
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
        write_field(ScalarField(g, a), tmp_path / "a.field", kind="a")
        write_field(ScalarField.full(g, 0.5), tmp_path / "h.field", kind="h")
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

    def test_mismatched_field_grids_reported(self, tmp_path, capsys):
        write_field(ScalarField.full(GridSpec(8), 1.0), tmp_path / "a.field", kind="a")
        write_field(ScalarField.zeros(GridSpec(9)), tmp_path / "h.field", kind="h")
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
        write_field(ScalarField.full(g, 1.0), tmp_path / "a.field", kind="a")
        write_field(ScalarField.zeros(g), tmp_path / "h.field", kind="h")
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

    def test_unconverged_rows_named(self, tmp_path, capsys):
        # the base solve converges within 500 iterations at n=8; the noised rows do not
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
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        named = ["eps = 0.040000000000000001, seed = 0", "eps = 0.02, seed = 0"]
        lines = (out / "sweep.csv").read_text().splitlines()
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
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv + ["--strict"] * strict) == 2
        err = capsys.readouterr().err
        assert err == "gradflux: base solve did not converge; cannot anchor the sweep\n"


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

    def test_unconverged_runs_named(self, tmp_path, capsys):
        # at n=8 and delta 0.06, seed 0 stops by tolerance after 261 iterations
        # and seed 1 runs to max_iter = 500; at max_iter = 1000 both converge
        run = "delta = 0.059999999999999998, seed = 1"
        for max_iter, named in ((500, [run]), (1000, [])):
            cfg = write_cfg(
                tmp_path / "t1.cfg", n=8, deltas="0.06", seeds="0, 1", max_iter=max_iter
            )
            out = tmp_path / f"run{max_iter}"
            assert main(["table1", "--config", cfg, "--out", str(out)]) == 0
            lines = (out / "table1.csv").read_text().splitlines()
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
        u = read_field_meta(out / "solution.field")[0]
        ax = u.grid.axis()
        lines = []
        for i, x in enumerate(ax):
            lines += [f"{x:.17g} {y:.17g} {u.values[i, j]:.17g}" for j, y in enumerate(ax)]
            lines.append("")
        assert (plots / "surface_solution.dat").read_text() == "\n".join(lines) + "\n"

    def test_empty_dir_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "solve.cfg", **SOLVE_KEYS)
        assert main(["plotdata", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "nothing to plot" in capsys.readouterr().err


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
