import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradflux
from gradflux import GridSpec, PoissonSolver, ScalarField, laplacian, norm


def manufactured(n):
    """laplacian(sin(pi x) sin(pi y)) = -2 pi^2 sin(pi x) sin(pi y)."""
    g = GridSpec(n)
    exact = ScalarField.from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    rhs = -2.0 * np.pi**2 * exact
    return g, rhs, exact


def cg_oracle(rhs, tolerance=1e-10):
    """Plain matrix-free CG on -laplacian(u) = -rhs, an independent reference."""
    g = rhs.grid

    def neg_laplacian(x):
        p = np.pad(x, 1)
        return (4.0 * x - p[:-2, 1:-1] - p[2:, 1:-1] - p[1:-1, :-2] - p[1:-1, 2:]) / g.h**2

    b = -rhs.values[1:-1, 1:-1]
    bnorm = np.sqrt((b * b).sum())
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = (r * r).sum()
    for _ in range(20 * g.n + 200):
        if np.sqrt(rs) <= tolerance * bnorm:
            break
        ap = neg_laplacian(p)
        alpha = rs / (p * ap).sum()
        x += alpha * p
        r -= alpha * ap
        rs_new = (r * r).sum()
        p = r + (rs_new / rs) * p
        rs = rs_new
    else:
        raise AssertionError(f"CG oracle stalled at relative residual {np.sqrt(rs) / bnorm:.3e}")
    return ScalarField(g, np.pad(x, 1))


def test_zero_rhs_gives_zero_solution():
    solver = PoissonSolver(GridSpec(16))
    out = solver.solve_dirichlet(ScalarField.zeros(GridSpec(16)))
    assert np.all(out.values == 0.0)


def test_manufactured_solution_error_at_n100():
    g, rhs, exact = manufactured(100)
    out = PoissonSolver(g).solve_dirichlet(rhs)
    assert norm(out - exact, "linf") <= 2e-3


def test_second_order_convergence_ratios():
    errors = {}
    for n in (32, 64, 128):
        g, rhs, exact = manufactured(n)
        out = PoissonSolver(g).solve_dirichlet(rhs)
        errors[n] = norm(out - exact, "linf")
    assert 3.6 <= errors[32] / errors[64] <= 4.4
    assert 3.6 <= errors[64] / errors[128] <= 4.4


def test_linearity():
    g = GridSpec(24)
    solver = PoissonSolver(g)
    rng = np.random.default_rng(5)
    r1 = ScalarField(g, rng.standard_normal(g.shape))
    r2 = ScalarField(g, rng.standard_normal(g.shape))
    lhs = solver.solve_dirichlet(r1 + r2)
    rhs = solver.solve_dirichlet(r1) + solver.solve_dirichlet(r2)
    assert norm(lhs - rhs, "linf") <= 1e-10


def test_residual_reproduces_rhs():
    g = GridSpec(32)
    rng = np.random.default_rng(11)
    rhs = ScalarField(g, rng.standard_normal(g.shape))
    out = PoissonSolver(g).solve_dirichlet(rhs)
    res = laplacian(out).values[1:-1, 1:-1] - rhs.values[1:-1, 1:-1]
    rel = np.linalg.norm(res) / np.linalg.norm(rhs.values[1:-1, 1:-1])
    assert rel <= 1e-10


def test_solution_vanishes_on_boundary():
    g = GridSpec(20)
    rng = np.random.default_rng(2)
    out = PoissonSolver(g).solve_dirichlet(ScalarField(g, rng.standard_normal(g.shape)))
    assert np.abs(out.boundary_values()).max() == 0.0


def test_methods_agree():
    g = GridSpec(32)
    rng = np.random.default_rng(9)
    rhs = ScalarField(g, rng.standard_normal(g.shape))
    ft = PoissonSolver(g).solve_dirichlet(rhs)
    cg = cg_oracle(rhs)
    assert norm(ft - cg, "l2") <= 1e-8 * norm(ft, "l2")


def test_deterministic():
    g = GridSpec(32)
    rhs = ScalarField(g, np.random.default_rng(1).standard_normal(g.shape))
    a = PoissonSolver(g).solve_dirichlet(rhs)
    b = PoissonSolver(g).solve_dirichlet(rhs)
    assert np.array_equal(a.values, b.values)


def test_grid_mismatch_is_usage_error():
    solver = PoissonSolver(GridSpec(16))
    with pytest.raises(ValueError, match="does not match"):
        solver.solve_dirichlet(ScalarField.zeros(GridSpec(17)))


_FRESH_IMPORT = """
import sys
import gradflux.cli
assert "scipy.fft" not in sys.modules, "importing gradflux.cli loaded scipy.fft"
import numpy as np
from gradflux import GridSpec, PoissonSolver, ScalarField, norm
from test_poisson import cg_oracle
g = GridSpec(8)
rhs = ScalarField(g, np.random.default_rng(3).standard_normal(g.shape))
out = PoissonSolver(g).solve_dirichlet(rhs)
assert norm(out - cg_oracle(rhs), "l2") <= 1e-8 * norm(out, "l2")
assert "scipy.fft" in sys.modules
"""


def test_cli_import_defers_scipy_until_a_solve():
    """Commands that never solve do not load scipy.fft; the first solve does."""
    path = [str(Path(gradflux.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
