import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradflux
from gradflux import GridSpec, PoissonSolver, ScalarField, divergence, gradient, norm


def manufactured(n):
    """Laplacian of sin(pi x) sin(pi y) = -2 pi^2 sin(pi x) sin(pi y)."""
    g = GridSpec(n)
    x, y = g.meshgrid()
    exact = ScalarField(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    rhs = ScalarField(g, -2.0 * np.pi**2 * exact.values)
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
    res = divergence(gradient(out)).values[1:-1, 1:-1] - rhs.values[1:-1, 1:-1]
    rel = np.linalg.norm(res) / np.linalg.norm(rhs.values[1:-1, 1:-1])
    assert rel <= 1e-10


def test_solution_vanishes_on_boundary():
    g = GridSpec(20)
    rng = np.random.default_rng(2)
    out = PoissonSolver(g).solve_dirichlet(ScalarField(g, rng.standard_normal(g.shape)))
    assert np.abs(out.boundary_values()).max() == 0.0


@pytest.mark.parametrize("n", [8, 32, 37, 101])
def test_methods_agree(n):
    g = GridSpec(n)
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
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import gradflux.cli
assert not scipy_modules(), f"importing gradflux.cli loaded {scipy_modules()}"
import numpy as np
from gradflux import GridSpec, PoissonSolver, ScalarField, norm
from test_poisson import cg_oracle
g = GridSpec(8)
rhs = ScalarField(g, np.random.default_rng(3).standard_normal(g.shape))
out = PoissonSolver(g).solve_dirichlet(rhs)
assert norm(out - cg_oracle(rhs), "l2") <= 1e-8 * norm(out, "l2")
assert not scipy_modules(), f"a solve loaded {scipy_modules()}"
"""

_SOLVE_BYTES = """
import hashlib
import numpy as np
from gradflux import GridSpec, PoissonSolver, ScalarField
g = GridSpec(100)
rhs = ScalarField(g, np.random.default_rng(4).standard_normal(g.shape))
print(hashlib.sha256(PoissonSolver(g).solve_dirichlet(rhs).values.tobytes()).hexdigest())
"""


def _run_fresh(code, **env_vars):
    path = [str(Path(gradflux.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {
        **os.environ,
        **env_vars,
        "PYTHONPATH": os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_scipy_module_is_loaded_by_cli_import_or_a_solve():
    """Neither importing the CLI nor a solve loads scipy or any scipy.* module."""
    _run_fresh(_FRESH_IMPORT)


def test_solve_bits_do_not_depend_on_blas_thread_count_at_n100():
    """At the reference n=100 the sine-matrix solve gives the same bits under
    1 and 2 OpenBLAS threads; from n=128 on they can differ."""
    one, two = (_run_fresh(_SOLVE_BYTES, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two
