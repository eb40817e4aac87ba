import math
import tracemalloc

import pytest

from gradflux import GridSpec, PoissonSolver, SolverConfig, example1, solve
from gradflux.stability import REPORT_COLUMNS


@pytest.fixture(scope="session")
def same_row():
    """Whether two rows agree exactly on REPORT_COLUMNS, max_err and valid.

    SweepRow compares by identity, and nan != nan, so the values are compared
    one by one with == and a nan matches only a nan.
    """
    def same(a, b) -> bool:
        pairs = [(getattr(a, c), getattr(b, c)) for c in (*REPORT_COLUMNS, "max_err", "valid")]
        return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in pairs)

    return same


@pytest.fixture(scope="session")
def traced_peak():
    """The tracemalloc peak of a call, in bytes above what was allocated before it."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(scope="session")
def grid100():
    return GridSpec(100)


@pytest.fixture(scope="session")
def prob100(grid100):
    return example1(grid100)


@pytest.fixture(scope="session")
def psolver100(grid100):
    return PoissonSolver(grid100)


@pytest.fixture(scope="session")
def solved100(prob100, psolver100):
    """Noiseless reference solve at n=100, shared by all expensive tests."""
    cfg = SolverConfig(lam=1.0, tol=1e-7, max_iter=5000, record_history=True)
    res = solve(prob100, cfg, psolver100)
    assert res.converged
    return res
