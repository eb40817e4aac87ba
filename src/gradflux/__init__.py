"""Split-Bregman solver and stability laboratory for weighted least-gradient
problems with drift on the unit square."""

from .bregman import SolveResult, SolverConfig, SolverState, iterate, shrink_step, solve
from .duality import Certificate, FluxPair, certify, dual_value, flux, primal_energy
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    inner,
    integrate,
    laplacian,
    norm,
)
from .levelset import level_set_length, level_set_lengths
from .perturb import (
    PerturbedProblem,
    apply_table1_noise,
    make_perturbed,
    noise_scalar,
    noise_vector,
    perturb_weight,
)
from .poisson import PoissonSolver
from .problems import ProblemData, ProblemDataError, example1
from .stability import (
    BoundCheck,
    RateFit,
    ShapeCheck,
    StabilityReport,
    SweepRow,
    SweepSpec,
    fit_rate,
    run_sweep,
    table1_experiment,
)

__version__ = "0.1.0"
