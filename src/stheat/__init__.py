"""Space-time Petrov-Galerkin solver for the linear heat equation.

The discretization tests a time-discontinuous trial pair (U1, U2) against
continuous test functions one degree higher, which yields both an L2-in-time
approximation U1 and nodal values U2 that superconverge at the partition
nodes.  See the module docstrings for the scheme, the diagnostics, and the
experiment runner.
"""

from .timegrid import (
    TimePartition,
    TemporalBasis,
    QuadratureRule,
    make_uniform_partition,
    gauss_rule,
    lobatto_points,
)
from .fem import (
    FemSpace,
    SpectralDecomposition,
    assemble,
    spectral,
    l2_project,
    load_vector,
)
from .problems import (
    ProblemSpec,
    ExactSolution,
    problem_1d_smooth,
    problem_2d_smooth,
    problem_1d_lowreg,
    problem_impulse,
    problem_by_id,
    validate_residual,
)
from .solver import (
    SpaceTimeSolution,
    LocalBlockSystem,
    interval_moments,
    run_decomposed,
    solve_global,
    crank_nicolson,
    reconstruct_u2,
)
from .analysis import (
    ErrorReport,
    DiagnosticsReport,
    error_norms,
    fit_rate,
    infsup_discrete,
    cs_constant,
    cfl_constant,
    stability_check,
)
from .cli import ExperimentConfig, parse_config, run_experiment

__version__ = "0.1.0"
