"""Hierarchic (Stackelberg-Nash) control of quasi-linear parabolic systems.

The package computes, on uniform space-time grids of the unit interval or
unit square:

* Nash quasi-equilibria of two follower tracking games under a frozen
  leader control (``compute_nash``),
* penalized-HUM leader controls steering the coupled optimality system to
  zero through Carleman-weighted conjugate gradients (``solve_leader``),
* the quasi-linear fixed point combining both levels (``solve_hierarchic``),
* independent oracles and weighted-inequality probes (``verification``).
"""

import os as _os

# Cap BLAS/OpenMP worker pools before numpy spins them up.  Must run ahead
# of the first numpy import anywhere in the package.
_threads = _os.environ.get("HIERCONTROL_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import (
    BlowUpError,
    CoefficientError,
    ConditioningError,
    EtaConstructionError,
    GeometryError,
    GridMismatchError,
    HierControlError,
    NonConvergenceError,
    OracleError,
    SolverError,
    ValidationError,
    WeightDomainError,
)
from .grids import (
    CutoffRegion,
    Field,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    build_cutoff,
    build_grid,
    build_time_grid,
    gradient,
    stepped_norm2,
    stepped_pairing,
)
from .weights import (
    CarlemanWeights,
    build_eta,
    build_weights,
    eval_terminal_weights,
    eval_weights,
    lambda_auto,
)
from .solvers import (
    LinearCoefficients,
    Nonlinearity,
    constant_coefficients,
    nonlinearity_preset,
    solve_forward_quasilinear,
)
from .nash import (
    HierarchicProblem,
    NashSolution,
    coefficients_from_state,
    compute_nash,
    evaluate_cost,
    fd_gateaux_residual,
    gateaux_residual,
    with_first_order_residuals,
)
from .leader import (
    GramianContext,
    LeaderSolution,
    leader_duality_gap,
    solve_leader,
)
from .fixedpoint import (
    FixedPointReport,
    linearize_at,
    solve_hierarchic,
)
from .verification import (
    ProbeReport,
    check_duality,
    check_second_order,
    kkt_nash_oracle,
    oracle_nash_gap,
    probe_carleman,
    probe_observability,
    second_order_mu_sweep,
)
from .scenario import Scenario, emit_scenario, load_scenario
from .outputs import emit_csv, emit_report, emit_svg

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CarlemanWeights",
    "CoefficientError",
    "ConditioningError",
    "CutoffRegion",
    "EtaConstructionError",
    "Field",
    "FixedPointReport",
    "GeometryError",
    "GramianContext",
    "GridMismatchError",
    "HierControlError",
    "HierarchicProblem",
    "LeaderSolution",
    "LinearCoefficients",
    "NashSolution",
    "NonConvergenceError",
    "Nonlinearity",
    "OracleError",
    "ProbeReport",
    "Scenario",
    "SolverError",
    "SpaceTimeField",
    "SpatialGrid",
    "TimeGrid",
    "ValidationError",
    "WeightDomainError",
    "build_cutoff",
    "build_eta",
    "build_grid",
    "build_time_grid",
    "build_weights",
    "check_duality",
    "check_second_order",
    "coefficients_from_state",
    "compute_nash",
    "constant_coefficients",
    "emit_csv",
    "emit_report",
    "emit_scenario",
    "emit_svg",
    "eval_terminal_weights",
    "eval_weights",
    "evaluate_cost",
    "fd_gateaux_residual",
    "gateaux_residual",
    "gradient",
    "kkt_nash_oracle",
    "lambda_auto",
    "leader_duality_gap",
    "linearize_at",
    "load_scenario",
    "nonlinearity_preset",
    "oracle_nash_gap",
    "probe_carleman",
    "probe_observability",
    "second_order_mu_sweep",
    "solve_forward_quasilinear",
    "solve_hierarchic",
    "solve_leader",
    "with_first_order_residuals",
    "__version__",
]
