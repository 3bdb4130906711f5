"""Hermite stability matrices for static output feedback design.

Builds Hermite matrices of closed-loop characteristic polynomials in power
and Lagrange bases, scales them, and solves the resulting matrix-inequality
program with a local penalty method.
"""

from .benchmarks import (
    ExperimentConfig,
    ExperimentRow,
    PolyFixture,
    load_instance,
    registry,
    run_experiment,
)
from .errors import (
    BarrierDomainError,
    DegenerateInputError,
    HermiteSofError,
    InputError,
    NodeCountError,
    UnsupportedNodeError,
)
from .hermite import (
    HermiteForm,
    NodeSet,
    ScalingDiag,
    bezoutian,
    cond_frobenius,
    congruence_check,
    hermite_lagrange,
    hermite_power,
    power_scale,
    scaled_hermite,
    scaling_from_numeric,
)
from .polynomials import (
    MultiPoly,
    PolyInS,
    ReImPair,
    char_poly,
    differentiate,
    optimal_rho,
    split_re_im,
    vec_gain,
)
from .solver import (
    SofProgram,
    SolveConfig,
    SolveReport,
    augmented_objective,
    constraint_eval,
    solve_sof,
    verify_solution,
)
from .stability import (
    TargetSpec,
    build_target,
    interlacing_check,
    is_hurwitz,
    nodes_from_target,
    roots,
    routh_hurwitz,
)
from .systems import SystemInstance

__version__ = "0.1.0"
