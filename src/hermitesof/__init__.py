"""Hermite stability matrices for static output feedback design.

Builds Hermite matrices of closed-loop characteristic polynomials in power
and Lagrange bases, scales them, and solves the resulting matrix-inequality
program with a local penalty method.
"""

from .benchmarks import (
    ExperimentConfig,
    ExperimentRow,
    PolyFixture,
    get_plant,
    load_instance,
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
    cond_frobenius,
    hermite_lagrange,
    hermite_power,
    power_scale,
    scaled_hermite,
    scaling_from_numeric,
)
from .polynomials import (
    CharPoly,
    MultiPoly,
    char_poly,
    gain_support,
    optimal_rho,
    poly_degree,
    poly_from_roots,
    split_re_im,
    vec_gain,
)
from .solver import (
    SofProgram,
    SolveConfig,
    SolveReport,
    augmented_objective,
    solve_sof,
    verify_solution,
)
from .stability import (
    NodeSet,
    TargetSpec,
    build_target,
    nodes_from_target,
    roots,
)
from .systems import SystemInstance

__version__ = "0.1.0"
