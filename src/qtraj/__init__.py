"""Quantum trajectory solver for Lindblad master equations.

Unravels the master equation into stochastic pure-state trajectories
(quantum state diffusion, quantum jumps, orthogonal jumps) over product
Hilbert spaces, with a moving displaced-Fock basis, dynamic truncation,
ensemble statistics, a declarative model-file front end, and a dense
density-matrix integrator for validation.
"""

from .hilbert import (
    ATOM,
    FIELD,
    SPIN,
    FreedomSpec,
    PhysicalType,
    StateVector,
    basis_state,
    coherent_state,
    product_state,
)
from .operators import (
    OperatorExpr,
    Power,
    Primary,
    Product,
    ScalarMul,
    Sum,
    TimeFnMul,
    apply,
    apply_in_place,
    create,
    destroy,
    momentum,
    number,
    position,
    sigma_minus,
    sigma_plus,
    sigma_z,
    to_dense,
    transition,
)
from .moving_basis import (
    MovingBasisParams,
    adjust_cutoff,
    displace_slice,
    move_coords,
    recenter,
)
from .steppers import (
    IntegratorConfig,
    ModelOperators,
    NoiseSource,
    StepStats,
    Unraveling,
    drift,
    make_stepper,
    rk4_step,
    rkck_adaptive,
)
from .trajectory import (
    EnsembleResult,
    OutputSpec,
    RunConfig,
    SingleResult,
    expectation,
    run_ensemble,
    run_single,
    variance,
)
from .oracle import (
    MAX_ORACLE_DIM,
    ComparisonReport,
    compare_ensemble,
    dense_model,
    density_from_state,
    integrate_master,
    lindblad_rhs,
    oracle_expectations,
)
from .modelfile import (
    ModelError,
    ModelFile,
    ModelParseError,
    ModelValidationError,
    build_model,
    load_model,
    parse_model,
    print_model,
)

__version__ = "0.1.0"

__all__ = [
    "ATOM", "FIELD", "SPIN", "FreedomSpec", "PhysicalType", "StateVector",
    "basis_state", "coherent_state", "product_state",
    "OperatorExpr", "Primary", "Sum", "Product",
    "ScalarMul", "TimeFnMul", "Power", "apply", "apply_in_place",
    "create", "destroy", "momentum", "number", "position",
    "sigma_minus", "sigma_plus", "sigma_z", "to_dense", "transition",
    "MovingBasisParams", "adjust_cutoff", "displace_slice", "move_coords",
    "recenter",
    "IntegratorConfig", "ModelOperators", "NoiseSource", "StepStats",
    "Unraveling", "drift", "make_stepper", "rk4_step", "rkck_adaptive",
    "EnsembleResult", "OutputSpec", "RunConfig", "SingleResult",
    "expectation", "run_ensemble", "run_single", "variance",
    "MAX_ORACLE_DIM", "ComparisonReport", "compare_ensemble", "dense_model",
    "density_from_state", "integrate_master", "lindblad_rhs",
    "oracle_expectations",
    "ModelError", "ModelFile", "ModelParseError", "ModelValidationError",
    "build_model", "load_model", "parse_model", "print_model",
    "__version__",
]
