"""Mechanical derivation, simulation and direct verification of
higher-order Lagrangian, Hamiltonian and unified dynamics.

Start from a k-th order Lagrangian written in a small expression
language; derive the momenta, Euler-Lagrange equations, Hessian and
Hamiltonian; integrate either the order-2k jet dynamics or the unified
jet-momentum dynamics; and check everything numerically: trajectories
against the equations they should satisfy, vector fields against the
two-form kernel equation, and paths against stationarity of the action.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainEvalError,
    ExpressionError,
    JetOrderError,
    OffConstraintError,
    OrderOverflowError,
    OstromechError,
    ParseError,
    SingularHessianError,
    SingularJacobianError,
    TrajectoryFormatError,
    UnboundVariableError,
    UnknownIdentifierError,
    ValidationError,
)
from .expressions import (
    EquivalenceResult,
    Expression,
    SystemContext,
    VarRef,
    diff,
    equivalent_numeric,
    ext_momentum,
    jet,
    momentum,
    parameter,
    parse,
    simplify,
    substitute,
    time_var,
    to_text,
    total_derivative,
)
from .systems import (
    JetPoint,
    SystemModel,
    UnifiedPoint,
    build_system,
    jet_bindings,
    jet_of_polynomial,
    unified_bindings,
)
from .legendre import (
    DerivedSystem,
    RegularityReport,
    derive,
    euler_lagrange_exprs,
    hessian_det_expr,
    hessian_exprs,
    legendre_inverse,
    legendre_map,
    momentum_exprs,
    momentum_exprs_recursive,
    regularity_report,
)
from .unified import (
    KernelReport,
    SemisprayVector,
    TwoFormMatrix,
    constraint_residuals,
    constraint_tolerance,
    coupling,
    explicit_semispray,
    hamiltonian_section_p,
    kernel_check,
    omega_r_matrix,
    solve_unified_vf,
    unified_coordinates,
)
from .dynamics import (
    Trajectory,
    VerificationReport,
    energy_series,
    fd_derivative,
    integrate,
    integrate_unified,
    lagrangian_rhs,
    load_trajectory_csv,
    ostrogradsky_energy,
    save_trajectory_csv,
    verify_trajectory,
)
from .variational import (
    FitResult,
    PathRepresentation,
    StationarityReport,
    Variation,
    action_derivative,
    discrete_action,
    el_along_path,
    first_variation,
    fit_path,
    stationarity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
