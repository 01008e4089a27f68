"""reflectpde: semilinear Neumann problems with a stochastic cross-check.

Deterministic backend: P1 finite elements and Picard iteration for

    (1/2) lap u + <b, grad u> + q u - div g(., u, grad u) + f(., u, grad u) = 0  in D,
    <grad u - 2 g(., u, grad u), n> + h(., u) = 0                                on dD,

with n the inward unit normal.  Stochastic backend: reflecting diffusion with
boundary local time, forward/backward/star path integrals, Feynman-Kac point
evaluation of frozen linear problems, and a martingale-residual test that
verifies a candidate solution along simulated paths.
"""

from .coeffexpr import (
    ArityMismatch,
    CoefficientSet,
    DomainError,
    Expr,
    ExprSyntaxError,
    InadmissibleConstants,
    StructureConstants,
    UnboundVariable,
    UnknownIdentifier,
    choose_constants,
    eval_expr,
    parse_expr,
    print_expr,
    validate_structure,
)
from .config import ConfigError, RunConfig, load_config
from .geometry import (
    BadOrder,
    DegenerateProjection,
    Domain,
    PenalizationField,
    boundary_quadrature,
    contains,
    eval_psi,
    project_to_boundary,
)
from .mesh_fem import (
    BadResolution,
    FemFunction,
    FieldLoadError,
    InnerDivergence,
    Mesh,
    MeshLoadError,
    MeshMismatch,
    SingularSystem,
    WeakForm,
    build_mesh,
    h1_error,
    h1_norm,
    l2_norm,
    solve_g_lifting,
    solve_semilinear_g_frozen,
)
from .picard import NoContraction, PicardTrace, TooFewIterates, contraction_report, run_picard
from .probeval import (
    AdmissibilityError,
    McParams,
    ResidualReport,
    calibrate_boundary_constant,
    check_conditions_C,
    fk_linear_frozen,
    fk_pure_boundary,
    martingale_residual_test,
)
from .reflectsim import (
    Estimate,
    IndexOrder,
    PathGrid,
    StepTooLarge,
    backward_ito,
    forward_ito,
    simulate_path,
    star_integral,
    weight_factors,
)

__version__ = "0.1.0"
