"""reflectpde: semilinear Neumann problems with a stochastic cross-check.

Deterministic backend: P1 finite elements and Picard iteration for

    (1/2) lap u + <b, grad u> + q u - div g(., u, grad u) + f(., u, grad u) = 0  in D,
    <grad u - 2 g(., u, grad u), n> + h(., u) = 0                                on dD,

with n the inward unit normal.  Stochastic backend: reflecting diffusion with
boundary local time, driven by one batch engine (``run_paths``) whose
observers accumulate the path functionals; the star (forward-backward)
integral of the divergence term, both on stored paths (``star_integral``) and
as an observer; Feynman-Kac point evaluation of frozen linear problems, which
carries that integral along its weighted paths; and a martingale-residual
test that verifies a candidate solution along simulated paths.
"""

from .coeffexpr import (
    ArityMismatch,
    CoefficientSet,
    DomainError,
    Expr,
    ExprSyntaxError,
    InadmissibleConstants,
    PointMismatch,
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
from .geometry import Domain, boundary_points
from .mesh_fem import (
    BadResolution,
    FemFunction,
    FieldLoadError,
    InnerDivergence,
    Mesh,
    MeshLoadError,
    MeshMismatch,
    PointLocationError,
    SingularSystem,
    WeakForm,
    build_mesh,
    h1_error,
    h1_norm,
    l2_norm,
    solve_semilinear_g_frozen,
)
from .picard import NoContraction, PicardTrace, run_picard
from .probeval import (
    AdmissibilityError,
    McParams,
    ResidualReport,
    calibrate_boundary_constant,
    check_conditions_C,
    fk_linear_frozen,
    martingale_residual_test,
)
from .reflectsim import Estimate, PathGrid, StepTooLarge, simulate_paths, star_integral

__version__ = "0.1.0"
