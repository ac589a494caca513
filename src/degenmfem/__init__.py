"""Backward Euler / lowest-order mixed finite element solvers for the
degenerate parabolic equation  d/dt b(u) - div(grad u) = f  on the unit
square, with three linear iterative schemes (Holder-adapted L-scheme,
regularized L-scheme, regularized Newton) and a benchmark harness that
compares their iteration counts.
"""

from degenmfem.mesh import Mesh, build_structured_unit_square
from degenmfem.fem import (
    AssembledForms,
    assemble_forms,
    interpolate_flux,
    l2_norm_flux,
    l2_norm_scalar,
    project_scalar,
)
from degenmfem.nonlinearity import (
    NonlinearitySpec,
    RegularizationSpec,
    b_eps,
    b_eps_prime,
    b_value,
    lipschitz_constants,
)
from degenmfem.theory import (
    TheoryConstants,
    accumulated_error_bound,
    c_alpha,
    contraction_factor,
    select_L_regularized,
    select_delta,
)
from degenmfem.linear_system import (
    Factorization,
    SaddleSystem,
    SingularSystemError,
    StaleFactorizationError,
)
from degenmfem.schemes import (
    IterationReport,
    SchemeConfig,
    StoppingCriterion,
    TimeStepResult,
    hl_iterate,
    linearized_iterate,
    newton_iterate,
    regularized_l_iterate,
    run_time_series,
    theorem_bound_monitor,
)
from degenmfem.benchmark import (
    DEFAULT_SOLUTION,
    ExperimentResult,
    ManufacturedSolution,
    ReferenceConvergenceError,
    compute_reference,
    run_table,
)

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "build_structured_unit_square",
    "AssembledForms",
    "assemble_forms",
    "project_scalar",
    "interpolate_flux",
    "l2_norm_scalar",
    "l2_norm_flux",
    "NonlinearitySpec",
    "RegularizationSpec",
    "b_value",
    "b_eps",
    "b_eps_prime",
    "lipschitz_constants",
    "TheoryConstants",
    "contraction_factor",
    "c_alpha",
    "accumulated_error_bound",
    "select_delta",
    "select_L_regularized",
    "SaddleSystem",
    "Factorization",
    "SingularSystemError",
    "StaleFactorizationError",
    "SchemeConfig",
    "StoppingCriterion",
    "IterationReport",
    "TimeStepResult",
    "hl_iterate",
    "linearized_iterate",
    "regularized_l_iterate",
    "newton_iterate",
    "run_time_series",
    "theorem_bound_monitor",
    "ManufacturedSolution",
    "DEFAULT_SOLUTION",
    "ExperimentResult",
    "ReferenceConvergenceError",
    "compute_reference",
    "run_table",
]
