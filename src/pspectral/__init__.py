"""Numerical library for p-Laplacian spectral-gap verification.

Modules
-------
ptrig       generalized p-trigonometric special functions
model1d     one-dimensional comparison ODE in phase/amplitude form
comparison  certificate construction for the gradient-comparison bound
bochner     finite-difference differential-operator laboratory
spectral1d  discrete p-Laplacian eigensolvers on weighted 1D domains
verify      the 14-criterion acceptance suite
cli         command-line front end
"""

from .bochner import (
    CatalogField,
    DiffReport,
    ScalarField,
    bochner_residual,
    catalog,
    differentiate,
    eigen_estimate_check,
    hessian_inequality_check,
    pII_at,
    p_laplacian_at,
)
from .comparison import (
    Certificate,
    PsiProfile,
    build_certificate,
    kappa_check,
    reconstruct_psi,
)
from .model1d import (
    INFINITY,
    ModelProblem,
    ModelSolution,
    PParams,
    delta_scan,
    solve_model,
)
from .spectral1d import (
    DiscreteFunction,
    Domain1D,
    EigenResult,
    SolverOptions,
    E_profile,
    bounds_table,
    build_domain,
    gradient_comparison_check,
    rayleigh_quotient,
    solve_eigen_shooting,
    solve_eigen_variational,
)
from .ptrig import (
    arctan_p,
    cos_p,
    inv_sin_p,
    pi_p,
    pi_p_quadrature,
    sin_cos_p,
    sin_p,
    tan_p,
)

__version__ = "0.1.0"

__all__ = [
    "pi_p",
    "pi_p_quadrature",
    "sin_p",
    "cos_p",
    "sin_cos_p",
    "inv_sin_p",
    "tan_p",
    "arctan_p",
    "INFINITY",
    "PParams",
    "ModelProblem",
    "ModelSolution",
    "solve_model",
    "delta_scan",
    "Certificate",
    "PsiProfile",
    "build_certificate",
    "kappa_check",
    "reconstruct_psi",
    "ScalarField",
    "DiffReport",
    "CatalogField",
    "differentiate",
    "p_laplacian_at",
    "pII_at",
    "bochner_residual",
    "hessian_inequality_check",
    "eigen_estimate_check",
    "catalog",
    "Domain1D",
    "DiscreteFunction",
    "EigenResult",
    "SolverOptions",
    "build_domain",
    "rayleigh_quotient",
    "solve_eigen_variational",
    "solve_eigen_shooting",
    "gradient_comparison_check",
    "E_profile",
    "bounds_table",
    "__version__",
]
