"""Entropy bounds for maximum-entropy subset selection.

Compute the scaled and masked log-determinant relaxation bound over the
capped simplex, its closed-form diagonal solutions, optimal scaling
parameters by rank regime, and the linear-in-n separations between the
plain and identity-masked bounds.
"""

from .diagonal import (
    check_uniform_optimality,
    optimal_gamma_2x2,
    optimal_gamma_diagonal,
    optimal_mask_2x2,
    solve_diagonal_linx,
    solve_xs_equation,
)
from .exact import exact_mesp, logdet_submatrix
from .gaps import (
    GapKind,
    GapReportRow,
    build_maskgap_instance,
    build_scaledgap_instance,
    gap_lower_bound_2x2,
    run_gap_experiment,
    scaled_gap_floor,
)
from .instance import Instance, Mask, SymMatrix, load_matrix, validate
from .linx import (
    BoundResult,
    SolverOptions,
    certify_gamma_optimal,
    linx_gradient,
    linx_objective,
    lmo_capped_simplex,
    solve_linx,
)
from .scaling import (
    GammaRegime,
    GammaSearchResult,
    RegimeTag,
    classify_regime,
    limit_linx_at_infinity,
    optimize_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "GammaRegime",
    "GammaSearchResult",
    "GapKind",
    "GapReportRow",
    "Instance",
    "Mask",
    "RegimeTag",
    "SolverOptions",
    "SymMatrix",
    "build_maskgap_instance",
    "build_scaledgap_instance",
    "certify_gamma_optimal",
    "check_uniform_optimality",
    "classify_regime",
    "exact_mesp",
    "gap_lower_bound_2x2",
    "limit_linx_at_infinity",
    "linx_gradient",
    "linx_objective",
    "lmo_capped_simplex",
    "load_matrix",
    "logdet_submatrix",
    "optimal_gamma_2x2",
    "optimal_gamma_diagonal",
    "optimal_mask_2x2",
    "optimize_gamma",
    "run_gap_experiment",
    "scaled_gap_floor",
    "solve_diagonal_linx",
    "solve_linx",
    "solve_xs_equation",
    "validate",
]
