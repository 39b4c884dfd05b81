"""Dirichlet-type spaces of finitely supported circle measures.

The package builds the reproducing kernel of the harmonically weighted
Dirichlet space of a finite sum of point masses on the unit circle,
identifies the space with a de Branges-Rovnyak space through a Schur
function, and tests whether the Cauchy dual of the shift is subnormal.

Public API re-exported here; see the ``docs/`` walkthrough for a tour.
"""

from .cdsp import (
    CdspVerdict,
    SweepRow,
    TruncationWorkspace,
    agler_min_eig,
    build_truncation,
    canonical_frame,
    cauchy_dual,
    closed_form_test,
    coupling_determinant,
    cross_energy,
    gram_monomials,
    hyperexpansivity_max_eig,
    quadrature_energy,
    sweep_angle,
    two_isometry_defect,
)
from .cpoly import (
    Factorization,
    LaurentPoly,
    find_roots,
    laurent_mul,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    spectral_factorize,
)
from .debranges import (
    SchurIdentification,
    build_identification,
    cholesky_upper,
    compute_A,
    kernel_hb,
    schur_row_eval,
)
from .dirichlet import (
    DirichletModel,
    boundary_function_eval,
    build_model,
    kernel_full,
    kernel_hat,
    kernel_tilde,
    o_mu_eval,
)
from .errors import (
    BoundaryRoot,
    NonConvergence,
    NotPSD,
    ParseError,
    ResidualTooLarge,
    SchemaViolation,
    SingularGram,
    ToolkitError,
    ValidationError,
)
from .measure import (
    MeasureSpec,
    format_measure,
    make_measure,
    moment,
    parse_measure,
    weight_numerator,
)
from .report import build_report, render_csv, render_json, validate_report

__version__ = "0.1.0"

__all__ = [
    "BoundaryRoot",
    "CdspVerdict",
    "DirichletModel",
    "Factorization",
    "LaurentPoly",
    "MeasureSpec",
    "NonConvergence",
    "NotPSD",
    "ParseError",
    "ResidualTooLarge",
    "SchemaViolation",
    "SchurIdentification",
    "SingularGram",
    "SweepRow",
    "ToolkitError",
    "TruncationWorkspace",
    "ValidationError",
    "agler_min_eig",
    "boundary_function_eval",
    "build_identification",
    "build_model",
    "build_report",
    "build_truncation",
    "canonical_frame",
    "cauchy_dual",
    "cholesky_upper",
    "closed_form_test",
    "compute_A",
    "coupling_determinant",
    "cross_energy",
    "find_roots",
    "format_measure",
    "gram_monomials",
    "hyperexpansivity_max_eig",
    "kernel_full",
    "kernel_hat",
    "kernel_hb",
    "kernel_tilde",
    "laurent_mul",
    "make_measure",
    "moment",
    "o_mu_eval",
    "parse_measure",
    "poly_derivative",
    "poly_eval",
    "poly_from_roots",
    "quadrature_energy",
    "render_csv",
    "render_json",
    "schur_row_eval",
    "spectral_factorize",
    "sweep_angle",
    "two_isometry_defect",
    "validate_report",
    "weight_numerator",
]
