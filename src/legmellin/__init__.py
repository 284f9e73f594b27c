"""Mellin transforms of Legendre and Ferrers functions, their critical-line
zeros, and fractional-part integral identities, at arbitrary precision.

The result types the functions return (ZeroReport, FermiBoseResult, ...)
are not re-exported here; they are reached through their own modules."""

from .errors import ConvergenceError, DivergenceError, DomainError, PoleError
from .mpcore import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    GaussianRational,
    HPComplex,
    RationalPolynomial,
    as_rational,
    rational_to_mpf,
)
from .quadrature import tanh_sinh
from .specfun import (
    HypergeometricSpec,
    TransformId,
    double_factorial,
    ferrers,
    gamma,
    hurwitz_zeta,
    hyp2f1,
    hyp3f2,
    hyp_pfq,
    hyp_terminating_exact,
    is_nonpositive_integer,
    kummer_2f1_residual,
    pochhammer_rational,
    polygamma,
    reciprocal_gamma,
    riemann_zeta,
    threeF2_transform_check,
)
from .mellin import (
    RepVariant,
    genfun,
    mellin_closed,
    mellin_odd_order_exact,
    mellin_quadrature,
    mellin_recursion_reference,
    mellin_rep,
    order_one_exact,
    order_one_rationality_check,
    order_one_reference,
    poly_factor,
    special_value_at_1,
    special_value_at_1_rational,
    variant_is_quadrature,
)
from .criticality import (
    HahnParams,
    critical_line_report,
    difference_equation_residual,
    difference_equation_symbolic,
    difference_equation_terms,
    find_roots,
    functional_equation_check,
    functional_equation_sign,
    hahn_constant,
    hahn_eval,
    hahn_eval_exact,
    hahn_proportionality,
)
from .fracpart import (
    FracIntegralSpec,
    SublemmaState,
    TransformKind,
    alpha_one_limit,
    fermi_bose_transform,
    frac_basic,
    frac_general,
    frac_int_moments,
    frac_pair_integral,
    frac_weight_quadrature,
    moment_boundary_value,
    moment_combination,
    numeric_fracpart_oracle,
    pair_integral_quadrature,
    pair_integral_report,
    richardson_extrapolate,
    sublemma_sum,
    sublemma_sum_series,
)
from .suites import (
    SUITE_NAMES,
    OutputFormat,
    RunConfig,
    VerifySuiteResult,
    appendix_parameter_tuples,
    run_suite,
)
from .cli import main, run_command

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DivergenceError", "DomainError", "PoleError",
    "DEFAULT_PRECISION", "MIN_PRECISION", "GaussianRational", "HPComplex",
    "RationalPolynomial", "as_rational", "rational_to_mpf",
    "tanh_sinh",
    "HypergeometricSpec", "TransformId", "double_factorial", "ferrers",
    "gamma", "hurwitz_zeta", "hyp2f1", "hyp3f2", "hyp_pfq",
    "hyp_terminating_exact", "is_nonpositive_integer", "kummer_2f1_residual",
    "pochhammer_rational", "polygamma", "reciprocal_gamma", "riemann_zeta",
    "threeF2_transform_check",
    "RepVariant", "genfun", "mellin_closed", "mellin_odd_order_exact",
    "mellin_quadrature", "mellin_recursion_reference", "mellin_rep",
    "order_one_exact", "order_one_rationality_check", "order_one_reference",
    "poly_factor", "special_value_at_1", "special_value_at_1_rational",
    "variant_is_quadrature",
    "HahnParams", "critical_line_report",
    "difference_equation_residual", "difference_equation_symbolic",
    "difference_equation_terms", "find_roots", "functional_equation_check",
    "functional_equation_sign", "hahn_constant", "hahn_eval",
    "hahn_eval_exact", "hahn_proportionality",
    "FracIntegralSpec", "SublemmaState", "TransformKind", "alpha_one_limit",
    "fermi_bose_transform", "frac_basic", "frac_general",
    "frac_int_moments", "frac_pair_integral", "frac_weight_quadrature",
    "moment_boundary_value", "moment_combination", "numeric_fracpart_oracle",
    "pair_integral_quadrature", "pair_integral_report",
    "richardson_extrapolate", "sublemma_sum", "sublemma_sum_series",
    "SUITE_NAMES", "OutputFormat", "RunConfig", "VerifySuiteResult",
    "appendix_parameter_tuples", "run_suite",
    "main", "run_command",
    "__version__",
]
