"""Exact Taylor partial sums with rigorous a priori error certificates for
scalar polynomial ODE initial value problems y' = f(x, y), y(x0) = y0.

The rigorous path works entirely in exact rational arithmetic: coefficients
come from a Taylor-mode recurrence on integers, a guaranteed convergence
radius from a magnitude bound over a box, the solution range from an
integral-inequality comparison bound, and the Lagrange remainder from
sequential interval bounds on every solution derivative from an interval
Leibniz recurrence, for every flow.  The symbolic derivative chain
(`derivative_chain`) is kept as the reference those recurrences are tested
against.  A separate, explicitly non-rigorous oracle provides high-precision
reference values for validation.
"""

__version__ = "1.0.0"

from .cauchy import RadiusCertificate, convergence_radius, magnitude_bound
from .certify import (
    Certificate,
    CertificationError,
    ProblemSpec,
    bound_derivatives,
    centralize,
    certify_partial_sum,
    certify_polynomial,
    lagrange_remainder,
)
from .comparison import (
    ApplicabilityError,
    ComparisonFormError,
    QuadraticComparison,
    SolutionRange,
    check_applicability,
    extract_comparison,
    solution_range,
)
from .odexpr import (
    DerivativeChain,
    ExprParseError,
    FlowExpr,
    derivative_chain,
    derivative_values,
    parse_flow_expr,
    taylor_coefficients,
)
from .ratcore import (
    DecimalRounding,
    EnclosureError,
    RatInterval,
    as_rational,
    enclose_exp_neg,
    enclose_sqrt,
    enclose_tan,
)

__all__ = [
    "ApplicabilityError",
    "Certificate",
    "CertificationError",
    "ComparisonFormError",
    "DecimalRounding",
    "DerivativeChain",
    "EnclosureError",
    "ExprParseError",
    "FlowExpr",
    "ProblemSpec",
    "QuadraticComparison",
    "RadiusCertificate",
    "RatInterval",
    "SolutionRange",
    "as_rational",
    "bound_derivatives",
    "centralize",
    "certify_partial_sum",
    "certify_polynomial",
    "check_applicability",
    "convergence_radius",
    "derivative_chain",
    "derivative_values",
    "enclose_exp_neg",
    "enclose_sqrt",
    "enclose_tan",
    "extract_comparison",
    "lagrange_remainder",
    "magnitude_bound",
    "parse_flow_expr",
    "solution_range",
    "taylor_coefficients",
]
