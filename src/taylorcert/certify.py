"""Assemble rigorous error certificates for Taylor partial sums.

The pipeline: exact coefficients from the Taylor-mode recurrence, a
guaranteed convergence-radius bound, a certified solution range on [x0, x1],
sequential interval bounds for every solution derivative up to order n+1
(`odexpr.derivative_bounds`: the interval Leibniz recurrence, for every flow;
no derivative chain is built), and finally the degree-n remainder in
Lagrange form, |R_n(x)| <= sup|y^(n+1)| * dx^(n+1) / (n+1)!.
A centralized variant shifts the partial sum by the midpoint of the signed
remainder range, halving the worst-case error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from . import cauchy, comparison, odexpr
from .odexpr import DerivativeChain, FlowExpr, _require_xy
from .ratcore import (
    DEFAULT_ENCLOSURE_WIDTH,
    DecimalRounding,
    RatInterval,
    RationalLike,
    _ordered,
    as_rational,
)

#: Degree cap for polynomials accepted by certify_polynomial.
MAX_POLY_DEGREE = 64

#: Degree cap for partial sums, which bounds every stage's work.
MAX_DEGREE = 400


class CertificationError(RuntimeError):
    """A pipeline stage could not establish its guarantee."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ConvergenceError(RuntimeError):
    """The oracle's reference computation did not reach the requested accuracy.

    Defined beside CertificationError, not in `oracle`, so that the CLI maps
    both to exit code 2 without importing the oracle and mpmath.
    """


@dataclass(frozen=True)
class ProblemSpec:
    """An initial value problem y' = f(x, y), y(x0) = y0 plus certification
    parameters: the partial-sum degree, the right end x1 of the certification
    interval, the box radii for the radius bound, the reporting rounding mode
    and the enclosure width."""

    f: FlowExpr
    x0: Fraction
    y0: Fraction
    degree: int
    x1: Fraction
    r1: Fraction = Fraction(1)
    r2: Fraction = Fraction(1)
    rounding: DecimalRounding = DecimalRounding.exact()
    enclosure_width: Fraction = DEFAULT_ENCLOSURE_WIDTH
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require_xy(self.f)
        if not 0 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [0, {MAX_DEGREE}], got {self.degree}")
        if self.x1 <= self.x0:
            raise ValueError("x1 must exceed x0")
        if self.r1 <= 0 or self.r2 <= 0:
            raise ValueError("box radii must be positive")
        if self.enclosure_width <= 0:
            raise ValueError("enclosure width must be positive")

    @property
    def dx(self) -> Fraction:
        return self.x1 - self.x0


@dataclass(frozen=True)
class Certificate:
    """Full output record of certify_partial_sum.

    derivative_bounds[k-1] encloses y^(k) over [x0, x1] for k = 1 .. n+1.
    remainder_bound = max(|remainder_signed.lo|, |remainder_signed.hi|) bounds
    |y(x) - p_n(x)| for every x in [x0, x1].  Adding
    centralized_coefficient * (x - x0)^(n+1) to the partial sum brings the
    worst-case error down to centralized_halfwidth.
    """

    problem: ProblemSpec
    coefficients: tuple[Fraction, ...]
    radius: cauchy.RadiusCertificate
    yrange: comparison.SolutionRange
    derivative_bounds: tuple[RatInterval, ...]
    remainder_bound: Fraction
    remainder_signed: RatInterval
    centralized_coefficient: Fraction
    centralized_halfwidth: Fraction
    warnings: tuple[str, ...] = ()
    parity_notes: tuple[str, ...] = ()


#: Sequential interval bounds for y^(1) ... y^(len(chain)) over a box:
#: bound_derivatives(chain, xrange, yrange, rounding) is chain.bounds(...).
#: The pipeline does not use it; it is the chain's reference evaluation.
bound_derivatives = DerivativeChain.bounds


def lagrange_remainder(
    bound_top: RatInterval, dx: RationalLike, n: int
) -> tuple[Fraction, RatInterval]:
    """Signed remainder range and magnitude bound for the degree-n partial sum.

    bound_top must enclose y^(n+1) over [x0, x0+dx]; then at each x the
    remainder lies in bound_top * (x-x0)^(n+1) / (n+1)!.  The returned signed
    range is that envelope at the full step dx, and the magnitude bound
    max(|lo|, |hi|) covers every x in the interval since |x-x0| <= dx.  The
    scale is the integer dx.numerator**(n+1) over dx.denominator**(n+1) *
    (n+1)!, each formed once; it is nonnegative, so each end of bound_top
    [a/b, c/d] becomes one Fraction, a num / (b den) and c num / (d den).
    """
    dx = as_rational(dx)
    if dx < 0:
        raise ValueError("dx must be nonnegative")
    num, den = dx.numerator ** (n + 1), dx.denominator ** (n + 1) * factorial(n + 1)
    (a, b), (c, d) = bound_top.lo.as_integer_ratio(), bound_top.hi.as_integer_ratio()
    signed = _ordered(Fraction(a * num, b * den), Fraction(c * num, d * den))
    return signed.mag, signed


def centralize(bound_top: RatInterval, n: int) -> tuple[Fraction, Fraction]:
    """Midpoint coefficient and halfwidth scale for error centralization.

    Adding midpoint(bound_top)/(n+1)! * (x-x0)^(n+1) to the partial sum leaves
    a worst-case error of radius(bound_top)/(n+1)! * dx^(n+1).  With
    bound_top = [a/b, c/d] they are (a d + c b) and (c b - a d) over
    2 b d (n+1)!, each one Fraction.
    """
    (a, b), (c, d) = bound_top.lo.as_integer_ratio(), bound_top.hi.as_integer_ratio()
    den = 2 * b * d * factorial(n + 1)
    return Fraction(a * d + c * b, den), Fraction(c * b - a * d, den)


def poly_eval(coeffs: Sequence[Fraction], x: RationalLike) -> Fraction:
    """Exact Horner evaluation of sum coeffs[k] * x^k."""
    x = as_rational(x)
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def _coefficient_stage(p: ProblemSpec) -> list[Fraction]:
    """The exact Taylor coefficients c_0 ... c_n; a coefficient past
    odexpr.MAX_COEFF_BITS raises CertificationError."""
    try:
        return odexpr.taylor_coefficients(p.f, p.x0, p.y0, p.degree)
    except odexpr.ExprError as exc:  # only a budget: p.f is x/y-only
        raise CertificationError("coefficients", str(exc)) from exc


def _comparison_stage(
    p: ProblemSpec,
) -> tuple[comparison.QuadraticComparison, comparison.SolutionRange]:
    """f frozen at x1 as alpha + beta*y^2, and the solution range it gives,
    which may be invalid; a flow of another form raises CertificationError."""
    try:
        qc = comparison.extract_comparison(p.f, p.x0, p.x1, p.y0)
    except comparison.ComparisonFormError as exc:
        raise CertificationError("comparison", str(exc)) from exc
    return qc, comparison.solution_range(qc, p.enclosure_width, p.rounding, p.f)


def certify_partial_sum(p: ProblemSpec) -> Certificate:
    """Run the full pipeline and assemble the certificate.

    Fails fast with a CertificationError naming the stage whose guarantee
    cannot be established.  x1 beyond the radius floor is only a warning: the
    remainder argument needs existence and differentiability on [x0, x1],
    which the certified solution range establishes on its own.
    """
    warnings: list[str] = list(p.notes)
    parity_notes: list[str] = []

    coefficients = _coefficient_stage(p)

    radius = cauchy.radius_for_problem(
        p.f, p.x0, p.y0, p.r1, p.r2, p.enclosure_width
    )
    if p.x1 - p.x0 > radius.r_floor:
        warnings.append(
            f"certification interval extends past the guaranteed radius floor "
            f"({p.x1} - {p.x0} > {radius.r_floor}); the radius bound is "
            f"conservative and the remainder certificate stands on the "
            f"certified solution range instead"
        )

    _, yrange = _comparison_stage(p)
    if not yrange.valid:
        raise CertificationError("comparison", yrange.diagnostics)

    xrange, capped = RatInterval(p.x0, p.x1), []
    try:
        bounds = odexpr.derivative_bounds(
            p.f, p.degree, xrange, yrange.range, p.rounding, capped=capped
        )
    except odexpr.ExprError as exc:  # only a budget: p.f is x/y-only
        raise CertificationError("bounds", str(exc)) from exc
    if capped:
        parity_notes.append(
            f"{len(capped)} of the {len(bounds)} exact derivative bounds, from "
            f"order {capped[0]}, passed {odexpr.EXACT_BOUND_BITS} bits and were "
            f"rounded outward to multiples of 2^-1024, which widens each end "
            f"by less than 2^-1024"
        )
    if not p.rounding.is_exact:
        parity_notes.append(
            f"bounds rounded outward to {p.rounding.places} decimals at every "
            f"stage; each interval is the rigorous monomial-wise corner "
            f"enclosure, which at high orders can be wider than tabulations "
            f"that pick a single corner value per summand"
        )

    bound_top = bounds[-1]
    remainder_bound, remainder_signed = lagrange_remainder(bound_top, p.dx, p.degree)
    central_coeff, halfwidth_scale = centralize(bound_top, p.degree)

    return Certificate(
        problem=p,
        coefficients=tuple(coefficients),
        radius=radius,
        yrange=yrange,
        derivative_bounds=tuple(bounds),
        remainder_bound=remainder_bound,
        remainder_signed=remainder_signed,
        centralized_coefficient=central_coeff,
        centralized_halfwidth=halfwidth_scale * p.dx ** (p.degree + 1),
        warnings=tuple(warnings),
        parity_notes=tuple(parity_notes),
    )


def certify_polynomial(
    p: ProblemSpec, q: Sequence[RationalLike], certificate: Certificate
) -> Fraction:
    """Rigorous bound on sup |q(x) - y(x)| over [x0, x1].

    q is a coefficient list in powers of x, and `certificate` is
    certify_partial_sum(p).  The bound is its remainder bound plus the
    monomial-wise enclosure of |q - p_n| over the interval
    (`FlowExpr.eval_interval` of the x-only difference), so it certifies any
    polynomial, not just the Taylor one.
    """
    if len(q) - 1 > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree exceeds limit {MAX_POLY_DEGREE}")
    diff = FlowExpr({(k,): c for k, c in enumerate(q)}) - FlowExpr(
        {(k,): c for k, c in enumerate(certificate.coefficients)}
    )
    x_range = {"x": RatInterval(p.x0, p.x1)}
    return certificate.remainder_bound + diff.eval_interval(x_range).mag
