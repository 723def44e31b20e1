"""Rigorous solution range on [x0, x1] from a frozen-argument comparison bound.

If f > 0 on the interval and f is nondecreasing in x there, then along the
solution y' = f(x, y) <= f(x1, y), so integrating dy / f(x1, y) <= dx gives an
explicit upper bound for y(x).  With f(x1, y) = alpha + beta * y^2 the
integral is an arctangent and the bound at x1 has the closed tangent-addition
form (s*t + y0) / (1 - t*y0/s), s = sqrt(alpha/beta), t = tan(sqrt(alpha*beta)
* (x1 - x0)).  Since f > 0 the solution is nondecreasing, so y0 is the exact
lower endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .odexpr import FlowExpr
from .ratcore import (
    DecimalRounding,
    HALF_PI_LOWER,
    RatInterval,
    RationalLike,
    _check_width,
    as_rational,
    enclose_sqrt,
    enclose_tan,
)


class ComparisonFormError(ValueError):
    """f(x1, y) is not of the supported form alpha + beta*y^2, alpha,beta > 0."""


class ApplicabilityError(RuntimeError):
    """A hypothesis of the range bound fails over the given box."""

    def __init__(self, kind: str, interval: RatInterval, message: str):
        super().__init__(message)
        self.kind = kind  # "positivity" | "monotonicity"
        self.interval = interval


@dataclass(frozen=True)
class QuadraticComparison:
    """f(x1, y) = alpha + beta * y^2 frozen on [x0, x1]: alpha, beta > 0, x1 > x0."""

    alpha: Fraction
    beta: Fraction
    x0: Fraction
    x1: Fraction
    y0: Fraction

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ComparisonFormError("alpha and beta must be positive")
        if self.x1 <= self.x0:
            raise ValueError("x1 must exceed x0")


@dataclass(frozen=True)
class SolutionRange:
    """Certified range of the solution over [x0, x1].

    `range` is the reported (possibly outward-rounded) enclosure; `tight_upper`
    retains the unrounded enclosure of the comparison upper bound.  When
    `valid` is false the bound could not be certified and `diagnostics` says
    why.
    """

    range: RatInterval
    valid: bool
    diagnostics: str
    tight_upper: RatInterval


def extract_comparison(
    f: FlowExpr,
    x0: RationalLike,
    x1: RationalLike,
    y0: RationalLike,
) -> QuadraticComparison:
    """Freeze x := x1 in f and extract alpha + beta * y^2.

    A right-hand side with a derivative symbol raises ExprError.  Any
    y power left after freezing, other than the constant and the y^2 term,
    is rejected by name (the first by first appearance in f), as are
    nonpositive alpha or beta.
    """
    terms = f.xy_terms()
    x0, x1, y0 = as_rational(x0), as_rational(x1), as_rational(y0)
    frozen: dict[int, Fraction] = {}
    for i, j, c in terms:
        frozen[j] = frozen.get(j, 0) + c * x1**i
    alpha, beta = frozen.pop(0, Fraction(0)), frozen.pop(2, Fraction(0))
    for j, coeff in frozen.items():
        if coeff:
            raise ComparisonFormError(
                f"unsupported monomial {coeff}*{FlowExpr({(0, j): 1})} "
                f"after freezing x = {x1}"
            )
    if alpha <= 0:
        raise ComparisonFormError(f"constant term alpha = {alpha} is not positive")
    if beta <= 0:
        raise ComparisonFormError(f"y^2 coefficient beta = {beta} is not positive")
    return QuadraticComparison(alpha=alpha, beta=beta, x0=x0, x1=x1, y0=y0)


def check_applicability(
    f: FlowExpr,
    x0: RationalLike,
    x1: RationalLike,
    yrange: RatInterval,
) -> None:
    """Certify the comparison hypotheses over [x0, x1] x yrange.

    (a) f > 0 there, and (b) df/dx >= 0 there, which makes the frozen
    right-hand side f(x1, y) an upper bound for f(x, y) on the interval.
    Raises ApplicabilityError with the offending interval otherwise.
    """
    x0, x1 = as_rational(x0), as_rational(x1)
    if x1 <= x0:
        raise ValueError("applicability check needs x1 > x0")
    box = {"x": RatInterval(x0, x1), "y": yrange}
    f_range = f.eval_interval(box)
    if f_range.lo <= 0:
        raise ApplicabilityError(
            "positivity",
            f_range,
            f"cannot certify f > 0 on the box: interval evaluation gives {f_range}",
        )
    fx_range = f.partial(0).eval_interval(box)
    if fx_range.lo < 0:
        raise ApplicabilityError(
            "monotonicity",
            fx_range,
            f"cannot certify df/dx >= 0 on the box: interval evaluation gives {fx_range}",
        )


def _invalid(
    y0: Fraction, diagnostics: str, tight: RatInterval | None = None
) -> SolutionRange:
    point = RatInterval.point(y0)
    return SolutionRange(
        range=point,
        valid=False,
        diagnostics=diagnostics,
        tight_upper=tight if tight is not None else point,
    )


def solution_range(
    qc: QuadraticComparison,
    width: RationalLike,
    rounding: DecimalRounding,
    flow: FlowExpr,
) -> SolutionRange:
    """Certified range [y0, U] of the solution of y' = flow over [x0, x1].

    U encloses the tangent-addition value (s*t + y0) / (1 - t*y0/s), to a
    width of at most `width`, from certified enclosures and outward interval
    division; a round that fails to certify s > 0, denominator > 0 or that
    width retries with 16 times finer series, up to 60 rounds.  The
    certificate is refused (valid=False) only by the checks here: if the
    tangent argument sqrt(alpha*beta) * (x1 - x0) reaches HALF_PI_LOWER, the
    one tangent domain bound (below it `enclose_tan` always succeeds), if the
    comparison solution blows up before x1 (denominator not certifiably
    positive), if the width target is out of reach, or if the comparison
    hypotheses for `flow`, which `qc` was extracted from, fail on the box.
    Diagnostics show intervals in decimals (`RatInterval.__str__`), so they
    stay short however long the exact endpoints are.

    The reported upper endpoint is widened per `rounding`; the tight enclosure
    is always retained alongside.
    """
    width = _check_width(width)
    dx = qc.x1 - qc.x0
    component_width = width / 8
    for _ in range(60):
        s_enc = enclose_sqrt(qc.alpha / qc.beta, component_width)
        rate_enc = enclose_sqrt(qc.alpha * qc.beta, component_width)
        theta = rate_enc.scale(dx)
        if theta.hi >= HALF_PI_LOWER:
            return _invalid(
                qc.y0,
                f"tangent argument {theta} reaches the certified pi/2 bound: "
                f"no tangent-form bound exists on [{qc.x0}, {qc.x1}]",
            )
        t_enc = enclose_tan(theta, component_width)
        if s_enc.lo > 0:
            denominator = RatInterval.point(1) - t_enc * RatInterval.point(qc.y0) / s_enc
            if denominator.lo > 0:
                upper = (s_enc * t_enc + RatInterval.point(qc.y0)) / denominator
                if upper.width <= width:
                    break
            elif denominator.hi <= 0 or component_width <= width / 2**40:
                return _invalid(
                    qc.y0,
                    f"denominator 1 - t*y0/s = {denominator} not certifiably "
                    f"positive: comparison solution escapes before x1 = {qc.x1}",
                )
        component_width /= 16
    else:
        return _invalid(qc.y0, "enclosure width target unreachable")

    # t >= 0 and denominator > 0 keep the bound at or above y0; clip the
    # enclosure so the reported range never dips below the exact lower end.
    upper = RatInterval(max(upper.lo, qc.y0), max(upper.hi, qc.y0))
    reported = RatInterval(qc.y0, rounding.round_up(upper.hi))

    try:
        check_applicability(flow, qc.x0, qc.x1, reported)
    except ApplicabilityError as exc:
        return _invalid(
            qc.y0, f"{exc.kind} fails on certified range {reported}: {exc}", upper
        )
    return SolutionRange(
        range=reported,
        valid=True,
        diagnostics="",
        tight_upper=upper,
    )
