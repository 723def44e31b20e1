"""The integer square-root, tangent, range, radius and remainder stages
against verbatim copies of the Fraction code they replaced.

`enclose_sqrt`, `_tan_point_enclosure`, the tangent-addition bound of
`solution_range`, `convergence_radius`, `lagrange_remainder` and
`centralize` compute on
integer numerators over positive integer denominators and make a Fraction of
each value they return only.  The references below are the earlier versions,
which built a reduced Fraction at every interval operation.  On seeded
corpora every returned value must have the same numerator and denominator,
and every diagnostic the same text.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import ceil, factorial, floor, isqrt

import pytest

from taylorcert import certify_partial_sum
from taylorcert.cauchy import (
    RadiusCertificate,
    _floor_to_clean_decimal,
    convergence_radius,
)
from taylorcert.certify import ProblemSpec, centralize, lagrange_remainder
from taylorcert.comparison import (
    ApplicabilityError,
    ComparisonFormError,
    SolutionRange,
    check_applicability,
    extract_comparison,
    solution_range,
)
from taylorcert.odexpr import FlowExpr
from taylorcert.ratcore import (
    DecimalRounding,
    EnclosureError,
    HALF_PI_LOWER,
    RatInterval,
    RationalLike,
    _check_width,
    _interval3,
    _ordered,
    _tan_point_enclosure,
    as_rational,
    enclose_exp_neg,
    enclose_sqrt,
    enclose_tan,
)

F = Fraction

# -- references: the Fraction code, verbatim ------------------------------------


def reference_enclose_sqrt(q: RationalLike, width: RationalLike) -> RatInterval:
    q = as_rational(q)
    width = _check_width(width)
    if q < 0:
        raise EnclosureError(f"enclose_sqrt needs q >= 0, got {q}")
    if q == 0:
        return RatInterval.point(0)

    num_root = isqrt(q.numerator)
    den_root = isqrt(q.denominator)
    if num_root * num_root == q.numerator and den_root * den_root == q.denominator:
        return RatInterval.point(Fraction(num_root, den_root))

    top = max(Fraction(1), q)
    halvings = (ceil(top / width) - 1).bit_length()
    step = top / 2**halvings
    m = isqrt(floor(q / (step * step)))
    return _ordered(m * step, (m + 1) * step)


def reference_trig_series(t: Fraction, power: int, width: Fraction) -> RatInterval:
    (a, b), (wn, wd) = t.as_integer_ratio(), width.as_integer_ratio()
    partial, term, den = 0, a**power, b**power
    while True:
        partial += term
        step = (power + 1) * (power + 2) * b * b
        partial, term, den = partial * step, -term * a * a, den * step
        power += 2
        err = abs(term)
        if 2 * err * wd <= wn * den:
            return _ordered(Fraction(partial - err, den), Fraction(partial + err, den))


def reference_tan_point_enclosure(t: Fraction, width: Fraction) -> RatInterval:
    cos_enc = reference_trig_series(t, 0, width)
    while cos_enc.lo <= 0:
        width /= 16
        cos_enc = reference_trig_series(t, 0, width)
    return reference_trig_series(t, 1, width) / cos_enc


def reference_enclose_tan(theta: RatInterval, width: RationalLike) -> RatInterval:
    width = _check_width(width)
    if theta.lo < 0:
        raise EnclosureError(f"tan domain is [0, pi/2); got lower endpoint {theta.lo}")
    if theta.hi >= HALF_PI_LOWER:
        raise EnclosureError(f"tan argument {theta.hi} reaches the certified pi/2 bound")
    point_width = width / 4
    while True:
        lo_enc = reference_tan_point_enclosure(theta.lo, point_width)
        hi_enc = (
            lo_enc
            if theta.hi == theta.lo
            else reference_tan_point_enclosure(theta.hi, point_width)
        )
        if lo_enc.width + hi_enc.width <= width:
            return RatInterval(lo_enc.lo, hi_enc.hi)
        point_width /= 16


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


def reference_solution_range(qc, width, rounding, flow) -> SolutionRange:
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
        t_enc = reference_enclose_tan(theta, component_width)
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


def reference_convergence_radius(r1, r2, M, width) -> RadiusCertificate:
    r1, r2, M = as_rational(r1), as_rational(r2), as_rational(M)
    if r1 <= 0 or r2 <= 0 or M < 0:
        raise ValueError("r1 and r2 must be positive and M nonnegative")
    w = as_rational(width) / r1
    cap = max(1, w.denominator.bit_length() - w.numerator.bit_length() + 1)
    exp_enclosure = enclose_exp_neg(min(r2 / (2 * M * r1), cap) if M else cap, w)
    one = RatInterval.point(1)
    r_enclosure = (one - exp_enclosure).scale(r1)
    return RadiusCertificate(
        r1=r1,
        r2=r2,
        M=M,
        r_enclosure=r_enclosure,
        r_floor=_floor_to_clean_decimal(r_enclosure.lo),
    )


def reference_lagrange_remainder(bound_top, dx, n):
    dx = as_rational(dx)
    if dx < 0:
        raise ValueError("dx must be nonnegative")
    scale = dx ** (n + 1) / factorial(n + 1)
    signed = bound_top.scale(scale)
    return signed.mag, signed


def reference_centralize(bound_top, n):
    fact = factorial(n + 1)
    return bound_top.midpoint / fact, bound_top.radius / fact


# -- comparing values by numerator and denominator ------------------------------


def ratios(value) -> list[tuple[int, int]]:
    """Numerator and denominator of every rational in a value, in order."""
    if isinstance(value, Fraction):
        return [(value.numerator, value.denominator)]
    if isinstance(value, RatInterval):
        assert type(value.lo) is Fraction and type(value.hi) is Fraction
        return ratios(value.lo) + ratios(value.hi)
    if isinstance(value, SolutionRange):
        return ratios(value.range) + ratios(value.tight_upper)
    if isinstance(value, RadiusCertificate):
        fields = (value.r1, value.r2, value.M, value.r_enclosure, value.r_floor)
        return [r for field in fields for r in ratios(field)]
    return [r for item in value for r in ratios(item)]


def assert_same(got, want):
    assert ratios(got) == ratios(want)
    assert got == want


# -- corpora --------------------------------------------------------------------


def _rational(rng: random.Random, digits: int) -> Fraction:
    return F(rng.randint(1, 10**digits), rng.randint(1, 10**digits))


def _width(rng: random.Random) -> Fraction:
    """10^-6 to 10^-30, with a random mantissa."""
    return F(rng.randint(1, 9), 10 ** rng.randint(6, 30))


ROUNDINGS = (
    DecimalRounding.exact(),
    DecimalRounding.outward(2),
    DecimalRounding.outward(12),
    DecimalRounding.outward(30),
)


def comparison_corpus(seed: int, count: int):
    """(qc, width, rounding, flow): flows c0 + c1*x + beta*y^2 from x0 < 0,
    x0 = 0 or x0 > 0 and y0 of either sign, over steps from far inside the
    pole of the frozen comparison to past it."""
    rng = random.Random(seed)
    while count:
        c0, beta = _rational(rng, 3), _rational(rng, 3)
        c1 = rng.choice((0, 1, -1)) * _rational(rng, 2)
        x0 = rng.choice((F(0), -_rational(rng, 2), _rational(rng, 2)))
        y0 = rng.choice((1, -1)) * _rational(rng, 3)
        # The pole of c0 + beta*y^2 sets the scale of the step.
        s = math.sqrt(c0 / beta)
        pole = (math.pi / 2 - math.atan(float(y0) / s)) / math.sqrt(c0 * beta)
        dx = F(pole * rng.choice((0.01, 0.3, 0.9, 0.999, 1.2))).limit_denominator(10**12)
        if dx <= 0:
            continue
        flow = FlowExpr({(): c0, (1,): c1, (0, 2): beta})
        try:
            qc = extract_comparison(flow, x0, x0 + dx, y0)
        except ComparisonFormError:
            continue
        count -= 1
        yield qc, _width(rng), rng.choice(ROUNDINGS), flow


def test_solution_range_matches_fraction_code():
    outcomes = set()
    for qc, width, rounding, flow in comparison_corpus(11, 360):
        got = solution_range(qc, width, rounding, flow)
        want = reference_solution_range(qc, width, rounding, flow)
        assert_same(got, want)
        assert got.diagnostics == want.diagnostics, qc
        outcomes.add(got.diagnostics.split(" ")[0] if got.diagnostics else "valid")
    # Every branch that makes a value or a diagnostic: certified, the
    # tangent's pi/2 bound, the escape (the invalid denominator) and the
    # hypotheses failing on the certified range.
    assert outcomes >= {"valid", "tangent", "denominator", "positivity", "monotonicity"}


@pytest.mark.parametrize(
    "alpha, beta, x0, y0, dx",
    [
        (1, 1, 0, 10, F(1, 5)),  # 1 - t*10 < 0 on the whole enclosure
        (F(3, 7), F(5, 2), F(-2, 3), F(9, 4), F(2, 5)),
        (F(1, 10**6), 1, F(7, 3), F(10**3), F(1, 10**3)),
    ],
)
def test_invalid_denominator_diagnostic_matches(alpha, beta, x0, y0, dx):
    flow = FlowExpr({(): F(alpha), (0, 2): F(beta)})
    qc = extract_comparison(flow, x0, F(x0) + dx, y0)
    for rounding in (DecimalRounding.exact(), DecimalRounding.outward(30)):
        got = solution_range(qc, F(1, 10**12), rounding, flow)
        want = reference_solution_range(qc, F(1, 10**12), rounding, flow)
        assert got.diagnostics.startswith("denominator 1 - t*y0/s = [")
        assert got.diagnostics == want.diagnostics
        assert_same(got, want)


def tangent_corpus(seed: int, count: int):
    rng = random.Random(seed)
    edge = float(HALF_PI_LOWER)
    for _ in range(count):
        lo = F(rng.choice((0.0, rng.uniform(0, 1), rng.uniform(1, edge),
                           edge - 10 ** -rng.uniform(3, 12)))).limit_denominator(10**15)
        lo = min(lo, HALF_PI_LOWER - F(1, 10**16))
        hi = rng.choice((lo, lo + (HALF_PI_LOWER - lo) * F(rng.randint(0, 999), 1000)))
        width = rng.choice((_width(rng), F(16), F(1, 3)))
        yield RatInterval(lo, hi), width


@pytest.mark.parametrize("seed", [21, 22])
def test_tangent_matches_fraction_code(seed):
    for theta, width in tangent_corpus(seed, 150):
        for t in {theta.lo, theta.hi}:
            want = reference_tan_point_enclosure(t, width)
            assert_same(_interval3(_tan_point_enclosure(t, width)), want)
        assert_same(enclose_tan(theta, width), reference_enclose_tan(theta, width))


@pytest.mark.parametrize("seed", [51, 52])
def test_sqrt_matches_fraction_code(seed):
    rng = random.Random(seed)
    squares = [F(1), F(4, 9), F(49, 16), F(0), F(9, 7), F(7, 25)]
    for _ in range(300):
        q = rng.choice((_rational(rng, rng.randint(1, 12)), rng.choice(squares)))
        width = rng.choice((_width(rng), F(16), F(1, 3), F(2, 10**60)))
        assert_same(enclose_sqrt(q, width), reference_enclose_sqrt(q, width))


def radius_corpus(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        r1, r2 = _rational(rng, rng.randint(1, 4)), _rational(rng, rng.randint(1, 4))
        M = rng.choice((F(0), _rational(rng, 2), _rational(rng, 6)))
        width = rng.choice((_width(rng), F(1, 10**12), F(2)))
        yield r1, r2, M, width


@pytest.mark.parametrize("seed", [31, 32])
def test_convergence_radius_matches_fraction_code(seed):
    for r1, r2, M, width in radius_corpus(seed, 150):
        assert_same(
            convergence_radius(r1, r2, M, width),
            reference_convergence_radius(r1, r2, M, width),
        )


def remainder_corpus(seed: int, count: int):
    """Bounds below, around and above zero, steps from 0 to 2, orders to 60."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = sorted(rng.choice((1, -1)) * _rational(rng, rng.randint(1, 30)) for _ in "ab")
        bound = RatInterval(*rng.choice(((a, b), (a, a), (0, abs(b)), (-abs(a), 0))))
        dx = rng.choice((F(0), _rational(rng, 3) / 500, F(1, 5), F(2)))
        yield bound, dx, rng.randint(0, 60)


@pytest.mark.parametrize("seed", [41, 42])
def test_remainder_and_centralize_match_fraction_code(seed):
    for bound, dx, n in remainder_corpus(seed, 300):
        assert_same(lagrange_remainder(bound, dx, n), reference_lagrange_remainder(bound, dx, n))
        assert_same(centralize(bound, n), reference_centralize(bound, n))


@pytest.mark.parametrize("rounding", ["exact", "outward:2", "outward:30"])
@pytest.mark.parametrize(
    "f, x0, y0, degree, x1",
    [
        ("1/4*x + 1/4*y^2", "0", "1", 28, "2/5"),
        ("x^2 + 1/4*y^2", "0", "-1", 40, "1/5"),
        ("1 + x + y^2", "-1/3", "1/2", 12, "-1/5"),
    ],
)
def test_certificate_halfwidth_matches_fraction_code(f, x0, y0, degree, x1, rounding):
    from taylorcert.odexpr import parse_flow_expr

    p = ProblemSpec(
        f=parse_flow_expr(f), x0=F(x0), y0=F(y0), degree=degree, x1=F(x1),
        rounding=DecimalRounding.parse(rounding),
    )
    cert = certify_partial_sum(p)
    bound_top = cert.derivative_bounds[-1]
    central, halfwidth_scale = reference_centralize(bound_top, degree)
    assert_same(cert.centralized_coefficient, central)
    assert_same(cert.centralized_halfwidth, halfwidth_scale * p.dx ** (degree + 1))
    assert_same(
        (cert.remainder_bound, cert.remainder_signed),
        reference_lagrange_remainder(bound_top, p.dx, degree),
    )


def test_remainder_stages_do_no_fraction_arithmetic(fraction_arithmetic):
    bound = RatInterval(F(-3, 7), F(5, 11))
    fraction_arithmetic.clear()
    lagrange_remainder(bound, F(1, 5), 28)
    centralize(bound, 28)
    _tan_point_enclosure(F(1, 50), F(1, 32 * 10**12))
    assert fraction_arithmetic == []
