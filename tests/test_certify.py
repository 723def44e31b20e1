"""Derivative interval bounds, Lagrange remainder, centralization, pipeline."""

from fractions import Fraction
import random

import mpmath as mp
import pytest

from conftest import (
    QUADRATIC_COEFFS,
    RICCATI_COEFFS,
    RICCATI_DERIVS,
    int_pow,
    poly_add,
    poly_scale,
    quadratic_flow,
    riccati_flow,
)
from taylorcert import oracle
from taylorcert.certify import (
    Certificate,
    CertificationError,
    MAX_DEGREE,
    ProblemSpec,
    bound_derivatives,
    centralize,
    certify_partial_sum,
    certify_polynomial,
    lagrange_remainder,
    poly_eval,
)
from taylorcert.odexpr import FlowExpr, derivative_chain, parse_flow_expr, symbol_name
from taylorcert.ratcore import DecimalRounding, RatInterval, as_rational

F = Fraction

# Two-decimal reference table the outward:2 mode must reproduce for orders 1..8.
PARITY_TABLE = [
    ("0.22", "0.29"),
    ("-0.15", "0.3"),
    ("1.87", "2.12"),
    ("-1.13", "-0.74"),
    ("1.17", "1.93"),
    ("-3.38", "2.23"),
    ("14.59", "27.12"),
    ("-61.96", "-22.73"),
]

RICCATI_XRANGE = RatInterval(F(0), F(1, 5))
RICCATI_YRANGE = RatInterval(F(-1), F(-47, 50))


def riccati_chain(n=9):
    return derivative_chain(riccati_flow(), n)


def inside(inner: RatInterval, outer: RatInterval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


# -- bound_derivatives --------------------------------------------------------


def test_first_order_bound_exact_then_rounded():
    chain = riccati_chain(0)
    exact = bound_derivatives(chain, RICCATI_XRANGE, RICCATI_YRANGE)
    assert exact == [RatInterval(F(2209, 10000), F(29, 100))]
    rounded = bound_derivatives(
        chain, RICCATI_XRANGE, RICCATI_YRANGE, DecimalRounding.outward(2)
    )
    assert rounded == [RatInterval(F(22, 100), F(29, 100))]


def test_second_order_bound_with_rounded_inputs():
    chain = riccati_chain(1)
    bounds = bound_derivatives(
        chain, RICCATI_XRANGE, RICCATI_YRANGE, DecimalRounding.outward(2)
    )
    # raw second-stage interval before its own rounding is [-0.145, 0.2966]
    raw = chain[1].eval_interval(
        {"x": RICCATI_XRANGE, "y": RICCATI_YRANGE, "y'": bounds[0]}
    )
    assert raw == RatInterval(F(-145, 1000), F(2966, 10000))
    assert bounds[1] == RatInterval(F(-15, 100), F(30, 100))


def test_parity_table_orders_one_to_eight():
    bounds = bound_derivatives(
        riccati_chain(9), RICCATI_XRANGE, RICCATI_YRANGE, DecimalRounding.outward(2)
    )
    for bound, (lo, hi) in zip(bounds, PARITY_TABLE):
        assert bound == RatInterval(as_rational(lo), as_rational(hi))


def test_orders_nine_and_ten_are_wider_than_tabulated():
    bounds = bound_derivatives(
        riccati_chain(9), RICCATI_XRANGE, RICCATI_YRANGE, DecimalRounding.outward(2)
    )
    # rigorous corner evaluation strictly contains the selective tabulation
    # [92.03, 146.76] at order 9 and dips below -665.9 at order 10
    assert bounds[8].lo < as_rational("92.03")
    assert bounds[8].hi > as_rational("146.76")
    assert bounds[9].lo < as_rational("-665.9")


def test_bounds_contain_exact_derivative_values_at_x0():
    for rounding in (DecimalRounding.exact(), DecimalRounding.outward(2)):
        spec_yrange = (
            RICCATI_YRANGE
            if not rounding.is_exact
            else RatInterval(F(-1), F("-0.9447548893"))
        )
        bounds = bound_derivatives(riccati_chain(9), RICCATI_XRANGE, spec_yrange, rounding)
        for bound, value in zip(bounds, RICCATI_DERIVS):
            assert value in bound


def test_rounding_isotonicity_of_bounds():
    exact = bound_derivatives(riccati_chain(9), RICCATI_XRANGE, RICCATI_YRANGE)
    rounded = bound_derivatives(
        riccati_chain(9), RICCATI_XRANGE, RICCATI_YRANGE, DecimalRounding.outward(2)
    )
    for tight, wide in zip(exact, rounded):
        assert inside(tight, wide)


def test_pipeline_rounding_isotonicity(riccati_problem, riccati_problem_parity):
    # whole-pipeline version: the parity run also uses a widened y-range, and
    # containment must still hold order by order
    exact_cert = certify_partial_sum(riccati_problem)
    parity_cert = certify_partial_sum(riccati_problem_parity)
    assert inside(exact_cert.yrange.range, parity_cert.yrange.range)
    for tight, wide in zip(exact_cert.derivative_bounds, parity_cert.derivative_bounds):
        assert inside(tight, wide)
    assert parity_cert.remainder_bound >= exact_cert.remainder_bound


def _slot_name(slot: int) -> str:
    return "x" if slot == 0 else symbol_name(slot - 1)


def corner_hull(expr: FlowExpr, env: dict) -> RatInterval:
    """Exact range oracle for sums of multilinear monomials: enumerate the
    box corners of each monomial separately and hull the extremes."""
    total = RatInterval.point(0)
    for key, coeff in expr.monomials.items():
        slots = [slot for slot, exp in enumerate(key) if exp]
        assert all(key[s] == 1 for s in slots), "oracle is for multilinear terms"
        values = [coeff]
        for slot in slots:
            box = env[_slot_name(slot)]
            values = [v * e for v in values for e in (box.lo, box.hi)]
        total = total + RatInterval(min(values), max(values))
    return total


def test_monomial_interval_eval_matches_corner_enumeration():
    rng = random.Random(4)
    for _ in range(50):
        table = {}
        for _ in range(rng.randint(1, 4)):
            key = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
            table[key] = F(rng.randint(-6, 6), rng.randint(1, 4))
        expr = FlowExpr(table)
        env = {}
        for slot in range(5):
            a = F(rng.randint(-8, 8), rng.randint(1, 4))
            b = a + F(rng.randint(0, 8), rng.randint(1, 4))
            env[_slot_name(slot)] = RatInterval(a, b)
        assert expr.eval_interval(env) == corner_hull(expr, env)


# -- lagrange remainder and centralization -------------------------------------


def test_lagrange_remainder_tabulated_interval():
    bound, signed = lagrange_remainder(
        RatInterval(as_rational("-665.9"), as_rational("281")), F(1, 5), 9
    )
    assert bound == F(6659, 10) * F(1, 5**10) / 3628800
    assert bound < F(2, 10**11)
    assert signed.lo == -bound
    # exact decimal expansion 1.8790829...e-11
    assert F("1.879e-11") < bound < F("1.8791e-11")


def test_lagrange_remainder_zero_interval():
    bound, signed = lagrange_remainder(RatInterval.point(0), F(1, 5), 9)
    assert bound == 0 and signed == RatInterval.point(0)


def test_lagrange_remainder_degenerate_dx():
    bound, signed = lagrange_remainder(RatInterval(F(-1), F(2)), F(0), 3)
    assert bound == 0 and signed == RatInterval.point(0)


def test_centralize_tabulated_interval():
    coeff, halfwidth_scale = centralize(
        RatInterval(as_rational("-665.9"), as_rational("281")), 9
    )
    assert coeff == F(-1283, 24192000)
    halfwidth = halfwidth_scale * F(1, 5) ** 10
    assert abs(halfwidth - F("1.34e-11")) <= F(1, 10**13)


def test_centralize_symmetric_interval():
    coeff, halfwidth_scale = centralize(RatInterval(F(-3), F(3)), 4)
    assert coeff == 0
    assert halfwidth_scale == F(3, 120)


def test_centralize_consistency_with_remainder():
    bound_top = RatInterval(F(-7, 2), F(5, 4))
    n, dx = 6, F(1, 3)
    remainder_bound, _ = lagrange_remainder(bound_top, dx, n)
    coeff, halfwidth_scale = centralize(bound_top, n)
    # recentering can never increase the worst case
    assert halfwidth_scale * dx ** (n + 1) <= remainder_bound


# -- full pipeline --------------------------------------------------------------


def test_certificate_riccati_exact_mode(riccati_problem):
    cert = certify_partial_sum(riccati_problem)
    assert list(cert.coefficients) == RICCATI_COEFFS[:10]
    assert cert.radius.r_floor == F(27, 100)
    assert cert.remainder_bound <= F(1, 10**10)
    assert cert.remainder_signed.mag == cert.remainder_bound
    assert not cert.warnings  # 0.2 is inside the radius floor 0.27
    assert len(cert.derivative_bounds) == 10


def test_certificate_riccati_parity_mode(riccati_problem_parity):
    cert = certify_partial_sum(riccati_problem_parity)
    assert cert.yrange.range == RatInterval(F(-1), F(-47, 50))
    for bound, (lo, hi) in zip(cert.derivative_bounds, PARITY_TABLE):
        assert bound == RatInterval(as_rational(lo), as_rational(hi))
    assert cert.parity_notes
    assert cert.remainder_bound <= F(1, 10**10)


def test_certificate_quadratic(quadratic_problem):
    cert = certify_partial_sum(quadratic_problem)
    assert list(cert.coefficients) == QUADRATIC_COEFFS
    assert cert.remainder_bound <= F(2, 10**5)
    assert any("radius floor" in w for w in cert.warnings)


def test_certificate_degree_zero():
    p = ProblemSpec(
        f=riccati_flow(), x0=F(0), y0=F(-1), degree=0, x1=F(1, 10),
        r1=F(1, 2), r2=F(1),
    )
    cert = certify_partial_sum(p)
    assert cert.coefficients == (F(-1),)
    # crude mean-value bound: max |y'| over the box times dx
    assert cert.remainder_bound == cert.derivative_bounds[0].mag * F(1, 10)


def test_certificate_soundness_against_oracle(riccati_problem, quadratic_problem):
    for p in (riccati_problem, quadratic_problem):
        cert = certify_partial_sum(p)
        xs = [p.x0 + (p.x1 - p.x0) * k / 50 for k in range(1, 51)]
        values = oracle.reference_grid(p.f, p.x0, p.y0, xs, F(1, 10**18))
        with mp.workdps(45):
            bound = mp.mpf(cert.remainder_bound.numerator) / cert.remainder_bound.denominator
            worst = mp.mpf(0)
            for x, value in zip(xs, values):
                approx = poly_eval(cert.coefficients, x)
                err = abs(value - mp.mpf(approx.numerator) / approx.denominator)
                worst = max(worst, err)
            assert worst <= bound


def test_derivative_bounds_contain_path_values(riccati_problem):
    """Each bound contains the numeric derivative value at x1 (chain evaluated
    at integrator values), not just the exact ones at x0."""
    cert = certify_partial_sum(riccati_problem)
    chain = derivative_chain(riccati_problem.f, riccati_problem.degree)
    y_at_x1 = oracle.reference_solution(
        riccati_problem.f, riccati_problem.x0, riccati_problem.y0,
        riccati_problem.x1, F(1, 10**18),
    ).value
    with mp.workdps(45):
        env_num = {"x": mp.mpf(1) / 5, "y": y_at_x1}
        for k in range(1, riccati_problem.degree + 2):
            expr = chain[k - 1]
            value = mp.mpf(0)
            for key, coeff in expr.monomials.items():
                term = mp.mpf(coeff.numerator) / coeff.denominator
                for slot, exp in enumerate(key):
                    if exp:
                        name = "x" if slot == 0 else symbol_name(slot - 1)
                        term *= env_num[name] ** exp
                value += term
            bound = cert.derivative_bounds[k - 1]
            assert mp.mpf(bound.lo.numerator) / bound.lo.denominator <= value
            assert value <= mp.mpf(bound.hi.numerator) / bound.hi.denominator
            env_num[symbol_name(k)] = value


def test_pipeline_rejects_unsupported_comparison():
    p = ProblemSpec(
        f=parse_flow_expr("x*y"), x0=F(0), y0=F(0), degree=3, x1=F(1, 5)
    )
    with pytest.raises(CertificationError) as info:
        certify_partial_sum(p)
    assert info.value.stage == "comparison"


@pytest.mark.parametrize(
    "text, budget, message",
    [
        ("x^2 + 1/4*y^2", 1024, "order 15 has 1058 bits, over the limit 1024"),
        ("1/4 + x*y^2", 2048, "order 3 has 2060 bits, over the limit 2048"),
    ],
)
def test_pipeline_reports_bit_budget_as_bounds_failure(
    monkeypatch, text, budget, message
):
    # Both flows take the recurrence, riccati's of the form a(x) + b*y^2 and
    # `1/4 + x*y^2` outside it; each stored bound meets the one bit budget.
    # Both budgets lie below odexpr.EXACT_BOUND_BITS, past which an exact
    # bound is rounded to a 1025-bit denominator before the budget applies.
    monkeypatch.setattr("taylorcert.odexpr.MAX_BOUND_BITS", budget)
    p = ProblemSpec(f=parse_flow_expr(text), x0=F(0), y0=F(-1), degree=20, x1=F(1, 5))
    with pytest.raises(CertificationError) as info:
        certify_partial_sum(p)
    assert info.value.stage == "bounds"
    assert str(info.value) == f"[bounds] derivative bound of {message}"


def test_pipeline_rejects_blowup():
    p = ProblemSpec(
        f=parse_flow_expr("1 + y^2"), x0=F(0), y0=F(0), degree=3, x1=F(2)
    )
    with pytest.raises(CertificationError) as info:
        certify_partial_sum(p)
    assert info.value.stage == "comparison"


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(f=riccati_flow(), x0=F(0), y0=F(0), degree=-1, x1=F(1))
    with pytest.raises(ValueError):
        ProblemSpec(f=riccati_flow(), x0=F(1), y0=F(0), degree=1, x1=F(1))
    with pytest.raises(ValueError):
        ProblemSpec(f=FlowExpr({(0, 0, 1): 1}), x0=F(0), y0=F(0), degree=1, x1=F(1))
    with pytest.raises(ValueError, match="degree must be in"):
        ProblemSpec(f=riccati_flow(), x0=F(0), y0=F(0), degree=MAX_DEGREE + 1, x1=F(1))
    assert ProblemSpec(
        f=riccati_flow(), x0=F(0), y0=F(0), degree=MAX_DEGREE, x1=F(1)
    ).degree == MAX_DEGREE


# -- certify_polynomial ----------------------------------------------------------


def test_certify_polynomial_of_partial_sum_itself(riccati_problem):
    cert = certify_partial_sum(riccati_problem)
    bound = certify_polynomial(riccati_problem, cert.coefficients, certificate=cert)
    assert bound == cert.remainder_bound


def test_certify_polynomial_with_centralized_term(riccati_problem):
    cert = certify_partial_sum(riccati_problem)
    coeffs = list(cert.coefficients) + [cert.centralized_coefficient]
    bound = certify_polynomial(riccati_problem, coeffs, certificate=cert)
    # bound = remainder + |centralized coefficient| * dx^(n+1); the certified
    # worst case of the centralized polynomial itself is the halfwidth
    extra = abs(cert.centralized_coefficient) * riccati_problem.dx ** 10
    assert bound == cert.remainder_bound + extra
    assert cert.centralized_halfwidth <= cert.remainder_bound


def test_certify_polynomial_published_quintic(quadratic_problem):
    ybar = [F(1), F(1, 4), F(3, 16), F(7, 192), F(1, 96), F(1, 200)]
    cert = certify_partial_sum(quadratic_problem)
    bound = certify_polynomial(quadratic_problem, ybar, cert)
    diff = F(1, 200) - F(19, 5120)
    assert bound == cert.remainder_bound + diff * F(2, 5) ** 5
    # grid check: the true error of ybar stays below 2 units in the 5th place
    xs = [F(2, 5) * k / 100 for k in range(1, 101)]
    values = oracle.reference_grid(quadratic_problem.f, 0, 1, xs, F(1, 10**16))
    with mp.workdps(45):
        worst = max(
            abs(v - mp.mpf(poly_eval(ybar, x).numerator) / poly_eval(ybar, x).denominator)
            for x, v in zip(xs, values)
        )
        assert worst <= mp.mpf(2) / 10**5
        assert worst <= mp.mpf(bound.numerator) / bound.denominator


def test_certify_polynomial_degree_cap(riccati_problem):
    cert = certify_partial_sum(riccati_problem)
    with pytest.raises(ValueError):
        certify_polynomial(riccati_problem, [F(0)] * 70, cert)


def poly_range(coeffs, xrange: RatInterval) -> RatInterval:
    """Reference: the interval loop certify_polynomial used to enclose q - p_n,
    the sum of coeffs[k] * xrange**k term by term."""
    total = RatInterval.point(0)
    for k, c in enumerate(coeffs):
        if c != 0:
            total = total + int_pow(xrange, k).scale(c)
    return total


def test_poly_range_enclosure():
    coeffs = [F(1), F(-2), F(3)]
    box = RatInterval(F(0), F(1))
    enclosure = poly_range(coeffs, box)
    for x in (F(0), F(1, 4), F(1, 2), F(1)):
        assert poly_eval(coeffs, x) in enclosure


@pytest.mark.parametrize("problem", ["riccati_problem", "quadratic_problem"])
def test_certify_polynomial_equals_poly_range_reference(problem, request):
    p = request.getfixturevalue(problem)
    cert = certify_partial_sum(p)
    rng = random.Random(6)
    polys = [[], [F(0)], list(cert.coefficients), list(cert.coefficients[:3])]
    for degree in range(12):
        polys.append([F(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(degree + 1)])
    for q in polys:
        diff = poly_add(q, poly_scale(list(cert.coefficients), F(-1)))
        expected = cert.remainder_bound + poly_range(diff, RatInterval(p.x0, p.x1)).mag
        assert certify_polynomial(p, q, certificate=cert) == expected


def test_x_only_enclosure_equals_poly_range_reference():
    # certify_polynomial encloses q - p_n as an x-only FlowExpr; on boxes of
    # every sign class that enclosure is the reference loop's, exactly.
    rng = random.Random(7)
    for _ in range(200):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 9))]
        lo, hi = sorted(F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(2))
        box = RatInterval(lo, hi)
        expr = FlowExpr({(k,): c for k, c in enumerate(coeffs)})
        assert expr.eval_interval({"x": box}) == poly_range(coeffs, box)
