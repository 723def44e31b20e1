"""The frozen-argument comparison bound and certified solution ranges."""

from fractions import Fraction

import pytest

from conftest import (
    QUADRATIC_Y_AT_04,
    RICCATI_Y_AT_02,
    quadratic_flow,
    riccati_flow,
)
from taylorcert import oracle
from taylorcert.comparison import (
    ApplicabilityError,
    ComparisonFormError,
    QuadraticComparison,
    check_applicability,
    extract_comparison,
    solution_range,
)
from taylorcert.odexpr import FlowExpr, parse_flow_expr
from taylorcert.ratcore import DecimalRounding, RatInterval

F = Fraction

# Tangent-addition values, frozen from a 40-digit reference computation:
#   (0.4*tan(1/50) - 1) / (1 + 2.5*tan(1/50))        = -0.94475488932267474274...
#   (sqrt(0.4)*t + 1) / (1 - t/sqrt(0.4)), t = tan(0.4*sqrt(1/40))
#                                                    = 1.15578641180842047931...
U_RICCATI = F("-0.94475488932267474274")
U_QUADRATIC = F("1.15578641180842047931")


def riccati_qc() -> QuadraticComparison:
    return extract_comparison(riccati_flow(), 0, F(1, 5), -1)


def quadratic_qc() -> QuadraticComparison:
    return extract_comparison(quadratic_flow(), 0, F(2, 5), 1)


WIDTH = F(1, 10**12)
EXACT = DecimalRounding.exact()


def frozen_flow(qc: QuadraticComparison) -> FlowExpr:
    """alpha + beta*y^2 itself: positive, and constant in x."""
    return FlowExpr.constant(qc.alpha) + FlowExpr({(0, 2): qc.beta})


# -- extraction ----------------------------------------------------------------


def test_extract_riccati():
    qc = riccati_qc()
    assert (qc.alpha, qc.beta) == (F(1, 25), F(1, 4))
    assert (qc.x0, qc.x1, qc.y0) == (F(0), F(1, 5), F(-1))


def test_extract_quadratic():
    qc = quadratic_qc()
    assert (qc.alpha, qc.beta) == (F(1, 10), F(1, 4))


def test_extract_rejects_mixed_terms():
    with pytest.raises(ComparisonFormError, match="x"):
        extract_comparison(parse_flow_expr("x*y"), 0, F(1, 5), 0)


def test_extract_rejects_linear_y():
    with pytest.raises(ComparisonFormError, match="y"):
        extract_comparison(parse_flow_expr("1 + y + y^2"), 0, 1, 0)


def test_extract_rejects_nonpositive_alpha():
    with pytest.raises(ComparisonFormError, match="alpha"):
        extract_comparison(parse_flow_expr("y^2 - 1"), 0, 1, 0)
    # alpha = x1^2 vanishes when the interval starts at the origin
    with pytest.raises(ComparisonFormError, match="alpha"):
        extract_comparison(parse_flow_expr("x^2 + y^2"), -1, 0, 0)


# -- applicability -------------------------------------------------------------


def test_applicability_riccati_box():
    check_applicability(riccati_flow(), 0, F(1, 5), RatInterval(F(-1), F(-47, 50)))


def test_applicability_positivity_failure():
    with pytest.raises(ApplicabilityError) as info:
        check_applicability(
            riccati_flow(), 0, F(1, 5), RatInterval(F(-1, 10), F(1, 10))
        )
    assert info.value.kind == "positivity"
    assert info.value.interval.lo <= 0


def test_applicability_monotonicity_failure():
    f = parse_flow_expr("1 - x + y^2")  # positive but decreasing in x near 0
    with pytest.raises(ApplicabilityError) as info:
        check_applicability(f, 0, F(1, 5), RatInterval(F(0), F(1, 10)))
    assert info.value.kind == "monotonicity"


def test_applicability_quadratic_box():
    check_applicability(quadratic_flow(), 0, F(2, 5), RatInterval(F(1), F(6, 5)))


# -- solution range ------------------------------------------------------------


def test_range_riccati_tight_and_rounded():
    sr = solution_range(riccati_qc(), WIDTH, DecimalRounding.outward(2), riccati_flow())
    assert sr.valid
    assert U_RICCATI in sr.tight_upper
    assert sr.tight_upper.width <= F(1, 10**12)
    assert sr.range == RatInterval(F(-1), F(-47, 50))


def test_range_riccati_exact_mode():
    sr = solution_range(riccati_qc(), WIDTH, EXACT, riccati_flow())
    assert sr.valid
    assert sr.range.lo == F(-1)
    assert sr.range.hi == sr.tight_upper.hi
    # enclosure of the oracle check: true solution value stays inside
    assert sr.range.lo <= RICCATI_Y_AT_02 <= sr.range.hi


def test_range_quadratic():
    sr = solution_range(quadratic_qc(), WIDTH, DecimalRounding.outward(3), quadratic_flow())
    assert sr.valid
    assert U_QUADRATIC in sr.tight_upper
    assert sr.range == RatInterval(F(1), F(289, 250))
    assert sr.range.lo <= QUADRATIC_Y_AT_04 <= sr.range.hi


def test_upper_bound_never_below_initial_value():
    for y0 in (F(-1), F(0), F(1, 2)):
        qc = QuadraticComparison(
            alpha=F(1, 10), beta=F(1, 4), x0=F(0), x1=F(1, 5), y0=y0
        )
        sr = solution_range(qc, WIDTH, EXACT, frozen_flow(qc))
        assert sr.valid
        assert sr.range.lo == y0
        assert sr.tight_upper.hi >= y0


def test_monotonicity_in_x1():
    previous = None
    for x1 in (F(1, 10), F(1, 5), F(3, 10), F(2, 5)):
        qc = QuadraticComparison(
            alpha=F(1, 25), beta=F(1, 4), x0=F(0), x1=x1, y0=F(-1)
        )
        sr = solution_range(qc, WIDTH, EXACT, frozen_flow(qc))
        assert sr.valid
        if previous is not None:
            assert sr.tight_upper.hi >= previous
        previous = sr.tight_upper.hi


def test_blowup_detected():
    # y' = 1 + y^2 from y0 = 0 blows up at pi/2; certifying past it must fail.
    qc = QuadraticComparison(alpha=F(1), beta=F(1), x0=F(0), x1=F(2), y0=F(0))
    sr = solution_range(qc, WIDTH, EXACT, frozen_flow(qc))
    assert not sr.valid
    assert "escape" in sr.diagnostics or "pi/2" in sr.diagnostics


def test_blowup_close_to_pole_detected():
    qc = QuadraticComparison(alpha=F(1), beta=F(1), x0=F(0), x1=F(8, 5), y0=F(0))
    sr = solution_range(qc, WIDTH, EXACT, frozen_flow(qc))
    assert not sr.valid


def test_recheck_on_certified_range():
    # the flow's applicability is re-run on [y0, U]
    sr = solution_range(riccati_qc(), WIDTH, EXACT, riccati_flow())
    assert sr.valid
    # a flow that straddles zero on the certified range fails the recheck
    f = parse_flow_expr("x^2 + y^2")
    qc = QuadraticComparison(alpha=F(1, 25), beta=F(1), x0=F(0), x1=F(1, 5), y0=F(0))
    sr = solution_range(qc, WIDTH, EXACT, f)
    assert not sr.valid
    assert "positivity" in sr.diagnostics


def test_oracle_stays_inside_range_on_grid():
    # 20 grid points per worked problem, each inside the certified range
    for flow, qc, x1, y0 in (
        (riccati_flow(), riccati_qc(), F(1, 5), F(-1)),
        (quadratic_flow(), quadratic_qc(), F(2, 5), F(1)),
    ):
        sr = solution_range(qc, WIDTH, EXACT, flow)
        assert sr.valid
        xs = [x1 * k / 20 for k in range(1, 21)]
        values = oracle.reference_grid(flow, qc.x0, y0, xs, F(1, 10**13))
        import mpmath as mp

        lo = mp.mpf(sr.range.lo.numerator) / sr.range.lo.denominator
        hi = mp.mpf(sr.range.hi.numerator) / sr.range.hi.denominator
        for value in values:
            assert lo <= value <= hi


def test_invalid_width_rejected():
    with pytest.raises(Exception):
        solution_range(riccati_qc(), F(0), EXACT, riccati_flow())


def test_qc_validation():
    with pytest.raises(ComparisonFormError):
        QuadraticComparison(alpha=F(0), beta=F(1), x0=F(0), x1=F(1), y0=F(0))
    for x1 in (F(0), F(1)):
        with pytest.raises(ValueError, match="x1 must exceed x0"):
            QuadraticComparison(alpha=F(1), beta=F(1), x0=F(1), x1=x1, y0=F(0))
