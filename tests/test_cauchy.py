"""Magnitude bounds over boxes and the convergence-radius certificate."""

from fractions import Fraction

import pytest

from conftest import quadratic_flow, riccati_flow
from taylorcert.cauchy import (
    RadiusCertificate,
    convergence_radius,
    magnitude_bound,
    radius_for_problem,
)
from taylorcert.odexpr import FlowExpr
from taylorcert.ratcore import RatInterval

F = Fraction

# exp-series oracle values (30 exact terms + geometric tail, see test_ratcore):
#   0.5 * (1 - exp(-4/5))   = 0.27533551794138920428...
#   0.4 * (1 - exp(-25/22)) = 0.27160635314049893162...
R_RICCATI = F("0.27533551794138920428")
R_QUADRATIC = F("0.27160635314049893162")


def test_magnitude_bound_riccati_box():
    assert magnitude_bound(riccati_flow(), 0, -1, F(1, 2), 1) == F(5, 4)


def test_magnitude_bound_constant_flow():
    assert magnitude_bound(FlowExpr.constant(F(-7, 3)), 0, 0, 1, 1) == F(7, 3)


def test_magnitude_bound_quadratic_box():
    assert magnitude_bound(quadratic_flow(), 0, 1, F(2, 5), 1) == F(11, 10)


def test_magnitude_bound_rejects_bad_radii():
    with pytest.raises(ValueError):
        magnitude_bound(riccati_flow(), 0, -1, 0, 1)


def test_convergence_radius_riccati():
    rc = convergence_radius(F(1, 2), 1, F(5, 4), F(1, 10**12))
    assert R_RICCATI in rc.r_enclosure
    assert rc.r_enclosure.width <= F(1, 10**9)
    assert rc.r_floor == F(27, 100)
    assert rc.r_enclosure.hi < rc.r1


def test_radius_always_below_r1():
    for m in (F(1, 100), F(1), F(1000)):
        rc = convergence_radius(F(3), F(2), m)
        assert rc.r_enclosure.hi < F(3)
        assert 0 < rc.r_floor <= rc.r_enclosure.lo


def test_convergence_radius_quadratic():
    rc = convergence_radius(F(2, 5), 1, F(11, 10))
    assert R_QUADRATIC in rc.r_enclosure
    assert rc.r_floor == F(27, 100)


def test_radius_for_problem_composes():
    rc = radius_for_problem(riccati_flow(), 0, -1, F(1, 2), 1)
    assert rc.M == F(5, 4)
    assert R_RICCATI in rc.r_enclosure


def test_monotonicity_in_M_and_r2():
    base = convergence_radius(F(1, 2), 1, F(5, 4))
    larger_m = convergence_radius(F(1, 2), 1, F(2))
    assert larger_m.r_enclosure.hi < base.r_enclosure.hi
    larger_r2 = convergence_radius(F(1, 2), 2, F(5, 4))
    assert larger_r2.r_enclosure.lo > base.r_enclosure.lo


def test_tiny_radius_floor_stays_positive():
    # Large M pushes r below 0.01; the floor extends decimals instead of
    # collapsing to 0.
    rc = convergence_radius(F(1), F(1, 100), F(1000))
    assert 0 < rc.r_floor <= rc.r_enclosure.lo


def test_huge_exponent_is_clamped_within_width():
    # q = r2 / (2 M r1) = 5 * 10**8 would take the exp series some 10**9 terms;
    # clamped, the enclosure stays below r1 and within 2 width of it.
    r1, width = F(1, 10**6), F(1, 10**12)
    rc = convergence_radius(r1, 1000, 1, width)
    assert rc.r_enclosure.hi < r1
    assert rc.r_enclosure.lo >= r1 - 2 * width
    for w in (F(1), F(3, 10), F(7, 1000)):  # cap 1, 2 or 3, near 1/w's bit length
        rc = convergence_radius(1, 10**6, 1, w)
        assert rc.r_enclosure.hi < 1
        assert rc.r_enclosure.lo >= 1 - 2 * w


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError):
        RadiusCertificate(
            r1=F(1),
            r2=F(1),
            M=F(1),
            r_enclosure=RatInterval(F(1, 4), F(1, 2)),
            r_floor=F(1, 3),
        )
    with pytest.raises(ValueError):
        RadiusCertificate(
            r1=F(1, 4),
            r2=F(1),
            M=F(1),
            r_enclosure=RatInterval(F(1, 4), F(1, 2)),
            r_floor=F(1, 5),
        )


def test_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        convergence_radius(0, 1, 1)
    with pytest.raises(ValueError):
        convergence_radius(1, 1, -1)


def test_zero_magnitude_takes_the_cap():
    # f = 0: the solution is constant, and M = 0 takes the clamp of any large
    # exponent, the valid floor r1 * (1 - exp(-cap)).
    assert magnitude_bound(FlowExpr.zero(), 0, 1, 1, 1) == 0
    for r1, width in ((F(1), F(1, 10**12)), (F(1, 2), F(1, 10))):
        rc = convergence_radius(r1, 1, 0, width)
        tiny = convergence_radius(r1, 1, F(1, 10**30), width)
        assert (rc.M, rc.r_enclosure, rc.r_floor) == (0, tiny.r_enclosure, tiny.r_floor)
        assert rc.r_enclosure.hi < r1
        assert rc.r_enclosure.lo >= r1 - 2 * width
