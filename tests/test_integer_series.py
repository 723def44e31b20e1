"""The integer exp, sin and cos series against the Fraction loops they replaced,
and the elementary enclosures against mpmath's interval arithmetic.

`enclose_exp_neg` and `_trig_series` keep their partial sums and terms as
integer numerators over one running denominator, in the fraction-free manner
of Bareiss, and build Fractions of the two endpoints only.  The references
below are the `Fraction` loops they replaced, kept verbatim: the stopping
index and the reduced endpoints must be the same.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv, libmp
import pytest

from taylorcert.ratcore import (
    HALF_PI_LOWER,
    RatInterval,
    _trig_series,
    as_rational,
    enclose_exp_neg,
    enclose_sqrt,
    enclose_tan,
)

F = Fraction


# -- references: the Fraction loops the integer series replaced ----------------


def reference_exp_neg(q, width) -> RatInterval:
    q = as_rational(q)
    width = as_rational(width)
    if q == 0:
        return RatInterval.point(1)

    partial = Fraction(1)
    term = Fraction(1)
    k = 0
    while True:
        k += 1
        term *= q / k
        partial += term
        # Tail after k terms: sum_{j>k} q^j/j! <= term * r/(1-r), r = q/(k+1),
        # valid once q < k+1.
        if k + 1 > q:
            ratio = q / (k + 1)
            tail = term * ratio / (1 - ratio)
            # exp(q) in [partial, partial + tail]; reciprocal width is
            # tail / (partial * (partial + tail)) <= tail since partial >= 1.
            if tail / (partial * (partial + tail)) <= width:
                upper_exp = partial + tail
                return RatInterval(1 / upper_exp, 1 / partial)


def reference_trig_series(t: Fraction, power: int, width: Fraction) -> RatInterval:
    partial = Fraction(0)
    term = t**power
    while True:
        partial += term
        term = -term * t * t / ((power + 1) * (power + 2))
        power += 2
        err = abs(term)
        if err <= width / 2:
            return RatInterval(partial - err, partial + err)


def assert_same_interval(got: RatInterval, want: RatInterval):
    assert type(got.lo) is Fraction and type(got.hi) is Fraction
    assert (got.lo, got.hi) == (want.lo, want.hi)


# -- strategies ----------------------------------------------------------------

# Widths m * 10**-e for e from 1 to 60.
widths = st.builds(lambda m, e: F(m, 10**e), st.integers(1, 9), st.integers(1, 60))

# The tail bound needs k + 1 > q: a q below 2 meets it at the first term, a
# larger one only after about q terms.
exponents = st.one_of(
    st.fractions(min_value=F(1, 1000), max_value=2, max_denominator=1000),
    st.fractions(min_value=2, max_value=2000, max_denominator=50),
    st.integers(1, 2000).map(F),
)

trig_arguments = st.fractions(min_value=0, max_value=F(1499, 1000), max_denominator=10**6)

# Up to 10**-15 below HALF_PI_LOWER, where cos(t) is about 10**-15 and tan(t)
# about 10**15.
near_half_pi = st.integers(1000, 10**15).map(lambda d: HALF_PI_LOWER - F(1, d))


# -- equality with the Fraction loops ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(exponents, widths)
def test_exp_neg_equals_fraction_loop(q, width):
    assert_same_interval(enclose_exp_neg(q, width), reference_exp_neg(q, width))


@pytest.mark.parametrize("q", [F(0), F(4, 5), F(1), F(2), F(50), F(300, 7), F(2000)])
@pytest.mark.parametrize("width", [F(1, 10), F(1, 10**12), F(1, 10**60)])
def test_exp_neg_equals_fraction_loop_at_fixed_points(q, width):
    assert_same_interval(enclose_exp_neg(q, width), reference_exp_neg(q, width))


@settings(max_examples=200, deadline=None)
@given(trig_arguments, st.sampled_from([0, 1]), widths)
def test_trig_series_equals_fraction_loop(t, power, width):
    assert_same_interval(_trig_series(t, power, width), reference_trig_series(t, power, width))


# -- work counter: no Fraction arithmetic in the series ------------------------


def test_series_do_no_fraction_arithmetic(fraction_arithmetic):
    # The radius and range calls of the riccati-60 certificate.  The Fraction
    # loops did 123, 17 and 22 Fraction operations here.
    fraction_arithmetic.clear()
    enclose_exp_neg(F(4, 5), F(1, 5 * 10**11))
    assert fraction_arithmetic == []
    for power in (1, 0):
        _trig_series(F(1, 50), power, F(1, 32 * 10**12))
        assert fraction_arithmetic == []


# -- soundness against mpmath interval arithmetic ------------------------------


def _rational(mpf_value) -> Fraction:
    return F(*libmp.to_rational(mpf_value))


def assert_contains(ours: RatInterval, theirs):
    """`theirs`, an mpmath interval, lies inside `ours`."""
    lo, hi = (_rational(end) for end in theirs._mpi_)
    assert ours.lo <= lo <= hi <= ours.hi


def _iv(q: Fraction):
    return iv.mpf(q.numerator) / q.denominator


@contextmanager
def iv_digits(dps: int):
    """mpmath's interval context at `dps` digits."""
    saved = iv.dps
    iv.dps = dps
    try:
        yield
    finally:
        iv.dps = saved


def iv_digits_beyond(width: Fraction, extra: int):
    """mpmath's interval context at `extra` digits finer than `width`."""
    return iv_digits(len(str(width.denominator // width.numerator)) + extra)


# mpmath's interval results are correctly rounded outward at `dps` digits;
# 30 digits finer than the width they are far narrower than our enclosures.
@settings(max_examples=60, deadline=None)
@given(exponents, widths)
def test_exp_neg_contains_mpmath_interval(q, width):
    ours = enclose_exp_neg(q, width)
    with iv_digits_beyond(width, 30):
        assert_contains(ours, iv.exp(-_iv(q)))


@settings(max_examples=100, deadline=None)
@given(trig_arguments, trig_arguments, widths)
def test_tan_contains_mpmath_interval(a, b, width):
    theta = RatInterval(min(a, b), max(a, b))
    ours = enclose_tan(theta, width)
    with iv_digits_beyond(width, 30):
        assert_contains(ours, iv.tan(iv.mpf([_iv(theta.lo).a, _iv(theta.hi).b])))


# Widths from 1/1000 to 1000: at width 2 the first cosine enclosure at
# 149/100 reaches 0, and the series must be refined past it; closer to pi/2
# every width needs that refinement.
coarse_widths = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000)
tan_arguments = st.one_of(trig_arguments, near_half_pi)


# On the whole domain 0 <= theta < HALF_PI_LOWER.  Within 10**-15 of the bound,
# tan amplifies an argument error e by about 10**30 e; at 60 digits mpmath's
# interval stays near 10**-30 wide there, far inside our enclosures.
@settings(max_examples=100, deadline=None)
@given(tan_arguments, tan_arguments, coarse_widths)
@example(F(149, 100), F(149, 100), F(2))
@example(F(149, 100), F(1499, 1000), F(16))
@example(F(1499, 1000), F(1499, 1000), F(1000))
@example(F(31, 20), F(31, 20), F(1, 1000))
@example(F(0), HALF_PI_LOWER - F(1, 10**15), F(1000))
def test_tan_at_coarse_widths_contains_mpmath_interval(a, b, width):
    theta = RatInterval(min(a, b), max(a, b))
    ours = enclose_tan(theta, width)
    with iv_digits(60):
        assert_contains(ours, iv.tan(iv.mpf([_iv(theta.lo).a, _iv(theta.hi).b])))


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6), widths)
def test_sqrt_contains_mpmath_interval(q, width):
    ours = enclose_sqrt(q, width)
    with iv_digits_beyond(width, 30):
        theirs = iv.sqrt(_iv(q))
    if ours.lo == ours.hi:
        # An exact square root is a point, which mpmath can only bracket.
        lo, hi = (_rational(end) for end in theirs._mpi_)
        assert lo <= ours.lo <= hi
    else:
        assert_contains(ours, theirs)


# -- the sin and cos series on the tangent's domain 0 <= t < HALF_PI_LOWER -----

series_arguments = st.one_of(st.just(F(0)), trig_arguments, near_half_pi)
fine_widths = st.builds(lambda m, e: F(m, 10**e), st.integers(1, 9), st.integers(1, 30))


# The true value lies inside our enclosure by about its truncation error, the
# first omitted term.  For t = 0 or t >= 1e-6 and widths >= 1e-30 that term
# is above 1e-45, and mpmath's 60-digit intervals are narrower than 1e-59.
@settings(max_examples=200, deadline=None)
@given(series_arguments, st.sampled_from([0, 1]), fine_widths)
def test_trig_series_contain_mpmath_values(t, power, width):
    ours = _trig_series(t, power, width)
    assert ours.hi - ours.lo <= width
    with iv_digits(60):
        assert_contains(ours, (iv.sin if power else iv.cos)(_iv(t)))
