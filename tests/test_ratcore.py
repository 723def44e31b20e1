"""Interval arithmetic and certified elementary enclosures."""

from dataclasses import fields
from fractions import Fraction
import math
from math import isqrt
import random
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taylorcert.ratcore import (
    DEFAULT_ENCLOSURE_WIDTH,
    DecimalRounding,
    EnclosureError,
    HALF_PI_LOWER,
    PI_ENCLOSURE,
    RatInterval,
    as_rational,
    decimal_str,
    enclose_exp_neg,
    enclose_sqrt,
    enclose_tan,
    format_rational,
    pow_endpoints,
)

F = Fraction


def interval(a, b) -> RatInterval:
    return RatInterval(as_rational(a), as_rational(b))


def power(a: RatInterval, exponent: int) -> RatInterval:
    return RatInterval(*pow_endpoints(a.lo, a.hi, exponent))


def inside(inner: RatInterval, outer: RatInterval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


# -- scalar plumbing ---------------------------------------------------------


def test_as_rational_forms():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational("0.2") == F(1, 5)
    assert as_rational("-7") == F(-7)
    assert as_rational(F(2, 6)) == F(1, 3)


def test_as_rational_digit_budget():
    # Counted over numerator and denominator together, decimals included.
    assert as_rational("1/" + "9" * 99) == F(1, 10**99 - 1)
    assert as_rational("0." + "0" * 98 + "1") == F(1, 10**99)
    assert as_rational("7" * 100) == int("7" * 100)
    for text in ["1/" + "9" * 100, "0." + "0" * 99 + "1", "7" * 101]:
        with pytest.raises(ValueError, match="literal has 101 digits, limit 100"):
            as_rational(text)


@pytest.mark.parametrize("text", ["1e-3000", "1E5", "2.5e-1", "1_000", "1/1_0"])
def test_as_rational_rejects_exponent_and_underscore_forms(text):
    # Fraction accepts these, and "1e-3000" is a 3,001-digit denominator.
    with pytest.raises(ValueError, match="expected an integer, p/q or decimal"):
        as_rational(text)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.1)
    with pytest.raises(TypeError):
        as_rational(True)


def test_rational_arithmetic_is_exact_by_cross_multiplication():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(1, 50)
        c, d = rng.randint(-50, 50), rng.randint(1, 50)
        total = F(a, b) + F(c, d)
        assert total * (b * d) == a * d + c * b
        assert total.denominator > 0
        import math

        assert math.gcd(abs(total.numerator), total.denominator) == 1


def test_format_round_trip():
    for text in ("3/4", "-5", "0", "22/7"):
        assert format_rational(as_rational(text)) == text


def test_decimal_str():
    assert decimal_str(F(1, 4)) == "0.25"
    assert decimal_str(F(-1, 3), 5) == "-0.33333..."
    assert decimal_str(F(7)) == "7"


def _long_division_decimal(q: Fraction, digits: int) -> str:
    """One digit per division step: the reference for decimal_str."""
    sign = "-" if q < 0 else ""
    whole, rem = divmod(abs(q.numerator), q.denominator)
    if rem == 0:
        return f"{sign}{whole}"
    out = []
    for _ in range(digits):
        digit, rem = divmod(rem * 10, q.denominator)
        out.append(str(digit))
        if rem == 0:
            break
    return f"{sign}{whole}.{''.join(out)}" + ("..." if rem else "")


decimal_values = st.one_of(
    st.fractions(max_denominator=10**9),
    # Terminating expansions, shorter and longer than the digits shown.
    st.builds(
        lambda n, a, b: F(n, 2**a * 5**b),
        st.integers(-(10**12), 10**12), st.integers(0, 40), st.integers(0, 40),
    ),
)


@settings(max_examples=300, deadline=None)
@given(decimal_values, st.integers(0, 40))
def test_decimal_str_equals_long_division(q, digits):
    assert decimal_str(q, digits) == _long_division_decimal(q, digits)


def from_digits(digits: str) -> int:
    """The int a digit string spells, read in chunks of 1000 digits, below
    the interpreter's int-from-str digit limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@pytest.mark.parametrize(
    "digits",
    [
        "1" + "0" * 5000,
        "9" + "0123456789" * 800 + "1",
        "1" + "0" * 3000 + "7" + "0" * 3000 + "5",  # zero runs inside chunks
        "3" * 100_000,
    ],
    ids=["power", "cycle", "zero-runs", "long"],
)
def test_rendering_passes_the_int_to_str_digit_limit(digits):
    # str() refuses ints past 4,300 digits; the report formats read them by
    # chunks and leave the process-wide limit as it was.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit, n = get_limit(), from_digits(digits)
    assert format_rational(F(n)) == digits
    assert format_rational(F(-n)) == "-" + digits
    assert format_rational(F(10 * n + 1, 1000)) == digits + "1/1000"
    assert format_rational(F(1, n)) == "1/" + digits
    assert decimal_str(F(-n)) == "-" + digits
    assert decimal_str(F(10 * n + 1, 1000)) == f"{digits[:-2]}.{digits[-2:]}1"
    assert get_limit() == limit


# -- interval operations -----------------------------------------------------


def test_mul_sign_cases():
    assert interval(1, 2) * interval(-3, -1) == interval(-6, -1)
    assert interval(-1, 2) * interval(-3, 4) == interval(-6, 8)
    assert interval(-2, -1) * interval(-3, -1) == interval(1, 6)


def test_int_pow_even_straddle():
    assert power(interval("-0.15", "0.3"), 2) == interval(0, "0.09")
    assert power(interval(-3, 2), 2) == interval(0, 9)
    assert power(interval(-3, -2), 2) == interval(4, 9)
    assert power(interval(-2, 3), 3) == interval(-8, 27)
    # the lower end of an even straddle is the int 0, whatever the endpoints
    assert pow_endpoints(F(-1, 2), F(1, 3), 2) == (0, F(1, 4))


def test_additive_identity():
    a = interval("-1/3", "7/2")
    assert a + RatInterval.point(0) == a


def test_scale_and_neg():
    a = interval(-1, 2)
    assert a.scale(F(-3)) == interval(-6, 3)
    assert -a == interval(-2, 1)


def test_division_requires_zero_free_divisor():
    assert interval(1, 2) / interval(2, 4) == interval(F(1, 4), 1)
    for divisor in (interval(-1, 1), interval(0, 2), interval(-2, 0), interval(0, 0)):
        with pytest.raises(ZeroDivisionError):
            interval(1, 2) / divisor


def test_endpoint_order_enforced():
    with pytest.raises(ValueError):
        interval(2, 1)


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@st.composite
def intervals(draw):
    a, b = draw(rationals), draw(rationals)
    return RatInterval(min(a, b), max(a, b))


@st.composite
def interval_with_point(draw):
    box = draw(intervals())
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=128))
    return box, box.lo + t * (box.hi - box.lo)


@settings(max_examples=300, deadline=None)
@given(interval_with_point(), interval_with_point(), st.integers(1, 5), rationals)
def test_containment(ab, cd, exponent, scalar):
    a, x = ab
    b, y = cd
    assert x + y in a + b
    assert x - y in a - b
    assert x * y in a * b
    assert x**exponent in power(a, exponent)
    assert scalar * x in a.scale(scalar)
    if not (b.lo <= 0 <= b.hi):
        assert x / y in a / b


@settings(max_examples=200, deadline=None)
@given(intervals(), intervals(), rationals, rationals, st.integers(1, 4))
def test_isotonicity(a, b, da, db, exponent):
    wider_a = RatInterval(a.lo - abs(da), a.hi + abs(da))
    wider_b = RatInterval(b.lo - abs(db), b.hi + abs(db))
    assert inside(a, wider_a)
    assert inside(a + b, wider_a + wider_b)
    assert inside(a - b, wider_a - wider_b)
    assert inside(a * b, wider_a * wider_b)
    assert inside(power(a, exponent), power(wider_a, exponent))


# -- sign-case kernel against four-corner references -------------------------


def corner_product(a: RatInterval, b: RatInterval) -> tuple[Fraction, Fraction]:
    """Reference product: min and max over all four endpoint products."""
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return min(products), max(products)


def endpoint_power(a: RatInterval, exponent: int) -> tuple[Fraction, Fraction]:
    """Reference power from the endpoint powers; 0 below even straddles."""
    p, q = a.lo**exponent, a.hi**exponent
    if exponent % 2 == 0 and a.lo < 0 < a.hi:
        return F(0), max(p, q)
    return min(p, q), max(p, q)


def sign_class(a: RatInterval) -> str:
    return "nonneg" if a.lo >= 0 else "nonpos" if a.hi <= 0 else "straddle"


SHAPES = ("pos", "zero_lo", "neg", "zero_hi", "straddle", "zero", "point")
magnitudes = st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64)


@st.composite
def shaped_intervals(draw):
    """Intervals of every sign class, with zero endpoints and points."""
    shape = draw(st.sampled_from(SHAPES))
    u, v = sorted((draw(magnitudes), draw(magnitudes)))
    lo, hi = {
        "pos": (u, v),
        "zero_lo": (F(0), v),
        "neg": (-v, -u),
        "zero_hi": (-v, F(0)),
        "straddle": (-u, v) if draw(st.booleans()) else (-v, u),
        "zero": (F(0), F(0)),
        "point": (-u, -u) if draw(st.booleans()) else (u, u),
    }[shape]
    return RatInterval(lo, hi)


# One interval of each shape; their pairs cover all nine sign-class products.
SHAPE_EXAMPLES = [
    interval(*ends)
    for ends in (
        ("1/3", 2), (0, "5/2"), (-3, "-1/4"), ("-7/2", 0),
        ("-1/2", 3), (-3, "1/2"), (0, 0), ("3/4", "3/4"), ("-5/3", "-5/3"),
    )
]


def test_shape_examples_cover_all_nine_sign_classes():
    pairs = {(sign_class(a), sign_class(b)) for a in SHAPE_EXAMPLES for b in SHAPE_EXAMPLES}
    assert len(pairs) == 9


@pytest.mark.parametrize("a", SHAPE_EXAMPLES, ids=str)
@pytest.mark.parametrize("b", SHAPE_EXAMPLES, ids=str)
def test_mul_matches_corner_reference_on_every_shape(a, b):
    product = a * b
    assert (product.lo, product.hi) == corner_product(a, b)


@settings(max_examples=300, deadline=None)
@given(shaped_intervals(), shaped_intervals())
def test_mul_matches_corner_reference(a, b):
    product = a * b
    assert (product.lo, product.hi) == corner_product(a, b)


def quotient_reference(a: RatInterval, b: RatInterval) -> RatInterval:
    """Reference quotient: min and max over all four endpoint quotients."""
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return RatInterval(min(quotients), max(quotients))


@st.composite
def zero_free_intervals(draw):
    """Divisors: positive or negative intervals, points included."""
    u, v = sorted((draw(magnitudes), draw(magnitudes)))
    return RatInterval(u, v) if draw(st.booleans()) else RatInterval(-v, -u)


ZERO_FREE_EXAMPLES = [interval(*ends) for ends in (("1/3", 2), (-3, "-1/4"), ("-5/3", "-5/3"))]


@pytest.mark.parametrize("a", SHAPE_EXAMPLES, ids=str)
@pytest.mark.parametrize("b", ZERO_FREE_EXAMPLES, ids=str)
def test_div_matches_quotient_reference_on_every_shape(a, b):
    assert a / b == quotient_reference(a, b)


@settings(max_examples=300, deadline=None)
@given(shaped_intervals(), zero_free_intervals())
def test_div_matches_quotient_reference(a, b):
    # `/` builds its result unchecked, like `*`: it must be a well-formed copy.
    quotient = a / b
    assert quotient == quotient_reference(a, b)
    assert type(quotient.lo) is Fraction and type(quotient.hi) is Fraction


@settings(max_examples=200, deadline=None)
@given(shaped_intervals(), st.integers(1, 7))
def test_int_pow_matches_endpoint_power_reference(a, exponent):
    assert pow_endpoints(a.lo, a.hi, exponent) == endpoint_power(a, exponent)


@settings(max_examples=200, deadline=None)
@given(shaped_intervals(), shaped_intervals(), rationals)
def test_internal_results_are_well_formed(a, b, scalar):
    # Internal results skip the public constructor's checks, so they must be
    # ordered Fraction intervals by construction, equal to a validated copy.
    results = (a + b, a - b, -a, a.scale(scalar), a * b)
    for result in results:
        assert type(result.lo) is Fraction and type(result.hi) is Fraction
        assert result.lo <= result.hi
        checked = RatInterval(result.lo, result.hi)
        assert result == checked and hash(result) == hash(checked)


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        RatInterval(2, 1)
    with pytest.raises(ValueError):
        RatInterval("1/2", "1/3")
    with pytest.raises(TypeError):
        RatInterval(0.5, 1)
    with pytest.raises(TypeError):
        RatInterval.point(0.25)
    assert type(RatInterval(1, 2).lo) is Fraction


# -- decimal rounding ---------------------------------------------------------


def test_outward_rounding_widens_and_truncates():
    rounding = DecimalRounding.outward(2)
    box = interval("0.2209", "0.2966")
    rounded = interval(rounding.round_down(box.lo), rounding.round_up(box.hi))
    assert rounded == interval("0.22", "0.3")
    assert inside(box, rounded)
    assert rounded.lo.denominator <= 100 and rounded.hi.denominator <= 100


def test_exact_rounding_is_identity():
    box = interval("-1/3", "22/7")
    exact = DecimalRounding.exact()
    assert (exact.round_down(box.lo), exact.round_up(box.hi)) == (box.lo, box.hi)


@settings(max_examples=200, deadline=None)
@given(intervals(), st.integers(0, 4))
def test_outward_rounding_properties(box, places):
    rounding = DecimalRounding.outward(places)
    rounded = interval(rounding.round_down(box.lo), rounding.round_up(box.hi))
    assert inside(box, rounded)
    scale = 10**places
    assert (rounded.lo * scale).denominator == 1
    assert (rounded.hi * scale).denominator == 1


def test_rounding_parse():
    assert DecimalRounding.parse("exact").is_exact
    assert DecimalRounding.parse("outward:2") == DecimalRounding.outward(2)
    with pytest.raises(ValueError):
        DecimalRounding.parse("inward:2")
    # int() would read "1_0" as 10.
    with pytest.raises(ValueError, match="rounding must be 'exact' or 'outward:D'"):
        DecimalRounding.parse("outward:1_0")


def test_rounding_has_one_field():
    # places None is exact, so there is one exact value and no other mode.
    assert [f.name for f in fields(DecimalRounding)] == ["places"]
    exact = DecimalRounding.parse("exact")
    assert DecimalRounding() == DecimalRounding.exact() == exact
    assert DecimalRounding(7) == DecimalRounding.outward(7)
    assert str(DecimalRounding.outward(7)) == "outward:7"
    assert not DecimalRounding.outward(0).is_exact


@pytest.mark.parametrize("places", [-1, 1001, 20000])
def test_outward_places_out_of_range(places):
    with pytest.raises(ValueError, match="0 <= places <= 1000"):
        DecimalRounding.outward(places)
    assert DecimalRounding.outward(1000).places == 1000


@st.composite
def scaled_quotients(draw):
    """(num, den, places): den > 0, num / den not necessarily reduced, and
    num / den an exact multiple of 10**-places in about half the draws."""
    places = draw(st.integers(0, 40))
    if draw(st.booleans()):
        q = F(draw(st.integers(-(10**50), 10**50)), 10**places)
    else:
        q = F(draw(st.integers(-(10**50), 10**50)), draw(st.integers(1, 10**45)))
    spare = draw(st.integers(1, 10**6))
    return q.numerator * spare, q.denominator * spare, places


@settings(max_examples=400, deadline=None)
@given(scaled_quotients())
def test_scaled_floor_equals_fraction_floor_and_ceil(case):
    # The derivative chain rounds its unreduced integer sums with this
    # primitive; round_down and round_up reduce first and must agree.
    num, den, places = case
    rounding = DecimalRounding.outward(places)
    exact = F(num, den) * 10**places
    down, up = rounding.scaled_floor(num, den), -rounding.scaled_floor(-num, den)
    assert down == math.floor(exact) and up == math.ceil(exact)
    assert rounding.round_down(F(num, den)) == F(down, 10**places)
    assert rounding.round_up(F(num, den)) == F(up, 10**places)
    if exact.denominator == 1:
        assert down == up == exact


# -- series oracles used to freeze expected enclosure values ------------------


def oracle_exp_neg(q: Fraction) -> tuple[Fraction, Fraction]:
    """exp(-q) bracketed by 30 exact series terms plus a geometric tail."""
    partial = F(1)
    term = F(1)
    for k in range(1, 31):
        term *= q / k
        partial += term
    ratio = q / 31
    tail = term * ratio / (1 - ratio)
    return 1 / (partial + tail), 1 / partial


def oracle_tan(t: Fraction) -> tuple[Fraction, Fraction]:
    """tan(t) bracketed via 20-term sine/cosine series with explicit tails."""
    sin_p, sin_term = F(0), t
    cos_p, cos_term = F(0), F(1)
    for k in range(20):
        sin_p += sin_term
        cos_p += cos_term
        sin_term *= -t * t / ((2 * k + 2) * (2 * k + 3))
        cos_term *= -t * t / ((2 * k + 1) * (2 * k + 2))
    sin_lo, sin_hi = sin_p - abs(sin_term), sin_p + abs(sin_term)
    cos_lo, cos_hi = cos_p - abs(cos_term), cos_p + abs(cos_term)
    return sin_lo / cos_hi, sin_hi / cos_lo


def oracle_sqrt(q: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = F(0), max(F(1), q)
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid * mid <= q:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_enclose_exp_neg_trivial():
    assert enclose_exp_neg(F(0)) == RatInterval.point(1)


def test_enclose_exp_neg_value():
    width = F(1, 10**9)
    enc = enclose_exp_neg(F(4, 5), width)
    assert enc.width <= width
    lo, hi = oracle_exp_neg(F(4, 5))
    assert lo <= enc.hi and enc.lo <= hi  # brackets overlap
    # reference expansion: exp(-4/5) = 0.44932896411722159143...
    assert F("0.449328964117221591") in enc


def test_enclose_exp_neg_domain():
    with pytest.raises(EnclosureError):
        enclose_exp_neg(F(-1))
    with pytest.raises(EnclosureError):
        enclose_exp_neg(F(1), F(0))


def test_enclose_tan_trivial():
    assert enclose_tan(RatInterval.point(0)) == RatInterval.point(0)


@pytest.mark.parametrize(
    "t, reference",
    [
        (F(1, 50), F("0.020002667093402423897")),
        (F("0.0632456"), F("0.063330062734607751188")),
    ],
)
def test_enclose_tan_values(t, reference):
    enc = enclose_tan(RatInterval.point(t), F(1, 10**9))
    assert enc.width <= F(1, 10**9)
    assert reference in enc
    lo, hi = oracle_tan(t)
    assert lo <= enc.hi and enc.lo <= hi


def test_enclose_tan_interval_argument():
    theta = interval("0.01", "0.03")
    enc = enclose_tan(theta, F(1, 10**9))
    for t in (F("0.01"), F("0.02"), F("0.03")):
        lo, hi = oracle_tan(t)
        assert enc.lo <= lo and hi <= enc.hi


def test_enclose_tan_domain_checks():
    with pytest.raises(EnclosureError):
        enclose_tan(interval("-0.1", "0.1"))
    with pytest.raises(EnclosureError):
        enclose_tan(interval(0, 2))
    with pytest.raises(EnclosureError):
        enclose_tan(interval(0, 1), F(0))


def test_enclose_tan_domain_ends_at_the_certified_half_pi():
    # The domain is [0, HALF_PI_LOWER), not the series' old [0, 3/2).  Just
    # below the bound cos is about 4e-18 and tan about 2.4e17.
    with pytest.raises(EnclosureError, match="^tan argument .* reaches the certified pi/2"):
        enclose_tan(RatInterval.point(HALF_PI_LOWER))
    enc = enclose_tan(RatInterval(F(3, 2), HALF_PI_LOWER - F(1, 10**30)), F(1, 10**6))
    assert F(14) < enc.lo < F(15) and 2 * 10**17 < enc.hi < 3 * 10**17


def test_interval_str_is_decimal_and_repr_is_exact():
    iv = RatInterval(F(-1, 3), F(2))
    assert str(iv) == "[-0.33333333333333333..., 2]"
    # A 5,071-digit denominator, past CPython's 4,300-digit str limit.
    assert str(RatInterval(F(1, 7**6000), F(1))) == "[0.00000000000000000..., 1]"
    assert "Fraction(-1, 3)" in repr(iv)


def test_enclose_sqrt_trivial_and_exact_square():
    assert enclose_sqrt(F(1)) == RatInterval.point(1)
    assert enclose_sqrt(F(4, 25)) == RatInterval.point(F(2, 5))
    assert enclose_sqrt(F(0)) == RatInterval.point(0)


def test_enclose_sqrt_value():
    width = F(1, 10**9)
    enc = enclose_sqrt(F(5, 2), width)
    assert enc.width <= width
    assert enc.lo**2 <= F(5, 2) <= enc.hi**2
    assert F("1.581138830084189666") in enc
    lo, hi = oracle_sqrt(F(5, 2))
    assert lo <= enc.hi and enc.lo <= hi


def test_enclose_sqrt_domain():
    with pytest.raises(EnclosureError):
        enclose_sqrt(F(-1))
    with pytest.raises(EnclosureError):
        enclose_sqrt(F(2), F(-1))


def _bisected_sqrt(q: Fraction, width: Fraction) -> RatInterval:
    """Bisection of [0, max(1, q)]: the reference for enclose_sqrt."""
    lo, hi = F(0), max(F(1), q)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid * mid <= q:
            lo = mid
        else:
            hi = mid
    return RatInterval(lo, hi)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6),
    st.integers(0, 40),
    st.integers(1, 2**20),
)
def test_enclose_sqrt_equals_bisection(q, exponent, numerator):
    num, den = q.numerator, q.denominator
    assume(isqrt(num) ** 2 != num or isqrt(den) ** 2 != den)  # not an exact point
    width = F(numerator, 10**exponent)
    assert enclose_sqrt(q, width) == _bisected_sqrt(q, width)


def test_pi_enclosure_brackets_pi():
    with mp.workdps(40):
        pi = mp.pi()
        assert mp.mpf(PI_ENCLOSURE.lo.numerator) / PI_ENCLOSURE.lo.denominator < pi
        assert pi < mp.mpf(PI_ENCLOSURE.hi.numerator) / PI_ENCLOSURE.hi.denominator
    assert HALF_PI_LOWER == PI_ENCLOSURE.lo / 2


def _mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def test_enclosure_soundness_random_arguments():
    """An independent high-precision oracle lands inside each enclosure."""
    rng = random.Random(20260810)
    with mp.workdps(45):
        for _ in range(100):
            q = F(rng.randint(0, 4000), rng.randint(1, 1000))
            enc = enclose_exp_neg(q)
            assert _mpf(enc.lo) <= mp.exp(-_mpf(q)) <= _mpf(enc.hi)

            t = F(rng.randint(0, 1400), 1000)
            enc = enclose_tan(RatInterval.point(t))
            assert _mpf(enc.lo) <= mp.tan(_mpf(t)) <= _mpf(enc.hi)

            s = F(rng.randint(0, 8000), rng.randint(1, 100))
            enc = enclose_sqrt(s)
            assert _mpf(enc.lo) <= mp.sqrt(_mpf(s)) <= _mpf(enc.hi)
