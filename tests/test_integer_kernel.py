"""The shared-denominator integer kernel against the Fraction loops it replaced.

`FlowExpr.eval_interval` (with its point case, every symbol bound to a
rational) and `DerivativeChain.bounds` (with its point case `chain_values`,
the reference for the Taylor-mode recurrence) evaluate on integer numerators
over a common denominator and reduce once per result.  The references below are the monomial-wise
`Fraction` loops they replaced, kept verbatim; every result must equal them
exactly, with equal hashes and `Fraction` endpoints.
"""

from __future__ import annotations

from fractions import Fraction
import math

from mpmath import iv, libmp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_rounding, chain_values, int_pow, riccati_flow
from taylorcert import odexpr
from taylorcert.certify import bound_derivatives
from taylorcert.odexpr import (
    DerivativeChain,
    _Kernel,
    ExprError,
    FlowExpr,
    derivative_chain,
    symbol_name,
)
from taylorcert.ratcore import DecimalRounding, RatInterval, as_rational

F = Fraction


# -- references: the Fraction loops the kernel replaced -----------------------


def _symbol_value(env, slot):
    name = "x" if slot == 0 else symbol_name(slot - 1)
    if name not in env:
        raise ExprError(f"unbound symbol {name!r} in evaluation environment")
    return env[name]


def reference_eval_exact(expr: FlowExpr, env) -> Fraction:
    total = Fraction(0)
    for key, coeff in expr.monomials.items():
        value = coeff
        for slot, exp in enumerate(key):
            if exp:
                value *= as_rational(_symbol_value(env, slot)) ** exp
        total += value
    return total


def reference_eval_interval(expr: FlowExpr, env) -> RatInterval:
    total = RatInterval.point(0)
    for key, coeff in expr.monomials.items():
        factor = RatInterval.point(1)
        for slot, exp in enumerate(key):
            if exp:
                bound = _symbol_value(env, slot)
                if not isinstance(bound, RatInterval):
                    bound = RatInterval.point(bound)
                factor = factor * int_pow(bound, exp)
        total = total + factor.scale(coeff)
    return total


def reference_bounds(chain, xrange, yrange, rounding) -> list[RatInterval]:
    env = {"x": xrange, "y": yrange}
    bounds = []
    for k in range(1, len(chain) + 1):
        bound = apply_rounding(rounding, reference_eval_interval(chain[k - 1], env))
        bounds.append(bound)
        env[symbol_name(k)] = bound
    return bounds


def reference_values(chain, x0, y0, n) -> list[Fraction]:
    env = {"x": as_rational(x0), "y": as_rational(y0)}
    for k in range(1, n + 1):
        env[symbol_name(k)] = reference_eval_exact(chain[k - 1], env)
    return list(env.values())[2:]


def assert_same_interval(got: RatInterval, want: RatInterval):
    assert type(got.lo) is Fraction and type(got.hi) is Fraction
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert got == want and hash(got) == hash(want)


def assert_same_value(got: Fraction, want: Fraction):
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want)


# -- strategies ---------------------------------------------------------------

SLOTS = ("x", "y", "y'", "y''")

# Denominators drawn independently, so endpoints and coefficients mix them.
magnitudes = st.fractions(min_value=F(1, 64), max_value=4, max_denominator=64)
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=36).filter(bool)


@st.composite
def shaped_intervals(draw):
    """Intervals of every sign class, with zero endpoints and points."""
    u, v = sorted((draw(magnitudes), draw(magnitudes)))
    lo, hi = draw(
        st.sampled_from(
            [
                (u, v),
                (F(0), v),
                (-v, -u),
                (-v, F(0)),
                (-u, v),
                (-v, u),
                (F(0), F(0)),
                (u, u),
                (-u, -u),
            ]
        )
    )
    return RatInterval(lo, hi)


@st.composite
def polynomials(draw, slots=len(SLOTS), max_exp=4):
    """Polynomials in the first `slots` of x, y, y', y'' with exponents up to
    `max_exp`, so that even powers of straddling intervals occur."""
    table = {}
    for _ in range(draw(st.integers(0, 6))):
        key = tuple(draw(st.integers(0, max_exp)) for _ in range(slots))
        table[key] = draw(coefficients)
    return FlowExpr(table)


@st.composite
def boxes(draw):
    return {name: draw(shaped_intervals()) for name in SLOTS}


roundings = st.one_of(
    st.just(DecimalRounding.exact()),
    st.integers(0, 6).map(DecimalRounding.outward),
)


def riccati_chain(n):
    return derivative_chain(riccati_flow(), n)


# -- eval_interval ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(polynomials(), boxes())
def test_eval_interval_equals_fraction_loop(expr, env):
    assert_same_interval(expr.eval_interval(env), reference_eval_interval(expr, env))


@settings(max_examples=100, deadline=None)
@given(polynomials(), boxes())
def test_eval_interval_accepts_rational_bindings(expr, env):
    points = {name: box.lo for name, box in env.items()}
    points["y"] = str(env["y"].hi)
    assert_same_interval(
        expr.eval_interval(points), reference_eval_interval(expr, points)
    )


@settings(max_examples=200, deadline=None)
@given(polynomials(), boxes())
def test_eval_exact_equals_fraction_loop(expr, env):
    # Point bindings: the enclosure is the point of the exact value.
    points = {name: box.hi for name, box in env.items()}
    value = expr.eval_interval(points)
    assert_same_value(value.lo, reference_eval_exact(expr, points))
    assert value.hi == value.lo


def _iv(q: Fraction):
    return iv.mpf(q.numerator) / q.denominator


@st.composite
def points_in(draw, env):
    """A rational point of the box: each coordinate an endpoint or between."""
    return {
        name: draw(
            st.one_of(
                st.sampled_from([box.lo, box.hi]),
                st.fractions(box.lo, box.hi, max_denominator=1000),
            )
        )
        for name, box in env.items()
    }


@settings(max_examples=100, deadline=None)
@given(polynomials(), boxes(), st.data())
def test_eval_interval_contains_points_and_lies_in_mpmath_iv(expr, env, data):
    # The exact value at any point of the box lies in the enclosure.  mpmath's
    # monomial-wise evaluation, rounded outward at 30 digits, encloses the
    # same monomial ranges, so it contains the exact enclosure.
    ours = expr.eval_interval(env)
    saved, iv.dps = iv.dps, 30
    try:
        theirs = iv.mpf(0)
        for key, coeff in expr.monomials.items():
            term = _iv(coeff)
            for name, exp in zip(SLOTS, key):
                if exp:
                    box = env[name]
                    term *= iv.mpf([_iv(box.lo).a, _iv(box.hi).b]) ** exp
            theirs += term
    finally:
        iv.dps = saved
    lo, hi = (F(*libmp.to_rational(end)) for end in theirs._mpi_)
    assert lo <= ours.lo <= ours.hi <= hi
    for _ in range(3):
        value = reference_eval_exact(expr, data.draw(points_in(env)))
        assert ours.lo <= value <= ours.hi


def test_zero_expression_evaluates_to_zero():
    assert_same_interval(FlowExpr.zero().eval_interval({}), RatInterval.point(0))


def test_unbound_symbols_still_raise():
    expr = FlowExpr({(1, 2, 0, 1): F(2, 3)})
    env = {"x": F(1, 2), "y": F(-1, 3)}
    with pytest.raises(ExprError, match="unbound symbol \"y''\""):
        expr.eval_interval(env)
    # Symbols the expression does not mention need no binding.
    env["y''"] = F(5)
    assert expr.eval_interval(env) == reference_eval_interval(expr, env)


# -- DerivativeChain.bounds and its point case ---------------------------------


# Exponents up to 3 over four orders keep the chains, and the reference's
# Fraction endpoints, small enough for a quick run.
@settings(max_examples=150, deadline=None)
@given(
    polynomials(slots=2, max_exp=3),
    shaped_intervals(),
    shaped_intervals(),
    roundings,
    st.integers(0, 3),
)
def test_bounds_equal_fraction_loop(f, xrange, yrange, rounding, n):
    chain = derivative_chain(f, n)
    got = chain.bounds(xrange, yrange, rounding)
    want = reference_bounds(chain, xrange, yrange, rounding)
    assert len(got) == len(want) == n + 1
    for g, w in zip(got, want):
        assert_same_interval(g, w)
    assert bound_derivatives(chain, xrange, yrange, rounding) == got


# The box of the benchmark's riccati-60 outward:30 certificate: x over
# [0, 1/5] and y over [-1, U], U the solution range's outward:30 upper end.
# 49 of its 61 bounds straddle 0.
BENCH_XRANGE = RatInterval(F(0), F(1, 5))
BENCH_YRANGE = RatInterval(
    F(-1), F(-188950977864534681271752763187, 200000000000000000000000000000)
)


@pytest.mark.parametrize(
    "rounding, n, yrange",
    [
        pytest.param(mode, 14, RatInterval(F(-1), F(-47, 50)), id=mode)
        for mode in ("exact", "outward:0", "outward:2", "outward:30")
    ]
    + [pytest.param("outward:30", 60, BENCH_YRANGE, id="outward:30-bench-box")],
)
def test_riccati_bounds_equal_fraction_loop(rounding, n, yrange):
    rounding = DecimalRounding.parse(rounding)
    chain = riccati_chain(n)
    xrange = RatInterval(F(0), F(1, 5))
    got = chain.bounds(xrange, yrange, rounding)
    for g, w in zip(got, reference_bounds(chain, xrange, yrange, rounding), strict=True):
        assert_same_interval(g, w)
    if n == 60:
        assert sum(b.lo < 0 < b.hi for b in got) == 49


@settings(max_examples=150, deadline=None)
@given(polynomials(slots=2), magnitudes, coefficients, st.integers(0, 5))
def test_values_equal_fraction_loop(f, x0, y0, length):
    chain = derivative_chain(f, length)
    for n in range(len(chain) + 1):
        got = chain_values(chain, x0, y0, n)
        want = reference_values(chain, x0, y0, n)
        assert len(got) == len(want) == n
        for g, w in zip(got, want):
            assert_same_value(g, w)


def test_empty_chain_bounds():
    chain = DerivativeChain(())
    assert chain.bounds(RatInterval.point(0), RatInterval.point(1)) == []
    assert chain_values(chain, 0, 1, 0) == []


# -- work counter: no gcd per monomial ----------------------------------------


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    original = math.gcd

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(math, "gcd", counted)
    return calls


def test_bounds_reduce_once_per_order(gcd_calls):
    # Fraction normalises every sum and product with math.gcd; the kernel
    # works on integers and reduces each order's two endpoints once.
    chain = riccati_chain(40)
    xrange, yrange = RatInterval(F(0), F(1, 5)), RatInterval(F(-1), F(-47, 50))
    gcd_calls.clear()
    bounds = bound_derivatives(chain, xrange, yrange)
    assert len(bounds) == 41
    assert 0 < len(gcd_calls) <= 2 * len(bounds)


# -- work counters: one lift per vector, rounding on integers -----------------


@pytest.fixture
def fractions_built(monkeypatch):
    """Counts Fraction constructions, arithmetic results included."""
    calls = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


@pytest.fixture
def power_calls(monkeypatch):
    calls = []
    original = _Kernel.power

    def counted(self, vec):
        calls.append(vec)
        return original(self, vec)

    monkeypatch.setattr(_Kernel, "power", counted)
    return calls


def test_outward_bounds_build_two_fractions_per_order(fractions_built):
    # Each order's sum is floored and ceiled on integers; only the two
    # rounded endpoints become Fractions (three times as many when each
    # bound was reduced, then rounded through Fraction floor and ceil).
    chain = riccati_chain(60)
    rounding = DecimalRounding.outward(30)
    fractions_built.clear()
    bounds = chain.bounds(BENCH_XRANGE, BENCH_YRANGE, rounding)
    assert len(bounds) == 61
    assert len(fractions_built) == 2 * len(bounds)


def test_bounds_lift_once_per_vector(power_calls, total_groups):
    # The monomials of an order are summed per exponent vector and each
    # group sum is lifted once; lifting each of riccati-60's 964 monomials
    # took over 16 power calls per order.  Binding a bound looks up one
    # power: under outward:30 a second lookup for the 10**30 denominator of
    # the rounded bound made 127 calls over the 61 orders.
    rounding = DecimalRounding.outward(30)
    chain = riccati_chain(60)
    power_calls.clear()
    bounds = chain.bounds(BENCH_XRANGE, BENCH_YRANGE, rounding)
    assert len(power_calls) <= len(bounds) + 5
    power_calls.clear()
    odexpr.derivative_bounds(riccati_flow(), 60, BENCH_XRANGE, BENCH_YRANGE, rounding)
    assert len(power_calls) <= len(bounds) + 5
    # In exact mode each group is lifted once too, and each bound looks up
    # one power.  From order 39 on the bounds are rounded onto the 2**-1024
    # grid, so an order's products fall in groups of both kinds of bound
    # vector: two lookups per order held only while no bound was rounded.
    power_calls.clear()
    DerivativeChain(chain.exprs[:38]).bounds(BENCH_XRANGE, BENCH_YRANGE)
    assert len(power_calls) <= 2 * 38
    power_calls.clear()
    total_groups.clear()
    chain.bounds(BENCH_XRANGE, BENCH_YRANGE)
    assert len(power_calls) <= sum(total_groups) + len(bounds)


@pytest.fixture
def total_groups(monkeypatch):
    calls = []
    original = _Kernel.total

    def counted(self, groups):
        calls.append(len(groups))
        return original(self, groups)

    monkeypatch.setattr(_Kernel, "total", counted)
    return calls


def test_recurrence_sums_one_group_per_order(total_groups):
    # Under outward:30 the y box [-1, m / (2 * 10**29)] is bound over the
    # 10**30 base that every stored bound shares, so once a^(k) of
    # a = x^2 is zero (k >= 3) each order's products fall in one vector;
    # with y over a base of its own every order summed two groups.
    rounding = DecimalRounding.outward(30)
    bounds = odexpr.derivative_bounds(
        riccati_flow(), 60, BENCH_XRANGE, BENCH_YRANGE, rounding
    )
    assert len(bounds) == len(total_groups) == 61
    assert total_groups[:3] == [2, 2, 2]
    assert total_groups[3:] == [1] * 58


def test_x_box_and_other_y_boxes_keep_their_own_bases():
    # x never shares 10**P: the degree-100 chain bounds of x^64 * y^2 + 1
    # on this box ran over four times as slow with x over 10**P.  A y box
    # shares it only when 10**P is a multiple of both its denominators.
    f, unit = riccati_flow(), _Kernel._unit
    rounding = DecimalRounding.outward(30)
    shared = _Kernel([f], {0: BENCH_XRANGE, 1: BENCH_YRANGE}, rounding)
    assert shared.bases == (4, 5, 2 * 10**29, 10**30)
    assert shared.slots[0] == (0, 1, unit(1))
    assert shared.slots[1] == (-(10**30), 5 * BENCH_YRANGE.hi.numerator, unit(3))
    own = _Kernel([f], {0: BENCH_XRANGE, 1: RatInterval(F(-1, 3), F(1, 7))}, rounding)
    assert own.bases == (4, 5, 21, 10**30)
    assert own.slots[1] == (-7, 3, unit(2))
    # In exact mode the grid base 2 comes last, and the y box keeps its own
    # base even where 2 is a multiple of its denominators.
    exact = _Kernel([f], {0: BENCH_XRANGE, 1: BENCH_YRANGE})
    assert exact.bases == (4, 5, 2 * 10**29, 2)
    assert exact.slots[1][2] == unit(2)
    halves = _Kernel([f], {0: BENCH_XRANGE, 1: RatInterval(F(-1, 2), F(1, 2))})
    assert halves.bases == (4, 5, 2, 2)
    assert halves.slots[1] == (-1, 1, unit(2))
