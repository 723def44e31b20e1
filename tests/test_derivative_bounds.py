"""`odexpr.derivative_bounds` against the derivative chain it replaces.

Every flow takes the interval Leibniz recurrence.  For f = a(x) + b*y^2 with
constant b each bound must equal `derivative_chain(f, n).bounds(...)`
exactly, in every rounding mode; the chain stays in `src/` as the reference.
Both run on `odexpr._Kernel`, so the bounds must also equal the `Fraction`
loop `reference_bounds` of test_integer_kernel.py, which shares no code with
the kernel: under outward:P a y box whose denominators divide 10**P shares
the kernel's 10**P base, and any other y box keeps a base of its own.
For any flow of y-degree 2 at most each bound must lie inside the chain's
(subdistributivity); from y^3 on nothing is claimed about width.  Each bound
must contain the exact derivative at (x0, y0), and a certificate's
remainder must contain the integrator's error of the partial sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
import pytest

from conftest import quadratic_flow, riccati_flow
from taylorcert import comparison, odexpr, oracle
from taylorcert.certify import (
    ProblemSpec,
    certify_partial_sum,
    lagrange_remainder,
    poly_eval,
)
from taylorcert.odexpr import (
    FlowExpr,
    derivative_bounds,
    derivative_chain,
    derivative_values,
    parse_flow_expr,
    symbol_name,
)
from taylorcert.ratcore import DecimalRounding, RatInterval
from test_integer_kernel import (
    assert_same_interval,
    reference_bounds,
    reference_eval_interval,
)

F = Fraction

ROUNDINGS = [DecimalRounding.exact(), DecimalRounding(2), DecimalRounding(30)]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def boxes(draw):
    """(f, n, x0, y0, xrange, yrange): f = a(x) + b*y^2 as often as a flow of
    x-degree 3 and y-degree 4 at most; x0 != 0, y0 inside yrange, and yrange
    straddling zero or negative as often as positive."""
    if draw(st.booleans()):
        a = {(e,): draw(rationals) for e in range(draw(st.integers(0, 4)) + 1)}
        f, n = FlowExpr({**a, (0, 2): draw(rationals)}), draw(st.integers(0, 30))
    else:
        keys = st.tuples(st.integers(0, 3), st.integers(0, 4))
        keys = draw(st.lists(keys, min_size=1, max_size=6))
        f, n = FlowExpr({key: draw(rationals) for key in keys}), draw(st.integers(0, 12))
    x0 = draw(rationals.filter(bool))
    y0 = draw(rationals)
    below, above, dx = (draw(st.fractions(0, 2, max_denominator=9)) for _ in range(3))
    xrange = RatInterval(x0, x0 + dx)
    yrange = RatInterval(y0 - below, y0 + above)
    return f, n, x0, y0, xrange, yrange


def y_degree(f: FlowExpr) -> int:
    return max((j for _, j, _ in f.xy_terms()), default=0)


def is_form(f: FlowExpr) -> bool:
    """Whether f is a(x) + b*y^2 with constant b."""
    return all(j == 0 or (i, j) == (0, 2) for i, j, _ in f.xy_terms())


@settings(max_examples=300, deadline=None)
@given(boxes(), st.sampled_from(ROUNDINGS))
def test_recurrence_equals_chain_and_contains_exact_values(case, rounding):
    f, n, x0, y0, xrange, yrange = case
    bounds = derivative_bounds(f, n, xrange, yrange, rounding)
    chain = derivative_chain(f, n).bounds(xrange, yrange, rounding)
    for bound, value in zip(bounds, derivative_values(f, x0, y0, n + 1), strict=True):
        assert bound.lo <= value <= bound.hi
    if is_form(f):
        assert bounds == chain
    elif y_degree(f) <= 2:
        for bound, wide in zip(bounds, chain, strict=True):
            assert wide.lo <= bound.lo and bound.hi <= wide.hi


CERTIFICATES = [
    (riccati_flow, F(-1), F(1, 5), 40, DecimalRounding.exact()),
    (riccati_flow, F(-1), F(1, 5), 60, DecimalRounding.exact()),
    (quadratic_flow, F(1), F(2, 5), 20, DecimalRounding.exact()),
    (quadratic_flow, F(1), F(2, 5), 28, DecimalRounding.exact()),
    (riccati_flow, F(-1), F(1, 5), 60, DecimalRounding(30)),
    (quadratic_flow, F(1), F(2, 5), 28, DecimalRounding(30)),
]


@pytest.mark.parametrize(
    "flow, y0, x1, n, rounding",
    CERTIFICATES,
    ids=[f"{flow.__name__}-{n}-{rounding}" for flow, _, _, n, rounding in CERTIFICATES],
)
def test_benchmark_certificates_equal_chain(flow, y0, x1, n, rounding):
    f = flow()
    qc = comparison.extract_comparison(f, F(0), x1, y0)
    yrange = comparison.solution_range(qc, F(1, 10**12), rounding, f).range
    xrange = RatInterval(F(0), x1)
    chain, capped = derivative_chain(f, n), []
    bounds = derivative_bounds(f, n, xrange, yrange, rounding, capped=capped)
    assert bounds == chain.bounds(xrange, yrange, rounding)
    # The Fraction loop never rounds an exact bound: up to the first one
    # rounded onto the 2**-1024 grid the bounds equal it, and from there on
    # they contain it.
    assert rounding.is_exact or not capped
    want = reference_bounds(chain, xrange, yrange, rounding)
    first = capped[0] - 1 if capped else len(bounds)
    for got, w in zip(bounds[:first], want[:first], strict=True):
        assert_same_interval(got, w)
    for got, w in zip(bounds[first:], want[first:], strict=True):
        assert got.lo <= w.lo and w.hi <= got.hi


@st.composite
def reference_boxes(draw):
    """(f, n, xrange, yrange) for a(x) + b*y^2 with b = 0 or a = 0 as often
    as both nonzero, degrees n past deg a, and y endpoints whose denominators
    (at most 12) divide 10**P for some P and not for others."""
    a = {(e,): draw(rationals) for e in range(draw(st.integers(0, 3)) + 1)}
    b = draw(rationals)
    a, b = draw(st.sampled_from([(a, b), ({}, b), (a, 0)]))
    xrange = RatInterval(*sorted((draw(rationals), draw(rationals))))
    yrange = RatInterval(*sorted((draw(rationals), draw(rationals))))
    return FlowExpr({**a, (0, 2): b}), draw(st.integers(0, 12)), xrange, yrange


# Degrees up to 12 keep the reference's Fraction endpoints small enough for
# a quick run.
@settings(max_examples=200, deadline=None)
@given(
    reference_boxes(),
    st.sampled_from(["exact", "outward:0", "outward:2", "outward:30"]),
)
def test_recurrence_equals_fraction_loop(case, rounding):
    f, n, xrange, yrange = case
    rounding = DecimalRounding.parse(rounding)
    bounds = derivative_bounds(f, n, xrange, yrange, rounding)
    want = reference_bounds(derivative_chain(f, n), xrange, yrange, rounding)
    for got, w in zip(bounds, want, strict=True):
        assert_same_interval(got, w)


def recorded_scales(*args, **kwargs) -> tuple[list[RatInterval], list[int]]:
    """derivative_bounds(*args, **kwargs), and each scale it hands to
    `odexpr._add_scaled`, in order."""
    scales, add = [], odexpr._add_scaled

    def record(groups, vec, scale, lo, hi):
        scales.append(scale)
        add(groups, vec, scale, lo, hi)

    with patch.object(odexpr, "_add_scaled", record):
        return derivative_bounds(*args, **kwargs), scales


# Endpoint signs are decided by ratcore.mul_endpoints and pow_endpoints
# alone: a negative constant factor goes through mul_endpoints like any
# other, so every scale is 1 or a positive binomial.
@settings(max_examples=100, deadline=None)
@given(reference_boxes(), st.sampled_from(["exact", "outward:0", "outward:30"]))
def test_add_scaled_takes_positive_scales(case, rounding):
    f, n, xrange, yrange = case
    rounding = DecimalRounding.parse(rounding)
    bounds, scales = recorded_scales(f, n, xrange, yrange, rounding)
    assert all(scale > 0 for scale in scales)
    assert bounds == derivative_chain(f, n).bounds(xrange, yrange, rounding)


@pytest.mark.parametrize(
    "flow, y0, x1, n, rounding",
    CERTIFICATES,
    ids=[f"{flow.__name__}-{n}-{rounding}" for flow, _, _, n, rounding in CERTIFICATES],
)
def test_certificates_add_positive_scales(flow, y0, x1, n, rounding):
    f = flow()
    qc = comparison.extract_comparison(f, F(0), x1, y0)
    yrange = comparison.solution_range(qc, F(1, 10**12), rounding, f).range
    _, scales = recorded_scales(f, n, RatInterval(F(0), x1), yrange, rounding)
    assert scales and all(scale > 0 for scale in scales)


GRID = 2**1024


def reference_grid_bounds(chain, xrange, yrange, orders) -> list[RatInterval]:
    """The exact Fraction loop of `reference_bounds`, with the bound of each
    order in orders rounded outward onto multiples of 2**-1024 by Fraction
    floor and ceil before the next order uses it."""
    env, bounds = {"x": xrange, "y": yrange}, []
    for k in range(1, len(chain) + 1):
        bound = reference_eval_interval(chain[k - 1], env)
        if k in orders:
            bound = RatInterval(
                F(floor(bound.lo * GRID), GRID), F(ceil(bound.hi * GRID), GRID)
            )
        bounds.append(bound)
        env[symbol_name(k)] = bound
    return bounds


# EXACT_BOUND_BITS is lowered to at most 64 bits, so that these small boxes
# and low orders reach it: about half the examples round some bound, most of
# them after an order that stays exact.
@settings(max_examples=150, deadline=None)
@given(reference_boxes(), st.integers(4, 64))
def test_capped_bounds_contain_the_exact_bounds(case, cap):
    f, n, xrange, yrange = case
    chain, capped = derivative_chain(f, n), []
    with patch.object(odexpr, "EXACT_BOUND_BITS", cap):
        bounds = derivative_bounds(f, n, xrange, yrange, capped=capped)
    exact = reference_bounds(chain, xrange, yrange, DecimalRounding.exact())
    first = capped[0] if capped else n + 2
    for k, (got, want) in enumerate(zip(bounds, exact, strict=True), start=1):
        assert got.lo <= want.lo and want.hi <= got.hi
        if k < first:
            assert_same_interval(got, want)
        if k in capped:  # on the grid
            assert (got.lo * GRID).denominator == (got.hi * GRID).denominator == 1
        else:  # its unreduced sum fit, so its reduced one does
            ends = (got.lo.numerator, got.hi.numerator, got.lo.denominator, got.hi.denominator)
            assert max(abs(e).bit_length() for e in ends) <= cap
    # The rounded values are those of the Fraction loop rounded at the same
    # orders.
    want = reference_grid_bounds(chain, xrange, yrange, set(capped))
    for got, w in zip(bounds, want, strict=True):
        assert_same_interval(got, w)


# Flows outside a(x) + b*y^2 whose y^3 and y^8 terms vanish at x1, so that
# the comparison stage passes: the integrator's y(x1) must lie within
# p_n(x1) +- remainder.  Only a flow of y-degree 2 at most is sure to get a
# remainder no larger than the chain's.
WIDE_FLOWS = [
    ("1/4 + x*y^2", F(-1)),
    ("x*y^3 - 1/5*y^3 + 1 + y^2", F(0)),
    ("x*y^3 - 1/5*y^3 + 1 + y^2", F(1, 2)),
    ("x^2*y^3 - 1/25*y^3 + 1 + y^2 + x", F(0)),
    ("x*y^8 - 1/5*y^8 + 1 + y^2", F(0)),
    ("x*y^8 - 1/5*y^8 + 1 + y^2", F(1, 2)),
]


@pytest.mark.parametrize("rounding", ["exact", "outward:30"])
@pytest.mark.parametrize("text, y0", WIDE_FLOWS)
def test_certificate_contains_the_integrator_value(text, y0, rounding):
    p = ProblemSpec(
        f=parse_flow_expr(text), x0=F(0), y0=y0, degree=12, x1=F(1, 5),
        r1=F(1, 2), rounding=DecimalRounding.parse(rounding),
    )
    cert = certify_partial_sum(p)
    p_n = poly_eval(cert.coefficients, p.x1)
    with mp.workdps(30):
        y1 = oracle.reference_solution(p.f, p.x0, p.y0, p.x1).value
        error = abs(y1 - oracle.to_mpf(p_n))
        assert error <= oracle.to_mpf(cert.remainder_bound)
    xrange = RatInterval(p.x0, p.x1)
    chain = derivative_chain(p.f, p.degree).bounds(xrange, cert.yrange.range, p.rounding)
    chain_remainder, _ = lagrange_remainder(chain[-1], p.dx, p.degree)
    if y_degree(p.f) <= 2:
        assert cert.remainder_bound <= chain_remainder
