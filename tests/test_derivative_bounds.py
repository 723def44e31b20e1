"""`odexpr.derivative_bounds` against the derivative chain it replaces.

For f = a(x) + b*y^2 with constant b, the bounds come from the interval
Leibniz recurrence and must equal `derivative_chain(f, n).bounds(...)`
exactly, in every rounding mode; the chain stays in `src/` as the reference.
Both run on `odexpr._Kernel`, so the bounds must also equal the `Fraction`
loop `reference_bounds` of test_integer_kernel.py, which shares no code with
the kernel: under outward:P a y box whose denominators divide 10**P shares
the kernel's 10**P base, and any other y box keeps a base of its own.
Each bound must also contain the exact derivative at (x0, y0), and any other
flow must go through the chain.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from conftest import quadratic_flow, riccati_flow
from taylorcert import comparison
from taylorcert.odexpr import (
    DerivativeChain,
    FlowExpr,
    derivative_bounds,
    derivative_chain,
    derivative_values,
    parse_flow_expr,
)
from taylorcert.ratcore import DecimalRounding, RatInterval
from test_integer_kernel import assert_same_interval, reference_bounds

F = Fraction

ROUNDINGS = [DecimalRounding.exact(), DecimalRounding(2), DecimalRounding(30)]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def boxes(draw):
    """(f, n, x0, y0, xrange, yrange) with x0 != 0, y0 inside yrange, and
    yrange straddling zero or negative as often as positive."""
    a = {(e,): draw(rationals) for e in range(draw(st.integers(0, 4)) + 1)}
    f = FlowExpr({**a, (0, 2): draw(rationals)})
    x0 = draw(rationals.filter(bool))
    y0 = draw(rationals)
    below, above, dx = (draw(st.fractions(0, 2, max_denominator=9)) for _ in range(3))
    xrange = RatInterval(x0, x0 + dx)
    yrange = RatInterval(y0 - below, y0 + above)
    return f, draw(st.integers(0, 30)), x0, y0, xrange, yrange


@settings(max_examples=150, deadline=None)
@given(boxes(), st.sampled_from(ROUNDINGS))
def test_recurrence_equals_chain_and_contains_exact_values(case, rounding):
    f, n, x0, y0, xrange, yrange = case
    bounds = derivative_bounds(f, n, xrange, yrange, rounding)
    assert bounds == derivative_chain(f, n).bounds(xrange, yrange, rounding)
    for bound, value in zip(bounds, derivative_values(f, x0, y0, n + 1)):
        assert bound.lo <= value <= bound.hi


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
    chain = derivative_chain(f, n)
    bounds = derivative_bounds(f, n, xrange, yrange, rounding)
    assert bounds == chain.bounds(xrange, yrange, rounding)
    want = reference_bounds(chain, xrange, yrange, rounding)
    for got, w in zip(bounds, want, strict=True):
        assert_same_interval(got, w)


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


@pytest.mark.parametrize("text", ["1/4 + x*y^2", "1 + y", "y^3 + x", "x*y^2"])
def test_other_flows_take_the_chain(monkeypatch, text):
    passes = []
    original = DerivativeChain.bounds

    def counted(self, *args):
        passes.append(len(self))
        return original(self, *args)

    monkeypatch.setattr(DerivativeChain, "bounds", counted)
    box = RatInterval(F(1, 3), F(1, 2)), RatInterval(F(-1), F(1, 4))
    derivative_bounds(parse_flow_expr(text), 5, *box, DecimalRounding(30))
    assert passes == [6]
