"""The flow derivative and the Taylor-mode recurrence against verbatim copies
of the loops they replaced.

`FlowExpr.flow_derivative` walks each dense key once, slot by slot;
`taylor_coefficients` updates its binomial row by Pascal's rule and forms the
Leibniz sums over slices; `derivative_bounds` sums each order's pairs in one
running sum and `_Kernel.bind` looks up the power of a vector once.  The
references below are the earlier loops, kept verbatim but for the storage
they read: `FlowExpr` held integer numerators over one denominator, keyed by
sparse keys, and the references now walk a sparse view of `.monomials`
(`conftest.sparse_view`) with `Fraction` coefficients.  A derivative must give
the same `.monomials` items in the same insertion order; the coefficient
lists and the bounds must be equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, perm
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_sparse, quadratic_flow, riccati_flow, sparse_view
from taylorcert import comparison
from taylorcert.odexpr import (
    FlowExpr,
    _Kernel,
    _require_xy,
    derivative_bounds,
    derivative_chain,
    taylor_coefficients,
)
from taylorcert.ratcore import (
    DecimalRounding,
    RatInterval,
    RationalLike,
    as_rational,
    mul_endpoints,
    pow_endpoints,
)

F = Fraction


# -- references: the loops the rewrite replaced ----------------------------------


def reference_flow_derivative(self) -> "FlowExpr":
    """Total derivative along solutions: d/dx + sum_j y^(j+1) d/dy^(j).

    One pass: each nonzero slot emits one term, e times the monomial with
    that slot lowered by one and, for y^(j), slot y^(j+1) raised by one.
    """
    num = {}
    for key, n in sparse_view(self).items():
        for i, (slot, exp) in enumerate(key):
            head = key[:i] + ((slot, exp - 1),) if exp > 1 else key[:i]
            tail = key[i + 1 :]
            if slot:
                if tail and tail[0][0] == slot + 1:
                    tail = ((slot + 1, tail[0][1] + 1),) + tail[1:]
                else:
                    tail = ((slot + 1, 1),) + tail
            new_key = head + tail
            num[new_key] = num.get(new_key, 0) + n * exp
    return from_sparse(num)


def reference_taylor_coefficients(
    f: FlowExpr, x0: RationalLike, y0: RationalLike, n: int
) -> list[Fraction]:
    """The earlier body, verbatim; the docstring is that of taylor_coefficients."""
    _require_xy(f)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x0, y0 = as_rational(x0), as_rational(y0)
    shifted: dict[tuple[int, int], Fraction] = {}
    for key, a in f.monomials.items():
        e_x, e_y = (*key, 0, 0)[:2]
        for i in range(e_x + 1):
            term = a * comb(e_x, i) * x0 ** (e_x - i)
            shifted[i, e_y] = shifted.get((i, e_y), 0) + term
    shifted = {ij: b for ij, b in shifted.items() if b}
    base = lcm(y0.denominator, *(b.denominator for b in shifted.values()))
    q = max((-(-j // (i + 1)) for i, j in shifted), default=0)
    terms = [
        (i, j, b.numerator * (base ** (1 + q * (i + 1) - j) // b.denominator))
        for (i, j), b in shifted.items()
    ]
    w = [y0.numerator * (base // y0.denominator)]
    # powers[j][k] = (w^j)^(k)(0); powers[1] is w itself.
    top = max((j for _, j, _ in terms), default=1)
    powers = [[1], w] + [[w[0] ** j] for j in range(2, top + 1)]
    for k in range(n):
        w.append(sum(b * perm(k, i) * powers[j][k - i] for i, j, b in terms if i <= k))
        powers[0].append(0)
        m = k + 1
        row = [comb(m, r) for r in range(m + 1)]
        if top >= 2:
            half = sum(row[r] * w[r] * w[m - r] for r in range((m + 1) // 2))
            middle = 0 if m % 2 else row[m // 2] * w[m // 2] ** 2
            powers[2].append(2 * half + middle)
        for lower, power in zip(powers[2:], powers[3:]):
            power.append(sum(c * w[r] * lower[m - r] for r, c in enumerate(row)))
    return [Fraction(v, base ** (1 + q * k) * factorial(k)) for k, v in enumerate(w)]


class ReferenceKernel(_Kernel):
    """The kernel with the earlier `bind`, kept verbatim."""

    def bind(self, slot: int, groups) -> RatInterval:
        """Bind the rounded total of groups to slot, as a derivative bound,
        and return it reduced.

        An exact bound is bound as the numerators and vector of its
        unreduced sum [lo, hi] / den.  Under outward:P, lo and hi are floored
        and ceiled straight to numerators over 10**P, the last base
        (`DecimalRounding.scaled_floor`), which are bound as they are; only
        the two rounded endpoints become Fractions.  A bound is never made a
        base of its own: D_k multiplies y^(i) by y^(k-2-i), so the common
        denominator would become the product of every earlier one.
        """
        lo, hi, vec = self.total(groups)
        if not self.rounding.is_exact:
            den, rounding = self.power(vec), self.rounding
            lo, hi = rounding.scaled_floor(lo, den), -rounding.scaled_floor(-hi, den)
            vec = self._unit(len(self.bases) - 1)
        self.slots[slot] = lo, hi, vec
        return self.interval(lo, hi, vec)


#: The sparse key of y^2.
_Y_SQUARED = ((1, 2),)


def reference_derivative_bounds(
    f: FlowExpr,
    n: int,
    xrange: RatInterval,
    yrange: RatInterval,
    rounding: DecimalRounding = DecimalRounding.exact(),
) -> list[RatInterval]:
    """The earlier `derivative_bounds`, verbatim but for its kernel, which is
    `ReferenceKernel`: one group lookup per Leibniz pair."""
    terms = sparse_view(f)
    if any(key and key[-1][0] and key != _Y_SQUARED for key in terms):
        return derivative_chain(f, n).bounds(xrange, yrange, rounding)
    if n < 0:
        raise ValueError("chain length parameter must be >= 0")
    a = from_sparse({key: v for key, v in terms.items() if key != _Y_SQUARED})
    kernel = ReferenceKernel([f], {0: xrange, 1: yrange}, rounding)
    q = terms.get(_Y_SQUARED, F(0))  # b: the numerator of q over the base c
    b = q.numerator * (kernel.bases[0] // q.denominator)
    Y, coeff_vec, mul = kernel.slots, kernel._unit(0), mul_endpoints  # Y[j+1]: y^(j)
    bounds, row = [], [1]  # row[i] = C(k, i)
    for k in range(n + 1):
        groups = {}
        if not a.is_zero():  # a^(k), then a^(k+1) for the next order
            groups, a = kernel.groups(a), a.partial(0)
        group_of = groups.get
        for i in range((k + 2) // 2 if b else 0):
            lo, hi, vec = Y[i + 1]
            if 2 * i < k:
                o_lo, o_hi, o_vec = Y[k - i + 1]
                lo, hi = mul(lo, hi, o_lo, o_hi)
                scale = 2 * b * row[i]
            else:
                lo, hi = pow_endpoints(lo, hi, 2)
                o_vec, scale = vec, b * row[i]
            lo, hi = (scale * lo, scale * hi) if b > 0 else (scale * hi, scale * lo)
            vec += o_vec + coeff_vec
            group = group_of(vec)
            if group is None:
                groups[vec] = [lo, hi]
            else:
                group[0] += lo
                group[1] += hi
        bounds.append(kernel.bind(k + 2, groups))
        row = [1, *map(operator.add, row, row[1:]), 1]
    return bounds


def fields(expr: FlowExpr):
    return list(expr.monomials.items())


# -- strategies ------------------------------------------------------------------

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)


@st.composite
def monomial_keys(draw, max_exp):
    """Dense keys over x, y, y', y''."""
    return tuple(draw(st.integers(0, max_exp)) for _ in range(4))


@st.composite
def polynomials(draw):
    """Polynomials in x, y, y', y'' with exponents up to 4.  Each drawn
    cancelling block M * (y y'' - y'^2 / 2) or M * (x y' - y), M a monomial,
    has a derivative in which two emitted terms cancel: the flow derivatives
    of the blocks' factors are y y''' and x y''."""
    table: dict[tuple[int, ...], Fraction] = {}

    def add(m, factor, coeff):
        key = tuple(a + b for a, b in zip(m, factor))
        table[key] = table.get(key, 0) + coeff

    for _ in range(draw(st.integers(0, 6))):
        add(draw(monomial_keys(4)), (0, 0, 0, 0), draw(coefficients))
    for _ in range(draw(st.integers(0, 2))):
        m, c = draw(monomial_keys(2)), draw(coefficients)
        if draw(st.booleans()):
            add(m, (0, 1, 0, 1), c)
            add(m, (0, 0, 2, 0), -c / 2)
        else:
            add(m, (1, 0, 1, 0), c)
            add(m, (0, 1, 0, 0), -c)
    return FlowExpr(table)


@st.composite
def xy_flows(draw):
    """Flows in x and y with y-degree up to 4."""
    table = {}
    for _ in range(draw(st.integers(1, 5))):
        table[draw(st.integers(0, 3)), draw(st.integers(0, 4))] = draw(coefficients)
    return FlowExpr(table)


points = st.one_of(
    st.just(F(0)), st.fractions(min_value=-2, max_value=2, max_denominator=12)
)


# -- the flow derivative ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_flow_derivative_equals_verbatim_loop(expr):
    assert fields(expr.flow_derivative()) == fields(reference_flow_derivative(expr))


def test_cancelling_blocks_cancel():
    y_block = FlowExpr({(0, 1, 0, 1): 1, (0, 0, 2): F(-1, 2)})
    x_block = FlowExpr({(1, 0, 1): 3, (0, 1): -3})
    assert y_block.flow_derivative() == FlowExpr({(0, 1, 0, 0, 1): 1})
    assert x_block.flow_derivative() == FlowExpr({(1, 0, 0, 1): 3})
    for expr in (y_block, x_block):
        assert fields(expr.flow_derivative()) == fields(reference_flow_derivative(expr))


def test_chains_equal_verbatim_loop():
    quartic = FlowExpr({(2, 3): F(2, 3), (0, 4): 5, (): 1})
    for f in (riccati_flow(), quadratic_flow(), quartic):
        exprs = derivative_chain(f, 12).exprs
        want = [f]
        for _ in range(12):
            want.append(reference_flow_derivative(want[-1]))
        assert [fields(e) for e in exprs] == [fields(e) for e in want]


# -- the Taylor-mode recurrence --------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(xy_flows(), points, points, st.integers(0, 30))
def test_taylor_coefficients_equal_verbatim_loop(f, x0, y0, n):
    got = taylor_coefficients(f, x0, y0, n)
    want = reference_taylor_coefficients(f, x0, y0, n)
    assert got == want
    assert all(type(c) is Fraction for c in got)


def test_benchmark_flows_equal_verbatim_loop():
    for f, y0, n in [
        (riccati_flow(), -1, 60),
        (quadratic_flow(), 1, 28),
        (FlowExpr({(): 1, (1, 2): 1, (0, 3): 1}), 0, 20),
        (FlowExpr({(3, 2): 1, (1,): 2, (0, 4): 1}), 0, 20),
    ]:
        want = reference_taylor_coefficients(f, 0, y0, n)
        assert taylor_coefficients(f, 0, y0, n) == want


# -- the interval Leibniz recurrence ---------------------------------------------

# Denominators that divide 10**P for P >= 3 (and some for P = 0 or 2), and
# denominators that divide no power of ten.
y_dens = st.sampled_from([1, 2, 4, 5, 8, 10, 20, 25, 3, 6, 7, 9, 12])


@st.composite
def leibniz_boxes(draw):
    """(f, n, xrange, yrange) for f = a(x) + b*y^2: b of either sign or zero,
    a zero, a constant or several powers of x, and a y box that is >= 0,
    <= 0 or straddles zero."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    kind = draw(st.sampled_from(["zero", "constant", "powers"]))
    if kind == "zero":
        a = {}
    elif kind == "constant":
        a = {(): draw(small)}
    else:
        exps = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4, unique=True))
        a = {(e,): draw(small) for e in [0, *exps]}
    b = draw(st.one_of(small, st.just(F(0))))
    den = draw(y_dens)
    ends = sorted(F(draw(st.integers(0, 3 * den)), den) for _ in range(2))
    side = draw(st.sampled_from(["nonnegative", "nonpositive", "straddling"]))
    if side == "nonpositive":
        ends = [-ends[1], -ends[0]]
    elif side == "straddling":
        ends = [-ends[0] - F(1, den), ends[1] + F(1, draw(y_dens))]
    x0 = draw(st.fractions(min_value=-1, max_value=1, max_denominator=7))
    dx = draw(st.fractions(min_value=0, max_value=1, max_denominator=7))
    f = FlowExpr({**a, (0, 2): b})
    return f, draw(st.integers(0, 40)), RatInterval(x0, x0 + dx), RatInterval(*ends)


@settings(max_examples=300, deadline=None)
@given(
    leibniz_boxes(),
    st.sampled_from(["exact", "outward:0", "outward:2", "outward:30"]),
)
def test_derivative_bounds_equal_verbatim_recurrence(case, rounding):
    f, n, xrange, yrange = case
    rounding = DecimalRounding.parse(rounding)
    want = reference_derivative_bounds(f, n, xrange, yrange, rounding)
    assert derivative_bounds(f, n, xrange, yrange, rounding) == want


def test_benchmark_bounds_equal_verbatim_recurrence():
    # The y ranges of the benchmark certificates: riccati's [-1, U] and
    # quadratic's [1, U], U with a 10**30 denominator under outward:30 and
    # a long one in exact mode.
    for flow, y0, x1, n in [(riccati_flow, -1, F(1, 5), 60), (quadratic_flow, 1, F(2, 5), 28)]:
        f = flow()
        qc = comparison.extract_comparison(f, F(0), x1, F(y0))
        for rounding in (DecimalRounding.exact(), DecimalRounding(30)):
            yrange = comparison.solution_range(qc, F(1, 10**12), rounding, f).range
            xrange = RatInterval(F(0), x1)
            want = reference_derivative_bounds(f, n, xrange, yrange, rounding)
            capped = []
            got = derivative_bounds(f, n, xrange, yrange, rounding, capped=capped)
            # The reference's bind never rounds an exact bound: up to the
            # first one rounded onto the 2**-1024 grid the bounds equal it,
            # and from there on they contain it.
            first = capped[0] - 1 if capped else len(got)
            assert got[:first] == want[:first]
            for bound, w in zip(got[first:], want[first:], strict=True):
                assert bound.lo <= w.lo and w.hi <= bound.hi
