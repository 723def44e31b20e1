"""High-precision reference integrator and closed-form cross-checks."""

from fractions import Fraction
import math
import operator

from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp
from mpmath.libmp import fzero
import pytest

from conftest import (
    QUADRATIC_Y_AT_04,
    RICCATI_Y_AT_02,
    quadratic_flow,
    riccati_flow,
)
from taylorcert.oracle import (
    ConvergenceError,
    MAX_RK4_STEPS,
    MAX_Y_EXPONENT,
    ORACLE_DPS,
    _compile_flow,
    _rk4_fixed,
    is_quarter_riccati,
    reference_grid,
    reference_solution,
    riccati_exact,
    to_mpf,
)
from taylorcert.odexpr import FlowExpr, parse_flow_expr

F = Fraction


# -- reference: the mpf-object sweep that the libmp kernel replaced ---------------
#
# Verbatim copies of the former `_compile_flow` and `_rk4_fixed`, renamed.
# The kernel must return the same `_mpf_` tuple for every flow, step count
# and grid.


def reference_compile_flow(f: FlowExpr):
    """Turn an x/y-only FlowExpr into a fast mpf-valued callable.  It skips
    the factors x**0, y**0 and the sum's start mpf(0), which are exact."""
    terms = [(to_mpf(c), *(*key, 0, 0)[:2]) for key, c in f.monomials.items()]

    def call(x: mp.mpf, y: mp.mpf) -> mp.mpf:
        total = None
        for term, e_x, e_y in terms:
            if e_x:
                term = term * x**e_x
            if e_y:
                term = term * y**e_y
            total = term if total is None else total + term
        return mp.mpf(0) if total is None else total

    return call


def reference_rk4_fixed(flow, x0: mp.mpf, y0: mp.mpf, x1: mp.mpf, steps: int) -> mp.mpf:
    h = (x1 - x0) / steps
    x, y = x0, y0
    for _ in range(steps):
        k1 = flow(x, y)
        k2 = flow(x + h / 2, y + h * k1 / 2)
        k3 = flow(x + h / 2, y + h * k2 / 2)
        k4 = flow(x + h, y + h * k3)
        y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        x += h
    return y


def _mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def test_reference_at_start_is_exact():
    ref = reference_solution(riccati_flow(), 0, -1, 0)
    assert ref.value == -1
    assert ref.error_estimate == 0
    assert ref.method == "integrator"


def test_reference_riccati_regression():
    ref = reference_solution(riccati_flow(), 0, -1, F(1, 5), F(1, 10**16))
    with mp.workdps(ORACLE_DPS):
        assert abs(ref.value - _mpf(RICCATI_Y_AT_02)) < mp.mpf("1e-15")
    assert ref.error_estimate < mp.mpf("1e-15")


def test_reference_quadratic_regression():
    ref = reference_solution(quadratic_flow(), 0, 1, F(2, 5), F(1, 10**16))
    with mp.workdps(ORACLE_DPS):
        assert abs(ref.value - _mpf(QUADRATIC_Y_AT_04)) < mp.mpf("1e-15")


def test_reference_rejects_backward_evaluation():
    with pytest.raises(ValueError):
        reference_solution(riccati_flow(), 0, -1, F(-1, 10))


def test_reference_step_budget(monkeypatch):
    # Sweeps that never agree: each call returns a value 1 above the last, so
    # the loop doubles until the next sweep would take the sweeps together
    # past MAX_RK4_STEPS, and gives up with the steps spent.
    calls = []

    def drifting(flow, x0, y0, x1, steps):
        calls.append(steps)
        return mp.mpf(len(calls))

    monkeypatch.setattr("taylorcert.oracle._rk4_fixed", drifting)
    point = [16 * 2**k for k in range(12)]
    assert sum(point) <= MAX_RK4_STEPS < sum(point) + 2 * point[-1]
    with pytest.raises(ConvergenceError, match=f"after {sum(point)} RK4 steps"):
        reference_solution(riccati_flow(), 0, -1, F(1, 5), F(1, 10**15))
    assert calls == point
    calls.clear()
    # Three segments cost three times the steps of one; a point at x0 is free.
    per_segment = [4 * 2**k for k in range(13)]
    spent = 3 * sum(per_segment)
    assert spent <= MAX_RK4_STEPS < spent + 3 * 2 * per_segment[-1]
    with pytest.raises(ConvergenceError, match=f"after {spent} RK4 steps"):
        reference_grid(riccati_flow(), 0, -1, [0, F(1, 10), F(1, 5), F(3, 10)], F(1, 10**15))
    assert calls == [steps for steps in per_segment for _ in range(3)]


@pytest.mark.parametrize("tol", [F(1, 10**30), F(1, 10**60), F(99, 10**22)])
def test_unreachable_tolerance_rejected_before_integration(monkeypatch, tol):
    # Below half the working digits the doubling loop could never stop early.
    monkeypatch.setattr("taylorcert.oracle._rk4_fixed", _no_integration)
    with pytest.raises(ValueError, match="the finest the 40-digit oracle resolves"):
        reference_solution(riccati_flow(), 0, -1, F(1, 5), tol)
    with pytest.raises(ValueError, match="the finest the 40-digit oracle resolves"):
        reference_grid(riccati_flow(), 0, -1, [F(1, 10), F(1, 5)], tol)


def _no_integration(*args, **kwargs):
    raise AssertionError("integrator ran despite a rejected tolerance")


@pytest.mark.parametrize("tol", [0, F(-1, 10**15), "-1"])
def test_nonpositive_tolerance_rejected_before_integration(monkeypatch, tol):
    # With tol <= 0 the doubling loop could never stop early; it must not start.
    monkeypatch.setattr("taylorcert.oracle._rk4_fixed", _no_integration)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        reference_solution(riccati_flow(), 0, -1, F(1, 5), tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        reference_grid(riccati_flow(), 0, -1, [F(1, 10), F(1, 5)], tol)


def test_observed_convergence_order_is_fourth():
    """Classical one-step scheme: error ratios under step halving give
    observed order within [3.8, 4.2]."""
    f = riccati_flow()
    with mp.workdps(ORACLE_DPS):
        flow, x0, y0, x1 = _compile_flow(f), to_mpf(0), to_mpf(-1), to_mpf(F(1, 5))
        truth = _rk4_fixed(flow, x0, y0, x1, 4096)
        errors = []
        for steps in (8, 16, 32, 64):
            errors.append(abs(_rk4_fixed(flow, x0, y0, x1, steps) - truth))
        for coarse, fine in zip(errors, errors[1:]):
            order = math.log2(float(coarse / fine))
            assert 3.8 <= order <= 4.2


def test_grid_matches_pointwise_integration():
    f = quadratic_flow()
    xs = [F(1, 10), F(1, 5), F(3, 10), F(2, 5)]
    grid = reference_grid(f, 0, 1, xs, F(1, 10**16))
    with mp.workdps(ORACLE_DPS):
        for x, value in zip(xs, grid):
            single = reference_solution(f, 0, 1, x, F(1, 10**16))
            assert abs(value - single.value) < mp.mpf("1e-14")


def test_grid_requires_increasing_points():
    with pytest.raises(ValueError):
        reference_grid(riccati_flow(), 0, -1, [F(1, 5), F(1, 10)])


def test_empty_grid_returns_no_values(monkeypatch):
    monkeypatch.setattr("taylorcert.oracle._rk4_fixed", _no_integration)
    assert reference_grid(riccati_flow(), 0, -1, []) == []
    with pytest.raises(ValueError, match="tolerance must be positive"):
        reference_grid(riccati_flow(), 0, -1, [], 0)


def test_is_quarter_riccati_detection():
    assert is_quarter_riccati(riccati_flow(), 0, -1)
    assert not is_quarter_riccati(riccati_flow(), 0, 1)
    assert not is_quarter_riccati(quadratic_flow(), 0, -1)
    assert not is_quarter_riccati(parse_flow_expr("x^2 + y^2"), 0, -1)


def test_riccati_exact_regression():
    ref = riccati_exact(F(1, 5))
    with mp.workdps(ORACLE_DPS):
        assert abs(ref.value - _mpf(RICCATI_Y_AT_02)) < mp.mpf("1e-20")
    assert ref.method == "bessel"


def _besselj_closed_form(x: Fraction) -> mp.mpf:
    """y(x) from mpmath's besselj and gamma, with the Gamma factors in place:
    2x [8 G34 J(3/4) - sqrt(2) G14 J(-3/4)] / [sqrt(2) G14 J(1/4) + 8 G34 J(-1/4)]
    with every J at x^2/4, G14 = Gamma(1/4) and G34 = Gamma(3/4)."""
    xf = _mpf(x)
    z = xf * xf / 4
    g14, g34, sqrt2 = mp.gamma(mp.mpf(1) / 4), mp.gamma(mp.mpf(3) / 4), mp.sqrt(2)
    j = {nu: mp.besselj(mp.mpf(nu) / 4, z) for nu in (3, -3, 1, -1)}
    numerator = 8 * g34 * j[3] - sqrt2 * g14 * j[-3]
    denominator = sqrt2 * g14 * j[1] + 8 * g34 * j[-1]
    return 2 * xf * numerator / denominator


@pytest.mark.parametrize("x", [F(1, 10), F(1, 5), F(1, 2), F(1), F(3, 2)])
def test_riccati_exact_matches_besselj_closed_form(x):
    # riccati_exact sums the Bessel series without their Gamma normalization,
    # which cancels in the quotient.
    with mp.workdps(ORACLE_DPS):
        assert abs(riccati_exact(x).value - _besselj_closed_form(x)) < mp.mpf("1e-35")


def test_riccati_exact_degenerate_at_zero():
    with pytest.raises(ValueError, match="y\\(0\\) = -1"):
        riccati_exact(F(0))


def test_riccati_exact_insufficient_terms():
    # 40 series terms leave a relative tail above 1e-13 at x = 12.
    with pytest.raises(ConvergenceError, match="40 series terms .* at x = 12; shrink"):
        riccati_exact(F(12))


def test_riccati_exact_limit_toward_zero():
    # the closed form approaches the initial value as x -> 0
    with mp.workdps(ORACLE_DPS):
        for x in (F(1, 100), F(1, 1000), F(1, 10000)):
            value = riccati_exact(x).value
            assert abs(value + 1) < 2 * _mpf(x)


def test_cross_oracle_agreement_on_grid():
    with mp.workdps(ORACLE_DPS):
        for x in (F(1, 20), F(1, 10), F(3, 20), F(1, 5)):
            integ = reference_solution(riccati_flow(), 0, -1, x, F(1, 10**14))
            closed = riccati_exact(x)
            assert abs(integ.value - closed.value) < mp.mpf("1e-10")


def test_riccati_exact_rejects_negative_argument():
    with pytest.raises(ValueError, match="x > 0"):
        riccati_exact(F(-1, 10))


@pytest.mark.parametrize("steps", [16, 512])
@pytest.mark.parametrize("x1", [None, F(3, 5)])
@pytest.mark.parametrize(
    "f, y0, default_x1",
    [
        (riccati_flow(), F(-1), F(1, 5)),
        (quadratic_flow(), F(1), F(2, 5)),
        (parse_flow_expr("1 + x*y^2 + 2/3*y^3"), F(0), F(1, 5)),
    ],
    ids=["riccati", "quadratic", "constant-term"],
)
def test_compiled_flow_is_bit_identical(f, y0, default_x1, x1, steps):
    # Multiplying by x**0 or y**0 and adding to mpf(0) are exact in mpf, so
    # skipping them changes no bit of any RK4 step.
    with mp.workdps(ORACLE_DPS):
        args = (to_mpf(0), to_mpf(y0), to_mpf(x1 or default_x1), steps)
        got = _rk4_fixed(_compile_flow(f), *args)
        want = reference_rk4_fixed(_unskipped_compile_flow(f), *args)
    assert got._mpf_ == want._mpf_


def _unskipped_compile_flow(f):
    """The mpf flow compiler before it skipped x**0, y**0 and the sum's mpf(0)."""
    terms = [(to_mpf(c), *(*key, 0, 0)[:2]) for key, c in f.monomials.items()]

    def call(x: mp.mpf, y: mp.mpf) -> mp.mpf:
        total = mp.mpf(0)
        for c, e_x, e_y in terms:
            total += c * x**e_x * y**e_y
        return total

    return call


def test_compiled_zero_flow_is_zero():
    with mp.workdps(ORACLE_DPS):
        flow = _compile_flow(FlowExpr.zero())
        assert flow(mp.mpf(1)._mpf_)(mp.mpf(2)._mpf_) == fzero
        assert _rk4_fixed(flow, mp.mpf(0), mp.mpf(2), mp.mpf(1), 4) == 2


# -- the libmp kernel against the verbatim mpf sweep ------------------------------

exponents = st.integers(0, 3)
coefficients = st.fractions(-9, 9, max_denominator=9)
xy_flows = st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=6).map(
    FlowExpr
)
points = st.fractions(-1, 1, max_denominator=50)


@settings(max_examples=200, deadline=None)
@given(
    xy_flows,
    points,
    st.fractions(-2, 2, max_denominator=50),
    st.fractions(F(1, 50), 1, max_denominator=50),
    st.integers(1, 64),
)
def test_kernel_matches_mpf_sweep(f, x0, y0, length, steps):
    # Constant, x-only and y-only terms all occur; so do zero flows, blow-ups
    # and steps that do not divide the interval exactly in binary.  The
    # kernel gives up, returning None, exactly when a step's y reaches
    # 2**MAX_Y_EXPONENT; the reference's steps are the y of every fourth call
    # of its flow, k1's, and the value it returns.
    ys = []

    def recording(x, y):
        ys.append(y)
        return compiled(x, y)

    with mp.workdps(ORACLE_DPS):
        compiled = reference_compile_flow(f)
        args = (to_mpf(x0), to_mpf(y0), to_mpf(x0 + length), steps)
        got = _rk4_fixed(_compile_flow(f), *args)
        want = reference_rk4_fixed(recording, *args)
    _, _, exp, bits = zip(*(y._mpf_ for y in [*ys[4::4], want]))
    if max(map(operator.add, exp, bits)) > MAX_Y_EXPONENT:
        assert got is None
    else:
        assert got._mpf_ == want._mpf_


def test_a_stopped_sweep_agrees_with_no_neighbour(monkeypatch):
    # y' = y^2 from y(0) = 1 has its pole at x = 1: a sweep across it stops
    # within 64 steps, one that ends before it does not.
    f = parse_flow_expr("y^2")
    with mp.workdps(ORACLE_DPS):
        flow = _compile_flow(f)
        assert _rk4_fixed(flow, mp.mpf(0), mp.mpf(1), mp.mpf(0.5), 16) is not None
        assert _rk4_fixed(flow, mp.mpf(0), mp.mpf(1), mp.mpf(2), 64) is None
    # Stopping the first sweep leaves the doubling as it was: the 32-step
    # sweep is compared with nothing, and the loop ends where it ended.
    sweeps = []

    def counted(flow, x0, y0, x1, steps):
        sweeps.append(steps)
        return original(flow, x0, y0, x1, steps)

    def first_stops(flow, x0, y0, x1, steps):
        sweeps.append(steps)
        return None if len(sweeps) == 1 else original(flow, x0, y0, x1, steps)

    original = _rk4_fixed
    monkeypatch.setattr("taylorcert.oracle._rk4_fixed", counted)
    want = reference_solution(f, 0, 1, F(1, 2), F(1, 10**12))
    want_sweeps = sweeps[:]
    sweeps.clear()
    monkeypatch.setattr("taylorcert.oracle._rk4_fixed", first_stops)
    got = reference_solution(f, 0, 1, F(1, 2), F(1, 10**12))
    assert sweeps == want_sweeps == [16 * 2**k for k in range(len(sweeps))]
    assert len(sweeps) > 2
    assert (got.value, got.error_estimate) == (want.value, want.error_estimate)


mild_flows = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(-1, 1, max_denominator=4),
    min_size=1,
    max_size=3,
).map(FlowExpr)


@settings(max_examples=25, deadline=None)
@given(
    mild_flows,
    st.fractions(-1, 1, max_denominator=4),
    st.lists(st.fractions(0, F(1, 4), max_denominator=40), min_size=2, max_size=4, unique=True),
)
def test_grid_matches_mpf_sweep(f, y0, offsets):
    # Several segments share one trajectory; a point at x0 is a zero-length one.
    xs = sorted(F(1, 3) + d for d in offsets)
    got = reference_grid(f, F(1, 3), y0, xs, F(1, 10**10))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("taylorcert.oracle._compile_flow", reference_compile_flow)
        patch.setattr("taylorcert.oracle._rk4_fixed", reference_rk4_fixed)
        want = reference_grid(f, F(1, 3), y0, xs, F(1, 10**10))
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
