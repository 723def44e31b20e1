"""Flow expressions, the derivative chain, and exact Taylor coefficients."""

from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QUADRATIC_COEFFS,
    RICCATI_COEFFS,
    RICCATI_DERIVS,
    assert_series_consistency,
    chain_coefficients,
    chain_values,
    quadratic_flow,
    random_polynomial_ivp,
    riccati_flow,
)
from taylorcert import odexpr
from taylorcert.odexpr import (
    MAX_CHAIN_MONOMIALS,
    DerivativeChain,
    ExprError,
    ExprParseError,
    FlowExpr,
    derivative_chain,
    derivative_values,
    parse_flow_expr,
    symbol_name,
    taylor_coefficients,
)
from taylorcert.ratcore import RatInterval

F = Fraction


def test_symbol_names():
    assert [symbol_name(k) for k in range(5)] == ["y", "y'", "y''", "y'''", "y^(4)"]


# -- flow derivative ----------------------------------------------------------


def test_flow_derivative_of_riccati_flow():
    d2 = riccati_flow().flow_derivative()
    expected = FlowExpr({(1,): 2}) + FlowExpr({(0, 1, 1): F(1, 2)})
    assert d2 == expected


def test_flow_derivative_second_step():
    d3 = riccati_flow().flow_derivative().flow_derivative()
    expected = (
        FlowExpr.constant(2)
        + FlowExpr({(0, 0, 2): F(1, 2)})
        + FlowExpr({(0, 1, 0, 1): F(1, 2)})
    )
    assert d3 == expected


def test_flow_derivative_of_constant_is_zero():
    assert FlowExpr.constant(7).flow_derivative() == FlowExpr.zero()


def test_no_zero_coefficients_stored():
    expr = FlowExpr({(1,): F(1), (0, 1): F(0)})
    assert (0, 1) not in expr.monomials
    cancelled = expr - FlowExpr({(1,): 1})
    assert cancelled.is_zero() and not cancelled.monomials


def test_exponent_keys_normalized():
    assert FlowExpr({(1, 0, 0): F(2)}) == FlowExpr({(1,): F(2)})
    with pytest.raises(ExprError):
        FlowExpr({(-1,): F(1)})


@st.composite
def flow_exprs(draw):
    n_terms = draw(st.integers(0, 4))
    table = {}
    for _ in range(n_terms):
        key = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)))
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
        if coeff:
            table[key] = table.get(key, F(0)) + coeff
    return FlowExpr(table)


@settings(max_examples=200, deadline=None)
@given(flow_exprs(), flow_exprs(), st.fractions(min_value=-4, max_value=4, max_denominator=12))
def test_flow_derivative_linearity(e1, e2, a):
    c = FlowExpr.constant(a)
    lhs = (e1 * c + e2).flow_derivative()
    rhs = e1.flow_derivative() * c + e2.flow_derivative()
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(flow_exprs(), flow_exprs())
def test_flow_derivative_leibniz(e1, e2):
    lhs = (e1 * e2).flow_derivative()
    rhs = e1.flow_derivative() * e2 + e1 * e2.flow_derivative()
    assert lhs == rhs


def reference_flow_derivative(expr: FlowExpr) -> FlowExpr:
    """The defining formula d/dx + sum_j y^(j+1) * d/dy^(j), term by term."""
    result = expr.partial(0)
    for j in range(expr.order + 1):
        result = result + expr.partial(j + 1) * FlowExpr({(0,) * (j + 2) + (1,): 1})
    return result


@settings(max_examples=300, deadline=None)
@given(flow_exprs())
def test_flow_derivative_matches_reference_definition(expr):
    # Linearity and Leibniz hold for any derivation; this pins the symbol
    # shift y^(j) -> y^(j+1) itself.
    assert expr.flow_derivative() == reference_flow_derivative(expr)


def assert_normalized(expr: FlowExpr) -> None:
    table = expr.monomials
    assert expr == FlowExpr(table)
    assert all(c != 0 for c in table.values())
    assert all(key[-1] != 0 for key in table if key)


@settings(max_examples=200, deadline=None)
@given(
    flow_exprs(),
    flow_exprs(),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.integers(0, 3),
)
def test_arithmetic_results_are_normalized(e1, e2, a, slot):
    results = [
        e1 + e2, e1 - e2, e1 - e1, -e1, e1 * FlowExpr.constant(a),
        e1 * FlowExpr.constant(0), e1 * e2,
        e1.partial(slot), e1.flow_derivative(),
    ]
    for result in results:
        assert_normalized(result)


# -- derivative chain ----------------------------------------------------------


def test_chain_top_expression_structure():
    chain = derivative_chain(riccati_flow(), 9)
    assert len(chain) == 10
    expected_top = (
        FlowExpr({(0, 0, 0, 0, 0, 1, 1): 63})
        + FlowExpr({(0, 0, 0, 0, 1, 0, 0, 1): 42})
        + FlowExpr({(0, 0, 0, 1, 0, 0, 0, 0, 1): 18})
        + FlowExpr({(0, 0, 1, 0, 0, 0, 0, 0, 0, 1): F(9, 2)})
        + FlowExpr({(0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1): F(1, 2)})
    )
    assert chain[9] == expected_top


def test_chain_of_length_one():
    f = riccati_flow()
    chain = derivative_chain(f, 0)
    assert chain == DerivativeChain((f,))


def test_chain_values_and_coefficients_stay_within_chain():
    chain = derivative_chain(riccati_flow(), 9)
    assert chain_values(chain, 0, -1, 10) == RICCATI_DERIVS
    assert chain_coefficients(chain, 0, -1, 9) == RICCATI_COEFFS[:10]
    assert chain_values(chain, 0, -1, 0) == []
    for n in (-1, 11):
        with pytest.raises(ValueError):
            chain_values(chain, 0, -1, n)


def test_chain_budget_admits_degree_400_and_stops_past_it(monkeypatch):
    for f in (riccati_flow(), quadratic_flow()):
        chain = derivative_chain(f, 400)
        assert 40_000 < sum(len(d.monomials) for d in chain.exprs) < MAX_CHAIN_MONOMIALS
    # Riccati's D_1 .. D_10 hold 2, 2, 3, 2, 3, 3, 4, 4, 5, 5 monomials.
    monkeypatch.setattr(odexpr, "MAX_CHAIN_MONOMIALS", 33)
    assert len(derivative_chain(riccati_flow(), 9)) == 10
    monkeypatch.setattr(odexpr, "MAX_CHAIN_MONOMIALS", 32)
    with pytest.raises(ExprError) as info:
        derivative_chain(riccati_flow(), 20)
    assert str(info.value) == "derivative chain holds 33 monomials by D_10, over the limit 32"


def test_chain_rejects_derivative_symbols():
    with pytest.raises(ExprError):
        derivative_chain(FlowExpr({(0, 0, 1): 1}), 2)


def test_every_entry_point_rejects_derivative_symbols_alike():
    from taylorcert import oracle
    from taylorcert.certify import ProblemSpec
    from taylorcert.comparison import extract_comparison

    f = FlowExpr({(0, 1): 1, (0, 0, 1): 1})  # y + y'
    calls = [
        lambda: ProblemSpec(f=f, x0=F(0), y0=F(0), degree=1, x1=F(1)),
        lambda: extract_comparison(f, 0, 1, 0),
        lambda: oracle.reference_solution(f, 0, 0, 1),
        lambda: oracle.reference_grid(f, 0, 0, [F(1, 2), F(1)]),
        lambda: derivative_chain(f, 1),
        lambda: taylor_coefficients(f, 0, 0, 1),
        lambda: odexpr.derivative_bounds(f, 1, RatInterval(0, 1), RatInterval(0, 1)),
    ]
    for call in calls:
        with pytest.raises(ExprError) as info:
            call()
        assert str(info.value) == "right-hand side mentions derivative symbol y'"


def test_chain_orders_stay_bounded():
    chain = derivative_chain(riccati_flow(), 9)
    for k in range(1, 11):
        assert chain[k - 1].order <= k - 1


def test_quadratic_chain_second_expression():
    chain = derivative_chain(quadratic_flow(), 5)
    expected = FlowExpr.constant(F(1, 4)) + FlowExpr({(0, 1, 1): F(1, 2)})
    assert chain[1] == expected


# -- exact evaluation ----------------------------------------------------------


def point_value(expr: FlowExpr, env) -> Fraction:
    """The exact value under rational bindings: eval_interval's point."""
    value = expr.eval_interval(env)
    assert value.lo == value.hi
    return value.lo


def test_eval_exact_third_derivative():
    chain = derivative_chain(riccati_flow(), 2)
    env = {"x": F(0), "y": F(-1), "y'": F(1, 4), "y''": F(-1, 8)}
    assert point_value(chain[2], env) == F(67, 32)


def test_eval_exact_top_of_chain():
    chain = derivative_chain(riccati_flow(), 9)
    env = {"x": F(0), "y": F(-1)}
    for order, value in enumerate(RICCATI_DERIVS, start=1):
        assert point_value(chain[order - 1], env) == value
        env[symbol_name(order)] = value


def test_eval_exact_fixed_binding_regression():
    # Pure-evaluation regression on a fixed environment for the top chain
    # expression; the bindings are historical tabulated values, not the
    # chain's own.
    top = derivative_chain(riccati_flow(), 9)[9]
    env = {
        "x": F(0),
        "y": F(-1),
        "y'": F(1, 4),
        "y''": F(-1, 8),
        "y'''": F(67, 32),
        "y^(4)": F(-35, 32),
        "y^(5)": F(207, 128),
        "y^(6)": F(-231, 64),
        "y^(7)": F(26585, 1024),
        "y^(8)": F(-119475, 2048),
        "y^(9)": F(725769, 4096),
    }
    assert point_value(top, env) == F(-10509885, 16384)


def test_eval_exact_constant_and_unbound():
    assert point_value(FlowExpr.constant(7), {}) == 7
    with pytest.raises(ExprError, match="y'"):
        FlowExpr({(0, 0, 1): 1}).eval_interval({"x": F(0), "y": F(1)})


def test_eval_interval_matches_exact_on_points():
    f = riccati_flow().flow_derivative()
    env_exact = {"x": F(1, 3), "y": F(-1, 2), "y'": F(1, 4)}
    env_interval = {k: RatInterval.point(v) for k, v in env_exact.items()}
    assert point_value(f, env_exact) in f.eval_interval(env_interval)


# -- Taylor coefficients --------------------------------------------------------


def test_riccati_coefficients_exact():
    f = riccati_flow()
    assert taylor_coefficients(f, 0, -1, 10) == RICCATI_COEFFS
    assert derivative_values(f, 0, -1, 10) == RICCATI_DERIVS


def test_degree_zero():
    assert taylor_coefficients(riccati_flow(), 0, -1, 0) == [F(-1)]


def test_quadratic_coefficients_exact():
    assert taylor_coefficients(quadratic_flow(), 0, 1, 5) == QUADRATIC_COEFFS


def test_coefficients_at_shifted_base_point():
    # y' = y, y(1) = 2 has coefficients 2/k! around x0 = 1.
    f = FlowExpr({(0, 1): 1})
    coeffs = taylor_coefficients(f, 1, 2, 6)
    fact = 1
    for k, c in enumerate(coeffs):
        fact *= max(k, 1)
        assert c == F(2, fact)


def test_series_consistency_worked_problems():
    assert_series_consistency(riccati_flow(), F(0), F(-1), 10)
    assert_series_consistency(quadratic_flow(), F(0), F(1), 5)


def test_series_consistency_random_ivps():
    rng = random.Random(99)
    for _ in range(10):
        f, x0, y0 = random_polynomial_ivp(rng)
        assert_series_consistency(f, x0, y0, rng.randint(1, 7))


# -- the Taylor-mode recurrence against the evaluated chain ---------------------

# Drawn independently, so the denominators of the a_ij, x0 and y0 mix.
flow_coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)
base_points = st.fractions(min_value=-2, max_value=2, max_denominator=9).filter(bool)
# Values whose reduced denominator is at least 2.
initial_values = st.integers(2, 9).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).filter(lambda p: p % d).map(lambda p: F(p, d))
)


@st.composite
def xy_flows(draw):
    """f = sum a_ij x^i y^j with i <= 3 and j <= 4."""
    table = {}
    for _ in range(draw(st.integers(1, 5))):
        table[draw(st.integers(0, 3)), draw(st.integers(0, 4))] = draw(flow_coefficients)
    return FlowExpr(table)


@settings(max_examples=60, deadline=None)
@given(xy_flows(), base_points, initial_values, st.integers(0, 25))
def test_recurrence_equals_chain_reference(f, x0, y0, n):
    chain = derivative_chain(f, max(n - 1, 0))
    coeffs = taylor_coefficients(f, x0, y0, n)
    assert coeffs == chain_coefficients(chain, x0, y0, n)
    assert all(type(c) is F for c in coeffs)
    assert derivative_values(f, x0, y0, n) == chain_values(chain, x0, y0, n)


# At x0 = 0 the shift adds no t^0 terms, so the scaling exponent
# q = max ceil(j / (i + 1)) can come from an x-dependent term alone.
@pytest.mark.parametrize("text", ["1/3*x*y^3 + 1/2", "2/5*x^3*y^4 - 1/7*x*y", "3/4*x^2*y^2"])
def test_recurrence_at_origin_equals_chain_reference(text):
    f = parse_flow_expr(text)
    chain = derivative_chain(f, 14)
    assert taylor_coefficients(f, 0, F(2, 7), 15) == chain_coefficients(chain, 0, F(2, 7), 15)


@pytest.mark.parametrize(
    "text, expected",
    [
        # The zero flow keeps y at y0.
        ("0", [F(2, 7)] + [F(0)] * 6),
        # A constant flow: y = y0 + (5/3) t.
        ("5/3", [F(2, 7), F(5, 3)] + [F(0)] * 5),
        # An x-only flow integrates: y' = 3/2 x^2 - 1/5 x around x0 = -1/3.
        ("3/2*x^2 - 1/5*x", [F(2, 7), F(7, 30), F(-3, 5), F(1, 2)] + [F(0)] * 3),
    ],
)
def test_recurrence_edge_flows(text, expected):
    f = parse_flow_expr(text)
    x0, y0 = F(-1, 3), F(2, 7)
    coeffs = taylor_coefficients(f, x0, y0, 6)
    assert coeffs == expected
    assert coeffs == chain_coefficients(derivative_chain(f, 5), x0, y0, 6)


def test_recurrence_rejects_negative_degree_and_derivative_symbols():
    for compute in (taylor_coefficients, derivative_values):
        with pytest.raises(ValueError):
            compute(riccati_flow(), 0, -1, -1)
        with pytest.raises(ExprError, match="y'"):
            compute(FlowExpr({(0, 1): 1, (0, 0, 1): 1}), 0, -1, 3)


# -- parser ---------------------------------------------------------------------


def test_parse_round_trip_shapes():
    f = parse_flow_expr("x^2 + 1/4*y^2")
    assert f == riccati_flow()
    assert parse_flow_expr("0.25*x + 0.25*y^2") == quadratic_flow()
    assert parse_flow_expr("-y + 2*x*y - 3") == (
        FlowExpr({(0, 1): -1})
        + FlowExpr({(1, 1): 2})
        + FlowExpr.constant(-3)
    )


def test_parse_errors_carry_position():
    with pytest.raises(ExprParseError, match="line 1, column 1"):
        parse_flow_expr("sin(x)")
    with pytest.raises(ExprParseError, match="unsupported token 'sin'"):
        parse_flow_expr("sin(x)")
    with pytest.raises(ExprParseError):
        parse_flow_expr("x +")
    with pytest.raises(ExprParseError):
        parse_flow_expr("")
    with pytest.raises(ExprParseError, match="zero denominator"):
        parse_flow_expr("1/0*x")
    with pytest.raises(ExprParseError, match="exponent"):
        parse_flow_expr("x^y")


def test_parse_digit_budget():
    # A number and its denominator count together; so does an exponent.
    assert parse_flow_expr("1" * 50 + "/" + "3" * 50 + "*x") == FlowExpr(
        {(1,): F(int("1" * 50), int("3" * 50))}
    )
    assert parse_flow_expr("0." + "0" * 98 + "1") == FlowExpr.constant(F(1, 10**99))
    for text, column in [
        ("x + " + "1" * 50 + "/" + "3" * 51, 5),
        ("x + 0." + "0" * 99 + "1", 5),
        ("x^" + "0" * 101, 3),
    ]:
        with pytest.raises(ExprParseError, match=f"column {column}: literal has 101 "):
            parse_flow_expr(text)
    # Counted before the zero test, which would convert the 5,000 digits.
    with pytest.raises(ExprParseError, match="column 1: literal has 5001 digits"):
        parse_flow_expr("1" * 5000 + "/0")


def test_parse_work_grows_linearly(monkeypatch):
    # Every c*x^i*y^j with i, j <= 64: 4,225 terms, the most distinct
    # monomials the exponent caps allow.  Each term joins its denominator to
    # the running lcm, and the FlowExpr is built once.  Rebuilding the sum and
    # the lcm of every coefficient at each term passed 8,927,425 denominators
    # to lcm, and took seconds.
    lcm_args, built, summed = [], [], odexpr._summed

    def counted_lcm(*values):
        lcm_args.append(len(values))
        return math.lcm(*values)

    def counted_summed(terms):
        built.append(1)
        return summed(terms)

    monkeypatch.setattr(odexpr, "lcm", counted_lcm)
    monkeypatch.setattr(odexpr, "_summed", counted_summed)
    terms = [f"{i % 7 + 1}/{j % 9 + 1}*x^{i}*y^{j}" for i in range(65) for j in range(65)]
    for n in (1000, 2000, 4225):
        lcm_args.clear()
        built.clear()
        f = parse_flow_expr(" + ".join(terms[:n]))
        assert len(f.monomials) == n
        assert sum(lcm_args) == 2 * n and len(built) == 1


def test_parse_rejects_unknown_operators():
    with pytest.raises(ExprParseError):
        parse_flow_expr("x @ y")
    with pytest.raises(ExprParseError):
        parse_flow_expr("x / 4")  # division only inside rational literals


def test_flow_expr_str_is_parseable_for_xy_exprs():
    f = riccati_flow() + FlowExpr({(1, 3): F(-3, 7)})
    assert parse_flow_expr(str(f)) == f
