"""Differential test: the derivative chain against sympy's total derivative.

For y' = f(x, y) with f = sum a_ij x^i y^j, D_1 = f and D_(k+1) = d/dx D_k,
where y is a function of x whose derivatives stay symbolic.  sympy
differentiates f(x, y(x)) directly; each derivative y^(j)(x) is then mapped to
a plain symbol Y_j, and D_1 .. D_6 of `derivative_chain` must expand to the
same polynomials.  Only `FlowExpr`'s public constructor and dense
`monomials` view connect the two computations.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taylorcert.odexpr import FlowExpr, derivative_chain

sympy = pytest.importorskip("sympy")

ORDERS = 6
X = sympy.Symbol("x")
Y_OF_X = sympy.Function("y")(X)
Y = sympy.symbols(f"Y0:{ORDERS}")
# Derivative(y(x), (x, j)) -> Y_j, y(x) -> Y_0.  xreplace works top-down, so a
# derivative is replaced whole before its inner y(x) could be.
TO_SYMBOLS = {
    Y_OF_X: Y[0],
    **{sympy.Derivative(Y_OF_X, (X, j)): Y[j] for j in range(1, ORDERS)},
}

# Denominators drawn independently, so the coefficients mix them.
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=30)
flows = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 4)), coefficients, min_size=1, max_size=5
)


def sympy_chain(table: dict[tuple[int, int], Fraction]) -> list:
    f = sum(
        sympy.Rational(a.numerator, a.denominator) * X**i * Y_OF_X**j
        for (i, j), a in table.items()
    )
    chain = [f]
    for _ in range(ORDERS - 1):
        chain.append(sympy.diff(chain[-1], X))
    return [sympy.expand(d.xreplace(TO_SYMBOLS)) for d in chain]


def as_sympy(expr: FlowExpr):
    total = sympy.Integer(0)
    for key, c in expr.monomials.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for slot, exp in enumerate(key):
            term *= (X if slot == 0 else Y[slot - 1]) ** exp
        total += term
    return total


@settings(max_examples=40, deadline=None)
@given(flows)
@example({(2, 0): Fraction(1), (0, 2): Fraction(1, 4)})  # the riccati flow
def test_chain_equals_sympy_total_derivative(table):
    chain = derivative_chain(FlowExpr(table), ORDERS - 1)
    expected = sympy_chain(table)
    assert len(chain) == len(expected) == ORDERS
    for k, (got, want) in enumerate(zip(chain.exprs, expected), start=1):
        assert got.order <= k - 1
        assert sympy.expand(as_sympy(got) - want) == 0, f"D_{k} differs"
