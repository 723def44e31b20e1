"""The public face of FlowExpr, pinned byte for byte.

`repr`, `str`, `terms()`, `order` and the dense `.monomials` dict, insertion
order included, are pinned for the flows of `problems/*.prob`, the first six
derivative-chain expressions of two flows and a few arithmetic results.  The
oracle sums its terms in `.monomials` order, so that order is part of the
interface.  `==` and `hash` must agree however an expression was built.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import quadratic_flow, riccati_flow
from taylorcert.cli import parse_problem
from taylorcert.odexpr import FlowExpr, derivative_chain, parse_flow_expr

F = Fraction
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def describe(expr: FlowExpr) -> str:
    return "\n".join(
        [
            repr(expr),
            str(expr),
            repr(list(expr.monomials.items())),
            repr(list(expr.terms())),
            repr(expr.order),
        ]
    )


def digest(exprs) -> str:
    text = "\n--\n".join(describe(e) for e in exprs)
    return hashlib.sha256(text.encode()).hexdigest()


def mixed() -> FlowExpr:
    return FlowExpr({(0, 2): F(1, 6), (1,): F(-2, 9), (): F(5, 4), (2, 0, 1): 3})


def arithmetic_results() -> list[FlowExpr]:
    d4 = derivative_chain(riccati_flow(), 3)[3]
    m = mixed()
    return [
        m,
        m * m - m * FlowExpr.constant(3),
        -m + FlowExpr({(0, 0, 1): 1}) * FlowExpr.constant(F(7, 10)),
        d4.partial(1),
        d4.partial(2),
        d4 * quadratic_flow(),
        m.flow_derivative().flow_derivative(),
    ]


# Recorded with the dense Fraction-keyed representation.
DIGESTS = {
    "problems": "c68ed6f1085b791da1ffa9ef500f3e3af712df2eda9ce91607ba24a8a80a406f",
    "riccati-chain-5": "026db14cccdff5b28b23023dbe545db9cccd27ca8607a73ab259b1ffa0f1adf7",
    "quadratic-chain-5": "02305f52a4c3452befe69bdcf497d97cbfe733878b655b5253efdec18c0661d2",
    "arithmetic": "3b0f77772c783ef0811092732e22fe4c44d6993f78af7b2e5e53b7c639658973",
}


def cases() -> dict[str, list[FlowExpr]]:
    problems = [
        parse_problem(path.read_text()).f for path in sorted(PROBLEMS.glob("*.prob"))
    ]
    return {
        "problems": problems,
        "riccati-chain-5": list(derivative_chain(riccati_flow(), 5).exprs),
        "quadratic-chain-5": list(derivative_chain(quadratic_flow(), 5).exprs),
        "arithmetic": arithmetic_results(),
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_public_face_is_pinned(name):
    assert digest(cases()[name]) == DIGESTS[name]


def test_riccati_chain_literals():
    d = derivative_chain(riccati_flow(), 2)
    assert repr(d[0]) == "FlowExpr({(2,): Fraction(1, 1), (0, 2): Fraction(1, 4)})"
    assert str(d[1]) == "1/2*y*y' + 2*x"
    assert list(d[2].monomials.items()) == [
        ((), F(2)),
        ((0, 0, 2), F(1, 2)),
        ((0, 1, 0, 1), F(1, 2)),
    ]
    assert (d[0].order, d[1].order, d[2].order) == (0, 1, 2)
    assert FlowExpr.constant(3).order == FlowExpr({(1,): 1}).order == -1


def test_quadratic_problem_literals():
    f = parse_problem((PROBLEMS / "quadratic.prob").read_text()).f
    assert repr(f) == "FlowExpr({(1,): Fraction(1, 4), (0, 2): Fraction(1, 4)})"
    assert str(f) == "1/4*y^2 + 1/4*x"
    assert str(FlowExpr.zero()) == "0" and repr(FlowExpr.zero()) == "FlowExpr({})"


def test_hash_is_the_frozenset_of_dense_monomials():
    for exprs in cases().values():
        for e in exprs:
            assert hash(e) == hash(frozenset(e.monomials.items()))


def test_equality_and_hash_agree_across_construction_paths():
    half = FlowExpr({(1,): F(1, 2)})
    x = half + half
    for other in (FlowExpr({(1,): 1}), FlowExpr({(1, 0, 0): 1}), parse_flow_expr("x")):
        assert x == other and hash(x) == hash(other)
    assert x.monomials == {(1,): F(1)}
    for exprs in cases().values():
        for e in exprs:
            rebuilt = FlowExpr(e.monomials)
            assert rebuilt == e and hash(rebuilt) == hash(e)
            assert list(rebuilt.monomials.items()) == list(e.monomials.items())
            padded = FlowExpr({key + (0, 0): str(c) for key, c in e.monomials.items()})
            assert padded == e and hash(padded) == hash(e)
    f = riccati_flow()
    assert f - f == FlowExpr.zero() and hash(f - f) == hash(FlowExpr.zero())
    assert f * FlowExpr.constant(0) == FlowExpr.zero()
    assert FlowExpr.constant(F(6, 4)) == FlowExpr({(): F(3, 2)})
    assert (f != FlowExpr({(1,): 1})) and f != f * FlowExpr.constant(2)
    assert FlowExpr({(2, 0, 1, 0): "1/3"}) == FlowExpr({(2, 0, 1): F(1, 3)})
