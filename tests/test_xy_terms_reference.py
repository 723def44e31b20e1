"""`FlowExpr.xy_terms` and its readers against verbatim copies of the code
they replaced.

`extract_comparison` froze x := x1 with `FlowExpr.subs_x` and matched the
dense keys `()` and `(0, 2)`; `parse_poly_file` read `key[0]` from
`.monomials`.  Both now read `xy_terms()`, the one view of a flow's terms
outside `odexpr`.  The references below are the earlier code, kept verbatim
(`subs_x` as a function of the expression).  Each rewrite must give an equal
result, or raise the same exception type with the same message.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_sparse, sparse_view
from taylorcert.cli import InputError, _parsed, parse_poly_file
from taylorcert.comparison import (
    ComparisonFormError,
    QuadraticComparison,
    extract_comparison,
)
from taylorcert.odexpr import ExprError, FlowExpr, _require_xy, parse_flow_expr
from taylorcert.ratcore import RationalLike, as_rational

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "taylorcert"


# -- references: the code the rewrite replaced ----------------------------------


def reference_subs_x(self, value: RationalLike) -> "FlowExpr":
    """Substitute x := value exactly, leaving derivative symbols symbolic."""
    v = as_rational(value)
    terms = sparse_view(self)
    x_exps = [dict(key).get(0, 0) for key in terms]
    top = max(x_exps, default=0)
    num = {}
    for (key, n), e in zip(terms.items(), x_exps):
        key = key[1:] if e else key
        num[key] = num.get(key, 0) + n * v.numerator**e * v.denominator ** (top - e)
    return from_sparse({key: n / v.denominator**top for key, n in num.items()})


def reference_extract_comparison(
    f: FlowExpr,
    x0: RationalLike,
    x1: RationalLike,
    y0: RationalLike,
) -> QuadraticComparison:
    """Freeze x := x1 in f and extract alpha + beta * y^2.

    A right-hand side with a derivative symbol raises ExprError.  Any
    residual monomial (x powers are gone after substitution) that is not the
    constant or the pure y^2 term is rejected by name, as are nonpositive
    alpha or beta.
    """
    _require_xy(f)
    x0, x1, y0 = as_rational(x0), as_rational(x1), as_rational(y0)
    frozen = reference_subs_x(f, x1)
    alpha = beta = Fraction(0)
    for key, coeff in frozen.monomials.items():
        if key == ():
            alpha = coeff
        elif key == (0, 2):
            beta = coeff
        else:
            raise ComparisonFormError(
                f"unsupported monomial {coeff}*{FlowExpr({key: 1})} "
                f"after freezing x = {x1}"
            )
    if alpha <= 0:
        raise ComparisonFormError(f"constant term alpha = {alpha} is not positive")
    if beta <= 0:
        raise ComparisonFormError(f"y^2 coefficient beta = {beta} is not positive")
    return QuadraticComparison(alpha=alpha, beta=beta, x0=x0, x1=x1, y0=y0)


def reference_parse_poly_file(text: str) -> list[Fraction]:
    """Parse a polynomial in x (restricted expression form) to coefficients.

    The parser's exponent cap keeps the degree within MAX_POLY_DEGREE (64).
    """
    stripped = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    expr = _parsed("polynomial file", parse_flow_expr, stripped)
    if expr.order >= 0:
        raise InputError("polynomial file: only the variable x is allowed")
    coeffs: list[Fraction] = []
    for key, coeff in expr.monomials.items():
        power = key[0] if key else 0
        while len(coeffs) <= power:
            coeffs.append(Fraction(0))
        coeffs[power] = coeff
    return coeffs or [Fraction(0)]


# -- helpers -----------------------------------------------------------------------


def outcome(call, *args):
    """The call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def abscissas(draw) -> Fraction:
    """x1: small, zero, or with a denominator of about 40 digits."""
    return draw(
        st.one_of(
            st.fractions(min_value=-3, max_value=3, max_denominator=12),
            st.builds(
                lambda n, d: F(n, 10**40 + d),
                st.integers(-(10**40), 10**40),
                st.integers(1, 10**6),
            ),
        )
    )


@st.composite
def frozen_cases(draw) -> tuple[FlowExpr, Fraction]:
    """A flow in x and y of x- and y-degree up to 4, and x1.

    Some terms come in pairs that cancel at x1: c*x^i*y^j and
    -c*x1^(i-k)*x^k*y^j.  Either may be drawn, so alpha or beta can be zero.
    The flow is built term by term with `+`, in the drawn order.
    """
    x1 = draw(abscissas())
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        i, j, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(coefficients)
        terms.append((i, j, c))
        if i and draw(st.booleans()):
            k = draw(st.integers(0, i - 1))
            terms.insert(draw(st.integers(0, len(terms))), (k, j, -c * x1 ** (i - k)))
    f = FlowExpr.zero()
    for i, j, c in terms:
        f = f + FlowExpr({(i, j): c})
    return f, x1


# -- the rewrites against the references ----------------------------------------


@settings(max_examples=400, deadline=None)
@given(frozen_cases(), st.fractions(min_value=-2, max_value=2, max_denominator=9))
def test_extract_comparison_matches_reference(case, y0):
    f, x1 = case
    x0 = x1 - 1
    got = outcome(extract_comparison, f, x0, x1, y0)
    assert got == outcome(reference_extract_comparison, f, x0, x1, y0)
    if isinstance(got, QuadraticComparison):
        assert type(got.alpha) is type(got.beta) is Fraction


@pytest.mark.parametrize(
    "text, x1",
    [
        ("x^2 + 1/4*y^2", F(1, 5)),
        ("1/4*x + 1/4*y^2", F(2, 5)),
        ("x*y + y^3 + 1 + y^2", F(1, 2)),  # the first unsupported power is y
        ("y^3 + x*y + 1 + y^2", F(1, 2)),  # ... and here y^3
        ("x - 1/2 + y^2", F(1, 2)),  # alpha = 0
        ("1 + x*y^2 - y^2", F(1)),  # beta = 0
        ("-1 - y^2", F(0)),
        ("x*y^4 + 1 + y^2", F(0)),  # y^4 vanishes at x1 = 0
        ("1 + 2*y^2 + x^2*y - 7/3*x*y", F(7, 3)),  # the y terms cancel at x1
        ("y'", F(1)),  # a derivative symbol: ExprError
    ],
)
def test_extract_comparison_fixed_cases(text, x1):
    f = FlowExpr({(0, 0, 1): 1}) if text == "y'" else parse_flow_expr(text)
    got = outcome(extract_comparison, f, 0, x1, 0)
    assert got == outcome(reference_extract_comparison, f, 0, x1, 0)


@st.composite
def poly_texts(draw) -> str:
    """Polynomial files: terms in x (some repeated, some cancelling), now and
    then a y term, comments and line breaks."""
    pieces = []
    for _ in range(draw(st.integers(1, 7))):
        c = draw(coefficients)
        factor = draw(st.sampled_from(["x", "x^2", "x^4", "x^7", "1", "y"]))
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {abs(c)}*{factor}")
        if draw(st.booleans()):
            pieces.append(draw(st.sampled_from(["# note\n", "\n"])))
    return " ".join(pieces).lstrip("+ ")


@settings(max_examples=300, deadline=None)
@given(poly_texts())
def test_parse_poly_file_matches_reference(text):
    assert outcome(parse_poly_file, text) == outcome(reference_parse_poly_file, text)


@pytest.mark.parametrize("text", ["0", "x - x", "1/2*x^5", "3 + x^64", "1 + y", "x^65"])
def test_parse_poly_file_fixed_cases(text):
    assert outcome(parse_poly_file, text) == outcome(reference_parse_poly_file, text)


# -- the term view ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(frozen_cases())
def test_xy_terms_follow_monomials_order(case):
    f = case[0]
    expected = [((*key, 0, 0)[0], (*key, 0, 0)[1], c) for key, c in f.monomials.items()]
    assert f.xy_terms() == expected
    assert all(type(c) is Fraction and c for _, _, c in f.xy_terms())


def test_xy_terms_refuse_derivative_symbols():
    assert parse_flow_expr("2*x^3*y - 1/3").xy_terms() == [(3, 1, F(2)), (0, 0, F(-1, 3))]
    assert FlowExpr.zero().xy_terms() == []
    with pytest.raises(ExprError, match="derivative symbol y'"):
        (parse_flow_expr("x") + FlowExpr({(0, 0, 1): 1})).xy_terms()


# -- one reader of the storage ---------------------------------------------------

STORAGE = {"_monomials", "_summed", "_trimmed", "monomials"}


def names_used(tree: ast.AST) -> set[str]:
    """Attribute, bare, imported and function names in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.FunctionDef):
            found.add(node.name)
    return found


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda path: path.name
)
def test_only_odexpr_reads_flow_storage(path):
    names = names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert not names & {"subs_x", "monomial"}
    if path.name != "odexpr.py":
        assert not names & STORAGE


def test_comparison_stage_is_mapped_once():
    # The mapping of ComparisonFormError to the "comparison" stage lives in
    # certify alone; the CLI's range command calls it.
    uses = 0
    for name in ("certify.py", "cli.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        uses += sum(
            isinstance(node, ast.Attribute) and node.attr == "ComparisonFormError"
            for node in ast.walk(tree)
        )
    assert uses == 1
