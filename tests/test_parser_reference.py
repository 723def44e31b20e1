"""The expression parser against the two classes it replaced.

`parse_flow_expr` reads the restricted text form with one eager tokenizer
function and one loop.  The reference below is the `_Tokenizer`/`_Parser`
pair it replaced, kept verbatim but for its `x^e` and `y^e` factors, which
the dense-key constructor builds now that `FlowExpr.monomial` is gone, plus
`_CappedParser`, which adds the three rules introduced since: in each term,
the exponents of each symbol sum to at most 64; a coefficient made of more
than one number, a term's product of constants or the sum of the terms with
one monomial, has at most 100 digits in lowest terms; and so has the common
denominator of the terms read so far.  Every drawn string must give the same
FlowExpr, monomial insertion order included, or the same exception type and
message.  Literals stay at 100 digits or fewer, within the literal budget,
and their digits are ASCII: the reference reads "٣" as 3 and fails on "²"
with a bare ValueError, where `parse_flow_expr` refuses both at the literal
(tests/test_literals.py).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from taylorcert.odexpr import ExprParseError, FlowExpr, parse_flow_expr

_MAX_EXPONENT = 64
_MAX_COEFFICIENT_DIGITS = 100


# -- reference: the tokenizer and parser classes parse_flow_expr replaced ------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _position(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        return line, pos - last_nl

    def error(self, message: str, pos: int | None = None) -> ExprParseError:
        line, col = self._position(self.pos if pos is None else pos)
        return ExprParseError(message, line, col)

    def tokens(self) -> list[tuple[str, str, int]]:
        out = []
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self.pos += 1
                continue
            start = self.pos
            if ch in "+-*^/()":
                out.append(("op", ch, start))
                self.pos += 1
            elif ch.isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
                if self.pos < len(text) and text[self.pos] == ".":
                    self.pos += 1
                    if self.pos >= len(text) or not text[self.pos].isdigit():
                        raise self.error("decimal point must be followed by digits")
                    while self.pos < len(text) and text[self.pos].isdigit():
                        self.pos += 1
                out.append(("number", text[start : self.pos], start))
            elif ch.isalpha():
                while self.pos < len(text) and text[self.pos].isalnum():
                    self.pos += 1
                out.append(("name", text[start : self.pos], start))
            else:
                raise self.error(f"unsupported character {ch!r}")
        out.append(("end", "", len(text)))
        return out


class _Parser:
    def __init__(self, text: str):
        self.tokenizer = _Tokenizer(text)
        self.toks = self.tokenizer.tokens()
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.idx]

    def advance(self) -> tuple[str, str, int]:
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def error(self, message: str, pos: int) -> ExprParseError:
        return self.tokenizer.error(message, pos)

    def parse(self) -> FlowExpr:
        expr = FlowExpr.zero()
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            self.advance()
        elif kind == "end":
            raise self.error("empty expression", pos)
        while True:
            term = self.parse_term()
            expr = expr + (term * FlowExpr.constant(-1) if sign < 0 else term)
            kind, value, pos = self.peek()
            if kind == "end":
                return expr
            if kind == "op" and value in "+-":
                sign = -1 if value == "-" else 1
                self.advance()
                continue
            raise self.error(f"expected '+' or '-' before {value!r}", pos)

    def parse_term(self) -> FlowExpr:
        term = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                term = term * self.parse_factor()
            else:
                return term

    def parse_factor(self) -> FlowExpr:
        kind, value, pos = self.advance()
        if kind == "number":
            return FlowExpr.constant(self.parse_number(value, pos))
        if kind == "name":
            if value not in ("x", "y"):
                raise self.error(
                    f"unsupported token {value!r} (only x, y and rational "
                    f"constants; no function calls or parentheses)",
                    pos,
                )
            exp = self.parse_exponent()
            if value == "x":
                return FlowExpr({(exp,): 1})
            return FlowExpr({(0, exp): 1})
        raise self.error(f"expected a factor, found {value!r}", pos)

    def parse_number(self, text: str, pos: int) -> Fraction:
        kind, value, slash_pos = self.peek()
        if kind == "op" and value == "/":
            if "." in text:
                raise self.error("ratio parts must be integers", slash_pos)
            self.advance()
            kind, denom, dpos = self.advance()
            if kind != "number" or "." in denom:
                raise self.error("expected an integer denominator", dpos)
            if int(denom) == 0:
                raise self.error("zero denominator", dpos)
            return Fraction(int(text), int(denom))
        return Fraction(text)

    def parse_exponent(self) -> int:
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "number" or "." in value or "/" in value:
                raise self.error("exponent must be a nonnegative integer", pos)
            exp = int(value)
            if exp > _MAX_EXPONENT:
                raise self.error(f"exponent {exp} exceeds limit {_MAX_EXPONENT}", pos)
            return exp
        return 1


class _CappedParser(_Parser):
    """The verbatim parser with each symbol's exponents summed over a term,
    and each coefficient's digits counted once a second number joins it.

    An exponent sum above _MAX_EXPONENT is refused at the factor that crosses
    it: at its exponent, or at the bare symbol.  The message names the sum, so
    a single exponent above the cap reads as before.  A product of constants
    past _MAX_COEFFICIENT_DIGITS is refused at the number that crosses it, a
    sum of terms at the first factor of the term that crosses it, and so is a
    common denominator of the monomials past as many digits.
    """

    def parse(self) -> FlowExpr:
        coefficients: dict[tuple[int, ...], Fraction] = {}
        expr, sign = FlowExpr.zero(), 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            self.advance()
        elif kind == "end":
            raise self.error("empty expression", pos)
        while True:
            term_pos = self.peek()[2]
            term = self.parse_term()
            expr = expr + (term * FlowExpr.constant(-1) if sign < 0 else term)
            den = lcm(*(c.denominator for c in expr.monomials.values()))
            if len(str(den)) > _MAX_COEFFICIENT_DIGITS:
                raise self.error(
                    f"common denominator has over {_MAX_COEFFICIENT_DIGITS} digits",
                    term_pos,
                )
            for key, c in term.monomials.items():
                if key in coefficients and sign * c + coefficients[key]:
                    self.check_coefficient(sign * c + coefficients[key], term_pos)
                coefficients[key] = coefficients.get(key, 0) + sign * c
                if not coefficients[key]:
                    del coefficients[key]
            kind, value, pos = self.peek()
            if kind == "end":
                return expr
            if kind == "op" and value in "+-":
                sign = -1 if value == "-" else 1
                self.advance()
                continue
            raise self.error(f"expected '+' or '-' before {value!r}", pos)

    def check_coefficient(self, q: Fraction, pos: int) -> None:
        if len(str(abs(q.numerator))) + len(str(q.denominator)) > _MAX_COEFFICIENT_DIGITS:
            raise self.error(
                f"coefficient has over {_MAX_COEFFICIENT_DIGITS} digits in lowest terms",
                pos,
            )

    def parse_term(self) -> FlowExpr:
        self.sums: dict[str, int] = {}
        self.constant: Fraction | None = None
        return super().parse_term()

    def parse_factor(self) -> FlowExpr:
        kind, value, pos = self.peek()
        if kind == "number":
            factor = super().parse_factor()
            q = factor.monomials.get((), Fraction(0))
            if self.constant is not None:
                self.check_coefficient(self.constant * q, pos)
            self.constant = q if self.constant is None else self.constant * q
            return factor
        if kind != "name" or value not in ("x", "y"):
            return super().parse_factor()
        self.advance()
        exp = 1
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, digits, pos = self.advance()
            if kind != "number" or "." in digits:
                raise self.error("exponent must be a nonnegative integer", pos)
            exp = int(digits)
        total = self.sums[value] = self.sums.get(value, 0) + exp
        if total > _MAX_EXPONENT:
            raise self.error(f"exponent {total} exceeds limit {_MAX_EXPONENT}", pos)
        if value == "x":
            return FlowExpr({(exp,): 1})
        return FlowExpr({(0, exp): 1})


def reference_parse(text: str) -> FlowExpr:
    return _CappedParser(text).parse()


def outcome(parse, text: str):
    try:
        expr = parse(text)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return repr(expr), str(expr)


# -- strategies ------------------------------------------------------------------

PIECES = [
    " ", "  ", "\t", "\n", "\r\n", "+", "-", "*", "^", "/", "(", ")", ".",
    "x", "y", "z", "xy", "x2", "sin", "exp", "y'", "e", "E", "_",
    "0", "1", "2", "7", "00", "10", "64", "65", "0.25", "3.", ".5", "1.50",
    "1/4", "-3/7", "2/0", "1e5", "1E-3", "1_000", "\u00e9", "$", "@", "#",
    ",", "=", "\"",
]

pieces = st.one_of(
    st.sampled_from(PIECES),
    st.integers(0, 10**40).map(str),
    st.characters(codec="utf-8", max_codepoint=0x3FF).filter(
        lambda ch: ch.isascii() or not ch.isdigit()
    ),
)


def longest_digit_run(text: str) -> int:
    return max((len(list(run)) for digit, run in groupby(text, str.isdigit) if digit),
               default=0)


expressions = st.lists(pieces, max_size=30).map("".join).filter(
    lambda text: longest_digit_run(text) <= 50
)

integers = st.integers(0, 10**40).map(str)
numbers = st.one_of(
    integers,
    st.tuples(integers, integers).map("/".join),
    st.tuples(integers, st.integers(0, 10**20)).map(lambda p: f"{p[0]}.{p[1]}"),
)
powers = st.tuples(st.sampled_from("xy"), st.sampled_from(["", "^0", "^3", "^64"]))
factors = st.one_of(numbers, powers.map("".join))
terms = st.lists(factors, min_size=1, max_size=4).map("*".join)
spaces = st.sampled_from(["", " ", "\n", " \n "])
sums = st.lists(st.tuples(st.sampled_from(["+", "-", ""]), spaces, terms), min_size=1,
                max_size=6).map(lambda parts: "".join(s + w + t for s, w, t in parts))


@st.composite
def mutated_sums(draw):
    """A well-formed sum with one piece inserted, replaced or deleted."""
    text = draw(sums)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(st.one_of(st.just(""), pieces)) + text[j:]


# -- tests -----------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(expressions)
def test_parser_matches_reference_on_pieces(text):
    assert outcome(parse_flow_expr, text) == outcome(reference_parse, text)


@settings(max_examples=500, deadline=None)
@given(st.one_of(sums, mutated_sums().filter(lambda t: longest_digit_run(t) <= 50)))
def test_parser_matches_reference_on_sums(text):
    assert outcome(parse_flow_expr, text) == outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        "x^2 + 1/4*y^2",
        "-y + 2*x*y - 3",
        "x - x + y + x",  # insertion order (y, x)
        "0*x + y",
        "x + ) $",  # the bad character wins over the earlier grammar error
        "x +\n 2.",
        "1.5/3",
        "1/2.5",
        "1/0*x",
        "1/x",
        "x^65",
        "x^1.5",
        "x^",
        "2x",
        "x y",
        "(x)",
        "",
        "  \n ",
        "-",
        "x*",
        "y^64*x^64",
        "x^64*x",  # each symbol's exponents sum over a term
        "x^60*x^5*y",
        "x^60*x^65",
        "y^64*y^0*x^64 + x^32*x^32",
        "x^64*x - x^64*x",
        "2*x^40*3*y*x^30",
        # coefficients made of more than one number: at most 100 digits
        "1/" + "9" * 99 + "*1/" + "7" * 99 + "*x",
        "1/" + "9" * 99 + "*x + y + 1/" + "7" * 99 + "*x",
        "1/" + "9" * 99 + "*x - 1/" + "9" * 99 + "*x + 1/" + "7" * 99 + "*x",
        "9." + "9" * 98 + "*x",  # one number: 199 digits in lowest terms
        "9." + "9" * 98 + "*x*1",
        "2/" + "3" * 49 + "*x*" + "3" * 49 + "/4*y",
        "1/" + "9" * 49 + "*" + "7" * 51,  # 100 digits in lowest terms
        "1/" + "9" * 50 + "*" + "7" * 51,  # 101
        # the common denominator of the terms: at most 100 digits
        "1/" + "9" * 50 + "*x + 1/" + "3" * 51 + "*y",  # 100 digits
        "1/" + "9" * 50 + "*x + 1/" + "7" * 51 + "*y",  # 101
        "1/" + "9" * 50 + "*x + 1/" + "7" * 51 + "*y - 1/" + "7" * 51 + "*y",
        "y + 1/" + "9" * 50 + "*x - 1/" + "9" * 50 + "*x + 1/" + "7" * 51 + "*x^2",
        "x + é",
    ],
)
def test_parser_matches_reference_on_fixed_cases(text):
    assert outcome(parse_flow_expr, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text", ["²", "²/3", "٣/٤"])
def test_parser_refuses_non_ascii_literals(text):
    """The reference fails on these with a bare ValueError, or reads ٣/٤ as
    3/4; the parser refuses each at the literal."""
    with pytest.raises(ExprParseError) as info:
        parse_flow_expr(text)
    assert (info.value.line, info.value.column) == (1, 1)
    assert str(info.value) == (
        f"line 1, column 1: expected an integer, p/q or decimal, got {text!r}"
    )


def test_insertion_order_follows_first_surviving_term():
    assert list(parse_flow_expr("x - x + y + x").monomials) == [(0, 1), (1,)]
