"""One literal rule: a digit that is not ASCII is refused wherever a number is
read.

`str.isdigit` holds for Unicode decimal digits such as "٣", which `int` and
`Fraction` read as 3, and for superscripts such as "²", which they refuse
with a bare ValueError.  The expression tokenizer takes both as digits, and
every literal it forms goes to `ratcore.as_rational`, which refuses
non-ASCII text; so do the problem fields, the flags, `degree` and
`DecimalRounding.parse`.
"""

from contextlib import redirect_stderr, redirect_stdout
import io

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from taylorcert.cli import run
from taylorcert.odexpr import ExprParseError, parse_flow_expr
from taylorcert.ratcore import DecimalRounding, as_rational

MESSAGE = "expected an integer, p/q or decimal, got {!r}"

wide_digits = st.characters(categories=["Nd", "No"]).filter(
    lambda ch: ch.isdigit() and not ch.isascii()
)
digits = st.text(st.one_of(st.sampled_from("0123456789"), wide_digits), max_size=4)
# An integer literal with at least one digit that is not ASCII.
wide_integers = st.tuples(digits, wide_digits, digits).map("".join)
integers = st.integers(0, 10**6).map(str)
literals = st.one_of(
    wide_integers,
    st.tuples(wide_integers, integers).map("/".join),
    st.tuples(integers, wide_integers).map("/".join),
    st.tuples(wide_integers, integers).map(".".join),
    st.tuples(integers, wide_integers).map(".".join),
)
prefixes = st.sampled_from(["", "y^2 + ", "-", "x -\n  1/2*"])


def assert_refused_at(text: str, offset: int, literal: str) -> None:
    with pytest.raises(ExprParseError) as info:
        parse_flow_expr(text)
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: " + MESSAGE.format(literal)


@settings(max_examples=300, deadline=None)
@given(prefixes, literals)
def test_parser_refuses_wide_numbers_at_the_literal(prefix, literal):
    assert_refused_at(f"{prefix}{literal}*x + y^2", len(prefix), literal)


@settings(max_examples=300, deadline=None)
@given(prefixes, st.sampled_from("xy"), wide_integers)
def test_parser_refuses_wide_exponents_at_the_exponent(prefix, symbol, exponent):
    text = f"{prefix}{symbol}^{exponent} + 1"
    assert_refused_at(text, len(prefix) + 2, exponent)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "-", " "]), literals)
def test_as_rational_and_rounding_refuse_wide_digits(sign, literal):
    with pytest.raises(ValueError, match="expected an integer, p/q or decimal"):
        as_rational(sign + literal)
    with pytest.raises(ValueError, match="rounding must be"):
        DecimalRounding.parse("outward:" + literal)


PROBLEM = {
    "f": '"x^2 + 1/4*y^2"',
    "x0": '"0"',
    "y0": '"-1"',
    "degree": "9",
    "x1": '"1/5"',
    "r1": '"1/2"',
    "r2": '"1"',
    "rounding": '"exact"',
    "width": '"1/1000000000000"',
}


def cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def write_problem(path, **fields: str) -> str:
    text = "".join(f"{key} = {value}\n" for key, value in {**PROBLEM, **fields}.items())
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("literals") / "flow.prob"


def test_the_base_problem_certifies(problem_path):
    assert cli(["coeffs", write_problem(problem_path)]) == (0, "")


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["f", "x0", "y0", "x1", "r1", "r2", "width", "degree", "rounding"]),
    literals,
    wide_integers,
)
def test_cli_refuses_wide_digits_in_every_field(problem_path, key, literal, integer):
    value = {
        "f": f'"{literal}*x + y^2"',
        "degree": integer,
        "rounding": f'"outward:{integer}"',
    }.get(key, f'"{literal}"')
    message = {
        "degree": "field 'degree' must be an integer",
        "rounding": "field 'rounding': rounding must be",
    }.get(key, MESSAGE.format(literal))
    code, err = cli(["coeffs", write_problem(problem_path, **{key: value})])
    assert code == 1
    assert err.startswith("input error: ") and f"field {key!r}" in err and message in err


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        [("coeffs", "--width"), ("coeffs", "--rounding"), ("oracle", "--at"),
         ("oracle", "--tol")]
    ),
    literals,
)
def test_cli_refuses_wide_digits_in_every_flag(problem_path, command_flag, literal):
    command, flag = command_flag
    message = MESSAGE.format(literal)
    if flag == "--rounding":
        literal = f"outward:{literal}"
        message = f"rounding must be 'exact' or 'outward:D', got {literal!r}"
    argv = [command, write_problem(problem_path), flag, literal]
    if flag == "--tol":
        argv += ["--at", "1/10"]
    assert cli(argv) == (1, f"input error: {flag}: {message}\n")


@pytest.mark.parametrize("literal", ["1 / 2", "1 /2", "1/ 2", "1\t/2", "- 1", "1. 5"])
def test_as_rational_refuses_inner_whitespace(literal):
    # Fraction reads "1 / 2" as 1/2 from Python 3.12 on and refuses it before,
    # so the literal grammar would depend on the interpreter.
    with pytest.raises(ValueError) as info:
        as_rational(literal)
    assert str(info.value) == MESSAGE.format(literal)


def test_as_rational_strips_outer_whitespace():
    assert as_rational(" 1/2 ") == as_rational("\t1/2\n") == as_rational("1/2")
