"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from taylorcert import FlowExpr, ProblemSpec, parse_flow_expr
from taylorcert.odexpr import DerivativeChain
from taylorcert.ratcore import (
    DecimalRounding,
    RatInterval,
    _ordered,
    as_rational,
    pow_endpoints,
)

# -- references: interval power and outward rounding ------------------------
#
# Verbatim copies of the former `RatInterval.int_pow` and
# `DecimalRounding.apply`, so that the Fraction reference loops of the tests
# keep their own copy of both.


def int_pow(interval: RatInterval, exponent: int) -> RatInterval:
    """Tightest enclosure of {t**exponent : t in interval}, exponent >= 0.

    Even powers of straddling intervals have lower endpoint exactly 0.
    """
    if exponent < 0:
        raise ValueError("int_pow exponent must be nonnegative")
    if exponent == 0:
        return _ordered(Fraction(1), Fraction(1))
    if exponent == 1:
        return interval
    lo, hi = pow_endpoints(interval.lo, interval.hi, exponent)
    return _ordered(Fraction(lo), hi)


def apply_rounding(rounding: DecimalRounding, interval: RatInterval) -> RatInterval:
    if rounding.is_exact:
        return interval
    return RatInterval(rounding.round_down(interval.lo), rounding.round_up(interval.hi))


# -- worked problems --------------------------------------------------------


def riccati_flow() -> FlowExpr:
    return parse_flow_expr("x^2 + 1/4*y^2")


def quadratic_flow() -> FlowExpr:
    return parse_flow_expr("1/4*x + 1/4*y^2")


@pytest.fixture
def riccati_problem() -> ProblemSpec:
    return ProblemSpec(
        f=riccati_flow(),
        x0=Fraction(0),
        y0=Fraction(-1),
        degree=9,
        x1=Fraction(1, 5),
        r1=Fraction(1, 2),
        r2=Fraction(1),
    )


@pytest.fixture
def riccati_problem_parity() -> ProblemSpec:
    return ProblemSpec(
        f=riccati_flow(),
        x0=Fraction(0),
        y0=Fraction(-1),
        degree=9,
        x1=Fraction(1, 5),
        r1=Fraction(1, 2),
        r2=Fraction(1),
        rounding=DecimalRounding.outward(2),
    )


@pytest.fixture
def quadratic_problem() -> ProblemSpec:
    return ProblemSpec(
        f=quadratic_flow(),
        x0=Fraction(0),
        y0=Fraction(1),
        degree=5,
        x1=Fraction(2, 5),
    )


# Exact Taylor data for the first problem, cross-validated three independent
# ways (symbolic chain evaluation, power-series recurrence, closed-form /
# integrator reference).
RICCATI_COEFFS = [
    Fraction(-1),
    Fraction(1, 4),
    Fraction(-1, 16),
    Fraction(67, 192),
    Fraction(-35, 768),
    Fraction(69, 5120),
    Fraction(-239, 61440),
    Fraction(26171, 5160960),
    Fraction(-3267, 2293760),
    Fraction(39803, 82575360),
    Fraction(-28687, 183500800),
]

RICCATI_DERIVS = [
    Fraction(1, 4),
    Fraction(-1, 8),
    Fraction(67, 32),
    Fraction(-35, 32),
    Fraction(207, 128),
    Fraction(-717, 256),
    Fraction(26171, 1024),
    Fraction(-29403, 512),
    Fraction(358227, 2048),
    Fraction(-2323647, 4096),
]

QUADRATIC_COEFFS = [
    Fraction(1),
    Fraction(1, 4),
    Fraction(3, 16),
    Fraction(7, 192),
    Fraction(1, 96),
    Fraction(19, 5120),
]

# High-precision reference values (30-digit computations, frozen regressions).
RICCATI_Y_AT_02 = Fraction("-0.949777124963433388702314810954")
QUADRATIC_Y_AT_04 = Fraction("1.13264311060480852815485783362")

# -- univariate polynomial helpers (exact, coefficient lists in x) ----------


def poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_scale(a: list[Fraction], factor: Fraction) -> list[Fraction]:
    return [factor * c for c in a]


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_pow(a: list[Fraction], exponent: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(exponent):
        out = poly_mul(out, a)
    return out


def poly_diff(a: list[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(a)][1:] or [Fraction(0)]


def compose_flow(f: FlowExpr, p: list[Fraction]) -> list[Fraction]:
    """Coefficients of x -> f(x, p(x)) for an x/y-only FlowExpr."""
    total: list[Fraction] = [Fraction(0)]
    for key, coeff in f.monomials.items():
        e_x = key[0] if len(key) >= 1 else 0
        e_y = key[1] if len(key) >= 2 else 0
        term = poly_pow(p, e_y)
        term = poly_mul(term, [Fraction(0)] * e_x + [Fraction(1)]) if e_x else term
        total = poly_add(total, poly_scale(term, coeff))
    return total


def random_polynomial_ivp(rng):
    """A small random x/y-polynomial flow with rational base point and value."""
    table = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, 2), rng.randint(0, 2))
        table[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    f = FlowExpr(table)
    x0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    y0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return f, x0, y0


# -- the sparse view of a FlowExpr -------------------------------------------
#
# FlowExpr once keyed its integer numerators by sparse keys, the
# (slot, exponent) pairs of a monomial's nonzero exponents in slot order:
# (0, 2, 1) was ((1, 2), (2, 1)).  The verbatim references of the loops that
# walked them walk this view of `.monomials` instead.


def sparse_view(expr: FlowExpr) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """expr's coefficients keyed by sparse keys, in `.monomials` order."""
    return {
        tuple((slot, exp) for slot, exp in enumerate(key) if exp): coeff
        for key, coeff in expr.monomials.items()
    }


def from_sparse(terms) -> FlowExpr:
    """The FlowExpr of coefficients keyed by sparse keys, in their order."""
    dense = {}
    for key, coeff in terms.items():
        exps, size = dict(key), key[-1][0] + 1 if key else 0
        dense[tuple(exps.get(slot, 0) for slot in range(size))] = coeff
    return FlowExpr(dense)


# -- the derivative chain at x0: reference for the Taylor-mode recurrence ----
#
# `DerivativeChain.values` and `DerivativeChain.coefficients` as they were
# before `taylor_coefficients` moved to the integer recurrence, kept verbatim
# as functions of the chain.


def chain_values(chain: DerivativeChain, x0, y0, n: int) -> list[Fraction]:
    """Exact values [y'(x0), ..., y^(n)(x0)] for 0 <= n <= len(chain).

    The point case of `bounds`: D_k is evaluated at x0 and the values
    already found for the symbols below y^(k), starting from y(x0) = y0.
    """
    if not 0 <= n <= len(chain):
        raise ValueError(f"need 0 <= n <= {len(chain)}, got {n}")
    point = DerivativeChain(chain.exprs[:n])
    bounds = point.bounds(RatInterval.point(x0), RatInterval.point(y0))
    return [bound.lo for bound in bounds]


def chain_coefficients(chain: DerivativeChain, x0, y0, n: int) -> list[Fraction]:
    """Exact Taylor coefficients [c_0 ... c_n] at x0, c_k = y^(k)(x0) / k!."""
    values = enumerate(chain_values(chain, x0, y0, n), start=1)
    return [as_rational(y0)] + [v / factorial(k) for k, v in values]


def assert_series_consistency(f: FlowExpr, x0: Fraction, y0: Fraction, n: int):
    """p' - f(x, p) vanishes through x^(n-1) for the degree-n partial sum.

    Shifting u := x - x0 recenters the problem at 0 (binomial expansion of
    the x powers), so the residual check runs on plain power series.  This is
    an independent check of the coefficients: convolution instead of the
    Leibniz recurrence.
    """
    from math import comb

    from taylorcert.odexpr import taylor_coefficients

    shifted = {}
    for key, coeff in f.monomials.items():
        e_x = key[0] if key else 0
        e_y = key[1] if len(key) > 1 else 0
        for j in range(e_x + 1):
            k2 = (j, e_y)
            shifted[k2] = shifted.get(k2, Fraction(0)) + coeff * comb(e_x, j) * x0 ** (
                e_x - j
            )
    g = FlowExpr(shifted)
    p = taylor_coefficients(g, 0, y0, n)
    residual = poly_add(poly_diff(p), poly_scale(compose_flow(g, p), Fraction(-1)))
    assert all(c == 0 for c in residual[:n]), residual[:n]
    assert taylor_coefficients(f, x0, y0, n) == p


# -- acceptance criterion bookkeeping ---------------------------------------

ACCEPTANCE_RESULTS: list[tuple[str, bool, float]] = []


@contextmanager
def criterion(name: str, time_limit: float):
    """Record one acceptance criterion: pass/fail plus its runtime budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((name, False, time.perf_counter() - start))
        raise
    elapsed = time.perf_counter() - start
    passed = elapsed < time_limit
    ACCEPTANCE_RESULTS.append((name, passed, elapsed))
    assert passed, f"{name}: runtime {elapsed:.2f}s exceeded {time_limit}s budget"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for name, passed, elapsed in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {name}  ({elapsed:.2f}s)")


# -- work counters ------------------------------------------------------------


@pytest.fixture
def fraction_arithmetic(monkeypatch):
    """Counts Fraction additions, subtractions, multiplications and divisions."""
    calls = []
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        original = getattr(Fraction, f"__{name}__")

        def counted(self, other, _original=original):
            calls.append(1)
            return _original(self, other)

        monkeypatch.setattr(Fraction, f"__{name}__", counted)
    return calls
