"""Non-rigorous high-precision reference values for validation.

Nothing here carries a guarantee; these values live outside the certified
path and are used in tests and in the report's sanity section.  Two methods:
a classical 4th-order one-step integrator with step halving, and, for the
specific flow x^2 + y^2/4 started at (0, -1), the closed-form solution as a
quotient of quarter-order Bessel series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    fzero,
    from_int,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_nearest as RND,
)

from .certify import ConvergenceError
from .odexpr import FlowExpr, _require_xy, parse_flow_expr
from .ratcore import RationalLike, as_rational

#: Working precision (significant decimal digits) for all oracle arithmetic.
ORACLE_DPS = 40

#: RK4 steps one reference_solution or reference_grid call may take, all
#: sweeps of the step doubling together.  Riccati's y(5/2) takes 65,520;
#: y(3), just before the pole, would take about 2**23 steps per sweep.
MAX_RK4_STEPS = 100_000

#: A sweep stops once |y| reaches 2**MAX_Y_EXPONENT: past a pole, y's binary
#: exponent doubles with every step, and each operation slows with its
#: length.  No sweep that a finer one agrees with comes near it.
MAX_Y_EXPONENT = 2**16

_SIX = from_int(6)


@dataclass(frozen=True)
class ReferenceValue:
    """A high-precision (non-rigorous) value with an error estimate."""

    value: mp.mpf
    error_estimate: mp.mpf
    method: str  # "integrator" | "bessel"

    def __str__(self) -> str:
        return (
            f"{mp.nstr(self.value, 20)} "
            f"({self.method}, error estimate {mp.nstr(self.error_estimate, 3)})"
        )


def to_mpf(q: RationalLike) -> mp.mpf:
    """The rational q as an mpf at the current working precision."""
    q = as_rational(q)
    return mp.mpf(q.numerator) / q.denominator


def _compile_flow(f: FlowExpr):
    """Turn an x/y-only FlowExpr into a fast evaluator on raw mpf tuples at the
    working precision, rounding to nearest as mpf arithmetic does.

    `flow(x)` computes each term's x-factor c * x**e_x once and returns the
    function y -> f(x, y); every operation is the one `mpf` arithmetic would
    make, in the same order, so the results are bit-identical.  It skips the
    factors x**0, y**0 and the sum's start 0, which are exact.
    """
    prec = mp.mp.prec
    terms = [(to_mpf(c)._mpf_, e_x, e_y) for e_x, e_y, c in f.xy_terms()]

    def flow(x):
        factors = [
            (mpf_mul(c, mpf_pow_int(x, e_x, prec, RND), prec, RND) if e_x else c, e_y)
            for c, e_x, e_y in terms
        ]

        def at_y(y):
            total = None
            for term, e_y in factors:
                if e_y:
                    term = mpf_mul(term, mpf_pow_int(y, e_y, prec, RND), prec, RND)
                total = term if total is None else mpf_add(total, term, prec, RND)
            return fzero if total is None else total

        return at_y

    return flow


def check_tol(tol: RationalLike) -> None:
    """Reject a tolerance the step doubling can never meet: no difference of two
    sweeps is below one <= 0, nor resolved below half the working digits, so
    the loop would spend its whole step budget before giving up.
    """
    tol = as_rational(tol)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if tol < Fraction(1, 10 ** (ORACLE_DPS // 2)):
        raise ValueError(
            f"tolerance {mp.nstr(to_mpf(tol), 3)} is below 1e-{ORACLE_DPS // 2}, "
            f"the finest the {ORACLE_DPS}-digit oracle resolves"
        )


def _rk4_fixed(flow, x0: mp.mpf, y0: mp.mpf, x1: mp.mpf, steps: int) -> mp.mpf | None:
    """Classical RK4 from (x0, y0) to x1 in equal steps, for a compiled flow;
    None as soon as |y| reaches 2**MAX_Y_EXPONENT.

    Bit-identical to the mpf loop that forms h*k/2, 2*k and x + h at each
    step: halving and doubling are exact in binary, so (h/2)*k rounds to the
    same value and a shift doubles, and k4's abscissa x + h is the next
    step's x.
    """
    prec = mp.mp.prec
    x, y = x0._mpf_, y0._mpf_
    h = mpf_div(mpf_sub(x1._mpf_, x, prec, RND), from_int(steps), prec, RND)
    half = mpf_shift(h, -1)
    at_x = flow(x)
    for _ in range(steps):
        at_mid = flow(mpf_add(x, half, prec, RND))
        x = mpf_add(x, h, prec, RND)
        at_next = flow(x)
        k1 = at_x(y)
        k2 = at_mid(mpf_add(y, mpf_mul(half, k1, prec, RND), prec, RND))
        k3 = at_mid(mpf_add(y, mpf_mul(half, k2, prec, RND), prec, RND))
        k4 = at_next(mpf_add(y, mpf_mul(h, k3, prec, RND), prec, RND))
        total = mpf_add(k1, mpf_shift(k2, 1), prec, RND)
        total = mpf_add(total, mpf_shift(k3, 1), prec, RND)
        total = mpf_add(total, k4, prec, RND)
        y = mpf_add(y, mpf_div(mpf_mul(h, total, prec, RND), _SIX, prec, RND), prec, RND)
        if y[2] + y[3] > MAX_Y_EXPONENT:  # (sign, mantissa, exponent, bit count)
            return None
        at_x = at_next
    return mp.make_mpf(y)


def reference_solution(
    f: FlowExpr,
    x0: RationalLike,
    y0: RationalLike,
    x: RationalLike,
    tol: RationalLike = Fraction(1, 10**15),
) -> ReferenceValue:
    """Integrator value of y(x), halving the step until stable within tol."""
    _require_xy(f)
    check_tol(tol)
    x0, x = as_rational(x0), as_rational(x)
    if x < x0:
        raise ValueError("evaluation point precedes x0")
    if x == x0:
        return ReferenceValue(to_mpf(y0), mp.mpf(0), "integrator")
    (value,), diff = _integrate(f, x0, y0, [x], tol, 16)
    return ReferenceValue(value, diff, "integrator")


def reference_grid(
    f: FlowExpr,
    x0: RationalLike,
    y0: RationalLike,
    xs: list[Fraction],
    tol: RationalLike = Fraction(1, 10**15),
) -> list[mp.mpf]:
    """Integrator values at increasing grid points, sharing one trajectory.

    Far cheaper than independent reference_solution calls when many points of
    the same problem are needed.
    """
    _require_xy(f)
    check_tol(tol)
    if not xs:
        return []
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("grid points must be strictly increasing")
    if as_rational(xs[0]) < as_rational(x0):
        raise ValueError("grid starts before x0")
    return _integrate(f, x0, y0, xs, tol, 4)[0]


def _integrate(
    f: FlowExpr,
    x0: RationalLike,
    y0: RationalLike,
    xs: list[RationalLike],
    tol: RationalLike,
    steps: int,
) -> tuple[list[mp.mpf], mp.mpf]:
    """RK4 values at increasing points xs >= x0, along one trajectory.

    Each segment takes `steps` steps, doubled until two successive sweeps
    agree within tol; returns the last sweep and its largest difference from
    the one before.  A sweep that `_rk4_fixed` stops agrees with neither
    neighbour, though its steps all count as spent.  Raises ConvergenceError
    rather than start a sweep that would take the sweeps together past
    MAX_RK4_STEPS steps.
    """
    with mp.workdps(ORACLE_DPS):
        flow, tol_f = _compile_flow(f), to_mpf(tol)
        nodes = [to_mpf(x0)] + [to_mpf(x) for x in xs]
        segments = sum(b > a for a, b in zip(nodes, nodes[1:]))

        def sweep(per_segment: int) -> list[mp.mpf] | None:
            y, out = to_mpf(y0), []
            for a, b in zip(nodes, nodes[1:]):
                if b > a:
                    y = _rk4_fixed(flow, a, y, b, per_segment)
                    if y is None:
                        return None
                out.append(y)
            return out

        spent, prev = 0, None
        while spent + steps * segments <= MAX_RK4_STEPS:
            current = sweep(steps)
            spent += steps * segments
            if prev is not None and current is not None:
                diff = max(abs(c - p) for c, p in zip(current, prev))
                if diff < tol_f:
                    return current, diff
            prev, steps = current, steps * 2
    raise ConvergenceError(
        f"integrator did not stabilize within {tol} after {spent} RK4 steps; "
        f"the next sweep would pass the limit of {MAX_RK4_STEPS}"
    )


def is_quarter_riccati(f: FlowExpr, x0: RationalLike, y0: RationalLike) -> bool:
    """True when the problem is exactly y' = x^2 + y^2/4, y(0) = -1."""
    target = parse_flow_expr("x^2 + 1/4*y^2")
    return f == target and as_rational(x0) == 0 and as_rational(y0) == -1


def _bessel_series(nu: mp.mpf, z: mp.mpf, terms: int):
    """Truncated series of Gamma(nu + 1) J_nu(z), J_nu of the first kind.

    Returns (sum, relative tail estimate).  The k-th term ratio is
    -(z/2)^2 / ((k+1)(nu+k+1)), so for the small arguments used here the tail
    is dominated by the first omitted term.
    """
    half = z / 2
    term = half**nu
    total = mp.mpf(0)
    for k in range(terms):
        total += term
        term *= -(half * half) / ((k + 1) * (nu + k + 1))
    rel_tail = abs(term) / abs(total) if total != 0 else mp.inf
    return total, rel_tail


def riccati_exact(x: RationalLike) -> ReferenceValue:
    """Closed-form value of the solution of y' = x^2 + y^2/4, y(0) = -1.

    The substitution y = -4 w'/w linearizes the flow to w'' + (x^2/4) w = 0,
    whose solutions are sqrt(x) times Bessel functions of orders +-1/4 in
    x^2/4; matching the initial value fixes the combination

        y(x) = 2x * [32/3 s(3/4) - sqrt(2) s(-3/4)]
                  / [4 sqrt(2) s(1/4) + 8 s(-1/4)]

    with s(nu) = Gamma(nu + 1) J_nu(x^2/4), the series `_bessel_series` sums
    to 40 terms (a relative tail above 1e-13, as from x = 10, raises
    ConvergenceError).  Written with J itself, the quotient carries factors
    Gamma(1/4) and Gamma(3/4) that cancel against these normalizations.
    x = 0 is the removable singularity of the quotient (the limit is the
    initial value) and is rejected; negative x is rejected too, since the
    representation above holds for the principal branch x > 0 only and
    certification never looks left of x0.
    """
    x = as_rational(x)
    if x == 0:
        raise ValueError("closed form degenerates at x = 0; the limit is y(0) = -1")
    if x < 0:
        raise ValueError("closed form is implemented for x > 0 only")
    with mp.workdps(ORACLE_DPS):
        quarter = mp.mpf(1) / 4
        sqrt2 = mp.sqrt(2)
        xf = to_mpf(x)
        z = xf * xf / 4
        s_p34, r1 = _bessel_series(3 * quarter, z, 40)
        s_m34, r2 = _bessel_series(-3 * quarter, z, 40)
        s_p14, r3 = _bessel_series(quarter, z, 40)
        s_m14, r4 = _bessel_series(-quarter, z, 40)
        rel_tail = max(r1, r2, r3, r4)
        if rel_tail > mp.mpf("1e-13"):
            raise ConvergenceError(
                f"40 series terms leave relative tail {mp.nstr(rel_tail, 3)} "
                f"at x = {x}; shrink |x|"
            )
        numerator = mp.mpf(32) / 3 * s_p34 - sqrt2 * s_m34
        denominator = 4 * sqrt2 * s_p14 + 8 * s_m14
        value = 2 * xf * numerator / denominator
        return ReferenceValue(value, abs(value) * rel_tail * 8, "bessel")
