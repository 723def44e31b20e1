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

from .certify import ConvergenceError
from .odexpr import FlowExpr, _require_xy
from .ratcore import RationalLike, as_rational

#: Working precision (significant decimal digits) for all oracle arithmetic.
ORACLE_DPS = 40


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


def check_tol(tol: RationalLike) -> None:
    """Reject a tolerance the step doubling can never meet: no difference of two
    sweeps is below one <= 0, nor resolved below half the working digits, so
    the loop would run every doubling (millions of RK4 steps) before giving up.
    """
    tol = as_rational(tol)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if tol < Fraction(1, 10 ** (ORACLE_DPS // 2)):
        raise ValueError(
            f"tolerance {mp.nstr(to_mpf(tol), 3)} is below 1e-{ORACLE_DPS // 2}, "
            f"the finest the {ORACLE_DPS}-digit oracle resolves"
        )


def _rk4_fixed(flow, x0: mp.mpf, y0: mp.mpf, x1: mp.mpf, steps: int) -> mp.mpf:
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
    (value,), diff = _integrate(f, x0, y0, [x], tol, 16, 22)
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
    return _integrate(f, x0, y0, xs, tol, 4, 18)[0]


def _integrate(
    f: FlowExpr,
    x0: RationalLike,
    y0: RationalLike,
    xs: list[RationalLike],
    tol: RationalLike,
    steps: int,
    max_doublings: int,
) -> tuple[list[mp.mpf], mp.mpf]:
    """RK4 values at increasing points xs >= x0, along one trajectory.

    Each segment takes `steps` steps, doubled until two successive sweeps
    agree within tol; returns the last sweep and its largest difference from
    the one before.
    """
    with mp.workdps(ORACLE_DPS):
        flow, tol_f = _compile_flow(f), to_mpf(tol)
        nodes = [to_mpf(x0)] + [to_mpf(x) for x in xs]

        def sweep(per_segment: int) -> list[mp.mpf]:
            y, out = to_mpf(y0), []
            for a, b in zip(nodes, nodes[1:]):
                if b > a:
                    y = _rk4_fixed(flow, a, y, b, per_segment)
                out.append(y)
            return out

        prev = sweep(steps)
        for _ in range(max_doublings):
            steps *= 2
            current = sweep(steps)
            diff = max(abs(c - p) for c, p in zip(current, prev))
            if diff < tol_f:
                return current, diff
            prev = current
    raise ConvergenceError(
        f"integrator did not stabilize within {tol} after {steps} steps"
    )


def is_quarter_riccati(f: FlowExpr, x0: RationalLike, y0: RationalLike) -> bool:
    """True when the problem is exactly y' = x^2 + y^2/4, y(0) = -1."""
    target = FlowExpr.monomial(1, x_exp=2) + FlowExpr.monomial(
        Fraction(1, 4), derivs={0: 2}
    )
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
