"""Output checks that do not rely on taylorcert's derivative chain.

The coefficient reference comes from the Taylor-mode Cauchy-product recurrence
(Corliss & Chang 1982, ACM TOMS 8) applied to this file's own parse of the
right-hand side, so nothing here imports taylorcert.odexpr.  The remainder is
checked two ways: against the non-rigorous oracle at x1, and against the tail
of the recurrence's series carried 40 orders past the certified degree.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

#: Orders of the reference series beyond the certified degree; the sum of
#: these terms stands in for the true remainder y(x1) - p_n(x1).
TAIL_ORDERS = 40

#: Step-halving tolerance of the oracle, the one the CLI's sanity section uses.
ORACLE_TOL = Fraction(1, 10**16)


def parse_rhs(text: str) -> dict[tuple[int, int], Fraction]:
    """Parse a right-hand side such as "1/4*x + x^3*y^2" into {(i, j): a_ij},
    the coefficients of x^i * y^j.  Accepts the restricted form of problem
    files: signed terms, each a product of numbers, x[^k] and y[^k]."""
    poly: dict[tuple[int, int], Fraction] = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        coeff, i, j = Fraction(-1 if term[0] == "-" else 1), 0, 0
        for factor in term.lstrip("+-").split("*"):
            var, _, exp = factor.partition("^")
            if var == "x":
                i += int(exp or 1)
            elif var == "y":
                j += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        poly[(i, j)] = poly.get((i, j), Fraction(0)) + coeff
    return poly


def taylor_recurrence(
    rhs: dict[tuple[int, int], Fraction], x0: Fraction, y0: Fraction, n: int
) -> list[Fraction]:
    """Taylor coefficients c_0 .. c_n of y' = f(x, y), y(x0) = y0, in t = x - x0.

    With y = sum c_k t^k, the series of y^j follows from that of y^(j-1) by
    one Cauchy product per order, x^i = (x0 + t)^i is a binomial, and the
    coefficient of t^k in f(x0 + t, y) gives c_(k+1) = [f]_k / (k + 1).
    """
    max_j = max(j for _, j in rhs)
    c = [Fraction(y0)]
    ypow: list[list[Fraction]] = [[] for _ in range(max_j + 1)]
    for k in range(n):
        ypow[0].append(Fraction(int(k == 0)))
        for j in range(1, max_j + 1):
            ypow[j].append(sum(ypow[j - 1][m] * c[k - m] for m in range(k + 1)))
        f_k = sum(
            a * sum(
                math.comb(i, m) * x0 ** (i - m) * ypow[j][k - m]
                for m in range(min(i, k) + 1)
            )
            for (i, j), a in rhs.items()
        )
        c.append(f_k / (k + 1))
    return c


def series_sum(coeffs: list[Fraction], t: Fraction) -> Fraction:
    """Exact Horner evaluation of sum coeffs[k] * t^k."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def cert_digits(remainder_bound: Fraction) -> float:
    """-log10 of a positive rational, rounded to 6 decimals so that the exact
    and the printed form of one bound give the same figure."""
    q = Fraction(remainder_bound)
    return round(math.log10(q.denominator) - math.log10(q.numerator), 6)


def mpf_to_fraction(value) -> Fraction:
    """The exact rational value of a binary mpmath float."""
    man, exp = value.man_exp  # man_exp carries the magnitude only
    magnitude = Fraction(man) * Fraction(2) ** exp
    return -magnitude if value < 0 else magnitude


def oracle_value(spec) -> Fraction:
    """Non-rigorous y(x1) from the program's RK4 oracle, as an exact rational."""
    from taylorcert import oracle

    ref = oracle.reference_solution(spec.f, spec.x0, spec.y0, spec.x1, ORACLE_TOL)
    return mpf_to_fraction(ref.value)


def certificate_problems(cert, series: list[Fraction], y_x1: Fraction) -> list[str]:
    """What is wrong with one Certificate, given the reference series (at least
    degree + TAIL_ORDERS long) and the oracle value y_x1 at x1; [] if nothing.

    The partial sum is compared with the oracle within the remainder bound plus
    the oracle tolerance: RK4 resolves y(x1) to about 1e-16, far coarser than
    the bounds of the deep certificates, which the series tail checks instead.
    """
    p = cert.problem
    n, dx = p.degree, p.x1 - p.x0
    problems = []
    if list(cert.coefficients) != series[: n + 1]:
        problems.append("coefficients differ from the Cauchy-product recurrence")
    if not cert.yrange.range.lo <= y_x1 <= cert.yrange.range.hi:
        problems.append(f"oracle y(x1) = {float(y_x1)} outside the solution range")
    partial = series_sum(series[: n + 1], dx)
    if abs(y_x1 - partial) > cert.remainder_bound + ORACLE_TOL:
        problems.append(
            f"|oracle - p_n(x1)| = {float(abs(y_x1 - partial)):.3e} exceeds "
            f"remainder bound {float(cert.remainder_bound):.3e} + oracle tolerance"
        )
    tail = series_sum(series[: n + TAIL_ORDERS + 1], dx) - partial
    if abs(tail) > cert.remainder_bound:
        problems.append(
            f"series tail {float(abs(tail)):.3e} exceeds remainder bound "
            f"{float(cert.remainder_bound):.3e}"
        )
    return problems
