"""Guaranteed lower bound on the Taylor-series convergence radius.

For y' = f(x, y) with polynomial f, any box |x - x0| <= r1, |y - y0| <= r2
and any M with |f| <= M on the box certify that the solution series converges
for |x - x0| < r1 * (1 - exp(-r2 / (2 M r1))).  The bound is deliberately
conservative; the true interval of convergence is usually much larger.  M = 0
(f = 0, whose solution is constant) takes the exponent's cap, as any large
exponent does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .odexpr import FlowExpr
from .ratcore import (
    DEFAULT_ENCLOSURE_WIDTH,
    DecimalRounding,
    RatInterval,
    RationalLike,
    as_rational,
    enclose_exp_neg,
)


@dataclass(frozen=True)
class RadiusCertificate:
    """Certified convergence-radius bound r1 * (1 - exp(-q)), q = r2 / (2 M r1).

    r_enclosure brackets the exact bound, or for q above the cap of
    `convergence_radius` the smaller valid bound r1 * (1 - exp(-cap)); r_floor
    is a short decimal at or below the enclosure, convenient for reporting.
    M = 0 stands for q above the cap.
    """

    r1: Fraction
    r2: Fraction
    M: Fraction
    r_enclosure: RatInterval
    r_floor: Fraction

    def __post_init__(self) -> None:
        if self.M < 0:
            raise ValueError("magnitude bound must be nonnegative")
        if not (self.r_floor <= self.r_enclosure.lo):
            raise ValueError("radius floor above its enclosure")
        if not (self.r_enclosure.hi < self.r1):
            raise ValueError("radius enclosure must stay below r1")


def magnitude_bound(
    f: FlowExpr,
    x0: RationalLike,
    y0: RationalLike,
    r1: RationalLike,
    r2: RationalLike,
) -> Fraction:
    """Upper bound M on |f| over the box [x0 +- r1] x [y0 +- r2].

    Comes from monomial-wise interval evaluation, so it overestimates in
    general but is always a true bound.
    """
    x0, y0 = as_rational(x0), as_rational(y0)
    r1, r2 = as_rational(r1), as_rational(r2)
    if r1 <= 0 or r2 <= 0:
        raise ValueError("box radii must be positive")
    box = {
        "x": RatInterval(x0 - r1, x0 + r1),
        "y": RatInterval(y0 - r2, y0 + r2),
    }
    return f.eval_interval(box).mag


def _floor_to_clean_decimal(q: Fraction) -> Fraction:
    """Truncate downward to 2 decimals, extending only if that hits 0."""
    for places in range(2, 41):
        floored = DecimalRounding.outward(places).round_down(q)
        if floored > 0 or q <= 0:
            return floored
    return Fraction(0)


def convergence_radius(
    r1: RationalLike,
    r2: RationalLike,
    M: RationalLike,
    width: RationalLike = DEFAULT_ENCLOSURE_WIDTH,
) -> RadiusCertificate:
    """Certificate for the radius bound given box radii and magnitude bound.

    The exponent q = r2 / (2 M r1) is clamped to cap = max(1, bits(d) -
    bits(n) + 1) for width / r1 = n / d, so 2**cap * n >= 2**bits(d) > d and
    r1 * exp(-cap) < width.  For q > cap the enclosure brackets
    r1 * (1 - exp(-cap)), a valid lower bound within width of the unclamped
    one, and the exp series needs about cap terms however large q is.  M = 0
    takes q = cap.
    """
    r1, r2, M = as_rational(r1), as_rational(r2), as_rational(M)
    if r1 <= 0 or r2 <= 0 or M < 0:
        raise ValueError("r1 and r2 must be positive and M nonnegative")
    w = as_rational(width) / r1
    cap = max(1, w.denominator.bit_length() - w.numerator.bit_length() + 1)
    exp_enclosure = enclose_exp_neg(min(r2 / (2 * M * r1), cap) if M else cap, w)
    one = RatInterval.point(1)
    r_enclosure = (one - exp_enclosure).scale(r1)
    return RadiusCertificate(
        r1=r1,
        r2=r2,
        M=M,
        r_enclosure=r_enclosure,
        r_floor=_floor_to_clean_decimal(r_enclosure.lo),
    )


def radius_for_problem(
    f: FlowExpr,
    x0: RationalLike,
    y0: RationalLike,
    r1: RationalLike,
    r2: RationalLike,
    width: RationalLike = DEFAULT_ENCLOSURE_WIDTH,
) -> RadiusCertificate:
    """Bound |f| over the box, then certify the radius in one step."""
    return convergence_radius(r1, r2, magnitude_bound(f, x0, y0, r1, r2), width)
