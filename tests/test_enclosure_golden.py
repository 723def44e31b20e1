"""Golden corpus for the elementary enclosures and decimal rendering.

Each test renders one fixed corpus of calls to text, outcomes and error
messages included, and compares its SHA-256 with a digest recorded from the
bisection square root, the separate sine and cosine series and the per-digit
decimal expansion.  Any change to an exact endpoint or to a rendered
character fails here.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F

from taylorcert.cauchy import _floor_to_clean_decimal
from taylorcert.ratcore import (
    DecimalRounding,
    EnclosureError,
    RatInterval,
    decimal_str,
    enclose_sqrt,
    enclose_tan,
)

SQRT_DIGEST = "730db5269da440ef1f0d997198d24c2d177d29d146cd1e4371c48828554325e6"
# Re-recorded when enclose_tan's domain widened from [0, 3/2) to
# [0, HALF_PI_LOWER): (0, 3/2) and (3/2, 157/100) now enclose tan (14.1014...
# and 1255.77..., each around mpmath's interval tan) and (1, 2) is refused
# at the pi/2 bound; the other 21 lines kept their text.
TAN_DIGEST = "21626a47673e227306e8b3df68ecb4b8cc7ba3e4f45cea72eb3312f8fa0d1eac"
DECIMAL_DIGEST = "364fcfc385bd6e651a239a2392962d781b00ab518394cf318e7dce43efccfd9a"
ROUNDING_DIGEST = "75b6c33953dbd40a85371607585cf98c74c36b5094f503e627485d61e2b95a30"

# q < 1 and q > 1, perfect squares (exact points) and zero.
SQRT_ARGS = [
    F(0), F(1, 4), F(9, 4), F(1), F(1, 3), F(2, 7), F(999, 1000), F(1, 10**9),
    F(2), F(3), F(10), F(12345, 7), F(10**12 + 1, 3),
]
# Powers of ten from 1 down to 1e-40, powers of two (exact halving
# boundaries) and widths above the starting bracket.
SQRT_WIDTHS = (
    [F(1, 10**k) for k in range(41)]
    + [F(1, 2**j) for j in (1, 2, 3, 10, 64)]
    + [F(3, 7), F(5), F(10**13)]
)

TAN_INTERVALS = [
    (F(0), F(0)),
    (F(0), F(1, 2)),
    (F(1, 4), F(1)),
    (F(1), F(7, 5)),
    (F(149, 100), F(1499, 1000)),
    (F(14999, 10000), F(14999, 10000)),
    (F(0), F(3, 2)),
    (F(1), F(2)),
    (F(-1, 10), F(1)),
    (F(3, 2), F(157, 100)),
]
TAN_WIDTHS = [F(1, 10**6), F(1, 10**12), F(1, 10**20)]

DECIMAL_VALUES = [
    F(0), F(5), F(-5), F(10**25), F(1, 2), F(-1, 8), F(1, 3), F(-2, 3),
    F(-1, 3), F(13994, 10), F(4198, 3), F(22, 7), F(-355, 113),
    F(1, 10**20), F(123456789, 1000), F(10**40 + 1, 7), F(1, 2**40),
    F(-(2**70) - 1, 3**30),
]
DECIMAL_DIGITS = [0, 1, 17, 30]

FLOOR_VALUES = [
    F(0), F(-1, 3), F(1, 3), F(5, 2), F(1, 10**5), F(7, 10**39), F(1, 10**45),
    F(123456, 10**3), F(10**20 + 1, 10**20),
]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _enclosure_text(call) -> str:
    try:
        interval = call()
    except EnclosureError as exc:
        return f"EnclosureError: {exc}"
    return f"{interval.lo!r} {interval.hi!r}"


def test_sqrt_corpus_matches_golden_digest():
    lines = [
        f"{q} {w} " + _enclosure_text(lambda: enclose_sqrt(q, w))
        for q in SQRT_ARGS
        for w in SQRT_WIDTHS
    ]
    assert _digest(lines) == SQRT_DIGEST


def test_tan_corpus_matches_golden_digest():
    lines = [
        f"{lo} {hi} {w} " + _enclosure_text(lambda: enclose_tan(RatInterval(lo, hi), w))
        for lo, hi in TAN_INTERVALS
        for w in TAN_WIDTHS
    ]
    assert _digest(lines) == TAN_DIGEST


def test_decimal_corpus_matches_golden_digest():
    lines = [
        f"{q} {d} {decimal_str(q, d)}" for q in DECIMAL_VALUES for d in DECIMAL_DIGITS
    ]
    assert decimal_str(F(4198, 3), 0) == "1399...."
    assert _digest(lines) == DECIMAL_DIGEST


def test_rounding_corpus_matches_golden_digest():
    lines = []
    for places in (0, 2, 30):
        rounding = DecimalRounding.outward(places)
        for q in DECIMAL_VALUES:
            lines.append(f"{places} {q} {rounding.round_down(q)} {rounding.round_up(q)}")
    lines += [f"{q} {_floor_to_clean_decimal(q)}" for q in FLOOR_VALUES]
    assert _digest(lines) == ROUNDING_DIGEST
