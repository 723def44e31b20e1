"""Exact rational scalars, rational-endpoint interval arithmetic, and certified
enclosures of the elementary functions the certification pipeline needs.

Every operation here is exact: endpoints are `fractions.Fraction` values and no
floating point enters any rigorous computation.  Elementary enclosures are
truncated series in exact rational arithmetic with explicit tail bounds, or,
for square roots, one integer square root, so the returned interval is a
mathematical guarantee, not a numerical estimate.

The public `RatInterval(lo, hi)` and `RatInterval.point` take outside
input: they convert endpoints to `Fraction` and reject `lo > hi`.  Internal
results whose endpoints are `Fraction`s in order by construction (`+`, `-`,
negation, `scale`, `*`, `/`, the exp, sine, cosine and square-root
enclosures) go through the trusted helper `_ordered`, which skips both
checks.  Products and powers pick their endpoints by the signs of the
factors' endpoints (Moore, Kearfott & Cloud, *Introduction to Interval
Analysis*, 2009, sec. 2.3): a product forms the two endpoint products it
needs unless both factors straddle zero, and only then forms four and
compares them.  The result is the tightest enclosure, the same
interval as the min and max over all four corner products.  Division
multiplies by the reciprocal [1/d, 1/c] of a zero-free divisor.  This case
analysis lives once, in `mul_endpoints` and `pow_endpoints`, which work on
endpoint pairs of ints or Fractions alike: `RatInterval` calls them on its
Fraction endpoints, and the derivative chain's kernel in `odexpr` on integer
numerators over a shared positive denominator, whose signs are those of the
rationals they stand for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt
from typing import Union

RationalLike = Union[Fraction, int, str]

#: Default width for elementary-function enclosures.
DEFAULT_ENCLOSURE_WIDTH = Fraction(1, 10**12)

#: Most digits a rational literal may have, numerator and denominator together.
MAX_LITERAL_DIGITS = 100


class EnclosureError(ValueError):
    """Raised when an enclosure is requested outside its certified domain."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce int/str/Fraction to an exact Fraction; floats are rejected.

    Strings may be integers ("3"), ratios ("3/4"), or decimals ("0.25", parsed
    exactly), of at most MAX_LITERAL_DIGITS ASCII digits: exponent ("1e-3") and
    underscore ("1_000") forms, which would let a short string stand for a
    huge number, and other digits ("٣", which Fraction reads as 3) are refused.
    So is whitespace inside the stripped text ("1 / 2", which Fraction reads
    as 1/2 from Python 3.12 on).
    """
    if isinstance(value, bool):
        raise TypeError("cannot convert bool to exact rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a string or Fraction")
    if isinstance(value, str):
        text = value.strip()
        digits = sum(map(str.isdigit, text))
        if digits > MAX_LITERAL_DIGITS:
            message = f"literal has {digits} digits, limit {MAX_LITERAL_DIGITS}"
            raise ValueError(message)
        if not text.isascii() or any(ch in "eE_" or ch.isspace() for ch in text):
            raise ValueError(f"expected an integer, p/q or decimal, got {text!r}")
        return Fraction(text)
    raise TypeError(f"cannot convert {type(value).__name__} to exact rational")


def _int_str(n: int) -> str:
    """str(n), also past the interpreter's int->str digit limit, where the
    digits come from a chunked divmod by 10**k.  The process-global limit
    (`sys.set_int_max_str_digits`) stays as it is."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return _int_str(high) + _int_str(low).zfill(k)


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q" (or plain "p" for integers), as str(q) would but
    with no digit limit; inverse of as_rational."""
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def decimal_str(q: Fraction, digits: int = 17) -> str:
    """Decimal rendering of an exact rational, truncated toward zero.

    Appends an ellipsis when the expansion does not terminate within `digits`
    fractional digits, so a reader can tell displayed values from exact ones.
    """
    sign = "-" if q < 0 else ""
    whole, rem = divmod(abs(q.numerator), q.denominator)
    whole = _int_str(whole)
    if rem == 0:
        return f"{sign}{whole}"
    scaled, rest = divmod(rem * 10**digits, q.denominator)
    frac = str(10**digits + scaled)[1:]  # zero-padded; empty when digits == 0
    return f"{sign}{whole}." + (f"{frac}..." if rest else frac.rstrip("0"))


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints.

    All arithmetic is containment-sound: for a in A and b in B, a op b lies in
    A op B.  Results are the tightest rational-endpoint intervals containing
    the pointwise image of each operation.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            object.__setattr__(self, "lo", as_rational(self.lo))
            object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: RationalLike) -> "RatInterval":
        v = as_rational(value)
        return cls(v, v)

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    @property
    def mag(self) -> Fraction:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def __contains__(self, value: RationalLike) -> bool:
        v = as_rational(value)
        return self.lo <= v <= self.hi

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "RatInterval":
        return _ordered(-self.hi, -self.lo)

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return _ordered(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return _ordered(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        return _ordered(*mul_endpoints(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other: "RatInterval") -> "RatInterval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError(
                f"divisor interval [{other.lo}, {other.hi}] contains zero"
            )
        return self * _ordered(1 / other.hi, 1 / other.lo)

    def scale(self, factor: RationalLike) -> "RatInterval":
        c = as_rational(factor)
        if c.numerator >= 0:
            return _ordered(c * self.lo, c * self.hi)
        return _ordered(c * self.hi, c * self.lo)

    def __str__(self) -> str:
        """Both endpoints through `decimal_str`, for reports and messages;
        `repr` keeps them exact."""
        return f"[{decimal_str(self.lo)}, {decimal_str(self.hi)}]"


def mul_endpoints(a, b, c, d):
    """Endpoints of the product [a, b] * [c, d] of two ordered pairs.

    Picks the two endpoint products it needs from the factors' signs and forms
    four, comparing them, only when both factors straddle zero.  The values
    may be ints (numerators over positive denominators, as in the derivative
    chain's kernel) or Fractions.
    """
    if a >= 0:  # [a, b] >= 0
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
        return b * c, b * d
    if b <= 0:  # [a, b] <= 0
        if c >= 0:
            return a * d, b * c
        if d <= 0:
            return b * d, a * c
        return a * d, a * c
    # [a, b] straddles zero
    if c >= 0:
        return a * d, b * d
    if d <= 0:
        return b * c, a * c
    return min(a * d, b * c), max(a * c, b * d)


def pow_endpoints(lo, hi, exponent: int):
    """Endpoints of {t**exponent : lo <= t <= hi} for exponent >= 1.

    Even powers of a straddling pair have lower endpoint the int 0, whatever
    the type of lo and hi.
    """
    if exponent % 2 == 1 or lo >= 0:
        return lo**exponent, hi**exponent
    if hi <= 0:
        return hi**exponent, lo**exponent
    return 0, max(-lo, hi) ** exponent


def _ordered(lo: Fraction, hi: Fraction) -> RatInterval:
    """RatInterval from two Fractions already known to satisfy lo <= hi.

    Skips `__post_init__`: for internal results only, never for outside input.
    """
    interval = object.__new__(RatInterval)
    object.__setattr__(interval, "lo", lo)
    object.__setattr__(interval, "hi", hi)
    return interval


@dataclass(frozen=True)
class DecimalRounding:
    """Either the identity (places None, "exact") or outward rounding to
    `places` decimals.

    Outward rounding only ever widens an interval, so applying it anywhere in
    a chain of sound interval computations preserves soundness.  places is at
    most 1000, well below CPython's 4,300-digit int->str limit.
    """

    places: int | None = None

    def __post_init__(self) -> None:
        if self.places is not None and not 0 <= self.places <= 1000:
            raise ValueError("outward rounding needs 0 <= places <= 1000")

    @classmethod
    def exact(cls) -> "DecimalRounding":
        return cls()

    @classmethod
    def outward(cls, places: int) -> "DecimalRounding":
        return cls(places)

    @classmethod
    def parse(cls, text: str) -> "DecimalRounding":
        text = text.strip()
        if text == "exact":
            return cls.exact()
        if text.startswith("outward:") and "_" not in text and text.isascii():
            return cls.outward(int(text.split(":", 1)[1]))
        raise ValueError(f"rounding must be 'exact' or 'outward:D', got {text!r}")

    @property
    def is_exact(self) -> bool:
        return self.places is None

    def scaled_floor(self, num: int, den: int) -> int:
        """Numerator over 10**places of num / den rounded down, den > 0 and
        num / den reduced or not; rounding up is -scaled_floor(-num, den)."""
        return num * 10**self.places // den

    def round_down(self, q: Fraction) -> Fraction:
        if self.is_exact:
            return q
        return Fraction(self.scaled_floor(q.numerator, q.denominator), 10**self.places)

    def round_up(self, q: Fraction) -> Fraction:
        return -self.round_down(-q)

    def __str__(self) -> str:
        return "exact" if self.is_exact else f"outward:{self.places}"


# Validated enclosure of pi, precision far beyond what the tangent domain
# check needs.  Digits from the standard decimal expansion
# pi = 3.14159265358979323846... (e.g. OEIS A000796).
PI_ENCLOSURE = RatInterval(
    Fraction("3.14159265358979323"), Fraction("3.14159265358979324")
)

#: Certified lower bound on pi/2, used as the tangent domain cutoff.
HALF_PI_LOWER = PI_ENCLOSURE.lo / 2


def _check_width(width: Fraction) -> Fraction:
    width = as_rational(width)
    if width <= 0:
        raise EnclosureError("enclosure width must be positive")
    return width


def enclose_exp_neg(
    q: RationalLike, width: RationalLike = DEFAULT_ENCLOSURE_WIDTH
) -> RatInterval:
    """Certified enclosure of exp(-q) for rational q >= 0.

    Sums the series for exp(q), bounds the tail by a geometric series, and
    reciprocates; the returned width is at most `width`.  On integers: with
    q = a/b, k terms sum to P/D, the last T/D, over D = k! b^k; each step is
    T *= a, D *= k b, P = P k b + T, and only the endpoints become Fractions.
    """
    q = as_rational(q)
    width = _check_width(width)
    if q < 0:
        raise EnclosureError(f"enclose_exp_neg needs q >= 0, got {q}")
    if q == 0:
        return RatInterval.point(1)

    (a, b), (wn, wd) = q.as_integer_ratio(), width.as_integer_ratio()
    partial = term = den = 1
    k = 0
    while True:
        k += 1
        term, den = term * a, den * k * b
        partial = partial * k * b + term
        # Tail after k terms: sum_{j>k} q^j/j! <= term * r/(1-r), r = q/(k+1),
        # valid once q < k+1; r/(1-r) = a/E with E = (k+1) b - a.
        excess = (k + 1) * b - a
        if excess > 0:
            # exp(q) in [P/D, (P E + T a)/(D E)]; the reciprocal width
            # T a D / (P (P E + T a)) is at most the tail since P >= D.
            upper = partial * excess + term * a
            if term * a * den * wd <= wn * partial * upper:
                return _ordered(Fraction(den * excess, upper), Fraction(den, partial))


def _trig_series(t: Fraction, power: int, width: Fraction) -> RatInterval:
    """Enclosure of sin(t) (power 1) or cos(t) (power 0) for any t >= 0.

    Sums the alternating series of terms (-1)^k t^(2k+power) / (2k+power)!.
    The truncation error is bounded by the first omitted term (Lagrange bound
    with |sin^(m)|, |cos^(m)| <= 1, which holds for every t).  On integers:
    with t = a/b, the sum P and the term T of degree m lie over D = m! b^m;
    each step multiplies P and D by (m+1)(m+2) b^2 and T by -a^2.
    """
    (a, b), (wn, wd) = t.as_integer_ratio(), width.as_integer_ratio()
    partial, term, den = 0, a**power, b**power
    while True:
        partial += term
        step = (power + 1) * (power + 2) * b * b
        partial, term, den = partial * step, -term * a * a, den * step
        power += 2
        err = abs(term)
        if 2 * err * wd <= wn * den:
            return _ordered(Fraction(partial - err, den), Fraction(partial + err, den))


def _tan_point_enclosure(t: Fraction, width: Fraction) -> RatInterval:
    """sin(t) / cos(t) for 0 <= t < HALF_PI_LOWER, from series of the given
    width; the cosine series is refined by 16 until its lower end is
    positive, which ends because cos t > 0 below pi/2."""
    cos_enc = _trig_series(t, 0, width)
    while cos_enc.lo <= 0:
        width /= 16
        cos_enc = _trig_series(t, 0, width)
    return _trig_series(t, 1, width) / cos_enc


def enclose_tan(
    theta: RatInterval, width: RationalLike = DEFAULT_ENCLOSURE_WIDTH
) -> RatInterval:
    """Certified enclosure of tan over an interval theta inside
    [0, HALF_PI_LOWER), the certified part of [0, pi/2).

    tan is increasing there, so the image is [tan(theta.lo), tan(theta.hi)];
    each endpoint is enclosed by certified sine/cosine series divided outward.
    The result width is at most `width` plus the spread tan(hi) - tan(lo).
    A theta outside [0, HALF_PI_LOWER) raises EnclosureError.
    """
    width = _check_width(width)
    if theta.lo < 0:
        raise EnclosureError(f"tan domain is [0, pi/2); got lower endpoint {theta.lo}")
    if theta.hi >= HALF_PI_LOWER:
        raise EnclosureError(f"tan argument {theta.hi} reaches the certified pi/2 bound")
    # The excess of the result width over tan(hi) - tan(lo) is bounded by the
    # two endpoint enclosure widths; shrink the series width until that excess
    # fits the budget.  Near the domain edge the quotient amplifies the series
    # width, hence the loop.
    point_width = width / 4
    while True:
        lo_enc = _tan_point_enclosure(theta.lo, point_width)
        hi_enc = (
            lo_enc
            if theta.hi == theta.lo
            else _tan_point_enclosure(theta.hi, point_width)
        )
        if lo_enc.width + hi_enc.width <= width:
            return RatInterval(lo_enc.lo, hi_enc.hi)
        point_width /= 16


def enclose_sqrt(
    q: RationalLike, width: RationalLike = DEFAULT_ENCLOSURE_WIDTH
) -> RatInterval:
    """Certified enclosure [lo, hi] of sqrt(q): lo**2 <= q <= hi**2.

    Perfect squares of the numerator and denominator short-circuit to an exact
    point.  Otherwise the result is where bisection of [0, top], top =
    max(1, q), stops once the width is at most `width`: after k halvings, with
    2^k >= top / width for the least such k, on the grid cell [m, m + 1] * h,
    h = top / 2^k, whose lower end m is the largest integer with (m h)^2 <= q.
    """
    q = as_rational(q)
    width = _check_width(width)
    if q < 0:
        raise EnclosureError(f"enclose_sqrt needs q >= 0, got {q}")
    if q == 0:
        return RatInterval.point(0)

    num_root = isqrt(q.numerator)
    den_root = isqrt(q.denominator)
    if num_root * num_root == q.numerator and den_root * den_root == q.denominator:
        return RatInterval.point(Fraction(num_root, den_root))

    top = max(Fraction(1), q)
    halvings = (ceil(top / width) - 1).bit_length()
    step = top / 2**halvings
    m = isqrt(floor(q / (step * step)))
    return _ordered(m * step, (m + 1) * step)
