"""Polynomial expressions in x and the derivative symbols y, y', y'', ...

A FlowExpr is a finite sum of monomials c * x^i * y^j * (y')^k * ... with
exact rational coefficients, stored as Fractions keyed by exponent tuples.
Its total derivative along solutions of y' = f(x, y) (`flow_derivative`)
differentiates x to 1 and each derivative symbol y^(j) to the next symbol
y^(j+1), never substituting f.  Iterating it from f yields expressions for
every higher solution derivative: the DerivativeChain, whose interval
evaluation bounds each derivative over a box.

No certificate builds the chain; it stays as the reference the recurrences
are tested against.  A certificate takes its bounds from `derivative_bounds`,
the interval Leibniz recurrence for every flow f = sum_j c_j(x) y^j, which
forms only the powers of y that f mentions, each from two smaller ones.
Exact Taylor coefficients come from `taylor_coefficients`, a Taylor-mode
recurrence on integers over the same powers, and `derivative_values`
multiplies its c_k by k!.

Evaluation runs on integers too, in the fraction-free manner of Bareiss
(*Math. Comp.* 22, 1968; see `_Kernel`): each coefficient becomes an integer
numerator when the kernel takes it in, only each result is reduced, and every
value equals the monomial-wise Fraction evaluation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, lcm, perm, prod
import operator
from typing import Iterable, Iterator, Mapping, Sequence

from .ratcore import (
    MAX_LITERAL_DIGITS,
    DecimalRounding,
    RatInterval,
    RationalLike,
    _ordered,
    as_rational,
    mul_endpoints,
    pow_endpoints,
)

# A monomial key is (e_x, e_y, e_y', ..., e_y^(m)) with trailing zeros trimmed.
MonomialKey = tuple[int, ...]


#: Monomials a derivative chain may hold, D_1 to D_{n+1} together.  It bounds
#: the chain's work, which grows with the y-degree of f and not only with n.
MAX_CHAIN_MONOMIALS = 100_000

#: Bits an exact derivative bound's unreduced numerators and denominator may
#: each have before `_Kernel.bind` rounds it outward onto the grid of
#: multiples of 2**-1024.  Exact endpoints grow with every order, by about 480
#: bits per order on `problems/quadratic.prob`, whose degree-5 bounds reach
#: 3,381 bits and so stay exact.
EXACT_BOUND_BITS = 4096

#: Bits a stored derivative bound's numerators and denominator may each have,
#: checked after rounding.  A rounded exact bound has a 1025-bit denominator,
#: so in exact mode it bounds the bounds' magnitude; it bounds the work of
#: both modes.
MAX_BOUND_BITS = 2**15

#: Bits a scaled Taylor coefficient's numerator and denominator may each have
#: (`taylor_coefficients`).  It bounds the recurrence's work on flows of high
#: y-degree, and keeps every coefficient printable.
MAX_COEFF_BITS = 2**13


class ExprError(ValueError):
    """Structural misuse of a FlowExpr (bad exponents, unbound symbols...), a
    derivative chain over MAX_CHAIN_MONOMIALS, a derivative bound over
    MAX_BOUND_BITS or a Taylor coefficient over MAX_COEFF_BITS."""


def _check_bits(bits: int, limit: int, what: str, order: int) -> None:
    """Raise ExprError, naming what and its order, when bits pass limit."""
    if bits > limit:
        raise ExprError(f"{what} of order {order} has {bits} bits, over the limit {limit}")


class ExprParseError(ValueError):
    """Syntax error in the restricted expression text form."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def symbol_name(order: int) -> str:
    """Display name of the derivative symbol of the given order (y, y', ...)."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order <= 3:
        return "y" + "'" * order
    return f"y^({order})"


def _trimmed(key: Sequence[int]) -> MonomialKey:
    """key as a tuple, trailing zeros trimmed."""
    key = tuple(key)
    while key and not key[-1]:
        key = key[:-1]
    return key


def _summed(terms: Iterable[tuple[MonomialKey, Fraction]]) -> "FlowExpr":
    """Trusted constructor for internal results, which are not re-validated:
    sum the coefficients of each trimmed key, in order of its first
    appearance, and drop zeros."""
    table: dict[MonomialKey, Fraction] = {}
    for key, q in terms:
        table[key] = table[key] + q if key in table else q
    expr = object.__new__(FlowExpr)
    expr._monomials = {key: q for key, q in table.items() if q}
    return expr


class FlowExpr:
    """Immutable multivariate polynomial over x and derivative symbols.

    `_monomials` maps each trimmed dense key to its nonzero Fraction
    coefficient, in insertion order; `monomials` returns a copy of it.
    """

    __slots__ = ("_monomials",)

    def __init__(self, monomials: Mapping[MonomialKey, RationalLike] | None = None):
        terms = []
        for key, coeff in (monomials or {}).items():
            if any(e < 0 for e in key):
                raise ExprError(f"negative exponent in monomial key {key}")
            terms.append((_trimmed(key), as_rational(coeff)))
        self._monomials = _summed(terms)._monomials

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "FlowExpr":
        return cls()

    @classmethod
    def constant(cls, value: RationalLike) -> "FlowExpr":
        return cls({(): as_rational(value)})

    # -- structure -------------------------------------------------------

    @property
    def monomials(self) -> Mapping[MonomialKey, Fraction]:
        """Dense keys with trailing zeros trimmed, to reduced coefficients."""
        return dict(self._monomials)

    @property
    def order(self) -> int:
        """Highest derivative symbol mentioned; -1 if none (x-only)."""
        return max([1, *map(len, self._monomials)]) - 2

    def xy_terms(self) -> list[tuple[int, int, Fraction]]:
        """(i, j, c) for each monomial c * x^i * y^j, in `.monomials` order.

        The one view of the terms outside this module; a derivative symbol
        raises ExprError.
        """
        _require_xy(self)
        return [(*(*key, 0, 0)[:2], c) for key, c in self._monomials.items()]

    def is_zero(self) -> bool:
        return not self._monomials

    def terms(self) -> Iterator[tuple[MonomialKey, Fraction]]:
        return iter(sorted(self._monomials.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowExpr):
            return NotImplemented
        return self._monomials == other._monomials

    def __hash__(self) -> int:
        return hash(frozenset(self._monomials.items()))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "FlowExpr") -> "FlowExpr":
        return _summed([*self._monomials.items(), *other._monomials.items()])

    def __sub__(self, other: "FlowExpr") -> "FlowExpr":
        return self + (-other)

    def __neg__(self) -> "FlowExpr":
        return _summed((key, -q) for key, q in self._monomials.items())

    def __mul__(self, other: "FlowExpr") -> "FlowExpr":
        return _summed(
            (tuple(map(sum, zip_longest(k1, k2, fillvalue=0))), q1 * q2)
            for k1, q1 in self._monomials.items()
            for k2, q2 in other._monomials.items()
        )

    # -- calculus --------------------------------------------------------

    def partial(self, slot: int) -> "FlowExpr":
        """Partial derivative with respect to slot 0 (x) or slot j+1 (y^(j))."""
        return _summed(
            (_trimmed((*key[:slot], key[slot] - 1, *key[slot + 1 :])), q * key[slot])
            for key, q in self._monomials.items()
            if slot < len(key) and key[slot]
        )

    def flow_derivative(self) -> "FlowExpr":
        """Total derivative along solutions: d/dx + sum_j y^(j+1) d/dy^(j).

        One pass: each nonzero slot emits one term, e times the monomial with
        that slot lowered by one and, for y^(j), slot y^(j+1) raised by one.
        """
        terms = []
        for key, q in self._monomials.items():
            for slot, exp in enumerate(key):
                if exp:
                    new_key = [*key, 0]
                    new_key[slot] -= 1
                    if slot:
                        new_key[slot + 1] += 1
                    terms.append((_trimmed(new_key), q * exp))
        return _summed(terms)

    # -- evaluation ------------------------------------------------------

    def _symbol_value(self, env: Mapping[str, object], slot: int):
        name = "x" if slot == 0 else symbol_name(slot - 1)
        if name not in env:
            raise ExprError(f"unbound symbol {name!r} in evaluation environment")
        return env[name]

    def eval_interval(self, env: Mapping[str, object]) -> RatInterval:
        """Monomial-wise interval evaluation under symbol->interval bindings.

        Each monomial is enclosed exactly (every symbol occurs once per
        monomial, as an integer power); the monomial enclosures are summed,
        which accepts the usual interval dependency overestimation across
        monomials.  Rational bindings stand for points, so with every symbol
        bound to one the result is the point of the exact value.  Runs on the
        integer kernel, each symbol the monomials mention bound to its own
        base: the denominator of its interval.
        """
        boxes = {}
        for slot in sorted({s for key in self._monomials for s, e in enumerate(key) if e}):
            b = self._symbol_value(env, slot)
            boxes[slot] = b if isinstance(b, RatInterval) else RatInterval.point(b)
        kernel = _Kernel([self], boxes)
        return kernel.interval(*kernel.total(kernel.groups(self)))

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        out = ""
        for key, coeff in self.terms():
            factors = [str(abs(coeff))] if abs(coeff) != 1 or not key else []
            for slot, exp in enumerate(key):
                if exp:
                    name = "x" if slot == 0 else symbol_name(slot - 1)
                    factors.append(name if exp == 1 else f"{name}^{exp}")
            out += (" - " if coeff < 0 else " + ") + "*".join(factors)
        if not out:
            return "0"
        return out[3:] if out[1] == "+" else "-" + out[3:]

    def __repr__(self) -> str:
        return f"FlowExpr({self.monomials!r})"


class _Kernel:
    """Monomial-wise interval sums on integers over a shared denominator.

    A binding is a triple (lo, hi, vec): integer endpoint numerators over the
    denominator prod(bases[i] ** e_i), the int vec holding e_i in bits
    [64 i, 64 i + 64).  Vectors add with `+`, and top - vec borrows nothing
    for top >= vec.  No field overflows: power() would be uncomputable long
    before, as any base >= 2 to the 2**64 has 2**64 bits.  bases[0] is c, the
    lcm of the expressions' coefficient denominators, over which `groups`
    scales each coefficient to an integer; then come the denominators of the
    boxes bound to slots, and last the base of the grid that `bind` rounds
    stored bounds onto (`outward`): 10**P under outward:P rounding, every
    bound onto multiples of 10**-P, and 2 in exact mode, a bound past
    EXACT_BOUND_BITS onto multiples of 2**-1024.  So every rounded bound
    shares one vector.  Under outward:P the y box (slot 1) is bound over
    10**P when that base is a multiple of its denominators, so that y and
    the stored bounds share one vector and the products of an order fall in
    few groups; its own base then goes unused.  In exact mode the y box, and
    in both modes the x box, keep their own bases, where the numerators of
    their powers stay small (over 10**P, those of x^e would grow by
    10**(P e)).  The power of each vector is cached for the life of the
    kernel.  No step needs a gcd or a division: only `bind` and `interval`
    reduce, and `outward` rounds; `groups` and `total` say how sums are
    formed.  Stored bounds have at most MAX_BOUND_BITS bits per numerator
    and denominator (`bind`), and `capped` lists the orders of the exact
    bounds that were rounded.
    """

    def __init__(
        self,
        exprs: Sequence[FlowExpr],
        boxes: Mapping[int, RatInterval],
        rounding: DecimalRounding = DecimalRounding.exact(),
    ):
        c = lcm(*(q.denominator for expr in exprs for q in expr._monomials.values()))
        dens = (lcm(b.lo.denominator, b.hi.denominator) for b in boxes.values())
        grid, exp = (2, 1024) if rounding.is_exact else (10**rounding.places, 1)
        self.bases, self.rounding = (c, *dens, grid), rounding
        # A rounded bound's numerators are over grid**exp, on this vector.
        self._grid_den, self._grid_vec = grid**exp, exp * self._unit(len(self.bases) - 1)
        self.capped: list[int] = []
        # The bits of each field, (2**64 - 1) << 64 i: a componentwise max is
        # the bitwise or of each field's largest masked value.
        self._fields = [((1 << 64) - 1) << 64 * i for i in range(len(self.bases))]
        self._powers: dict[int, int] = {}
        # Each box binds over bases[index], which its denominators divide.
        self.slots = {}
        for index, (slot, box) in enumerate(boxes.items(), start=1):
            if slot == 1 and not rounding.is_exact and grid % self.bases[index] == 0:
                index = len(self.bases) - 1
            den = self.bases[index]
            lo, hi = (q.numerator * (den // q.denominator) for q in (box.lo, box.hi))
            self.slots[slot] = lo, hi, self._unit(index)

    @staticmethod
    def _unit(index: int) -> int:
        return 1 << 64 * index

    def power(self, vec: int) -> int:
        """prod(bases[i] ** e_i) of a packed vector, cached."""
        value = self._powers.get(vec)
        if value is None:
            exps = ((vec >> 64 * i) & ((1 << 64) - 1) for i in range(len(self.bases)))
            value = self._powers[vec] = prod(map(pow, self.bases, exps))
        return value

    def groups(self, expr: FlowExpr) -> dict[int, list[int]]:
        """The expression's monomial enclosures, summed per vector; `total`
        adds them up.

        A coefficient q enters as its numerator over c, q.numerator *
        (c // q.denominator), on the coefficient vector, and each nonzero
        exponent multiplies in its slot's binding, powered first above 1.
        """
        c, groups = self.bases[0], {}
        for key, q in expr._monomials.items():
            lo = hi = q.numerator * (c // q.denominator)
            vec = self._unit(0)
            for slot, exp in enumerate(key):
                if not exp:
                    continue
                b_lo, b_hi, b_vec = self.slots[slot]
                if exp > 1:
                    b_lo, b_hi = pow_endpoints(b_lo, b_hi, exp)
                lo, hi = mul_endpoints(lo, hi, b_lo, b_hi)
                vec += exp * b_vec
            _add_scaled(groups, vec, 1, lo, hi)
        return groups

    def total(self, groups: Mapping[int, list[int]]) -> tuple[int, int, int]:
        """Binding of the sum of groups, each a vector's [lo, hi].

        With two or more vectors, each group sum is lifted once to their
        componentwise maximum.  Integer sums are exact, so lifting a sum
        equals summing the lifted terms.  No groups sum to (0, 0, 0).
        """
        if len(groups) == 1:
            [(vec, (lo, hi))] = groups.items()
            return lo, hi, vec
        top = 0
        for field in self._fields:
            top |= max(map(field.__and__, groups), default=0)
        total_lo = total_hi = 0
        for vec, (lo, hi) in groups.items():
            if vec != top:
                lift = self.power(top - vec)
                lo, hi = lo * lift, hi * lift
            total_lo += lo
            total_hi += hi
        return total_lo, total_hi, top

    def bind(self, slot: int, groups: Mapping[int, list[int]]) -> RatInterval:
        """Bind the rounded total of groups to slot, as a derivative bound,
        and return it reduced.

        A bound is bound as the numerators and vector of its unreduced sum
        [lo, hi] / den, unless `outward` rounds it: under outward:P always,
        and in exact mode when lo, hi or den passes EXACT_BOUND_BITS bits,
        which widens each end by less than 2**-1024 and adds the order to
        `capped`.  A rounded bound is bound as it comes out of `outward`;
        only its two endpoints become Fractions.  One `power` lookup per
        bound: the denominator of a rounded one is that of the grid.  A bound
        is never made a base of its own: D_k multiplies y^(i) by y^(k-2-i),
        so the common denominator would become the product of every earlier
        one.  A bound whose numerators or denominator pass MAX_BOUND_BITS
        bits raises ExprError, naming its order.
        """
        lo, hi, vec = self.total(groups)
        den = self.power(vec)
        rounded = self.outward(lo, hi, den)
        if rounded is not None:
            (lo, hi, vec), den = rounded, self._grid_den
            if self.rounding.is_exact:
                self.capped.append(slot - 1)
        bits = max(lo.bit_length(), hi.bit_length(), den.bit_length())
        _check_bits(bits, MAX_BOUND_BITS, "derivative bound", slot - 1)
        self.slots[slot] = lo, hi, vec
        return _ordered(Fraction(lo, den), Fraction(hi, den))

    def outward(self, lo: int, hi: int, den: int) -> tuple[int, int, int] | None:
        """The binding of [lo, hi] / den rounded outward onto the grid, or
        None where it is kept as it is: in exact mode while lo, hi and den
        have at most EXACT_BOUND_BITS bits.  lo and hi are floored and ceiled
        straight to numerators over 10**P under outward:P (as
        `DecimalRounding.scaled_floor`) and over 2**1024 in exact mode."""
        bits = max(lo.bit_length(), hi.bit_length(), den.bit_length())
        if self.rounding.is_exact and bits <= EXACT_BOUND_BITS:
            return None
        grid = self._grid_den
        return lo * grid // den, -(-hi * grid // den), self._grid_vec

    def interval(self, lo: int, hi: int, vec: int) -> RatInterval:
        """The reduced RatInterval of a binding; lo <= hi always holds here."""
        den = self.power(vec)
        return _ordered(Fraction(lo, den), Fraction(hi, den))


@dataclass(frozen=True)
class DerivativeChain:
    """Expressions [D_1 ... D_{n+1}] for the solution derivatives y', y'', ...

    D_1 is the right-hand side f itself and each successor is the flow
    derivative of its predecessor, so D_k mentions derivative symbols only up
    to order k-1.
    """

    exprs: tuple[FlowExpr, ...]

    def __len__(self) -> int:
        return len(self.exprs)

    def __getitem__(self, index: int) -> FlowExpr:
        return self.exprs[index]

    def bounds(
        self,
        xrange: RatInterval,
        yrange: RatInterval,
        rounding: DecimalRounding = DecimalRounding.exact(),
    ) -> list[RatInterval]:
        """Sequential interval bounds for y^(1) ... y^(len(self)) over a box.

        D_k is evaluated monomial-wise with x over xrange, y over yrange and
        each symbol below y^(k) over its own bound, found before it.  Each
        bound goes through `rounding` before it is stored and fed to the next
        order (`_Kernel.bind`).  All orders share one kernel.
        """
        kernel = _Kernel(self.exprs, {0: xrange, 1: yrange}, rounding)
        return [
            kernel.bind(slot, kernel.groups(expr))
            for slot, expr in enumerate(self.exprs, start=2)
        ]


def _require_xy(f: FlowExpr) -> None:
    """Reject a right-hand side that mentions a derivative symbol: the one
    check of every entry point that takes a right-hand side."""
    if f.order > 0:
        raise ExprError(
            f"right-hand side mentions derivative symbol {symbol_name(f.order)}"
        )


def derivative_chain(f: FlowExpr, n: int) -> DerivativeChain:
    """Chain [D_1 ... D_{n+1}] for y' = f(x, y) with f in x and y only.

    Stops with ExprError, naming the order and the count, as soon as the
    chain holds more than MAX_CHAIN_MONOMIALS monomials in all.
    """
    if n < 0:
        raise ValueError("chain length parameter must be >= 0")
    _require_xy(f)
    exprs, total = [f], len(f._monomials)
    for _ in range(n):
        exprs.append(exprs[-1].flow_derivative())
        total += len(exprs[-1]._monomials)
        if total > MAX_CHAIN_MONOMIALS:
            raise ExprError(
                f"derivative chain holds {total} monomials by D_{len(exprs)}, "
                f"over the limit {MAX_CHAIN_MONOMIALS}"
            )
    return DerivativeChain(tuple(exprs))


def _powers(exponents: Iterable[int]) -> list[int]:
    """Ascending exponents j >= 2 of the powers y^j that forming y^e, for each
    e in exponents, takes: y^j is formed as y^(j//2) times y^(j - j//2)."""
    needed = {j for j in exponents if j >= 2}
    for j in range(max(needed, default=0), 1, -1):  # each half is below j
        if j in needed:
            needed |= {j // 2, j - j // 2} - {1}
    return sorted(needed)


def derivative_bounds(
    f: FlowExpr,
    n: int,
    xrange: RatInterval,
    yrange: RatInterval,
    rounding: DecimalRounding = DecimalRounding.exact(),
    *,
    capped: list[int] | None = None,
) -> list[RatInterval]:
    """Sequential interval bounds for y^(1) ... y^(n+1) over a box, from the
    interval Taylor recurrence (Moore, *Interval Analysis*, 1966; Lohner,
    1987) on the chain's kernel.

    Write f = sum_j c_j(x) y^j.  By the Leibniz rule D_{k+1} = sum_j sum_r
    C(k, r) c_j^(r)(x) (y^j)^(k-r), so with Y_0 = yrange and P_1 = Y,
    Y_{k+1} = sum_j sum_r C(k, r) c_j^(r)(X) P_j^(k-r), with c_j^(r)(X)
    enclosed monomial by monomial over xrange, and P_j^(m) enclosing
    (y^j)^(m) for each power f mentions and each power those are formed from
    (`_powers`).  P_j^(0) is the power of yrange itself; past order 0, y^(2m)
    is the Leibniz sum of y^m times itself, symmetric (`_leibniz`), and
    y^(2m+1) that of y^m times y^(m+1).  Each bound is rounded by
    `_Kernel.bind` before the next order uses it.  In exact mode only a
    bound past EXACT_BOUND_BITS bits is rounded, outward onto multiples of
    2**-1024, and its order is appended to `capped` when that is a list.
    Each P_j above the square is rounded by the same rule (`_Kernel.outward`),
    which under outward:P more than halves the work on the y^64 file at
    degree 400 and in exact mode keeps it bounded; the square stays exact.
    The work is O(n^2) interval products per power, and no chain is built.

    For f = a(x) + b*y^2 with constant b, each product encloses one monomial
    of the chain's D_{k+1}, and a scalar distributes exactly over interval
    sums, so each bound equals `derivative_chain(f, n).bounds(xrange, yrange,
    rounding)`.  For any f of y-degree 2 at most, each bound lies inside the
    chain's (subdistributivity).  From y^3 on, a product of two enclosures of
    one straddling factor can be wider than the chain's power of it.
    """
    _require_xy(f)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    kernel = _Kernel([f], {0: xrange, 1: yrange}, rounding)
    # (j, r, lo, hi, vec): the binding of the r-th x-derivative of the
    # monomial c*x^i of c_j(x), for each monomial c*x^i*y^j of f and r <= i
    factors = []
    for key, q in f._monomials.items():
        i, j = (*key, 0, 0)[:2]
        for r in range(i + 1):
            c = _summed([((i - r,) if i > r else (), q * perm(i, r))])
            [(vec, (lo, hi))] = kernel.groups(c).items()
            factors.append((j, r, lo, hi, vec))
    # powers[j]: the bindings of P_j^(0) ... P_j^(k); P_0^(m) is 0 for m > 0
    plan, (y_lo, y_hi, y_vec) = _powers(factor[0] for factor in factors), kernel.slots[1]
    powers = {0: [(1, 1, 0)], 1: [kernel.slots[1]]}
    powers.update((j, [(*pow_endpoints(y_lo, y_hi, j), j * y_vec)]) for j in plan)
    mul, bounds, row = mul_endpoints, [], [1]  # row[r] = C(k, r)
    for k in range(n + 1):
        for j in plan if k else ():
            binding = _leibniz(kernel, row, powers[j // 2], powers[j - j // 2])
            if j > 2:  # rounded as a bound would be, or kept
                lo, hi, vec = binding
                binding = kernel.outward(lo, hi, kernel.power(vec)) or binding
            powers[j].append(binding)
        groups = {}
        for j, r, c_lo, c_hi, c_vec in factors:
            if r == k or j and r < k:
                lo, hi, vec = powers[j][k - r]
                if c_lo != c_hi:  # else a constant, which scales
                    lo, hi, c_lo = *mul(c_lo, c_hi, lo, hi), 1
                _add_scaled(groups, c_vec + vec, row[r] * c_lo, lo, hi)
        bounds.append(kernel.bind(k + 2, groups))
        powers[1].append(kernel.slots[k + 2])
        row = [1, *map(operator.add, row, row[1:]), 1]
    if capped is not None:
        capped += kernel.capped
    return bounds


def _leibniz(kernel: _Kernel, row: list[int], u: list, v: list) -> tuple[int, int, int]:
    """Binding of sum_l C(k, l) U_l V_{k-l}, an enclosure of the k-th
    derivative of U*V for the row C(k, .), k >= 1, from the bindings of the
    derivatives of U and of V.  For u is v it is the square's symmetric sum,
    2 sum_{l<k/2} C(k, l) U_l U_{k-l} + C(k, k/2) U_{k/2}^2.

    One pass: each product whose vector is that of the first term goes into
    one running sum, doubled once for a square, and so does the middle
    square; a product of another vector (in exact mode, about a quarter of
    riccati's) goes to the kernel's groups.  Integer sums are exact, so the
    sum is that of one group entry per product.
    """
    k, square = len(row) - 1, u is v
    twice = 2 if square else 1
    run_vec, run_lo, run_hi, groups = u[0][2] + v[k][2], 0, 0, {}
    for l in range((k + 1) // 2 if square else k + 1):
        (u_lo, u_hi, u_vec), (v_lo, v_hi, v_vec) = u[l], v[k - l]
        lo, hi = mul_endpoints(u_lo, u_hi, v_lo, v_hi)
        if u_vec + v_vec == run_vec:
            run_lo += row[l] * lo
            run_hi += row[l] * hi
        else:
            _add_scaled(groups, u_vec + v_vec, twice * row[l], lo, hi)
    run_lo, run_hi = twice * run_lo, twice * run_hi
    if square and k % 2 == 0:
        u_lo, u_hi, u_vec = u[k // 2]
        lo, hi = pow_endpoints(u_lo, u_hi, 2)
        if 2 * u_vec == run_vec:
            run_lo += row[k // 2] * lo
            run_hi += row[k // 2] * hi
        else:
            _add_scaled(groups, 2 * u_vec, row[k // 2], lo, hi)
    if not groups:
        return run_lo, run_hi, run_vec
    _add_scaled(groups, run_vec, 1, run_lo, run_hi)
    return kernel.total(groups)


def _add_scaled(
    groups: dict[int, list[int]], vec: int, scale: int, lo: int, hi: int
) -> None:
    """Add scale * [lo, hi], scale nonzero, to the group of vec."""
    lo, hi = (scale * lo, scale * hi) if scale > 0 else (scale * hi, scale * lo)
    group = groups.get(vec)
    if group is None:
        groups[vec] = [lo, hi]
    else:
        group[0] += lo
        group[1] += hi


def taylor_coefficients(
    f: FlowExpr, x0: RationalLike, y0: RationalLike, n: int
) -> list[Fraction]:
    """Exact Taylor coefficients [c_0 ... c_n] of the solution at x0.

    A Taylor-mode recurrence (Corliss & Chang, *ACM TOMS* 8, 1982; Jorba &
    Zou, *Exp. Math.* 14, 2005) on integers.  f(x0 + t, y) is expanded once
    into sum b_ij t^i y^j.  Let d be the denominator of y0, p = max
    ceil((j - 1) / (i + 1)) (at least 0), and h the lcm of the denominators
    of the b_ij times d^p.  Then w(s) = d y(x0 + h s) solves
    w' = sum a_ij s^i w^j with a_ij = b_ij h^(i+1) d^(1-j), so its
    coefficients and initial value are integers, and so is every
    w^(k)(0) = d h^k y^(k)(x0).  Each (w^j)^(k)(0) that f needs follows by
    the Leibniz rule with integer binomials from two smaller powers, as in
    `derivative_bounds` (`_powers`; for a square, symmetric in r: twice the
    terms r < k/2, plus the middle one when k is even), and
    w^(k+1)(0) = sum a_ij k!/(k-i)! (w^j)^(k-i)(0).  Each coefficient is
    reduced once: c_k = w^(k)(0) / (d h^k k!).  Past MAX_COEFF_BITS bits in
    w^(k)(0) or in d h^k k!, ExprError names the order.
    """
    _require_xy(f)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x0, y0 = as_rational(x0), as_rational(y0)
    shifted: dict[tuple[int, int], Fraction] = {}
    for key, a in f._monomials.items():
        e_x, e_y = (*key, 0, 0)[:2]
        for i in range(e_x + 1):
            term = a * comb(e_x, i) * x0 ** (e_x - i)
            shifted[i, e_y] = shifted.get((i, e_y), 0) + term
    shifted = {ij: b for ij, b in shifted.items() if b}
    d, lcd = y0.denominator, lcm(*(b.denominator for b in shifted.values()))
    p = max([0, *(-(-(j - 1) // (i + 1)) for i, j in shifted)])
    h, w, dens, plan = lcd * d**p, [y0.numerator], [d], _powers(j for _, j in shifted)
    terms = [
        (i, j, b.numerator * lcd ** (i + 1) // b.denominator * d ** (p * (i + 1) + 1 - j))
        for (i, j), b in shifted.items()
    ]
    # powers[j][k] = (w^j)^(k)(0); powers[1] is w itself.
    powers = {0: [1] + [0] * n, 1: w, **{j: [w[0] ** j] for j in plan}}
    row = [1]  # binomials C(m, r), r = 0 ... m
    for k in range(n):
        w.append(sum(b * perm(k, i) * powers[j][k - i] for i, j, b in terms if i <= k))
        dens.append(dens[-1] * h * (k + 1))
        bits = max(w[-1].bit_length(), dens[-1].bit_length())
        _check_bits(bits, MAX_COEFF_BITS, "Taylor coefficient", k + 1)
        row = [1, *map(operator.add, row, row[1:]), 1]
        for j in plan:
            powers[j].append(_leibniz_sum(row, powers[j // 2], powers[j - j // 2]))
    return list(map(Fraction, w, dens))


def _leibniz_sum(row: Sequence[int], u: Sequence[int], v: Sequence[int]) -> int:
    """sum_r C(m, r) u_r v_{m-r}, the m-th derivative of u*v from those of u
    and of v, for the row C(m, .), m >= 1.  For u is v, twice the terms
    r < m/2, plus the middle one when m is even."""
    m = len(row) - 1
    if u is not v:
        return sum(map(operator.mul, map(operator.mul, row, u), v[m::-1]))
    h = (m + 1) // 2
    half = sum(map(operator.mul, map(operator.mul, row[:h], u), u[m : m - h : -1]))
    return 2 * half + (0 if m % 2 else row[h] * u[h] * u[h])


def derivative_values(
    f: FlowExpr, x0: RationalLike, y0: RationalLike, n: int
) -> list[Fraction]:
    """Exact values [y'(x0), ..., y^(n)(x0)], y^(k)(x0) = k! c_k."""
    coefficients = taylor_coefficients(f, x0, y0, n)
    return [factorial(k) * c for k, c in enumerate(coefficients)][1:]


# -- restricted text form ------------------------------------------------
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := NUMBER | 'x' ['^' INT] | 'y' ['^' INT]
# NUMBER := INT | INT '/' INT | DECIMAL          (parsed exactly)
#
# Derivative symbols never appear in user input.  ratcore.as_rational, the one
# literal reader, reads each NUMBER and exponent: at most MAX_LITERAL_DIGITS
# ASCII digits, numerator and denominator together ("²" and "٣" are refused at
# their literal).  In each term, the exponents of x, and those of y, sum to at
# most _MAX_EXPONENT.  A coefficient made of more than one NUMBER (a term's
# product of constants, or the sum of the terms with one monomial) has at most
# MAX_LITERAL_DIGITS digits too, in lowest terms, and so has the common
# denominator of the terms read so far: coprime denominators of different
# monomials would otherwise multiply without bound.

_MAX_EXPONENT = 64


def _error(text: str, message: str, pos: int) -> ExprParseError:
    line = text.count("\n", 0, pos) + 1
    return ExprParseError(message, line, pos - text.rfind("\n", 0, pos))


def _literal(text: str, literal: str, pos: int, den_pos: int = 0) -> Fraction:
    """as_rational(literal), its ValueError raised at pos and a zero
    denominator at den_pos."""
    try:
        return as_rational(literal)
    except ZeroDivisionError:
        raise _error(text, "zero denominator", den_pos) from None
    except ValueError as exc:
        raise _error(text, str(exc), pos) from None


def _too_long(*values: int) -> bool:
    """Whether nonnegative ints have over MAX_LITERAL_DIGITS digits together.
    Bit lengths come first, since str() refuses ints past 4,300 digits: with
    over 4 * MAX_LITERAL_DIGITS bits, one or two ints have over 118 digits."""
    if sum(v.bit_length() for v in values) > 4 * MAX_LITERAL_DIGITS:
        return True
    return sum(len(str(v)) for v in values) > MAX_LITERAL_DIGITS


def _check_coefficient(text: str, q: Fraction, pos: int) -> None:
    """Refuse q past MAX_LITERAL_DIGITS digits, numerator and denominator
    together."""
    if _too_long(abs(q.numerator), q.denominator):
        message = f"coefficient has over {MAX_LITERAL_DIGITS} digits in lowest terms"
        raise _error(text, message, pos)


def _skip(text: str, pos: int, accept) -> int:
    while pos < len(text) and accept(text[pos]):
        pos += 1
    return pos


def _tokens(text: str) -> list[tuple[str, int]]:
    """All (token, offset) pairs of text, then end markers ("", len(text)).

    A token is an operator, a number (its first character a digit) or a name
    (a letter).  Eager, so a bad character anywhere wins over any grammar
    error before it.
    """
    out, pos = [], 0
    while pos < len(text):
        start, ch = pos, text[pos]
        pos += 1
        if ch.isdigit():
            pos = _skip(text, pos, str.isdigit)
            if text.startswith(".", pos):
                pos += 1
                if not text[pos : pos + 1].isdigit():
                    raise _error(text, "decimal point must be followed by digits", pos)
                pos = _skip(text, pos, str.isdigit)
        elif ch.isalpha():
            pos = _skip(text, pos, str.isalnum)
        elif ch.isspace():
            continue
        elif ch not in "+-*^/()":
            raise _error(text, f"unsupported character {ch!r}", start)
        out.append((text[start:pos], start))
    return out + [("", len(text))] * 3  # a factor looks two tokens ahead


def parse_flow_expr(text: str) -> FlowExpr:
    """Parse the restricted text form (terms c * x^i * y^j over + and -)."""
    toks = _tokens(text)
    tok, pos = toks[0]
    if not tok:
        raise _error(text, "empty expression", pos)
    i, negative = (1 if tok in ("+", "-") else 0), tok == "-"
    expr, term, sums, constant = FlowExpr.zero(), None, {}, None
    while True:
        (tok, pos), (op, op_pos), (arg, arg_pos) = toks[i : i + 3]
        i += 1
        if term is None:
            term_pos = pos
        if tok[:1].isdigit():
            if op != "/":
                value = _literal(text, tok, pos)
            elif "." in tok:
                raise _error(text, "ratio parts must be integers", op_pos)
            elif not arg[:1].isdigit() or "." in arg:
                raise _error(text, "expected an integer denominator", arg_pos)
            else:
                value, i = _literal(text, f"{tok}/{arg}", pos, arg_pos), i + 2
            if constant is None:
                constant = value
            else:
                constant *= value
                _check_coefficient(text, constant, pos)
            factor = FlowExpr.constant(value)
        elif tok in ("x", "y"):
            exp = 1
            if op == "^":
                if not arg[:1].isdigit() or "." in arg:
                    message = "exponent must be a nonnegative integer"
                    raise _error(text, message, arg_pos)
                exp, pos, i = _literal(text, arg, arg_pos).numerator, arg_pos, i + 2
            total = sums[tok] = sums.get(tok, 0) + exp
            if total > _MAX_EXPONENT:
                raise _error(text, f"exponent {total} exceeds limit {_MAX_EXPONENT}", pos)
            factor = FlowExpr({(exp,) if tok == "x" else (0, exp): 1})
        elif tok[:1].isalpha():
            raise _error(
                text,
                f"unsupported token {tok!r} (only x, y and rational constants; "
                f"no function calls or parentheses)",
                pos,
            )
        else:
            raise _error(text, f"expected a factor, found {tok!r}", pos)
        term = factor if term is None else term * factor
        tok, pos = toks[i]
        i += 1
        if tok == "*":
            continue
        key = next(iter(term._monomials), None)
        known = key in expr._monomials
        expr = expr + (-term if negative else term)
        coeffs = expr._monomials
        if _too_long(lcm(*(q.denominator for q in coeffs.values()))):
            message = f"common denominator has over {MAX_LITERAL_DIGITS} digits"
            raise _error(text, message, term_pos)
        if known and key in coeffs:
            _check_coefficient(text, coeffs[key], term_pos)
        if not tok:
            return expr
        if tok not in ("+", "-"):
            raise _error(text, f"expected '+' or '-' before {tok!r}", pos)
        negative, term, sums, constant = tok == "-", None, {}, None
