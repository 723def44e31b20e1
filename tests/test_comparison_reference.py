"""`solution_range` against a verbatim copy of its earlier refinement loop.

The earlier loop had three separate retries (s.lo <= 0, a straddling
denominator, an upper enclosure wider than the target), each dividing the
component width by 16.  The current loop folds them into one division at the
end of each round.  This file keeps the earlier function as the reference and
compares whole SolutionRanges: on a seeded corpus of comparisons near their
pole, and on one pinned input per branch of the loop, with its round count.
"""

import math
import random
from fractions import Fraction

import pytest

import taylorcert.comparison as comparison
from taylorcert.comparison import QuadraticComparison, SolutionRange, solution_range
from taylorcert.odexpr import FlowExpr
from taylorcert.ratcore import (
    DecimalRounding,
    EnclosureError,
    HALF_PI_LOWER,
    RatInterval,
    as_rational,
    enclose_sqrt,
    enclose_tan,
)

F = Fraction
WIDTH = F(1, 10**12)
EXACT = DecimalRounding.exact()

# -- the earlier loop, verbatim ------------------------------------------------


def _invalid(
    y0: Fraction, diagnostics: str, tight: RatInterval | None = None
) -> SolutionRange:
    point = RatInterval.point(y0)
    return SolutionRange(
        range=point,
        valid=False,
        diagnostics=diagnostics,
        tight_upper=tight if tight is not None else point,
    )


def reference_solution_range(qc, width, rounding, flow):
    width = as_rational(width)
    if width <= 0:
        raise EnclosureError("enclosure width must be positive")
    if qc.x1 == qc.x0:
        return SolutionRange(
            range=RatInterval.point(qc.y0),
            valid=True,
            diagnostics="degenerate interval: x1 = x0",
            tight_upper=RatInterval.point(qc.y0),
        )

    dx = qc.x1 - qc.x0
    component_width = width / 8
    for _ in range(60):
        s_enc = enclose_sqrt(qc.alpha / qc.beta, component_width)
        rate_enc = enclose_sqrt(qc.alpha * qc.beta, component_width)
        theta = rate_enc.scale(dx)
        if theta.hi >= HALF_PI_LOWER:
            return _invalid(
                qc.y0,
                f"tangent argument {theta} reaches the certified pi/2 bound: "
                f"no tangent-form bound exists on [{qc.x0}, {qc.x1}]",
            )
        try:
            t_enc = enclose_tan(theta, component_width)
        except EnclosureError as exc:
            return _invalid(qc.y0, f"tangent enclosure failed: {exc}")
        if s_enc.lo <= 0:
            component_width /= 16
            continue
        denominator = RatInterval.point(1) - t_enc * RatInterval.point(qc.y0) / s_enc
        if denominator.lo <= 0:
            if denominator.hi <= 0 or component_width <= width / 2**40:
                return _invalid(
                    qc.y0,
                    f"denominator 1 - t*y0/s = {denominator} not certifiably "
                    f"positive: comparison solution escapes before x1 = {qc.x1}",
                )
            component_width /= 16
            continue
        numerator = s_enc * t_enc + RatInterval.point(qc.y0)
        upper = numerator / denominator
        if upper.width > width:
            component_width /= 16
            continue
        break
    else:
        return _invalid(qc.y0, "enclosure width target unreachable")

    upper = RatInterval(max(upper.lo, qc.y0), max(upper.hi, qc.y0))
    reported = RatInterval(qc.y0, rounding.round_up(upper.hi))

    try:
        comparison.check_applicability(flow, qc.x0, qc.x1, reported)
    except comparison.ApplicabilityError as exc:
        return _invalid(
            qc.y0, f"{exc.kind} fails on certified range {reported}: {exc}", upper
        )
    return SolutionRange(
        range=reported,
        valid=True,
        diagnostics="",
        tight_upper=upper,
    )


# -- helpers -------------------------------------------------------------------


def frozen_flow(qc: QuadraticComparison) -> FlowExpr:
    return FlowExpr.constant(qc.alpha) + FlowExpr({(0, 2): qc.beta})


def pole(alpha: Fraction, beta: Fraction, y0: Fraction) -> float:
    """Distance from x0 at which alpha + beta*y^2 from y0 blows up."""
    s = math.sqrt(alpha / beta)
    return (math.pi / 2 - math.atan(y0 / s)) / math.sqrt(alpha * beta)


def rounds_of(qc: QuadraticComparison, monkeypatch) -> tuple[SolutionRange, int]:
    """solution_range(qc) at WIDTH, exact, and how many rounds it took."""
    calls = []

    def counting(q, width):  # each round encloses two square roots
        calls.append(width)
        return enclose_sqrt(q, width)

    monkeypatch.setattr(comparison, "enclose_sqrt", counting)
    sr = solution_range(qc, WIDTH, EXACT, frozen_flow(qc))
    monkeypatch.undo()
    return sr, len(calls) // 2


# -- seeded corpus -------------------------------------------------------------


def corpus(seed: int, count: int):
    rng = random.Random(seed)
    roundings = (EXACT, DecimalRounding.outward(2), DecimalRounding.outward(30))
    for _ in range(count):
        alpha = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        beta = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        y0 = F(rng.randint(-(10**4), 10**4), rng.randint(1, 10**3))
        fraction = rng.choice((rng.uniform(0.1, 1.0001), 1 - 10 ** -rng.uniform(2, 9)))
        x1 = F(fraction * pole(alpha, beta, y0)).limit_denominator(10**15)
        if x1 <= 0:
            continue
        width = F(1, 10 ** rng.randint(2, 30))
        qc = QuadraticComparison(alpha=alpha, beta=beta, x0=F(0), x1=x1, y0=y0)
        yield qc, width, rng.choice(roundings)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_matches_reference_near_the_pole(seed):
    outcomes = set()
    for qc, width, rounding in corpus(seed, 100):
        flow = frozen_flow(qc)
        expected = reference_solution_range(qc, width, rounding, flow)
        assert solution_range(qc, width, rounding, flow) == expected, qc
        outcomes.add(expected.valid)
    assert outcomes == {True, False}


# -- one input per branch of the loop ------------------------------------------

#: atan(1/10) - 10^-9 to 21 places, and atan(1/10) - 10^-30 to 40 places,
#: from a 60-digit mpmath computation.  atan(1/10) is where 1 + y^2 from
#: y0 = 10 blows up.
NEAR_POLE = F("0.099668651491162027378")
AT_POLE = F("0.0996686524911620273784461198770205902433")

BRANCHES = [
    # alpha, beta, y0, x1, rounds, valid, diagnostics prefix
    # tan(31/20) = 48.07...: past the old series domain [0, 3/2), below pi/2.
    (1, 1, 0, F(31, 20), 1, True, ""),
    (1, 1, 0, F(8, 5), 1, False, "tangent argument [1.6, 1.6] reaches the certified"),
    (1, 1, 10, F(1, 5), 1, False, "denominator 1 - t*y0/s = "),
    (F(2, 10**30), 1, 0, 1, 3, True, ""),
    (F(3, 8), F(1, 4), 1, F(3, 2), 2, True, ""),
    (1, 1, 10, NEAR_POLE, 13, True, ""),
    (1, 1, 10, AT_POLE, 11, False, "denominator 1 - t*y0/s = "),
    # s = sqrt(alpha/beta) ~ 1.4e-100 stays below every component width the
    # 60 rounds reach, so s.lo <= 0 in every round.
    (F(2, 10**200), 1, 0, 1, 60, False, "enclosure width target unreachable"),
]


@pytest.mark.parametrize(
    "alpha, beta, y0, x1, rounds, valid, prefix",
    BRANCHES,
    ids=["tan-31/20", "pi/2", "escape", "s-lo", "too-wide", "straddle",
         "give-up", "unreachable"],
)
def test_branch(alpha, beta, y0, x1, rounds, valid, prefix, monkeypatch):
    qc = QuadraticComparison(F(alpha), F(beta), F(0), F(x1), F(y0))
    sr, took = rounds_of(qc, monkeypatch)
    assert sr == reference_solution_range(qc, WIDTH, EXACT, frozen_flow(qc))
    assert (sr.valid, took) == (valid, rounds)
    assert sr.diagnostics.startswith(prefix)
    if "escape" in sr.diagnostics:
        assert sr.diagnostics.endswith(f"escapes before x1 = {qc.x1}")
