"""The argument checks of the library entry points, each with its message.

Every check here refuses a caller's argument before any work starts; no
other test reaches it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import riccati_flow
from taylorcert import ProblemSpec
from taylorcert.cauchy import RadiusCertificate
from taylorcert.certify import lagrange_remainder
from taylorcert.comparison import check_applicability
from taylorcert.odexpr import derivative_bounds, derivative_chain, symbol_name
from taylorcert.oracle import reference_grid
from taylorcert.ratcore import RatInterval, as_rational

F = Fraction
UNIT = RatInterval(F(0), F(1))


def problem(**fields) -> ProblemSpec:
    return ProblemSpec(riccati_flow(), F(0), F(-1), 3, F(1, 5), **fields)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: problem(r1=F(0)), ValueError, "box radii must be positive"),
        (lambda: problem(r2=F(-1)), ValueError, "box radii must be positive"),
        (
            lambda: problem(enclosure_width=F(0)),
            ValueError,
            "enclosure width must be positive",
        ),
        (
            lambda: lagrange_remainder(UNIT, F(-1, 5), 3),
            ValueError,
            "dx must be nonnegative",
        ),
        (
            lambda: RadiusCertificate(F(1), F(1), F(-1), UNIT, F(0)),
            ValueError,
            "magnitude bound must be nonnegative",
        ),
        (
            lambda: check_applicability(riccati_flow(), "1/5", "1/5", UNIT),
            ValueError,
            "applicability check needs x1 > x0",
        ),
        (lambda: symbol_name(-1), ValueError, "derivative order must be >= 0"),
        (
            lambda: derivative_chain(riccati_flow(), -1),
            ValueError,
            "chain length parameter must be >= 0",
        ),
        (
            lambda: derivative_bounds(riccati_flow(), -1, UNIT, UNIT),
            ValueError,
            "degree must be >= 0, got -1",
        ),
        (
            lambda: reference_grid(riccati_flow(), "0", "-1", [F(-1, 5), F(1, 5)]),
            ValueError,
            "grid starts before x0",
        ),
        (
            lambda: as_rational(None),
            TypeError,
            "cannot convert NoneType to exact rational",
        ),
    ],
    ids=[
        "spec-r1",
        "spec-r2",
        "spec-width",
        "remainder-dx",
        "radius-M",
        "applicability-x1",
        "symbol-order",
        "chain-length",
        "bounds-degree",
        "grid-start",
        "rational-none",
    ],
)
def test_argument_is_refused_with_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
