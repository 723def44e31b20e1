"""Work counts: no certificate builds or evaluates a derivative chain.

A counter on FlowExpr.flow_derivative counts chain steps, and a counter on
DerivativeChain.bounds counts evaluation passes.  Every flow's bounds come
from the interval recurrence of `odexpr.derivative_bounds`, so a certificate
takes no steps and no passes, whether its flow is of the form a(x) + b*y^2
(riccati) or not (`1/4 + x*y^2`, whose y^2 coefficient depends on x, and
flows of y-degree 3 and 8).  The coefficients come from the Taylor-mode
recurrence, so the coeffs subcommand builds and evaluates no chain at all.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import riccati_flow
from taylorcert import cli
from taylorcert.certify import certify_partial_sum
from taylorcert.odexpr import (
    DerivativeChain,
    FlowExpr,
    derivative_values,
    parse_flow_expr,
    taylor_coefficients,
)
from taylorcert.ratcore import DecimalRounding

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def flow_derivative_calls(monkeypatch):
    calls = []
    original = FlowExpr.flow_derivative

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(FlowExpr, "flow_derivative", counted)
    return calls


@pytest.fixture
def bounds_passes(monkeypatch):
    passes = []
    original = DerivativeChain.bounds

    def counted(self, *args, **kwargs):
        passes.append(len(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DerivativeChain, "bounds", counted)
    return passes


@pytest.mark.parametrize("degree", [0, 1, 9, 20])
def test_certificate_builds_chain_once(
    riccati_problem, flow_derivative_calls, bounds_passes, degree
):
    p = replace(riccati_problem, degree=degree)
    cert = certify_partial_sum(p)
    assert not flow_derivative_calls
    assert not bounds_passes
    assert list(cert.coefficients) == taylor_coefficients(p.f, p.x0, p.y0, p.degree)


@pytest.mark.parametrize(
    "text, y0",
    [
        ("1/4 + x*y^2", -1),
        ("x*y^3 - 1/5*y^3 + 1 + y^2", 0),
        ("x^2*y^3 - 1/25*y^3 + 1 + y^2 + x", 0),
        ("x*y^8 - 1/5*y^8 + 1 + y^2", 0),
    ],
    ids=["1/4 + x*y^2", "y^3", "x^2*y^3", "y^8"],
)
@pytest.mark.parametrize("rounding", ["exact", "outward:30"])
def test_no_certificate_builds_a_chain(
    riccati_problem, flow_derivative_calls, bounds_passes, text, y0, rounding
):
    p = replace(
        riccati_problem, f=parse_flow_expr(text), y0=Fraction(y0), degree=12,
        rounding=DecimalRounding.parse(rounding),
    )
    cert = certify_partial_sum(p)
    assert not flow_derivative_calls
    assert not bounds_passes
    assert len(cert.derivative_bounds) == 13


@pytest.mark.parametrize("degree", [0, 1, 9])
def test_coeffs_subcommand_builds_no_chain(tmp_path, flow_derivative_calls, degree):
    path = tmp_path / "flow.prob"
    path.write_text(
        f'f = "x^2 + 1/4*y^2"\nx0 = "0"\ny0 = "-1"\ndegree = {degree}\nx1 = "1/5"\n'
    )
    assert cli.run(["coeffs", str(path)]) == 0
    assert not flow_derivative_calls


def test_degree_zero_values_build_no_chain(flow_derivative_calls):
    assert derivative_values(riccati_flow(), 0, 0, 0) == []
    assert not flow_derivative_calls


def test_coeffs_subcommand_evaluates_no_chain(bounds_passes, capsys):
    assert cli.run(["coeffs", str(PROBLEMS / "riccati.prob")]) == 0
    assert bounds_passes == []
