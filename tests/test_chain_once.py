"""Work counts: a certificate builds no derivative chain for f = a(x) + b*y^2,
and builds it once, for its bounds alone, for any other flow.

A counter on FlowExpr.flow_derivative counts chain steps, and a counter on
DerivativeChain.bounds counts evaluation passes.  The riccati flow is of the
form a(x) + b*y^2, so its bounds come from the interval recurrence of
`odexpr.derivative_bounds`: no steps and no passes.  `1/4 + x*y^2` is not (its
y^2 coefficient depends on x): a degree-n certificate needs D_1 .. D_{n+1},
which is n steps, and bounds them in one pass.  The coefficients come from the
Taylor-mode recurrence, so the coeffs subcommand builds and evaluates no
chain at all.
"""

from __future__ import annotations

from dataclasses import replace
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


def test_certificate_outside_the_form_builds_chain_once(
    riccati_problem, flow_derivative_calls, bounds_passes
):
    p = replace(riccati_problem, f=parse_flow_expr("1/4 + x*y^2"), degree=12)
    cert = certify_partial_sum(p)
    assert len(flow_derivative_calls) == 12
    assert bounds_passes == [13]
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
