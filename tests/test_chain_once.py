"""Work counts: the derivative chain is built once per certificate.

A counter on FlowExpr.flow_derivative counts chain steps.  A degree-n
certificate needs D_1 .. D_{n+1}, which is n steps; the coeffs subcommand
needs D_1 .. D_n, which is max(n - 1, 0), and evaluates it once: a counter
on DerivativeChain.bounds counts evaluation passes.
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


@pytest.mark.parametrize("degree", [0, 1, 9, 20])
def test_certificate_builds_chain_once(riccati_problem, flow_derivative_calls, degree):
    p = replace(riccati_problem, degree=degree)
    cert = certify_partial_sum(p)
    assert len(flow_derivative_calls) == degree
    assert list(cert.coefficients) == taylor_coefficients(p.f, p.x0, p.y0, p.degree)


@pytest.mark.parametrize("degree", [0, 1, 9])
def test_coeffs_subcommand_builds_chain_once(tmp_path, flow_derivative_calls, degree):
    path = tmp_path / "flow.prob"
    path.write_text(
        f'f = "x^2 + 1/4*y^2"\nx0 = "0"\ny0 = "-1"\ndegree = {degree}\nx1 = "1/5"\n'
    )
    assert cli.run(["coeffs", str(path)]) == 0
    assert len(flow_derivative_calls) == max(degree - 1, 0)


def test_degree_zero_values_build_no_chain(flow_derivative_calls):
    assert derivative_values(riccati_flow(), 0, 0, 0) == []
    assert not flow_derivative_calls


def test_coeffs_subcommand_evaluates_chain_once(monkeypatch, capsys):
    passes = []
    original = DerivativeChain.bounds

    def counted(self, *args, **kwargs):
        passes.append(len(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DerivativeChain, "bounds", counted)
    assert cli.run(["coeffs", str(PROBLEMS / "riccati.prob")]) == 0
    assert passes == [9]
