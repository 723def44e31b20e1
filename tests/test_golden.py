"""Golden reports: SHA-256 digests of deterministic JSON output.

The digests pin the JSON certificate reports, the `coeffs` and `check-poly`
output and the oracle's output (`oracle` and the sanity section of
`certify`) byte for byte, so a change to the pipeline that moves any exact
value, rounding, reference value or key order fails here.  Most were recorded
with the earlier implementation, which derived the chain twice per
certificate and the flow derivative term by term, and the oracle digests with
hard-coded gamma constants and two separate step-doubling loops.  Each checks
the current code against an independent computation.  The exact reports whose
bounds pass odexpr.EXACT_BOUND_BITS (quadratic at degrees 9, 20 and 28,
riccati at 60) were re-recorded when those bounds came to be rounded onto the
2**-1024 grid; test_derivative_bounds.py checks the rounded bounds against the
exact Fraction loop rounded at the same orders, and their containment of the
unrounded bounds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from taylorcert.certify import certify_partial_sum
from taylorcert.cli import build_report, parse_problem, report_to_json, run
from taylorcert.ratcore import DecimalRounding

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# (problem file, degree, rounding) -> SHA-256 of the JSON report.
REPORT_DIGESTS = {
    ("riccati.prob", 9, "exact"):
        "49ed6168f1d2b5dc7537c6deb5aecdf002dc025b3f2e5bf84375762e64cbc3df",
    ("riccati.prob", 20, "exact"):
        "388c54013193595ec272e85859272acdcef1e883ee3c89b7c7c8858f52b9ec98",
    ("riccati.prob", 40, "exact"):
        "788599dc4ed1f4539c2b02a67d5c33ba5f6c564b722708f17678f4cb9fd6b61b",
    ("quadratic.prob", 9, "exact"):
        "4fe7108ab6e3bb8597c818b959ad54389a83f80aca42715cdbd38e17a80c4faf",
    ("quadratic.prob", 20, "exact"):
        "a93bb15fb5f5cc92a05e26d8438f4e2a6eede8e0045fad861e01ce1c9c5d63c8",
    ("riccati.prob", 60, "outward:30"):
        "208e5eb41eafd6c453377bfa91c137f6391fc91cd1c96551f74b22273156b8e3",
    ("quadratic.prob", 28, "outward:30"):
        "bb0d92801544ebb06ff28fed3b68483cb61144daa2a147e3dc09f5b4ae706fb7",
}

# SHA-256 of the riccati degree-60 and quadratic degree-28 exact JSON reports.
RICCATI_60_EXACT_DIGEST = "141d81318ef62c6f75c90cf2aa63965b1c3bd6efe0d620965f7b3d552c96fc30"
QUADRATIC_28_EXACT_DIGEST = "298baba2ee759c31d5bbb45231ac65f8b74a4d540c93aef853b756977b5f397e"

COEFFS_JSON_DIGEST = "5bcc031548d13c08b044df9969424f3b9dfbe7413cc58549179610b19211794b"
COEFFS_STDOUT_DIGEST = "d487cf4e5cc4b710f0a1086d19de0f775bfc909b2b5c31eb324bc65c467fa9e5"

# `coeffs --json` for flows outside the comparison class, recorded with the
# coefficients of the evaluated derivative chain: (f, x0, y0, degree, x1) ->
# SHA-256 of the JSON document.
FLOW_COEFFS_JSON_DIGESTS = {
    ("1 + x*y^2 + y^3", "0", "0", 20, "1"):
        "4c4e1449793ad0b9f2b7b80ab496eece2c2077e2fd39e5b876e8233f167ca6cc",
    ("x^3*y^2 + 2*x + y^4", "0", "0", 20, "1"):
        "1800c768dfcf717895e4993df826aba526d4a20392325ea1b733d90147ed72cf",
    ("3/7 - 5/4*y^2 + 2/3*x^2*y + 1/6*x*y^3", "1/3", "2/7", 20, "1/2"):
        "5395c10908688ba3f0827883ff8f1b76e0d8531f77506be373c0263ccd832f2a",
}

# Stdout of the two subcommands that run the non-rigorous oracle, for
# problems/riccati.prob: `oracle --at 1/5` (integrator, closed form and their
# difference) and `certify` with its sanity section.
ORACLE_STDOUT_DIGESTS = {
    ("oracle", "--at", "1/5"):
        "1cedafe50ecee9a2e14d23a5dbef7dad79ee75309d8536b8e52863f14fa8ecd1",
    ("certify",):
        "398013deca4783bfa04b81e25b0b2539e6ccba5b52691b7bb69903837a39b90e",
}
# The JSON report of that `certify` run, sanity section included.
SANITY_JSON_DIGEST = "902f75adc6d22f28873b6ae22d0ca0b6798adbfd0da4436680d9c3b0ee6b21f3"

# `check-poly problems/quadratic.prob --poly problems/quadratic_ybar.poly`:
# stdout and the --json document, recorded with the enclosure of q - p_n by
# the interval polynomial loop of the earlier implementation.
CHECK_POLY_STDOUT_DIGEST = "179889a50462566d2161ad16083077a7583ebfccc394577f0730d27ad8db5ecf"
CHECK_POLY_JSON_DIGEST = "62482ba0b651305bbfff1c25815030f1181b45fefcc53cd4335ff67efb1f89a6"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def certificate(name: str, degree: int, rounding: str):
    spec = parse_problem((PROBLEMS / name).read_text())
    spec = replace(spec, degree=degree, rounding=DecimalRounding.parse(rounding))
    return certify_partial_sum(spec)


def report_digest(name: str, degree: int, rounding: str) -> str:
    return _digest(report_to_json(build_report(certificate(name, degree, rounding))))


@pytest.mark.parametrize("name, degree, rounding", sorted(REPORT_DIGESTS))
def test_report_matches_golden_digest(name, degree, rounding):
    assert report_digest(name, degree, rounding) == REPORT_DIGESTS[name, degree, rounding]


def test_riccati_60_exact_report_matches_golden_digest():
    assert report_digest("riccati.prob", 60, "exact") == RICCATI_60_EXACT_DIGEST


def test_quadratic_28_exact_report_matches_golden_digest():
    assert report_digest("quadratic.prob", 28, "exact") == QUADRATIC_28_EXACT_DIGEST


def test_coeffs_json_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "coeffs.json"
    assert run(["coeffs", str(PROBLEMS / "riccati.prob"), "--json", str(out)]) == 0
    assert _digest(out.read_text()) == COEFFS_JSON_DIGEST
    assert _digest(capsys.readouterr().out) == COEFFS_STDOUT_DIGEST


@pytest.mark.parametrize("problem", sorted(FLOW_COEFFS_JSON_DIGESTS))
def test_flow_coeffs_json_matches_golden_digest(problem, tmp_path, capsys):
    f, x0, y0, degree, x1 = problem
    path, out = tmp_path / "flow.prob", tmp_path / "coeffs.json"
    path.write_text(f'f = "{f}"\nx0 = "{x0}"\ny0 = "{y0}"\ndegree = {degree}\nx1 = "{x1}"\n')
    assert run(["coeffs", str(path), "--json", str(out)]) == 0
    assert _digest(out.read_text()) == FLOW_COEFFS_JSON_DIGESTS[problem]


@pytest.mark.parametrize("argv", sorted(ORACLE_STDOUT_DIGESTS))
def test_oracle_stdout_matches_golden_digest(argv, capsys):
    command, *options = argv
    assert run([command, str(PROBLEMS / "riccati.prob"), *options]) == 0
    assert _digest(capsys.readouterr().out) == ORACLE_STDOUT_DIGESTS[argv]


def test_sanity_json_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["certify", str(PROBLEMS / "riccati.prob"), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["sanity"]["inside_certified_range"] is True
    assert _digest(out.read_text()) == SANITY_JSON_DIGEST


def test_check_poly_matches_golden_digests(tmp_path, capsys):
    out = tmp_path / "check.json"
    argv = ["check-poly", str(PROBLEMS / "quadratic.prob"),
            "--poly", str(PROBLEMS / "quadratic_ybar.poly"), "--json", str(out)]
    assert run(argv) == 0
    assert _digest(capsys.readouterr().out) == CHECK_POLY_STDOUT_DIGEST
    assert _digest(out.read_text()) == CHECK_POLY_JSON_DIGEST
