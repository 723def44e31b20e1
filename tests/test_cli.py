"""Problem-file parsing, subcommands, exit codes, and report formats."""

from fractions import Fraction
import json
import os
import re
import signal
from pathlib import Path
import subprocess
import sys

import pytest

from taylorcert.cli import (
    InputError,
    build_report,
    parse_poly_file,
    parse_problem,
    report_to_json,
    run,
)
from taylorcert import comparison, odexpr
from taylorcert.certify import MAX_DEGREE, MAX_POLY_DEGREE, certify_partial_sum
from taylorcert.oracle import MAX_RK4_STEPS, ConvergenceError
from taylorcert.comparison import ApplicabilityError, check_applicability
from taylorcert.ratcore import DecimalRounding, RatInterval, format_rational
from test_ratcore import from_digits

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"

PROBLEM_TEXT = """\
# certificate configuration
f = "x^2 + 1/4*y^2"
x0 = "0"
y0 = "-1"
degree = 9
x1 = "1/5"
r1 = "1/2"
r2 = "1"
rounding = "exact"
"""


@pytest.fixture
def problem_file(tmp_path) -> Path:
    path = tmp_path / "flow.prob"
    path.write_text(PROBLEM_TEXT)
    return path


@pytest.fixture
def quadratic_file(tmp_path) -> Path:
    path = tmp_path / "quadratic.prob"
    path.write_text(
        'f = "1/4*x + 1/4*y^2"\nx0 = "0"\ny0 = "1"\ndegree = 5\nx1 = "2/5"\n'
    )
    return path


# -- problem parsing ----------------------------------------------------------


def test_parse_problem_full_schema():
    spec = parse_problem(PROBLEM_TEXT)
    assert spec.x0 == 0 and spec.y0 == -1
    assert spec.degree == 9
    assert spec.x1 == F(1, 5)
    assert (spec.r1, spec.r2) == (F(1, 2), F(1))
    assert spec.rounding.is_exact
    assert spec.notes == ()


def test_parse_problem_decimal_values():
    spec = parse_problem('f="y^2"\nx0="0"\ny0="0.5"\ndegree=3\nx1="0.2"\n')
    assert spec.y0 == F(1, 2)
    assert spec.x1 == F(1, 5)


def test_parse_problem_defaults_radii_with_warning():
    spec = parse_problem('f = "y^2"\nx0 = "0"\ny0 = "1"\ndegree = 2\nx1 = "1/10"\n')
    assert (spec.r1, spec.r2) == (F(1), F(1))
    assert any("defaulting" in note for note in spec.notes)


def test_parse_problem_rounding_modes():
    text = 'f="y^2"\nx0="0"\ny0="1"\ndegree=2\nx1="1/10"\nrounding="outward:2"\n'
    assert parse_problem(text).rounding == DecimalRounding.outward(2)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ('f = "sin(x)"', "unsupported token 'sin'"),
        ('x1 = "0"', "x1"),
        ("degree = -2", "degree"),
        ("degree = nine", "degree"),
        # int() reads "1_0" as 10; underscore forms are refused, as in
        # every rational field.
        ("degree = 1_0", "field 'degree' must be an integer"),
        ('rounding = "outward:1_0"', "rounding must be 'exact' or 'outward:D'"),
        ('r1 = "-1"', "r1"),
        ('rounding = "sideways"', "rounding"),
        ("bogus = 3", "unknown key"),
    ],
)
def test_parse_problem_rejects_bad_fields(mutation, fragment):
    lines = [
        line
        for line in PROBLEM_TEXT.splitlines()
        if not line.startswith(mutation.split(" ", 1)[0])
    ]
    text = "\n".join(lines + [mutation])
    with pytest.raises(InputError, match=fragment):
        parse_problem(text)


def test_parse_problem_missing_key():
    with pytest.raises(InputError, match="missing required key 'x1'"):
        parse_problem('f = "y^2"\nx0 = "0"\ny0 = "1"\ndegree = 2\n')


def test_parse_problem_duplicate_key():
    with pytest.raises(InputError, match="duplicate"):
        parse_problem('f="y^2"\nf="x^2"\nx0="0"\ny0="1"\ndegree=2\nx1="1"\n')


def test_parse_poly_file():
    coeffs = parse_poly_file("# header\n1 + 1/4*x + 1/200*x^5\n")
    assert coeffs == [F(1), F(1, 4), F(0), F(0), F(0), F(1, 200)]
    with pytest.raises(InputError, match="only the variable x"):
        parse_poly_file("1 + y")


def test_poly_degree_is_capped_by_the_parser():
    # parse_poly_file has no degree check of its own: the parser's per-term
    # exponent cap is the polynomial degree cap.
    assert odexpr._MAX_EXPONENT == MAX_POLY_DEGREE
    assert len(parse_poly_file("x^32*x^32 + 1")) == MAX_POLY_DEGREE + 1
    with pytest.raises(InputError, match="column 11: exponent 65 exceeds limit 64"):
        parse_poly_file("x^32*x^32*x")


# -- subcommands and exit codes -------------------------------------------------


def test_certify_exit_zero_and_report(problem_file, tmp_path, capsys):
    json_path = tmp_path / "out.json"
    code = run(
        ["certify", str(problem_file), "--no-sanity", "--json", str(json_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "remainder certificate" in out
    assert "r >= 0.27" in out
    doc = json.loads(json_path.read_text())
    assert doc["certificate"]["coefficients"][0] == "-1"
    assert doc["certificate"]["radius"]["floor"] == "27/100"


def test_radius_output(problem_file, capsys):
    assert run(["radius", str(problem_file)]) == 0
    out = capsys.readouterr().out
    assert "r >= 0.27" in out
    assert "0.27533551794" in out


def test_range_output_with_parity_rounding(problem_file, capsys):
    assert run(["range", str(problem_file), "--rounding", "outward:2"]) == 0
    out = capsys.readouterr().out
    assert "certified range [-1, -47/50 (-0.94)]" in out


def test_coeffs_output(problem_file, capsys):
    assert run(["coeffs", str(problem_file)]) == 0
    out = capsys.readouterr().out
    assert "c3  = 67/192" in out
    assert "y^(3)(0) = 67/32" in out


def test_bounds_output_parity(problem_file, capsys):
    assert run(["bounds", str(problem_file), "--rounding", "outward:2"]) == 0
    out = capsys.readouterr().out
    assert "y^(1): [11/50 (0.22), 29/100 (0.29)]" in out


def test_check_poly_command(quadratic_file, tmp_path, capsys):
    poly = tmp_path / "cand.poly"
    poly.write_text("1 + 1/4*x + 3/16*x^2 + 7/192*x^3 + 1/96*x^4 + 1/200*x^5\n")
    assert run(["check-poly", str(quadratic_file), "--poly", str(poly)]) == 0
    out = capsys.readouterr().out
    assert "sup |q(x) - y(x)| <=" in out


def test_oracle_command(problem_file, capsys):
    assert run(["oracle", str(problem_file), "--at", "1/5"]) == 0
    out = capsys.readouterr().out
    assert "integrator" in out
    assert "closed form" in out
    assert "-0.94977712496" in out


@pytest.mark.parametrize("tol", ["0", "-1/1000", "abc", "1e-60"])
def test_oracle_rejects_bad_tolerance(problem_file, capsys, monkeypatch, tol):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrator ran despite a bad --tol")

    monkeypatch.setattr("taylorcert.oracle._rk4_fixed", no_integration)
    assert run(["oracle", str(problem_file), "--at", "1/5", f"--tol={tol}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: --tol:")


def test_negative_option_values_reach_validation(problem_file, capsys):
    # A space-separated negative value is a value, not an unknown option.
    assert run(["oracle", str(problem_file), "--at", "1/5", "--tol", "-1/1000"]) == 1
    assert capsys.readouterr().err == (
        "input error: --tol: tolerance must be positive, got -1/1000\n"
    )
    assert run(["oracle", str(problem_file), "--at", "-1/10"]) == 1
    assert capsys.readouterr().err == "input error: evaluation point precedes x0\n"


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text('f = "sin(x)"\nx0="0"\ny0="1"\ndegree=2\nx1="1"\n')
    assert run(["certify", str(bad)]) == 1
    assert "input error" in capsys.readouterr().err
    assert run(["certify", str(tmp_path / "missing.prob")]) == 1
    assert run(["no-such-command"]) == 1


def test_certification_failure_exit_code(tmp_path, capsys):
    straddles = tmp_path / "straddle.prob"
    straddles.write_text('f = "x*y"\nx0="0"\ny0="0"\ndegree=3\nx1="1/5"\n')
    assert run(["certify", str(straddles)]) == 2
    err = capsys.readouterr().err
    assert "certification failed" in err
    assert "comparison" in err


def test_oracle_convergence_failure_exit_code(problem_file, capsys, monkeypatch):
    def stalls(*args, **kwargs):
        raise ConvergenceError("step halving did not settle")

    monkeypatch.setattr("taylorcert.oracle.reference_solution", stalls)
    assert run(["oracle", str(problem_file), "--at", "1/5"]) == 2
    assert capsys.readouterr().err == "certification failed: step halving did not settle\n"
    # The sanity section is not a proof: a failing integrator vetoes no
    # certificate, and both reports carry its message.
    out = problem_file.parent / "out.json"
    assert run(["certify", str(problem_file), "--json", str(out)]) == 0
    text, err = capsys.readouterr()
    assert err == ""
    assert (
        "sanity (non-rigorous reference):\n"
        "  no reference value: step halving did not settle\n"
    ) in text
    sanity = json.loads(out.read_text())["sanity"]
    assert sanity == {"integrator_failure": "step halving did not settle"}


def test_sanity_failure_keeps_the_tangent_certificate(tmp_path, capsys):
    # The RK4 integrator does not stabilize near the pole of tan x at pi/2;
    # the certificate on [0, 31/20] stands, as under --no-sanity.
    prob, out = tmp_path / "tan.prob", tmp_path / "out.json"
    prob.write_text('f = "1 + y^2"\nx0 = "0"\ny0 = "0"\ndegree = 9\nx1 = "31/20"\n')
    assert run(["certify", str(prob), "--json", str(out)]) == 0
    text, err = capsys.readouterr()
    assert err == ""
    message = "integrator did not stabilize within 1/10000000000000000 after "
    assert f"  no reference value: {message}" in text
    report = json.loads(out.read_text())
    assert report["sanity"]["integrator_failure"].startswith(message)
    assert report["certificate"]["solution_range"]["lo"] == "0"


PROBLEMS = SRC.parent / "problems"


def test_unexpected_exception_exits_3(problem_file, capsys, monkeypatch):
    def broken(p):
        raise ZeroDivisionError("division by zero inside the pipeline")

    monkeypatch.setattr("taylorcert.cli.certify_partial_sum", broken)
    assert run(["bounds", str(problem_file)]) == 3
    assert capsys.readouterr().err == (
        "internal error: ZeroDivisionError: division by zero inside the pipeline\n"
    )


def run_on_flow(tmp_path, f: str, argv: list[str]) -> int:
    path = tmp_path / "flow.prob"
    path.write_text(f'f = "{f}"\nx0 = "0"\ny0 = "1"\ndegree = 3\nx1 = "1/5"\n')
    poly = tmp_path / "p.poly"
    poly.write_text("1 + x")
    argv = [str(poly) if a == "POLY" else a for a in argv]
    return run([argv[0], str(path), *argv[1:]])


def test_input_faults_found_late_stay_input_errors(tmp_path, capsys):
    assert run_on_flow(tmp_path, "9" * 5000 + "*x + y^2", ["coeffs"]) == 1
    message = "input error: field 'f' (line 1): line 1, column 1: literal has 5000 digits"
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [["range"], ["bounds"], ["certify"], ["check-poly", "--poly", "POLY"]],
    ids=lambda argv: argv[0],
)
def test_zero_flow_is_refused_by_the_comparison_stage(tmp_path, capsys, argv):
    # y' = 0 is a valid problem; its frozen form has alpha = 0, which the
    # comparison bound needs positive.  The radius takes M = 0.
    assert run_on_flow(tmp_path, "0", argv) == 2
    assert capsys.readouterr().err == (
        "certification failed: [comparison] constant term alpha = 0 is not positive\n"
    )


def test_zero_flow_has_a_radius(tmp_path, capsys):
    assert run_on_flow(tmp_path, "0", ["radius"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("r >= 0.99 (enclosure [0.99999999999999999")
    assert "|f| <= M = 0\n" in out


@pytest.mark.parametrize("places", [1001, 20000, 200000])
def test_outward_places_over_cap_are_input_errors(problem_file, capsys, places):
    # Unbounded places once ran for minutes, or crashed rendering the bounds.
    message = "outward rounding needs 0 <= places <= 1000\n"
    text = PROBLEM_TEXT.replace('"exact"', f'"outward:{places}"')
    problem_file.write_text(text)
    assert run(["bounds", str(problem_file)]) == 1
    assert capsys.readouterr().err == f"input error: line 9: field 'rounding': {message}"
    problem_file.write_text(PROBLEM_TEXT)
    assert run(["bounds", str(problem_file), "--rounding", f"outward:{places}"]) == 1
    assert capsys.readouterr().err == f"input error: --rounding: {message}"


def test_rounding_flag_refuses_underscore_places(problem_file, capsys):
    assert run(["bounds", str(problem_file), "--rounding", "outward:1_0"]) == 1
    assert capsys.readouterr().err == (
        "input error: --rounding: rounding must be 'exact' or 'outward:D', "
        "got 'outward:1_0'\n"
    )


def test_outward_places_at_cap_certify_degree_60(problem_file, tmp_path, capsys):
    problem_file.write_text(PROBLEM_TEXT.replace("degree = 9", "degree = 60"))
    out = tmp_path / "out.json"
    argv = ["certify", str(problem_file), "--no-sanity", "--rounding", "outward:1000"]
    assert run([*argv, "--json", str(out)]) == 0
    assert "rounding outward:1000" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["problem"]["rounding"] == "outward:1000"
    assert len(report["certificate"]["derivative_bounds"]) == 61


def test_poly_literal_over_digit_limit_is_an_input_error():
    message = "polynomial file: line 1, column 1: literal has 5000 digits, limit 100"
    with pytest.raises(InputError, match=message):
        parse_poly_file("1" * 5000 + " + x")


def test_rigorous_subcommands_do_not_import_mpmath(problem_file):
    # A fresh interpreter: this one has imported mpmath already.  The last
    # run, `certify` with its sanity section, shows that the probe sees it.
    script = f"""
import sys
import taylorcert.cli as cli
loaded = ["mpmath" in sys.modules]
for argv in (["coeffs"], ["bounds"], ["certify", "--no-sanity"], ["certify"]):
    assert cli.run([argv[0], {str(problem_file)!r}, *argv[1:]]) == 0
    loaded.append("mpmath" in sys.modules or "taylorcert.oracle" in sys.modules)
print(loaded)
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[False, False, False, False, True]"


@pytest.mark.parametrize(
    "f, x0, x1, message",
    [
        ("x*y", "0", "1/5", "unsupported monomial 1/5*y after freezing x = 1/5"),
        (
            "x^2 + y^2",
            "-1",
            "1",
            "tangent argument [2, 2] reaches the certified pi/2 bound: "
            "no tangent-form bound exists on [-1, 1]",
        ),
    ],
    ids=["no-comparison-form", "blow-up"],
)
def test_range_reports_failures_like_certify(tmp_path, capsys, f, x0, x1, message):
    # One fault, one line, whichever subcommand meets it.
    prob = tmp_path / "fails.prob"
    prob.write_text(f'f = "{f}"\nx0 = "{x0}"\ny0 = "0"\ndegree = 3\nx1 = "{x1}"\n')
    out = tmp_path / "range.json"
    line = f"certification failed: [comparison] {message}\n"
    assert run(["range", str(prob), "--json", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert run(["certify", str(prob), "--no-sanity"]) == 2
    assert capsys.readouterr().err == line
    if f == "x*y":  # no comparison form: nothing to write
        assert not out.exists()
    else:  # an invalid range still writes its JSON first
        doc = json.loads(out.read_text())["solution_range"]
        assert (doc["valid"], doc["diagnostics"]) == (False, message)


def test_coarse_width_still_bounds_the_cosine(tmp_path, capsys):
    # At width 16 the first cosine enclosure at 149/100, where cos is about
    # 0.08, reached 0, and the comparison stage failed (exit 2); a width of
    # 1 certified.  The series is now refined until its lower end is positive.
    prob = tmp_path / "coarse.prob"
    prob.write_text(
        'f = "1 + y^2"\nx0 = "0"\ny0 = "0"\ndegree = 9\nx1 = "149/100"\nwidth = "16"\n'
    )
    for argv in (["range", str(prob)], ["certify", str(prob), "--no-sanity"]):
        assert run(argv) == 0
        assert "certified range [0, 12.53476406131234046...]" in capsys.readouterr().out


TAN_PROBLEM = 'f = "1 + y^2"\nx0 = "0"\ny0 = "0"\ndegree = 9\nx1 = "{x1}"\n'


def test_tangent_argument_past_three_halves_certifies(tmp_path, capsys):
    # y = tan x is finite on [0, 31/20], below pi/2, and the comparison bound
    # holds there; the tangent enclosure once refused arguments from 3/2 on,
    # and the comparison stage failed (exit 2).
    import mpmath

    prob = tmp_path / "tan.prob"
    prob.write_text(TAN_PROBLEM.format(x1="31/20"))
    with mpmath.workdps(30):
        tan = F(mpmath.nstr(mpmath.tan(mpmath.mpf(31) / 20), 30))
    for argv in (["range"], ["certify", "--no-sanity"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run([argv[0], str(prob), *argv[1:], "--json", str(out)]) == 0
        assert "certified range [0, 48.07848247921896864...]" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        sr = doc.get("solution_range") or doc["certificate"]["solution_range"]
        assert F(sr["lo"]) == 0 and tan < F(sr["hi"])


def test_tangent_argument_just_below_half_pi_certifies(tmp_path):
    # HALF_PI_LOWER - 10**-15, where tan is about 10**15: the cosine series is
    # refined until its lower end is positive, and the range still certifies
    # at once.  The exact certificate is the next test's.
    prob = tmp_path / "near.prob"
    prob.write_text(TAN_PROBLEM.format(x1="314159265358979123/200000000000000000"))
    for argv in (["range"], ["certify", "--no-sanity", "--rounding", "outward:30"]):
        proc = run_child(argv[0], str(prob), *argv[1:], timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert "certified range [0, 995786506952888.06655504516327474...]" in proc.stdout


def test_exact_certificate_just_below_half_pi_certifies(tmp_path):
    # Its largest exact bound had 8,978 digits, and the report exited 3 on the
    # 4,300-digit str limit; past odexpr.EXACT_BOUND_BITS the bounds are
    # rounded onto the 2**-1024 grid.
    prob = tmp_path / "near.prob"
    prob.write_text(TAN_PROBLEM.format(x1="314159265358979123/200000000000000000"))
    proc = run_child("certify", str(prob), "--no-sanity", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "certified range [0, 995786506952888.06655504516327474...]" in proc.stdout


def test_exact_report_of_quadratic_at_degree_30_renders(tmp_path):
    # Its bounds once passed the 4,300-digit str limit, and the report exited
    # 3 with an internal error.
    text = (PROBLEMS / "quadratic.prob").read_text()
    prob, out = tmp_path / "quadratic30.prob", tmp_path / "quadratic30.json"
    prob.write_text(text.replace("degree = 5", "degree = 30"))
    proc = run_child("certify", str(prob), "--no-sanity", "--json", str(out), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "c30 =" in proc.stdout and "\n  31: [" in proc.stdout
    assert "remainder certificate (degree 30):\n  signed range [" in proc.stdout
    doc = json.loads(out.read_text())
    cert = doc["certificate"]
    assert len(cert["coefficients"]) == len(cert["derivative_bounds"]) == 31
    assert F(cert["remainder"]["bound"]) > 0
    assert doc["parity_notes"] == [
        "24 of the 31 exact derivative bounds, from order 8, passed 4096 bits and "
        "were rounded outward to multiples of 2^-1024, which widens each end by "
        "less than 2^-1024"
    ]


def exact_value(text: str) -> Fraction:
    """Fraction(text) for a "p/q" report string past the int-from-str digit
    limit."""
    num, _, den = text.partition("/")
    value = F(from_digits(num.lstrip("-")), from_digits(den or "1"))
    return -value if num.startswith("-") else value


def test_exact_remainder_past_the_digit_limit_renders(tmp_path, capsys):
    # dx**61 alone has a 6,000-digit denominator for this 99-digit x1, so the
    # remainder bound passes the 4,300-digit str limit whatever the bounds
    # do; the reports render it by chunks.
    text = (
        'f = "x^2 + 1/4*y^2"\nx0 = "0"\ny0 = "-1"\ndegree = 60\n'
        f'x1 = "1/{"7" * 98}"\nr1 = "1/2"\n'
    )
    prob, out = tmp_path / "long.prob", tmp_path / "long.json"
    prob.write_text(text)
    assert run(["certify", str(prob), "--no-sanity", "--json", str(out)]) == 0
    assert "|error| <= 0.00000000000000000..." in capsys.readouterr().out
    bound = json.loads(out.read_text())["certificate"]["remainder"]["bound"]
    assert len(bound) > 4300
    assert exact_value(bound) == certify_partial_sum(parse_problem(text)).remainder_bound


POSITIVITY_PROBLEM = 'f = "x + y^2"\nx0 = "-1"\ny0 = "0"\ndegree = 3\nx1 = "1/2"\n'
FINE_WIDTH = "1/1" + "0" * 98


@pytest.mark.parametrize("width", [None, FINE_WIDTH], ids=["default", "1e-98"])
def test_positivity_failure_message_is_short(tmp_path, capsys, width):
    # The certified range's exact upper end has hundreds of digits at the
    # default width, where the message was 1,642 bytes, and passes CPython's
    # 4,300-digit str limit at width 10**-98, where both commands exited 3
    # with an internal error.  Diagnostics show intervals in decimals.
    prob = tmp_path / "pos.prob"
    prob.write_text(POSITIVITY_PROBLEM + (f'width = "{width}"\n' if width else ""))
    for argv in (["range"], ["certify", "--no-sanity"]):
        assert run([argv[0], str(prob), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "certification failed: [comparison] positivity fails on certified range "
            "[0, 1.26373442433"
        )
        assert len(err.encode()) < 400


def test_positivity_failure_keeps_exact_values_outside_the_message(tmp_path, capsys):
    prob = tmp_path / "pos.prob"
    prob.write_text(POSITIVITY_PROBLEM)
    out = tmp_path / "range.json"
    assert run(["range", str(prob), "--json", str(out)]) == 2
    doc = json.loads(out.read_text())["solution_range"]
    assert capsys.readouterr().err == (
        f"certification failed: [comparison] {doc['diagnostics']}\n"
    )
    assert len(doc["tight_upper"][1]) > 400  # exact "p/q" in the JSON report
    # The error raised inside the stage carries the exact interval.
    flow = odexpr.parse_flow_expr("x + y^2")
    box = {"x": RatInterval(-1, F(1, 2)), "y": RatInterval(0, F(doc["tight_upper"][1]))}
    with pytest.raises(ApplicabilityError) as caught:
        check_applicability(flow, -1, F(1, 2), box["y"])
    assert caught.value.interval == flow.eval_interval(box)
    assert len(format_rational(caught.value.interval.hi)) > 400
    assert str(caught.value).endswith(str(caught.value.interval))


def test_positivity_failure_json_keeps_exact_values_past_the_digit_limit(tmp_path, capsys):
    # At width 10**-98 the exact upper end passes the 4,300-digit str limit,
    # and `range --json` exited 3 with an internal error.
    prob, out = tmp_path / "pos.prob", tmp_path / "range.json"
    prob.write_text(POSITIVITY_PROBLEM + f'width = "{FINE_WIDTH}"\n')
    assert run(["range", str(prob), "--json", str(out)]) == 2
    capsys.readouterr()
    doc = json.loads(out.read_text())["solution_range"]
    assert doc["valid"] is False and len(doc["tight_upper"][1]) > 4300
    flow = odexpr.parse_flow_expr("x + y^2")
    qc = comparison.extract_comparison(flow, F(-1), F(1, 2), F(0))
    sr = comparison.solution_range(qc, F(FINE_WIDTH), DecimalRounding.exact(), flow)
    assert [exact_value(end) for end in doc["tight_upper"]] == [
        sr.tight_upper.lo, sr.tight_upper.hi
    ]


@pytest.mark.parametrize("marked", ["problem", "polynomial"])
def test_byte_order_mark_is_ignored(quadratic_file, tmp_path, capsys, marked):
    # A file saved with a UTF-8 byte-order mark was refused at its first
    # character; it must give the stdout and JSON of the file without it.
    poly = tmp_path / "cand.poly"
    poly.write_text("1 + 1/4*x + 3/16*x^2\n")
    plain = quadratic_file if marked == "problem" else poly
    with_bom = tmp_path / f"bom-{plain.name}"
    with_bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, with_bom):
        out = tmp_path / f"{path.name}.json"
        if marked == "problem":
            argv = ["coeffs", str(path)]
        else:
            argv = ["check-poly", str(quadratic_file), "--poly", str(path)]
        assert run([*argv, "--json", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--width", "--rounding"])
def test_empty_overrides_are_input_errors(problem_file, capsys, flag):
    assert run(["coeffs", str(problem_file), flag, ""]) == 1
    assert capsys.readouterr().err.startswith(f"input error: {flag}: ")


def run_child(*argv: str, timeout: float = 5) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "taylorcert.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_degree_over_cap_is_refused_at_once(problem_file):
    # Degree 5000 once ran past a 10 s timeout in `coeffs`.
    problem_file.write_text(PROBLEM_TEXT.replace("degree = 9", "degree = 5000"))
    proc = run_child("coeffs", str(problem_file))
    assert proc.returncode == 1
    assert proc.stderr == (
        f"input error: line 5: field 'degree' must be in [0, {MAX_DEGREE}], got 5000\n"
    )
    spec = parse_problem(PROBLEM_TEXT.replace("degree = 9", f"degree = {MAX_DEGREE}"))
    assert spec.degree == MAX_DEGREE


def test_huge_radius_exponent_finishes(tmp_path):
    # r2 / (2 M r1) = 5 * 10**8 once ran both commands past a 10 s timeout.
    prob = tmp_path / "exponent.prob"
    prob.write_text(
        'f = "1"\nx0 = "0"\ny0 = "0"\ndegree = 3\nx1 = "1/1000000000"\n'
        'r1 = "1/1000000"\nr2 = "1000"\n'
    )
    proc = run_child("radius", str(prob))
    assert proc.returncode == 0
    assert proc.stdout.startswith("r >= 0.0000009")
    proc = run_child("certify", str(prob), "--no-sanity")
    assert proc.returncode == 2
    assert proc.stderr.startswith("certification failed: [comparison]")


@pytest.mark.parametrize(
    "old, new, message",
    [
        # Each ran past a 30 s timeout, or for 27 s before exiting 3.
        ('x1 = "1/5"', 'x1 = "1/' + "7" * 4000 + '"', "line 6: field 'x1': "
         "literal has 4001 digits, limit 100"),
        ('x1 = "1/5"', 'x1 = "1e-3000"', "line 6: field 'x1': "
         "expected an integer, p/q or decimal, got '1e-3000'"),
        ('rounding = "exact"', 'width = "1e-20000"', "line 9: field 'width': "
         "expected an integer, p/q or decimal, got '1e-20000'"),
    ],
    ids=["long-ratio", "exponent", "exponent-width"],
)
def test_hostile_literals_are_refused_at_once(problem_file, old, new, message):
    text = PROBLEM_TEXT.replace(old, new)
    if old.startswith("x1"):
        text = text.replace("degree = 9", "degree = 40")
    problem_file.write_text(text)
    proc = run_child("certify", str(problem_file), "--no-sanity")
    assert (proc.returncode, proc.stderr) == (1, f"input error: {message}\n")


@pytest.mark.parametrize("factors", [50, 200])
def test_repeated_factors_are_refused_at_once(problem_file, factors):
    # Each term's exponents of x sum to at most 64.  Before that cap, 50
    # factors x^64 exited 3 on the 4,300-digit limit after 1.6 s, and 200
    # ran past a 20 s timeout.
    f = "*".join(["x^64"] * factors) + " + 1/4*y^2"
    problem_file.write_text(PROBLEM_TEXT.replace("x^2 + 1/4*y^2", f))
    proc = run_child("certify", str(problem_file), "--no-sanity")
    assert (proc.returncode, proc.stderr) == (
        1,
        "input error: field 'f' (line 2): line 1, column 8: "
        "exponent 128 exceeds limit 64\n",
    )


@pytest.mark.parametrize("at", ["3", "9"])
def test_oracle_stops_at_its_step_budget(problem_file, at):
    # y(3) lies just before the pole of the riccati solution and y(9) past
    # it.  Each ran past a 30 s timeout before the step doubling had a budget;
    # y(3) would need about 2**23 steps per sweep.  Past the pole the values'
    # exponents grow with every step: --at 9 spent about 10 s until a sweep
    # stopped once |y| reached 2**(2**16), and now takes about 1.3 s.
    timeout = 5 if at == "9" else 60
    proc = run_child("oracle", str(problem_file), "--at", at, timeout=timeout)
    assert (proc.returncode, proc.stderr) == (
        2,
        "certification failed: integrator did not stabilize within "
        "1/1000000000000000 after 65520 RK4 steps; the next sweep would pass "
        f"the limit of {MAX_RK4_STEPS}\n",
    )


@pytest.mark.parametrize("factors", [50, 200])
def test_repeated_constants_are_refused_at_once(problem_file, factors):
    # A term's constant has at most 100 digits.  Before that cap, 50 factors
    # of 1/99...9 exited 3 on the 4,300-digit limit, and 200 ran past a 30 s
    # timeout.  The second factor is refused, at column 103.
    f = "*".join(["1/" + "9" * 99] * factors) + " + y^2"
    problem_file.write_text(PROBLEM_TEXT.replace("x^2 + 1/4*y^2", f))
    proc = run_child("certify", str(problem_file), "--no-sanity")
    assert (proc.returncode, proc.stderr) == (
        1,
        "input error: field 'f' (line 2): line 1, column 103: "
        "coefficient has over 100 digits in lowest terms\n",
    )


@pytest.mark.parametrize(
    "f, column",
    [
        # Forty coprime 99-digit denominators made f's denominator 12,934
        # bits long: certify exited 3 on the 4,300-digit limit after 1.6 s.
        (" + ".join(f"1/{10**98 + 2 * k + 1}*x^{k}" for k in range(1, 41)) + " + y^2", 109),
        (f"1/{10**59 + 7}*x + 1/{10**59 + 9}*y^2", 68),
    ],
    ids=["forty-terms", "two-60-digit"],
)
@pytest.mark.parametrize(
    "argv", [["certify", "--no-sanity"], ["coeffs"]], ids=["certify", "coeffs"]
)
def test_long_common_denominator_is_refused_at_once(tmp_path, f, column, argv):
    # The term that takes the common denominator past 100 digits is refused.
    prob = tmp_path / "denominators.prob"
    prob.write_text(f'f = "{f}"\nx0 = "0"\ny0 = "0"\ndegree = 9\nx1 = "1/5"\n')
    proc = run_child(argv[0], str(prob), *argv[1:])
    assert (proc.returncode, proc.stderr) == (
        1,
        f"input error: field 'f' (line 1): line 1, column {column}: "
        "common denominator has over 100 digits\n",
    )


def wide_problem(j: int, y0: str = "0", degree: int = 100) -> str:
    """x*y^j - 1/5*y^j + 1 + y^2: the y^j terms vanish at x1, so the
    comparison stage passes, and the flow is outside a(x) + b*y^2."""
    return (
        f'f = "x*y^{j} - 1/5*y^{j} + 1 + y^2"\nx0 = "0"\ny0 = "{y0}"\n'
        f'degree = {degree}\nx1 = "1/5"\nr1 = "1/2"\nr2 = "1"\nrounding = "outward:30"\n'
    )


def test_wide_flow_certifies_at_degree_100(tmp_path):
    # At degree 100 this ran past a 20 s timeout before the derivative chain
    # had a monomial budget, and then stopped at D_37 on that budget; the
    # recurrence builds no chain.
    prob = tmp_path / "wide.prob"
    prob.write_text(wide_problem(8))
    proc = run_child("certify", str(prob), "--no-sanity", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "degree 100" in proc.stdout


@pytest.mark.parametrize("name", ["riccati", "quadratic", "y8", "y64"])
def test_outward_certificate_at_the_degree_cap(tmp_path, name):
    # Every flow takes the derivative-bound recurrence, which has no monomial
    # budget: its work at MAX_DEGREE is bounded by the O(n^2) interval
    # products per power of y alone (under 1 s each for riccati and
    # quadratic, and about 2 s and 3 s for the y^8 and y^64 files, on a
    # 2-core host).
    if name in ("riccati", "quadratic"):
        text = (PROBLEMS / f"{name}.prob").read_text()
    else:
        text = wide_problem(int(name[1:]))
    prob = tmp_path / f"{name}.prob"
    prob.write_text(re.sub(r"degree = \d+", f"degree = {MAX_DEGREE}", text))
    proc = run_child(
        "certify", str(prob), "--no-sanity", "--rounding", "outward:30", timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f"degree {MAX_DEGREE}" in proc.stdout


@pytest.mark.parametrize(
    "y0, returncode, stderr",
    [
        ("0", 0, ""),
        (
            "1/2",
            2,
            "certification failed: [coefficients] Taylor coefficient of order 114 "
            f"has 8229 bits, over the limit {odexpr.MAX_COEFF_BITS}\n",
        ),
    ],
    ids=["y0=0", "y0=1/2"],
)
def test_coefficients_at_the_degree_cap_are_bounded(tmp_path, y0, returncode, stderr):
    # With y0 = 0 `coeffs` ran past 60 s while every power w^2 ... w^64 was
    # formed over a scale that grew 149 bits per order.  With y0 = 1/2 the
    # exact coefficients' own denominators grow about 63 bits per order, so
    # they stop at their bit budget.
    prob = tmp_path / "wide.prob"
    prob.write_text(wide_problem(64, y0, MAX_DEGREE))
    proc = run_child("coeffs", str(prob), timeout=60)
    assert (proc.returncode, proc.stderr) == (returncode, stderr)


@pytest.mark.parametrize("name", ["riccati", "quadratic"])
def test_problem_files_certify_exactly_at_the_degree_cap(tmp_path, name):
    # Exact endpoints grow about 480 bits per order on quadratic: at
    # MAX_DEGREE its certificate ran past a 100 s timeout before the stored
    # bounds had a bit budget, then stopped at order 67 on it (exit 2), and
    # riccati's took 14 s to exit 3 on the 4,300-digit str limit.  Past
    # odexpr.EXACT_BOUND_BITS the bounds are rounded onto the 2**-1024 grid,
    # and both certify in a few seconds.
    text = (PROBLEMS / f"{name}.prob").read_text()
    prob = tmp_path / f"{name}.prob"
    prob.write_text(re.sub(r"degree = \d+", f"degree = {MAX_DEGREE}", text))
    proc = run_child("certify", str(prob), "--no-sanity", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f"partial-sum degree {MAX_DEGREE}, rounding exact" in proc.stdout
    assert "exact derivative bounds, from order" in proc.stdout


def test_bounds_stop_at_their_bit_budget(tmp_path):
    # tan(16384 x) / 16384 is the solution, and x1 lies 10**-18 / 16384 below
    # HALF_PI_LOWER / 16384, so the bounds' magnitude grows about 71 bits per
    # order; rounded to 1000 decimals they carry 3,322 more bits and pass
    # odexpr.MAX_BOUND_BITS at order 375.  Exact bounds carry 1,024, and on
    # every admissible problem tried their magnitude stayed below it: the
    # coefficients' own budget stops a steeper flow first.
    prob = tmp_path / "pole.prob"
    prob.write_text(
        'f = "1 + 268435456*y^2"\nx0 = "0"\ny0 = "0"\n'
        f'degree = {MAX_DEGREE}\nx1 = "785398163397448307/8192000000000000000000"\n'
        'rounding = "outward:1000"\n'
    )
    proc = run_child("certify", str(prob), "--no-sanity", timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2,
        "certification failed: [bounds] derivative bound of order 375 has "
        f"32815 bits, over the limit {odexpr.MAX_BOUND_BITS}\n",
    )


def test_positivity_failure_exit_code(tmp_path, capsys):
    # alpha > 0, beta > 0, but f straddles zero on the certified y-range
    prob = tmp_path / "pos.prob"
    prob.write_text('f = "x^2 + y^2"\nx0="-1"\ny0="0"\ndegree=3\nx1="1"\n')
    code = run(["certify", str(prob)])
    assert code == 2
    assert "certification failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["certify", "--no-sanity"], ["coeffs"]])
def test_unwritable_json_path_is_an_input_error(problem_file, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    assert run([argv[0], str(problem_file), *argv[1:], "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write JSON report {out}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "check-poly"])
def test_file_that_is_not_utf8_is_an_input_error(problem_file, tmp_path, command):
    # Both reads once raised an uncaught UnicodeDecodeError (exit 3).  The
    # child runs in the C locale without UTF-8 mode, whose preferred encoding
    # is ASCII: the files are still read as UTF-8.
    binary = tmp_path / "bin.prob"
    binary.write_bytes(b"\xff\xfe")
    if command == "certify":
        argv, label = ["certify", str(binary), "--no-sanity"], "problem"
    else:
        argv = ["check-poly", str(problem_file), "--poly", str(binary)]
        label = "polynomial"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "taylorcert.cli", *argv],
        env={**os.environ, "PYTHONPATH": path, "LC_ALL": "C"},
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"input error: cannot read {label} file {binary}: 'utf-8' codec can't "
        "decode byte 0xff in position 0: invalid start byte\n"
    )


def test_json_determinism(problem_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["certify", str(problem_file), "--no-sanity", "--json", str(a)]) == 0
    assert run(["certify", str(problem_file), "--no-sanity", "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_report_round_trip(problem_file):
    spec = parse_problem(PROBLEM_TEXT)
    cert = certify_partial_sum(spec)
    doc = build_report(cert)
    assert json.loads(report_to_json(doc)) == doc


def test_relaxed_bounds_traceable_to_tight_enclosures():
    spec = parse_problem(PROBLEM_TEXT.replace('"exact"', '"outward:2"'))
    cert = certify_partial_sum(spec)
    doc = build_report(cert)
    sr = doc["certificate"]["solution_range"]
    assert sr["hi"] == "-47/50"  # relaxed
    tight_lo, tight_hi = (Fraction(t) for t in sr["tight_upper"])
    assert tight_hi <= F(-47, 50)  # tight enclosure accompanies it
    assert tight_hi - tight_lo <= F(1, 10**12)


def test_width_override(problem_file):
    from taylorcert.cli import _load_problem
    import argparse

    args = argparse.Namespace(rounding=None, width="1/1000000")
    spec = _load_problem(str(problem_file), args)
    assert spec.enclosure_width == F(1, 10**6)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_as_sigpipe(tmp_path):
    # `taylorcert coeffs P | head -1` once exited 3 with "internal error:
    # BrokenPipeError".  The report at degree 400 is far larger than a pipe's
    # buffer, so the child is still writing when its reader goes away.
    prob = tmp_path / "deep.prob"
    text = (PROBLEMS / "riccati.prob").read_text()
    prob.write_text(text.replace("degree = 9", "degree = 400"))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "taylorcert.cli", "coeffs", str(prob)],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline().startswith(b"Taylor coefficients of y' = ")
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""
