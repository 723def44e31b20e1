"""The benchmark's three workloads: their operations, how each operation runs,
how its output is checked, and the traced mirror of each operation.

exact-deep and chain-outward call taylorcert's public functions in this
process; cli-small runs the command-line tool, one child process at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

#: Directory, relative to the checkout, for the CLI's JSON report and the spans.
OUT_DIR = ".perfbench_out"

CLI_TIMEOUT_S = 120


def problem_text(f, y0, degree, x1, rounding="exact", r1="1", r2="1"):
    """A problem file in the repo's key = value schema, with x0 = 0."""
    return (
        f'f = "{f}"\nx0 = "0"\ny0 = "{y0}"\ndegree = {degree}\nx1 = "{x1}"\n'
        f'r1 = "{r1}"\nr2 = "{r2}"\nrounding = "{rounding}"\n'
    )


def riccati(degree, rounding="exact"):
    return problem_text("x^2 + 1/4*y^2", "-1", degree, "1/5", rounding, "1/2")


def quadratic(degree, rounding="exact"):
    # x1 stays 2/5 on every seed: at degree 28 exact it is what pushes the
    # report past CPython's int->str digit limit (x1 = 9/25 does not).
    return problem_text("1/4*x + 1/4*y^2", "1", degree, "2/5", rounding)


def coeffs_only(f):
    # Outside the comparison class: Taylor coefficients are all the tool
    # gives for these flows.  x1 is required by the schema and unused.
    return problem_text(f, "0", 20, "1")


@dataclass(frozen=True)
class Op:
    """One operation.  In-process: `action` is "report" (certify, then build
    and serialize the report), "certify" or "coeffs", and `problem` is a
    problem-file text.  CLI: `action` is "cli", `argv` the arguments, and
    `certifies` says whether the printed report carries a remainder bound."""

    name: str
    action: str
    problem: str = ""
    argv: tuple[str, ...] = ()
    certifies: bool = False


WORKLOADS: dict[str, list[Op]] = {
    # The first operation of each list is the warm-up operation of set-up.
    "exact-deep": [
        Op("quadratic-20", "report", quadratic(20)),
        Op("riccati-40", "report", riccati(40)),
        Op("riccati-60", "report", riccati(60)),
        Op("quadratic-28", "report", quadratic(28)),
    ],
    "chain-outward": [
        Op("coeffs-cubic", "coeffs", coeffs_only("1 + x*y^2 + y^3")),
        Op("coeffs-quartic", "coeffs", coeffs_only("x^3*y^2 + 2*x + y^4")),
        Op("riccati-60-out30", "certify", riccati(60, "outward:30")),
        Op("quadratic-28-out30", "certify", quadratic(28, "outward:30")),
    ],
    "cli-small": [
        Op("coeffs", "cli", argv=("coeffs", "problems/riccati.prob")),
        Op("certify", "cli", argv=("certify", "problems/riccati.prob"), certifies=True),
        Op(
            "certify-json",
            "cli",
            argv=("certify", "problems/quadratic.prob", "--no-sanity",
                  "--json", f"{OUT_DIR}/quadratic.json"),
            certifies=True,
        ),
        Op("bounds", "cli", argv=("bounds", "problems/riccati.prob", "--rounding", "outward:2")),
        Op(
            "check-poly",
            "cli",
            argv=("check-poly", "problems/quadratic.prob",
                  "--poly", "problems/quadratic_ybar.poly"),
            certifies=True,
        ),
        Op("oracle", "cli", argv=("oracle", "problems/riccati.prob", "--at", "1/5")),
    ],
}


@dataclass
class Outcome:
    """What one operation returned.  `value` is (coefficients, certificate,
    report) in process and (exit code, stdout, JSON bytes) for the CLI; parts
    an operation did not reach stay None.  `error` is the exception text."""

    seconds: float
    value: tuple
    error: str | None = None


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:160]}"


def _bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def bound_bits_max(bounds) -> int:
    """Largest numerator-plus-denominator bit length of any bound endpoint."""
    return max(max(_bits(b.lo), _bits(b.hi)) for b in bounds)


def chain_monomials(chain) -> int:
    """Total monomials in D_1 .. D_(n+1)."""
    return sum(len(expr.monomials) for expr in chain.exprs)


class Reference:
    """First checked output and counters of each operation; every later
    repetition, traced or not, must reproduce them, and inherits the problems
    the first one's checks found."""

    def __init__(self):
        self.values: dict[str, tuple] = {}
        self.counters: dict[str, dict] = {}
        self.problems: dict[str, list[str]] = {}

    def compare(self, op: Op, value: tuple, counters: dict, first_check) -> list[str]:
        """Problems with one outcome; runs first_check() on first sight."""
        if op.name not in self.values:
            self.problems[op.name] = first_check()
            self.values[op.name] = value
            self.counters[op.name] = counters
            return list(self.problems[op.name])
        problems = list(self.problems[op.name])
        if value != self.values[op.name]:
            problems.append("output differs from the first repetition")
        known = self.counters[op.name]
        for key, count in counters.items():
            if known.setdefault(key, count) != count:
                problems.append(f"counter {key} = {count}, first seen {known[key]}")
        return problems


class InProcess:
    """Operations as calls into taylorcert's public functions."""

    def __init__(self, ops: list[Op]):
        from taylorcert import cli

        self.specs = {op.name: cli.parse_problem(op.problem) for op in ops}
        self.ops = ops
        self.reference = Reference()
        self._series: dict[str, list[Fraction]] = {}
        self._oracle: dict[str, Fraction] = {}

    def execute(self, op: Op) -> Outcome:
        from taylorcert import certify_partial_sum, taylor_coefficients
        from taylorcert.cli import build_report, report_to_json

        spec = self.specs[op.name]
        coefficients = cert = report = None
        error = None
        start = time.perf_counter()
        try:
            if op.action == "coeffs":
                coefficients = tuple(
                    taylor_coefficients(spec.f, spec.x0, spec.y0, spec.degree)
                )
            else:
                cert = certify_partial_sum(spec)
                coefficients = cert.coefficients
                if op.action == "report":
                    report = report_to_json(build_report(cert))
        except Exception as exc:  # a failed operation is recorded, not fatal
            error = _describe(exc)
        return Outcome(time.perf_counter() - start, (coefficients, cert, report), error)

    def _series_for(self, op: Op) -> list[Fraction]:
        spec = self.specs[op.name]
        rhs = re.search(r'^f = "(.*)"$', op.problem, re.M).group(1)
        key = f"{rhs}|{spec.x0}|{spec.y0}"
        longest = max(s.degree for s in self.specs.values()) + checks.TAIL_ORDERS
        if key not in self._series:
            self._series[key] = checks.taylor_recurrence(
                checks.parse_rhs(rhs), spec.x0, spec.y0, longest
            )
        return self._series[key]

    def _oracle_for(self, spec) -> Fraction:
        key = f"{spec.f}|{spec.x0}|{spec.y0}|{spec.x1}"
        if key not in self._oracle:
            self._oracle[key] = checks.oracle_value(spec)
        return self._oracle[key]

    @staticmethod
    def counters(cert, chain=None) -> dict:
        """Deterministic counters of one operation's certificate and chain."""
        counters = {}
        if chain is not None:
            counters["chain_monomials"] = chain_monomials(chain)
        if cert is not None:
            counters["bound_bits_max"] = bound_bits_max(cert.derivative_bounds)
            counters["cert_digits"] = checks.cert_digits(cert.remainder_bound)
        return counters

    def check(self, op: Op, outcome: Outcome, counters: dict | None = None) -> list[str]:
        """Problems with an outcome's output: a failed check on first sight, or
        a difference from the first repetition.  The chain count is taken on
        first sight, from a chain built here outside any timing."""
        from taylorcert import derivative_chain

        coefficients, cert, report = outcome.value
        spec = self.specs[op.name]
        if counters is None:
            first = op.name not in self.reference.values
            chain = derivative_chain(spec.f, spec.degree) if first else None
            counters = self.counters(cert, chain)

        def first_check() -> list[str]:
            problems = []
            series = self._series_for(op)
            if cert is not None:
                problems += checks.certificate_problems(cert, series, self._oracle_for(spec))
            elif coefficients is not None and list(coefficients) != series[: len(coefficients)]:
                problems.append("coefficients differ from the Cauchy-product recurrence")
            if report is not None:
                doc = json.loads(report)["certificate"]
                if [Fraction(c) for c in doc["coefficients"]] != list(cert.coefficients):
                    problems.append("report coefficients differ from the certificate")
                if Fraction(doc["remainder"]["bound"]) != cert.remainder_bound:
                    problems.append("report remainder bound differs from the certificate")
            return problems

        return self.reference.compare(op, outcome.value, counters, first_check)

    def traced(self, op: Op, tracer) -> tuple[Outcome, dict]:
        """The operation with one span per stage, plus the deterministic
        counters taken from the traced stages' own results."""
        from taylorcert import certify, cli, odexpr

        spec = self.specs[op.name]
        tracer.call("cli.parse_problem", cli.parse_problem, op.problem)
        tracer.call("odexpr.parse", odexpr.parse_flow_expr, str(spec.f))
        if op.action == "coeffs":
            with tracer.span("op") as op_span:
                coefficients = tracer.call(
                    "odexpr.coeffs", odexpr.taylor_coefficients,
                    spec.f, spec.x0, spec.y0, spec.degree,
                )
            return Outcome(op_span.seconds, (tuple(coefficients), None, None)), {}
        known = self.reference.values.get(op.name, (None, None, None))[1]
        fields, cert, report, chain, error = {}, None, None, None, None
        with tracer.span("op") as op_span:
            try:
                fields, chain = traced_certificate(tracer, spec)
                cert = certify.Certificate(
                    problem=spec,
                    warnings=known.warnings if known else (),
                    parity_notes=known.parity_notes if known else (),
                    **fields,
                )
                if op.action == "report":
                    report = tracer.call(
                        "cli.report", lambda: cli.report_to_json(cli.build_report(cert))
                    )
            except Exception as exc:  # a failed operation is recorded, not fatal
                error = _describe(exc)
        mismatch = [k for k, v in fields.items() if known is None or getattr(known, k) != v]
        if mismatch:
            error = error or f"traced stages differ from certify_partial_sum in {', '.join(mismatch)}"
        coefficients = cert.coefficients if cert is not None else None
        outcome = Outcome(op_span.seconds, (coefficients, cert, report), error)
        return outcome, self.counters(cert, chain)


def traced_certificate(tracer, p) -> tuple[dict, object]:
    """certify_partial_sum's stages, called in its order with one span each.
    Returns the Certificate fields they produce, and the derivative chain."""
    from taylorcert import cauchy, certify, comparison, odexpr
    from taylorcert.ratcore import RatInterval

    call = tracer.call
    coefficients = call("odexpr.coeffs", odexpr.taylor_coefficients, p.f, p.x0, p.y0, p.degree)
    radius = call(
        "cauchy.radius", cauchy.radius_for_problem,
        p.f, p.x0, p.y0, p.r1, p.r2, p.enclosure_width,
    )
    qc = call("comparison.range", comparison.extract_comparison, p.f, p.x0, p.x1, p.y0)
    yrange = call(
        "comparison.range", comparison.solution_range,
        qc, p.enclosure_width, p.rounding, flow=p.f,
    )
    chain = call("odexpr.chain", odexpr.derivative_chain, p.f, p.degree)
    bounds = call(
        "certify.bounds", certify.bound_derivatives,
        chain, RatInterval(p.x0, p.x1), yrange.range, p.rounding,
    )
    remainder_bound, remainder_signed = call(
        "certify.remainder", certify.lagrange_remainder, bounds[-1], p.dx, p.degree
    )
    central, halfwidth_scale = call("certify.remainder", certify.centralize, bounds[-1], p.degree)
    fields = {
        "coefficients": tuple(coefficients),
        "radius": radius,
        "yrange": yrange,
        "derivative_bounds": tuple(bounds),
        "remainder_bound": remainder_bound,
        "remainder_signed": remainder_signed,
        "centralized_coefficient": central,
        "centralized_halfwidth": halfwidth_scale * p.dx ** (p.degree + 1),
    }
    return fields, chain


# -- the command-line workload ---------------------------------------------

# The first remainder bound a CLI report prints, as a decimal truncated toward
# zero and marked "..." when it does not terminate.
_REMAINDER = re.compile(r"(?:\|error\| <=|partial-sum remainder) ([0-9]+(?:\.[0-9]+)?)")


def _sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def cli_env(root: Path) -> dict:
    """The environment for a child process that imports taylorcert from the
    checkout's src/ rather than from anything installed."""
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class CliRunner:
    """Operations as runs of `python -m taylorcert.cli` in the checkout."""

    def __init__(self, root: Path, ops: list[Op]):
        self.root = root
        self.ops = ops
        self.expected = json.loads((Path(__file__).parent / "expected_cli.json").read_text())
        self.reference = Reference()
        (root / OUT_DIR).mkdir(exist_ok=True)

    def execute(self, op: Op) -> Outcome:
        json_path = None
        if "--json" in op.argv:
            json_path = self.root / op.argv[op.argv.index("--json") + 1]
            json_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "taylorcert.cli", *op.argv],
                cwd=self.root, env=cli_env(self.root), capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            return Outcome(time.perf_counter() - start, (None, None, None), _describe(exc))
        seconds = time.perf_counter() - start
        json_bytes = json_path.read_bytes() if json_path and json_path.exists() else None
        error = None
        if proc.returncode != self.expected[op.name]["exit"]:
            error = f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-160:]}"
        return Outcome(seconds, (proc.returncode, proc.stdout, json_bytes), error)

    def counters(self, op: Op, stdout: bytes | None) -> dict:
        if not op.certifies or stdout is None:
            return {}
        found = _REMAINDER.search(stdout.decode())
        return {"cert_digits": checks.cert_digits(Fraction(found.group(1)))} if found else {}

    def check(self, op: Op, outcome: Outcome, counters: dict | None = None) -> list[str]:
        code, stdout, json_bytes = outcome.value
        expected = self.expected[op.name]

        def first_check() -> list[str]:
            problems = []
            if _sha256(stdout) != expected["stdout_sha256"]:
                problems.append("stdout digest differs from the recorded one")
            if _sha256(json_bytes) != expected["json_sha256"]:
                problems.append("JSON digest differs from the recorded one")
            if json_bytes is not None:
                doc = json.loads(json_bytes)
                prob = doc["problem"]
                series = checks.taylor_recurrence(
                    checks.parse_rhs(prob["f"]), Fraction(prob["x0"]),
                    Fraction(prob["y0"]), prob["degree"],
                )
                if [Fraction(c) for c in doc["certificate"]["coefficients"]] != series:
                    problems.append("JSON coefficients differ from the Cauchy-product recurrence")
            if op.certifies and "cert_digits" not in self.counters(op, stdout):
                problems.append("no remainder bound in stdout")
            return problems

        if counters is None:
            counters = self.counters(op, stdout)
        return self.reference.compare(op, outcome.value, counters, first_check)

    def traced(self, op: Op, tracer) -> tuple[Outcome, dict]:
        """The child process under one span, then its stages mirrored in
        process, one span each, for the per-layer figures."""
        with tracer.span(f"cli.process.{op.name}"):
            outcome = self.execute(op)
        counters = self.counters(op, outcome.value[1])
        try:
            counters.update(mirror_cli(tracer, self.root, op))
        except Exception as exc:  # a failed operation is recorded, not fatal
            outcome.error = outcome.error or f"mirror: {_describe(exc)}"
        return outcome, counters


def mirror_cli(tracer, root: Path, op: Op) -> dict:
    """The stages one CLI subcommand runs, called in process with a span each.
    Returns the counters of the stages that build a derivative chain."""
    from dataclasses import replace

    from taylorcert import certify, cli, odexpr, oracle
    from taylorcert.ratcore import DecimalRounding

    args = cli.build_parser().parse_args(list(op.argv))
    text = (root / args.problem).read_text()
    spec = tracer.call("cli.parse_problem", cli.parse_problem, text)
    if args.rounding:
        spec = replace(spec, rounding=DecimalRounding.parse(args.rounding))
    if args.command == "coeffs":
        chain = odexpr.derivative_chain(spec.f, spec.degree)
        tracer.call("odexpr.coeffs", odexpr.taylor_coefficients, spec.f, spec.x0, spec.y0, spec.degree)
        tracer.call("odexpr.coeffs", odexpr.derivative_values, spec.f, spec.x0, spec.y0, spec.degree)
        return {"chain_monomials": chain_monomials(chain)}
    if args.command == "oracle":
        at = Fraction(args.at)
        tracer.call("oracle.reference", oracle.reference_solution, spec.f, spec.x0, spec.y0, at, Fraction(args.tol))
        if oracle.is_quarter_riccati(spec.f, spec.x0, spec.y0):
            tracer.call("oracle.reference", oracle.riccati_exact, at)
        return {}
    fields, chain = traced_certificate(tracer, spec)
    cert = certify.Certificate(problem=spec, **fields)
    if args.command == "check-poly":
        poly = tracer.call("cli.parse_problem", cli.parse_poly_file, (root / args.poly).read_text())
        tracer.call("certify.check_poly", certify.certify_polynomial, spec, poly, cert)
    if args.command == "certify":
        if not args.no_sanity:
            tracer.call(
                "oracle.reference", oracle.reference_solution,
                spec.f, spec.x0, spec.y0, spec.x1, checks.ORACLE_TOL,
            )
        tracer.call("cli.render", cli.render_report, cert)
    if getattr(args, "json", None):
        tracer.call("cli.report", lambda: cli.report_to_json(cli.build_report(cert)))
    return {
        "chain_monomials": chain_monomials(chain),
        "bound_bits_max": bound_bits_max(cert.derivative_bounds),
    }


def make_runner(name: str, root: Path):
    ops = WORKLOADS[name]
    return CliRunner(root, ops) if name == "cli-small" else InProcess(ops)
