"""Command-line front end: problem files in, certificates out.

Subcommands mirror the pipeline stages (coeffs, radius, range, bounds,
certify, check-poly, oracle) so each piece of a certification can be
reproduced in isolation.  Reports come in two shapes: human-readable text on
stdout and a machine-readable JSON document (--json PATH) in which every
rational is an exact "p/q" string.

Exit codes: 0 success, 1 input error, 2 certification failure, 3 internal error.

Only the sanity section of `certify` and the `oracle` subcommand import the
non-rigorous oracle and mpmath; the other subcommands start without them.
Likewise only a JSON report (--json, or `report_to_json`) imports `json`.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable, Sequence

from . import __version__, comparison
from .cauchy import RadiusCertificate, radius_for_problem
from .certify import (
    Certificate,
    CertificationError,
    ConvergenceError,
    MAX_DEGREE,
    ProblemSpec,
    _coefficient_stage,
    _comparison_stage,
    certify_partial_sum,
    certify_polynomial,
    poly_eval,
)
from .odexpr import parse_flow_expr
from .ratcore import (
    DEFAULT_ENCLOSURE_WIDTH,
    DecimalRounding,
    RatInterval,
    as_rational,
    decimal_str,
    format_rational,
)


class InputError(ValueError):
    """Bad command line, problem file, or polynomial file."""


_REQUIRED_KEYS = ("f", "x0", "y0", "degree", "x1")
_KNOWN_KEYS = _REQUIRED_KEYS + ("r1", "r2", "rounding", "width")


def _parsed(label: str, parse, value):
    """parse(value), with the ValueError or ZeroDivisionError it raises for bad
    outside input turned into an InputError that starts with label."""
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{label}: {exc}") from exc


def _file(label: str, path: str, access=lambda file: file.read_text(encoding="utf-8-sig")):
    """access(Path(path)), by default the file's text read as UTF-8 without a
    leading byte-order mark, with the OSError or UnicodeDecodeError it raises
    turned into an InputError that starts with label and path."""
    try:
        return access(Path(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{label} {path}: {exc}") from exc


def _strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def parse_problem(text: str) -> ProblemSpec:
    """Parse the key-value problem schema into a validated ProblemSpec.

    Recognized keys: f, x0, y0, degree, x1, r1, r2, rounding, width.  Missing
    r1/r2 default to 1 with a warning note; rationals parse exactly from
    integer, decimal, or p/q forms.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise InputError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (_strip_quotes(value), lineno)

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise InputError(f"missing required key {key!r}")

    def field(key: str, parse=as_rational):
        value, lineno = entries[key]
        return _parsed(f"line {lineno}: field {key!r}", parse, value)

    f_text, f_line = entries["f"]
    flow = _parsed(f"field 'f' (line {f_line})", parse_flow_expr, f_text)

    x0 = field("x0")
    y0 = field("y0")
    x1 = field("x1")

    degree_text, degree_line = entries["degree"]
    try:
        if "_" in degree_text or not degree_text.isascii():  # int() takes "1_0", "٣"
            raise ValueError(degree_text)
        degree = int(degree_text)
    except ValueError as exc:
        raise InputError(
            f"line {degree_line}: field 'degree' must be an integer"
        ) from exc
    if not 0 <= degree <= MAX_DEGREE:
        raise InputError(
            f"line {degree_line}: field 'degree' must be in [0, {MAX_DEGREE}], "
            f"got {degree}"
        )
    if x1 <= x0:
        raise InputError(f"field 'x1': must exceed x0 = {x0}, got {x1}")

    r1, r2 = (field(k) if k in entries else Fraction(1) for k in ("r1", "r2"))
    missing = [k for k in ("r1", "r2") if k not in entries]
    notes = []
    if len(missing) == 2:
        notes.append("box radii r1, r2 not given; defaulting to 1, 1")
    elif missing:
        notes.append(f"box radius {missing[0]} not given; defaulting to 1")
    if r1 <= 0 or r2 <= 0:
        raise InputError("fields 'r1'/'r2': box radii must be positive")

    if "rounding" in entries:
        rounding = field("rounding", DecimalRounding.parse)
    else:
        rounding = DecimalRounding.exact()

    width = field("width") if "width" in entries else DEFAULT_ENCLOSURE_WIDTH
    if width <= 0:
        raise InputError("field 'width': enclosure width must be positive")

    return ProblemSpec(
        f=flow,
        x0=x0,
        y0=y0,
        degree=degree,
        x1=x1,
        r1=r1,
        r2=r2,
        rounding=rounding,
        enclosure_width=width,
        notes=tuple(notes),
    )


def parse_poly_file(text: str) -> list[Fraction]:
    """Parse a polynomial in x (restricted expression form) to coefficients.

    The parser's exponent cap keeps the degree within MAX_POLY_DEGREE (64).
    """
    stripped = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    expr = _parsed("polynomial file", parse_flow_expr, stripped)
    if expr.order >= 0:
        raise InputError("polynomial file: only the variable x is allowed")
    powers = {i: c for i, _, c in expr.xy_terms()}
    return [powers.get(k, Fraction(0)) for k in range(1 + max(powers, default=0))]


# -- report document -------------------------------------------------------


def _interval_json(interval: RatInterval) -> list[str]:
    return [format_rational(interval.lo), format_rational(interval.hi)]


def _problem_json(p: ProblemSpec) -> dict:
    return {
        "f": str(p.f),
        "x0": format_rational(p.x0),
        "y0": format_rational(p.y0),
        "degree": p.degree,
        "x1": format_rational(p.x1),
        "r1": format_rational(p.r1),
        "r2": format_rational(p.r2),
        "rounding": str(p.rounding),
        "width": format_rational(p.enclosure_width),
    }


def _radius_json(rc: RadiusCertificate) -> dict:
    return {
        "r1": format_rational(rc.r1),
        "r2": format_rational(rc.r2),
        "M": format_rational(rc.M),
        "enclosure": _interval_json(rc.r_enclosure),
        "floor": format_rational(rc.r_floor),
    }


def _range_json(sr: comparison.SolutionRange) -> dict:
    return {
        "valid": sr.valid,
        "lo": format_rational(sr.range.lo),
        "hi": format_rational(sr.range.hi),
        "tight_upper": _interval_json(sr.tight_upper),
        "diagnostics": sr.diagnostics,
    }


def build_report(cert: Certificate, sanity: dict | None = None) -> dict:
    """Machine-readable report document; rationals as exact strings."""
    doc = {
        "problem": _problem_json(cert.problem),
        "certificate": {
            "coefficients": [format_rational(c) for c in cert.coefficients],
            "radius": _radius_json(cert.radius),
            "solution_range": _range_json(cert.yrange),
            "derivative_bounds": [
                _interval_json(b) for b in cert.derivative_bounds
            ],
            "remainder": {
                "signed": _interval_json(cert.remainder_signed),
                "bound": format_rational(cert.remainder_bound),
            },
            "centralized": {
                "coefficient": format_rational(cert.centralized_coefficient),
                "halfwidth": format_rational(cert.centralized_halfwidth),
            },
        },
        "warnings": list(cert.warnings),
        "parity_notes": list(cert.parity_notes),
    }
    if sanity is not None:
        doc["sanity"] = sanity
    return doc


def report_to_json(doc: dict) -> str:
    import json  # only here: a run without --json starts without it

    return json.dumps(doc, indent=2) + "\n"


def _fmt(q: Fraction) -> str:
    """Exact rational plus a decimal rendering for the human report.

    Unwieldy exact forms (hundreds of digits arise in exact mode) fall back to
    the decimal alone; the machine-format report always carries the exact
    value.
    """
    dec = decimal_str(q)
    exact = format_rational(q)
    if dec == exact:
        return exact
    if len(exact) <= 24:
        return f"{exact} ({dec})"
    return dec


def render_report(cert: Certificate, sanity: dict | None = None) -> str:
    p = cert.problem
    lines = [
        f"problem: y' = {p.f},  y({p.x0}) = {p.y0}",
        f"  interval [{p.x0}, {p.x1}], partial-sum degree {p.degree}, "
        f"rounding {p.rounding}, enclosure width {p.enclosure_width}",
        "",
        "coefficients (exact):",
    ]
    for k, c in enumerate(cert.coefficients):
        lines.append(f"  c{k:<2} = {_fmt(c)}")
    rc = cert.radius
    lines += [
        "",
        f"convergence radius (box radii r1 = {rc.r1}, r2 = {rc.r2}, "
        f"|f| <= M = {_fmt(rc.M)}):",
        f"  r >= {decimal_str(rc.r_floor)} (enclosure {rc.r_enclosure})",
        "",
        "solution range on the interval:",
        f"  upper bound enclosure {cert.yrange.tight_upper}",
        f"  certified range [{_fmt(cert.yrange.range.lo)}, "
        f"{_fmt(cert.yrange.range.hi)}]",
        "",
        "derivative bounds (order k: enclosure of y^(k) over the interval):",
    ]
    for k, bound in enumerate(cert.derivative_bounds, start=1):
        lines.append(f"  {k:>2}: [{_fmt(bound.lo)}, {_fmt(bound.hi)}]")
    lines += [
        "",
        f"remainder certificate (degree {p.degree}):",
        f"  signed range {cert.remainder_signed}",
        f"  |error| <= {decimal_str(cert.remainder_bound)}",
        "",
        "centralized polynomial:",
        f"  add {_fmt(cert.centralized_coefficient)} * (x - {p.x0})^{p.degree + 1}",
        f"  |error| then <= {decimal_str(cert.centralized_halfwidth)}",
    ]
    if sanity is not None:
        lines += ["", "sanity (non-rigorous reference):"]
        if "integrator_failure" in sanity:
            lines.append(f"  no reference value: {sanity['integrator_failure']}")
        else:
            lines.append(f"  integrator y({p.x1}) = {sanity['integrator_value']}")
            lines.append(
                f"  |y(x1) - partial sum(x1)| = {sanity['partial_sum_error']}"
                f"  (certified bound {decimal_str(cert.remainder_bound)})"
            )
    for warning in cert.warnings:
        lines += ["", f"warning: {warning}"]
    for note in cert.parity_notes:
        lines += ["", f"note: {note}"]
    return "\n".join(lines) + "\n"


def _sanity_section(cert: Certificate) -> dict:
    """The integrator's cross-check of a certificate, or, where the integrator
    fails, its message: the section is not a proof and vetoes nothing."""
    import mpmath as mp

    from . import oracle

    p = cert.problem
    try:
        ref = oracle.reference_solution(p.f, p.x0, p.y0, p.x1, Fraction(1, 10**16))
    except ConvergenceError as exc:
        return {"integrator_failure": str(exc)}
    approx = poly_eval(cert.coefficients, p.x1)
    with mp.workdps(oracle.ORACLE_DPS):
        lo, hi = oracle.to_mpf(cert.yrange.range.lo), oracle.to_mpf(cert.yrange.range.hi)
        return {
            "integrator_value": mp.nstr(ref.value, 20),
            "integrator_error_estimate": mp.nstr(ref.error_estimate, 3),
            "partial_sum_error": mp.nstr(abs(ref.value - oracle.to_mpf(approx)), 6),
            "inside_certified_range": bool(lo <= ref.value <= hi),
        }


# -- subcommands ------------------------------------------------------------


def _load_problem(path: str, args: argparse.Namespace) -> ProblemSpec:
    spec = parse_problem(_file("cannot read problem file", path))
    if getattr(args, "rounding", None) is not None:
        spec = _parsed(
            "--rounding",
            lambda v: replace(spec, rounding=DecimalRounding.parse(v)),
            args.rounding,
        )
    if getattr(args, "width", None) is not None:
        spec = _parsed(
            "--width",
            lambda v: replace(spec, enclosure_width=as_rational(v)),
            args.width,
        )
    return spec


def _write_json(args: argparse.Namespace, doc: Callable[[], dict]) -> None:
    """Build the report document and write it, only when --json asks for it."""
    if getattr(args, "json", None):
        text = report_to_json(doc())
        _file("cannot write JSON report", args.json, lambda file: file.write_text(text))


def _cmd_coeffs(args: argparse.Namespace) -> int:
    p = _load_problem(args.problem, args)
    coeffs = _coefficient_stage(p)
    derivs = [c * factorial(k) for k, c in enumerate(coeffs)][1:]
    print(f"Taylor coefficients of y' = {p.f}, y({p.x0}) = {p.y0}, degree {p.degree}")
    for k, c in enumerate(coeffs):
        print(f"  c{k:<2} = {_fmt(c)}")
    print("derivative values at x0:")
    for k, v in enumerate(derivs, start=1):
        print(f"  y^({k})({p.x0}) = {_fmt(v)}")
    _write_json(
        args,
        lambda: {
            "problem": _problem_json(p),
            "coefficients": [format_rational(c) for c in coeffs],
            "derivative_values": [format_rational(v) for v in derivs],
        },
    )
    return 0


def _cmd_radius(args: argparse.Namespace) -> int:
    p = _load_problem(args.problem, args)
    rc = radius_for_problem(p.f, p.x0, p.y0, p.r1, p.r2, p.enclosure_width)
    print(f"r >= {decimal_str(rc.r_floor)} (enclosure {rc.r_enclosure})")
    print(f"  from r1 = {rc.r1}, r2 = {rc.r2}, |f| <= M = {_fmt(rc.M)}")
    _write_json(args, lambda: {"problem": _problem_json(p), "radius": _radius_json(rc)})
    return 0


def _cmd_range(args: argparse.Namespace) -> int:
    p = _load_problem(args.problem, args)
    qc, sr = _comparison_stage(p)
    _write_json(args, lambda: {"problem": _problem_json(p), "solution_range": _range_json(sr)})
    if not sr.valid:
        raise CertificationError("comparison", sr.diagnostics)
    print(f"frozen right-hand side: {qc.alpha} + {qc.beta}*y^2")
    print(f"upper bound enclosure {sr.tight_upper}")
    print(f"certified range [{_fmt(sr.range.lo)}, {_fmt(sr.range.hi)}]")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    p = _load_problem(args.problem, args)
    cert = certify_partial_sum(p)
    print(f"derivative bounds over [{p.x0}, {p.x1}] (rounding {p.rounding}):")
    for k, bound in enumerate(cert.derivative_bounds, start=1):
        print(f"  y^({k}): [{_fmt(bound.lo)}, {_fmt(bound.hi)}]")
    _write_json(args, lambda: build_report(cert))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    cert = certify_partial_sum(_load_problem(args.problem, args))
    sanity = None if args.no_sanity else _sanity_section(cert)
    sys.stdout.write(render_report(cert, sanity))
    _write_json(args, lambda: build_report(cert, sanity))
    return 0


def _cmd_check_poly(args: argparse.Namespace) -> int:
    p = _load_problem(args.problem, args)
    coeffs = parse_poly_file(_file("cannot read polynomial file", args.poly))
    cert = certify_partial_sum(p)
    bound = certify_polynomial(p, coeffs, cert)
    print(f"polynomial degree {len(coeffs) - 1} checked against degree-{p.degree} "
          f"certificate on [{p.x0}, {p.x1}]")
    print(f"certified: sup |q(x) - y(x)| <= {decimal_str(bound)}")
    print(f"  (partial-sum remainder {decimal_str(cert.remainder_bound)} "
          f"plus polynomial difference)")
    _write_json(
        args,
        lambda: {
            "problem": _problem_json(p),
            "polynomial": [format_rational(c) for c in coeffs],
            "error_bound": format_rational(bound),
            "remainder_bound": format_rational(cert.remainder_bound),
        },
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    import mpmath as mp

    from . import oracle

    p = _load_problem(args.problem, args)
    at = _parsed("--at", as_rational, args.at)
    tol = _parsed("--tol", as_rational, args.tol)
    _parsed("--tol", oracle.check_tol, tol)
    if at < p.x0:
        raise InputError("evaluation point precedes x0")
    ref = oracle.reference_solution(p.f, p.x0, p.y0, at, tol)
    print(f"integrator:  y({at}) = {ref}")
    if oracle.is_quarter_riccati(p.f, p.x0, p.y0) and at != 0:
        closed = oracle.riccati_exact(at)
        with mp.workdps(oracle.ORACLE_DPS):
            diff = abs(closed.value - ref.value)
        print(f"closed form: y({at}) = {closed}")
        print(f"difference:  {mp.nstr(diff, 3)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1/10" as a value, not an option; subparsers are _Parsers too.
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message: str):  # map argparse failures to exit code 1
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taylorcert",
        description="Exact Taylor partial sums with rigorous error certificates "
        "for scalar polynomial ODE initial value problems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, json_flag: bool = True):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("problem", help="problem file (key = value schema)")
        s.add_argument("--rounding", help="override rounding: exact or outward:D")
        s.add_argument("--width", help="override enclosure width (rational)")
        if json_flag:
            s.add_argument("--json", help="also write machine-readable JSON here")
        s.set_defaults(func=func)
        return s

    add("coeffs", _cmd_coeffs, "exact Taylor coefficients and derivative values")
    add("radius", _cmd_radius, "guaranteed convergence-radius bound")
    add("range", _cmd_range, "certified solution range on [x0, x1]")
    add("bounds", _cmd_bounds, "interval bounds for all solution derivatives")
    certify_cmd = add("certify", _cmd_certify, "full certificate report")
    certify_cmd.add_argument(
        "--no-sanity",
        action="store_true",
        help="skip the non-rigorous integrator cross-check section",
    )
    check = add("check-poly", _cmd_check_poly, "certify an arbitrary polynomial")
    check.add_argument("--poly", required=True, help="polynomial file (expression in x)")
    orc = add("oracle", _cmd_oracle, "non-rigorous reference values", json_flag=False)
    orc.add_argument("--at", required=True, help="evaluation point (rational)")
    orc.add_argument("--tol", default="1/1000000000000000", help="stability tolerance")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the console script; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (CertificationError, ConvergenceError) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    """Console entry point.  A closed stdout (`taylorcert coeffs P | head -1`)
    ends the process as SIGPIPE does, not as an internal error; signal is
    imported here, so that importing this module stays as cheap as it was."""
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
