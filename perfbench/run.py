"""Certification benchmark for taylorcert.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports taylorcert from src/ there and
never from an installed copy.  The loop is closed with one caller: each pass
runs every operation of the workload once, in an order drawn from the seed,
and the next operation starts when the previous one has returned.  Passes
repeat until --seconds have gone by.  Every output is checked (see checks.py
and workloads.py); an operation that raises or fails a check counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: per-stage milliseconds per
pass, the deterministic counters, CLI start-up and the cost of tracing.  Both
print readable lines first and one JSON object as the last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (
    "src/taylorcert/__init__.py",
    "problems/riccati.prob",
    "problems/quadratic.prob",
    "problems/quadratic_ybar.poly",
)

#: Fresh processes whose set-up is timed for setup_s; the median is reported.
SETUP_PROBES = 5
#: Child processes per figure of the CLI start-up breakdown.
STARTUP_PROBES = 5
PROBE_TIMEOUT_S = 120

#: Seconds the calibration job takes on the reference machine (2-core Xeon at
#: 2.1 GHz, Python 3.11.7); end-to-end times are reported at this speed.
CALIBRATION_REF_S = 0.007
_CALIBRATION_RHS = checks.parse_rhs("x^2 + 1/4*y^2")

#: Spans whose per-pass total is a per-layer metric, named span + "_ms".
LAYER_SPANS = (
    "odexpr.chain", "odexpr.coeffs", "odexpr.parse", "cauchy.radius",
    "comparison.range", "certify.bounds", "certify.remainder", "cli.report",
    "cli.parse_problem", "cli.render", "oracle.reference",
)
CLI_OPS = tuple(op.name for op in workloads.WORKLOADS["cli-small"])


@dataclass
class Span:
    name: str
    pass_no: int
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of the traced passes, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_no = 0
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = Span(name, self.pass_no, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def per_pass_ms(self) -> dict[str, list[float]]:
        """For each span name, its total milliseconds in each traced pass."""
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            totals[span.pass_no][span.name] += span.seconds * 1000
        names = {span.name for span in self.spans}
        return {name: [totals[p][name] for p in sorted(totals)] for name in names}

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def calibration() -> float:
    """Seconds for a fixed job of exact rational arithmetic, the kind of work
    taylorcert does.  On a shared host the machine's speed drifts by a third
    over minutes; dividing by this job's time, taken next to each operation,
    cancels the drift."""
    start = time.perf_counter()
    checks.taylor_recurrence(_CALIBRATION_RHS, Fraction(0), Fraction(-1), 36)
    return time.perf_counter() - start


@dataclass
class Record:
    op: workloads.Op
    outcome: workloads.Outcome
    problems: list[str]
    scale: float = 1.0  # reference speed over the measured speed

    @property
    def ref_seconds(self) -> float:
        return self.outcome.seconds * self.scale

    @property
    def failed(self) -> bool:
        return self.outcome.error is not None or bool(self.problems)


def setup(workload: str):
    """Import, input generation and one warm-up operation; returns the runner
    and the seconds taken."""
    start = time.perf_counter()
    runner = workloads.make_runner(workload, ROOT)
    runner.execute(workloads.WORKLOADS[workload][0])
    return runner, time.perf_counter() - start


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """Set-up time of SETUP_PROBES fresh processes, one at a time, each with
    its scale to the reference speed from calibrations before and after."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        before, seconds, after = map(float, proc.stdout.split()[-3:])
        samples.append((seconds, 2 * CALIBRATION_REF_S / (before + after)))
    return samples


def measure(runner, seconds: float, seed: int, tracer: Tracer | None):
    """Whole passes until `seconds` have gone by; with a tracer, odd passes
    are traced.  Returns [(traced, [Record])] per pass."""
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while len(passes) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        records = []
        calibrated = calibration() if not traced else None
        for op in rng.sample(runner.ops, len(runner.ops)):
            counters, scale = None, 1.0
            if traced:
                tracer.pass_no, tracer.op = len(passes), tracer.op + 1
                outcome, counters = runner.traced(op, tracer)
            else:
                outcome = runner.execute(op)
                before, calibrated = calibrated, calibration()
                scale = 2 * CALIBRATION_REF_S / (before + calibrated)
            records.append(Record(op, outcome, runner.check(op, outcome, counters), scale))
            outcome.value = None  # the first repetition's is kept for comparison
        passes.append((traced, records))
    return passes


def workload_counters(runner) -> dict:
    """The deterministic counter block over one pass of the mix."""
    per_op = [runner.reference.counters.get(op.name, {}) for op in runner.ops]
    digits = [c["cert_digits"] for c in per_op if "cert_digits" in c]
    block = {"cert_digits": round(statistics.fmean(digits), 6) if digits else 0.0}
    if any("chain_monomials" in c for c in per_op):
        block["odexpr.chain_monomials"] = sum(c.get("chain_monomials", 0) for c in per_op)
    if any("bound_bits_max" in c for c in per_op):
        block["ratcore.bound_bits_max"] = max(c.get("bound_bits_max", 0) for c in per_op)
    return block


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile.  Below 11 samples, the maximum."""
    ordered = sorted(latencies_ms)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload, runner, passes, setups) -> tuple[dict, list[str]]:
    records = [r for _, recs in passes for r in recs]
    ok_ms = [r.ref_seconds * 1000 for r in records if not r.failed]
    raw_ms = [r.outcome.seconds * 1000 for r in records if not r.failed]
    throughput = [
        sum(not r.failed for r in recs) / sum(r.ref_seconds for r in recs)
        for _, recs in passes
    ]
    # Each pass runs one operation of each kind, and kinds differ in latency
    # by up to 10x; the median of all samples falls in the gap between two
    # kinds, where it rests on their extremes.  A pass's median does not.
    pass_p50_ms = [
        statistics.median(r.ref_seconds * 1000 for r in recs if not r.failed)
        for _, recs in passes
        if any(not r.failed for r in recs)
    ]
    who = resource.RUSAGE_CHILDREN if workload == "cli-small" else resource.RUSAGE_SELF
    tail_ms, pct = tail(ok_ms) if ok_ms else (0.0, 0.0)
    metrics = {
        "ops_per_s": (statistics.median(throughput), "1/s"),
        "op_p50_ms": (statistics.median(pass_p50_ms) if pass_p50_ms else 0.0, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ok_share": (1 - sum(r.failed for r in records) / len(records), "ratio"),
        "setup_s": (statistics.median(s * scale for s, scale in setups), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
        "cert_digits": (workload_counters(runner)["cert_digits"], "digits"),
    }
    notes = [
        f"op_tail_ms is p{pct:.1f} of {len(ok_ms)} successful operations "
        f"({10 if len(ok_ms) >= 11 else 0} beyond it)",
        f"fail_share = {1 - metrics['ok_share'][0]:.4f} "
        f"({sum(r.failed for r in records)} of {len(records)} operations)",
        f"setup_s samples (measured s, scale): "
        f"{', '.join(f'{s:.4f} x{scale:.3f}' for s, scale in setups)}",
        f"measured, before scaling to the reference speed: op_p50_ms "
        f"{statistics.median(raw_ms) if raw_ms else 0.0:.3f}, op_tail_ms "
        f"{tail(raw_ms)[0] if raw_ms else 0.0:.3f}, median scale "
        f"{statistics.median(r.scale for r in records):.4f}",
    ]
    return metrics, notes


def startup_breakdown() -> dict:
    """Interpreter start, `import taylorcert.cli` on top of it, and mpmath's
    cumulative share from -X importtime; medians of one child at a time."""
    env = workloads.cli_env(ROOT)
    interp, imported, mpmath_us = [], [], []

    def wall(argv) -> tuple[float, str]:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        return time.perf_counter() - start, proc.stderr

    for _ in range(STARTUP_PROBES):
        interp.append(wall([sys.executable, "-c", "pass"])[0])
        imported.append(wall([sys.executable, "-c", "import taylorcert.cli"])[0])
        stderr = wall([sys.executable, "-X", "importtime", "-c", "import taylorcert.cli"])[1]
        cumulative = 0
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "mpmath":
                cumulative = int(parts[1])
        mpmath_us.append(cumulative)
    interp_ms = statistics.median(interp) * 1000
    return {
        "cli.interp_ms": interp_ms,
        "cli.import_ms": statistics.median(imported) * 1000 - interp_ms,
        "cli.import_mpmath_ms": statistics.median(mpmath_us) / 1000,
    }


def per_layer(runner, tracer, passes, startup) -> dict:
    per_pass = tracer.per_pass_ms()

    def median_ms(name):
        values = per_pass.get(name)
        return statistics.median(values) if values else 0.0

    metrics = {f"{name}_ms": (median_ms(name), "ms") for name in LAYER_SPANS}
    metrics.update({f"cli.process_ms.{op}": (median_ms(f"cli.process.{op}"), "ms") for op in CLI_OPS})
    metrics.update({name: (value, "ms") for name, value in startup.items()})
    block = workload_counters(runner)
    for name in ("odexpr.chain_monomials", "ratcore.bound_bits_max"):
        metrics[name] = (block.get(name, 0), "count")
    pass_ms = {
        traced: statistics.median(
            sum(r.outcome.seconds for r in recs) * 1000 for t, recs in passes if t == traced
        )
        for traced in (False, True)
    }
    metrics["trace.overhead_ms"] = (pass_ms[True] - pass_ms[False], "ms")
    return metrics


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    try:
        from importlib.metadata import version

        mpmath_version = version("mpmath")
    except ImportError:
        mpmath_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "mpmath": mpmath_version,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a taylorcert checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        before = calibration()
        seconds = setup(args.workload)[1]
        print(f"{before:.6f} {seconds:.6f} {calibration():.6f}")
        return 0

    setups = [] if args.trace else setup_seconds(args.workload)
    startup = startup_breakdown() if args.trace else {}
    runner, _ = setup(args.workload)
    tracer = Tracer() if args.trace else None
    passes = measure(runner, args.seconds, args.seed, tracer)

    records = [r for _, recs in passes for r in recs]
    wrong = [r for r in records if r.problems]
    if args.trace:
        metrics = per_layer(runner, tracer, passes, startup)
        trace_path = ROOT / workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path)
        notes = [f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"]
    else:
        metrics, notes = end_to_end(args.workload, runner, passes, setups)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"closed loop with 1 caller")
    print(f"machine: {json.dumps(machine_facts())}")
    print(f"counters: {json.dumps(workload_counters(runner))}")
    failures: dict[str, int] = defaultdict(int)
    for r in records:
        if r.failed:
            failures[f"{r.op.name}: {'; '.join(filter(None, [r.outcome.error, *r.problems]))}"] += 1
    for text, count in failures.items():
        print(f"failed x{count}  {text}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:14.6f} {unit}")

    result = {
        # A wrong output makes the run incorrect; an operation that raises
        # (the known exact-mode digit blow-up) is counted in `failed`.
        "correct": not wrong and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
