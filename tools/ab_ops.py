"""Pass times of this tree's taylorcert against those of BASE, in one process.

    python3 tools/ab_ops.py BASE [--workload W] [--rounds N]

BASE's src/taylorcert is exported with `git archive` into a temporary
directory as the package `taylorcert_base`; every import inside the package
is relative, so the two trees load side by side.  The operations are those of
an in-process workload of perfbench/workloads.py (exact-deep or
chain-outward), built for each tree from its own parse of the problem text.
Each round runs one whole pass of the workload on each side, and the side
that goes first alternates from round to round, so that both sides see the
same drift of the host's speed.  Prints the median pass time of each side,
their ratio (this tree over BASE; below 1 is faster), the median of the
rounds' own ratios, which a drift between rounds does not move, and the
number of rounds in which this tree's pass was the faster.  An operation
that raises counts with the time it took, as in perfbench, and its error is
printed.
"""

import argparse
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_PACKAGE = "taylorcert_base"


def export_base(rev, into):
    """Extract rev's src/taylorcert into `into` as BASE_PACKAGE."""
    archive = subprocess.run(["git", "archive", rev, "src/taylorcert"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (Path(into) / "src" / "taylorcert").rename(Path(into) / BASE_PACKAGE)


def pass_of(package, ops, errors):
    """A function that runs each operation once, given the package's name;
    the error of an operation that raises goes into errors."""
    cli = importlib.import_module(f"{package}.cli")
    certify = importlib.import_module(f"{package}.certify")
    odexpr = importlib.import_module(f"{package}.odexpr")
    specs = [cli.parse_problem(op.problem) for op in ops]

    def execute(op, spec):  # as perfbench's InProcess.execute
        if op.action == "coeffs":
            return odexpr.taylor_coefficients(spec.f, spec.x0, spec.y0, spec.degree)
        cert = certify.certify_partial_sum(spec)
        if op.action == "report":
            cli.report_to_json(cli.build_report(cert))

    def run():
        for op, spec in zip(ops, specs):
            try:
                execute(op, spec)
            except Exception as exc:  # a failed operation is timed, not fatal
                errors[package, op.name] = f"{type(exc).__name__}: {str(exc)[:160]}"
    return run


def timed(run):
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE")
    parser.add_argument("--workload", default="chain-outward",
                        choices=["chain-outward", "exact-deep"])
    parser.add_argument("--rounds", type=int, default=200)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    ops = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        export_base(args.base, tmp)
        sys.path.insert(0, tmp)
        errors = {}
        sides = {"base": pass_of(BASE_PACKAGE, ops, errors),
                 "tree": pass_of("taylorcert", ops, errors)}
        for run in sides.values():  # warm-up
            run()
        times = {name: [] for name in sides}
        for round_no in range(args.rounds):
            order = ["base", "tree"] if round_no % 2 == 0 else ["tree", "base"]
            for name in order:
                times[name].append(timed(sides[name]))
    base, tree = (statistics.median(times[name]) for name in ("base", "tree"))
    ratios = [t / b for t, b in zip(times["tree"], times["base"])]
    wins = sum(r < 1 for r in ratios)
    print(f"{args.workload}, {args.rounds} rounds, BASE {args.base}")
    print(f"  median pass  base {base * 1e3:.3f} ms, tree {tree * 1e3:.3f} ms")
    print(f"  ratio        {tree / base:.4f} (tree / base; below 1 is faster)")
    print(f"  round ratio  {statistics.median(ratios):.4f} (median over rounds)")
    print(f"  tree faster  in {wins} of {args.rounds} rounds")
    for (package, name), error in errors.items():
        print(f"  failed       {package} {name}: {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
