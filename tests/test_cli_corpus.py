"""Exit codes and error texts of the CLI on a fixed corpus of bad input.

Each case runs one subcommand on a problem file with one bad field, one bad
flag or one bad polynomial file.  The expected exit code and stderr text of
every case, in cli_corpus.json, were recorded before the CLI's per-field
error handling was folded into one helper, and must not move.  Literals stay
at 100 digits or fewer, within the literal budget.
"""

import json
from pathlib import Path

from taylorcert.cli import run

CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"

GOOD = {
    "f": "x^2 + 1/4*y^2",
    "x0": "0",
    "y0": "-1",
    "degree": "9",
    "x1": "1/5",
    "r1": "1/2",
    "r2": "1",
    "rounding": "exact",
    "width": "1/1000000000000",
}

COMMANDS = {
    "coeffs": ["coeffs", "PROB"],
    "radius": ["radius", "PROB"],
    "range": ["range", "PROB"],
    "bounds": ["bounds", "PROB"],
    "certify": ["certify", "PROB", "--no-sanity"],
    "check-poly": ["check-poly", "PROB", "--poly", "POLY"],
    "oracle": ["oracle", "PROB", "--at", "1/5"],
}

FIELD_FAULTS = {
    "f": [
        "sin(x)", "x +", "", "1/0*x", "x^65", "x^y", "2x", "x + ) $", "x^1.5",
        "y'", "1.5/3", "x*z", "x / 4", "x @ y", "0", "1" + "0" * 60 + "/0",
    ],
    "x0": ["abc", "1/0", "", "1.2.3", "--1", "1 / 2", "x", "1" * 90 + "/0"],
    "y0": ["abc", "1/0", "nan", "1/2/3"],
    "degree": ["abc", "-1", "401", "3.5", ""],
    "x1": ["abc", "1/0", "0", "-1/5"],
    "r1": ["abc", "0", "-1", "1/0"],
    "r2": ["abc", "0", "-1/2"],
    "rounding": ["fast", "outward:x", "outward:-1", "outward:1001", "outward:", ""],
    "width": ["abc", "0", "-1/2", "1/0"],
}

STRUCTURE_FAULTS = {
    "missing f": {"f": None},
    "missing x1": {"x1": None},
    "no r1": {"r1": None},
    "no r1, r2": {"r1": None, "r2": None},
}

EXTRA_LINES = {
    "unknown key": "z = 1",
    "duplicate key": 'x0 = "0"',
    "no equals sign": "x0 0",
}

FLAG_FAULTS = {
    "--rounding": ["fast", "outward:1001", "outward:x", "exact:3"],
    "--width": ["abc", "0", "-1", "1/0", "1.2.3"],
}

ORACLE_FAULTS = [
    ["--at", "abc"],
    ["--at", "1/0"],
    ["--at", "-1"],
    ["--tol", "0"],
    ["--tol", "-1/1000"],
    ["--tol", "abc"],
    ["--tol", "1/0"],
    ["--tol", "1/1" + "0" * 60],
]

POLY_FAULTS = [
    "sin(x)", "x + y", "x^65", "x^64*x^2", "1/0", "", "x^", "# only a comment",
    "y'", "x +\n 2.", "x\n$",
]

# argparse's own messages differ between Python versions and stay out.
ARGV_FAULTS = [
    ["coeffs", "MISSING"],
    ["check-poly", "PROB", "--poly", "MISSING"],
]


def problem_text(overrides: dict, extra: str = "") -> str:
    fields = {**GOOD, **overrides}
    lines = [f'{key} = "{value}"' for key, value in fields.items() if value is not None]
    return "\n".join(lines + [extra]) + "\n"


def cases() -> dict[str, tuple[list[str], str, str]]:
    """Case id -> (argv, problem text, polynomial text)."""
    out = {}
    good, poly = problem_text({}), "1 + x"
    for key, values in FIELD_FAULTS.items():
        for value in values:
            for name, argv in COMMANDS.items():
                bad = problem_text({key: value})
                out[f"{name} {key}={value!r}"] = (argv, bad, poly)
    for label, overrides in STRUCTURE_FAULTS.items():
        out[f"radius {label}"] = (COMMANDS["radius"], problem_text(overrides), poly)
    for label, extra in EXTRA_LINES.items():
        out[f"coeffs {label}"] = (COMMANDS["coeffs"], problem_text({}, extra), poly)
    for flag, values in FLAG_FAULTS.items():
        for value in values:
            for name, argv in COMMANDS.items():
                flagged = [*argv, f"{flag}={value}"]
                out[f"{name} {flag}={value!r}"] = (flagged, good, poly)
    for extra in ORACLE_FAULTS:
        out[f"oracle {' '.join(extra)}"] = ([*COMMANDS["oracle"], *extra], good, poly)
    for text in POLY_FAULTS:
        out[f"check-poly poly={text!r}"] = (COMMANDS["check-poly"], good, text)
    for argv in ARGV_FAULTS:
        out[f"argv {' '.join(argv)!r}"] = (argv, good, poly)
    return out


def run_case(tmp_path: Path, argv: list[str], problem: str, poly: str, capsys):
    prob, poly_path = tmp_path / "flow.prob", tmp_path / "p.poly"
    prob.write_text(problem)
    poly_path.write_text(poly)
    paths = {"PROB": prob, "POLY": poly_path, "MISSING": tmp_path / "missing"}
    argv = [str(paths[a]) if a in paths else a for a in argv]
    code = run(argv)
    return [code, capsys.readouterr().err.replace(str(tmp_path), "<tmp>")]


def test_cli_corpus_matches_recorded_outputs(tmp_path, capsys):
    expected = json.loads(CORPUS.read_text())
    actual = {
        case: run_case(tmp_path, *inputs, capsys) for case, inputs in cases().items()
    }
    assert sorted(actual) == sorted(expected)
    changed = {case: got for case, got in actual.items() if got != expected[case]}
    assert changed == {}
