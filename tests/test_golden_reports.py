"""Every command on every worked problem, compared with pinned reports.

``tests/data/reports.json`` holds, for each problem file in ``problems/``,
each of the five commands, each of the fields Q and F_1000003 and each
``--n-max`` in 2, 3, 4, the exit code, the stderr text and the JSON report
of an in-process ``cli.main`` run.  The report is stored without its
``timing`` field (wall time) and its ``input.path`` (where the checkout
lives); everything else must stay byte-identical.

Regenerate the file, only when a change of the reports is intended, with

    PYTHONPATH=src python3 tests/test_golden_reports.py --write
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cechcover.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).resolve().parent / "data" / "reports.json"

COMMANDS = ("check", "cech", "amitsur", "verify", "oracle")
FIELDS = ("Q", "Fp:1000003")
N_MAX = (2, 3, 4)


def run_grid() -> dict:
    """The grid of runs, keyed 'problem command field n_max'."""
    out = {}
    for path in sorted(PROBLEMS.glob("*.json")):
        for command in COMMANDS:
            for field in FIELDS:
                for n_max in N_MAX:
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        code = main([command, "--input", str(path), "--format", "json",
                                     "--field-override", field, "--n-max", str(n_max)])
                    report = json.loads(stdout.getvalue()) if stdout.getvalue() else None
                    if report is not None:
                        del report["timing"]
                        del report["input"]["path"]
                    out[f"{path.name} {command} {field} {n_max}"] = {
                        "exit": code, "stderr": stderr.getvalue(), "report": report}
    return out


def test_reports_match_the_pinned_reports():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_grid()
    assert sorted(actual) == sorted(expected)
    for key in sorted(expected):
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_grid(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
