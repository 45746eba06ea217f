"""The benchmark's layer tracer still runs on the package.

bench/tracer.py wraps every function of the measured modules and reads the
arguments of a few of them by name to count DP cells.  A signature change
under src/ that those hooks cannot read turns every traced operation into a
failed one; these tests catch it here instead.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from knightpaths.cli import main
from knightpaths.counting import altitude_distribution, count_primitive, step_count_distribution
from knightpaths.paths import PathConstraints

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = [
    ["count", "--size", "30", "--zigzag", "--altitude", "2", "--steps", "22"],
    ["count", "--size", "40", "--zigzag", "--altitude", "-3"],
    ["table", "--zigzag", "--n-max", "12", "--k-max", "4"],
    # grand_row_stats and the primitive row, then the step-count rows
    ["verify", "--level", "quick", "--only", "2-sequence"],
    ["verify", "--level", "quick", "--only", "8-step"],
]

TRACED = r"""
import contextlib, io, json, sys

sys.path.insert(0, sys.argv[1])
import tracer

tr = tracer.Tracer()
tracer.install(tr)
from knightpaths import cli, counting
from knightpaths.paths import PathConstraints

runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(argv), out.getvalue()])
# the bench's reference values call altitude_distribution and count_primitive,
# and the tracer hooks count_primitive and step_count_distribution by name
zigzag = PathConstraints(zigzag=True)
dist = counting.altitude_distribution(8, zigzag)
primitive = counting.count_primitive(14)
steps = counting.step_count_distribution(6, zigzag)
json.dump({"runs": runs, "dist": sorted(dist.items()), "primitive": primitive,
           "steps": sorted([*k, v] for k, v in steps.items()), "layers": tracer.metrics(tr)},
          sys.stdout)
"""


def _untimed(text: str) -> str:
    return re.sub(r"\(\d+\.\d+s\)", "(s)", text)


def _traced(commands: list[list[str]], capsys) -> dict:
    """Run commands under the tracer in a fresh interpreter; check them against untraced runs."""
    done = subprocess.run(
        [sys.executable, "-c", TRACED, str(ROOT / "bench"), json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    for argv, (code, out) in zip(commands, traced["runs"]):
        want_code = main(argv)
        want_out = capsys.readouterr().out
        assert want_code == 0, argv
        assert (code, _untimed(out)) == (want_code, _untimed(want_out)), argv
    return traced


def test_traced_commands_match_untraced(capsys):
    traced = _traced(COMMANDS, capsys)
    zigzag = PathConstraints(zigzag=True)
    dist = altitude_distribution(8, zigzag)
    assert traced["dist"] == [list(kv) for kv in sorted(dist.items())]
    assert traced["primitive"] == count_primitive(14) == 18
    steps = step_count_distribution(6, zigzag)
    assert traced["steps"] == sorted([*k, v] for k, v in steps.items())
    assert traced["layers"]["counting.dp_cells"] > 0


def test_hooked_views_are_still_traced(capsys):
    """The tracer counts DP cells on calls to count_primitive and
    step_count_distribution by their arguments; verify reads their rows
    instead, so the traced script calls them itself.  The tracer books
    (size + 1) times a 4 size + 1 band for each: 15 * 57 and 7 * 25 cells."""
    layers = _traced([], capsys)["layers"]
    assert layers["counting.dp_cells"] == 15 * 57 + 7 * 25


def test_memoised_kernel_roots_are_still_traced(capsys):
    """The kernel roots read the stored small root of `recurrences` inside a
    plain module-level function, so the tracer still wraps and counts every
    call to them.  Check 2 reaches them through the zigzag-nonneg series."""
    layers = _traced([["verify", "--level", "quick", "--only", "2-sequence"]], capsys)["layers"]
    assert layers["series.zigzag_kernel_roots.calls"] > 0


def test_stored_recurrence_rows_are_still_traced(capsys):
    """The rows of `recurrences` are kept inside plain module-level functions,
    so the tracer counts a request the stored row answers as well."""
    commands = [["count", "--size", n, "--zigzag", "--nonneg", "--engine", "gf"] for n in ("30", "20")]
    layers = _traced(commands, capsys)["layers"]
    assert layers["recurrences.calls"] == 2
    assert layers["recurrences.coeffs"] == 31 + 21
