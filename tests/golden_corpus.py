"""The CLI golden corpus: a fixed command grid and one digest per command.

A digest is the first 16 hex digits of the SHA-256 of the JSON list
[argv, exit code, stdout, stderr] of one `knightpaths` command, run in
process through `cli.main`.  Two parts of an output are masked first,
because they do not come from the program's arithmetic: the seconds that
`verify` prints, and argparse's usage lines, whose wrapping follows the
terminal width (its final `error:` line is kept).

`tests/test_golden.py` recomputes every digest and names the first
commands whose output differs.  Regenerate the file with

    PYTHONPATH=src python tests/golden_corpus.py

Regenerating changes a check's data: say which commands moved and why.
The script prints every command whose digest changed against the file it
replaces, and the commands added or removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from knightpaths import asymptotics, cli

CORPUS = Path(__file__).parent / "data" / "cli_golden.json"

# name -> parameter sets; every name runs at orders 1-200 with each set
GF_PARAMS = {
    "grand-total": [()],
    "grand-nonneg": [()],
    "grand-altitude-sum": [()],
    "grand-altitude": [("--k", "2"), ("--k", "-3")],
    "grand-axis": [()],
    "zigzag-total": [()],
    "zigzag-nonneg": [()],
    "zigzag-axis": [()],
    "zigzag-altitude": [("--k", "3"), ("--k", "-6")],
    "zigzag-primitive": [()],
    "above-line": [("--m", "1"), ("--m", "4")],
    "sym-tube": [("--m", "1"), ("--m", "3")],
    "tube": [("--m", "0", "--M", "2"), ("--m", "1", "--M", "3")],
    "tube-axis": [("--M", "2")],
    "tube1-axis": [()],
    "span-exact": [("--k", "3")],
}
GF_ORDERS = range(1, 201)
GF_FORMAT_ORDERS = (1, 7, 40)  # the json and csv formats, at a few orders

COUNT_SIZES = range(0, 31)
# zigzag count classes: altitude filters, lines and bands (lo, hi)
ZIGZAG_COUNTS = (
    [("--nonneg",), ("--all",)]
    + [("--altitude", str(k)) for k in range(-8, 9)]
    + [("--min-y", str(-m)) for m in (0, 1, 2, 3)]
    + [("--max-y", str(m)) for m in (1, 2)]
    + [("--min-y", "-1", "--max-y", "1"), ("--min-y", "-2", "--max-y", "1", "--altitude", "0")]
    + [("--min-y", "0", "--max-y", "2", "--nonneg"), ("--min-y", "-3", "--max-y", "3")]
)
OTHER_COUNTS = [
    ("--nonneg",),
    ("--altitude", "2"),
    ("--zigzag", "--first", "up", "--altitude", "1"),
    ("--zigzag", "--last", "down", "--nonneg"),
    ("--zigzag", "--steps", "5", "--altitude", "-1"),
    ("--steps", "4"),
]
OTHER_SIZES = (0, 1, 5, 12)
# default-engine (dp) counts at the sizes of the exact-large bench workload,
# and grand bounds and directions at larger sizes
DP_COUNTS = (
    [("--size", str(n), "--zigzag", "--min-y", "-2") for n in (595, 600)]
    + [("--size", str(n), "--zigzag", "--nonneg") for n in (299, 600)]
    + [("--size", "400", "--zigzag", "--altitude", k) for k in ("6", "-6")]
    + [("--size", str(n)) for n in (150, 170)]
    + [
        ("--size", "120", "--min-y", "-3", "--max-y", "4", "--altitude", "1"),
        ("--size", "200", "--max-y", "2"),
        ("--size", "150", "--first", "up", "--altitude", "-3"),
        ("--size", "60", "--last", "down", "--nonneg"),
    ]
    # lines whose sweeps retire the cells that can no longer reach them
    + [("--size", str(n), "--min-y", "-3") for n in (300, 600)]
    + [
        ("--size", "600", "--zigzag", "--min-y", "-2", "--nonneg"),
        ("--size", "800", "--zigzag", "--min-y", "-1", "--first", "up"),
    ]
    # step counts: the grand end window, the zigzag join and the y-free layout
    + [
        ("--size", "200", "--steps", "150", "--min-y", "-2"),
        ("--size", "200", "--steps", "140", "--first", "up", "--altitude", "2"),
        ("--size", "120", "--zigzag", "--steps", "96", "--altitude", "-2"),
        ("--size", "300", "--zigzag", "--steps", "199", "--first", "up", "--altitude", "1"),
        ("--size", "200", "--zigzag", "--steps", "150", "--min-y", "-3", "--nonneg"),
        ("--size", "120", "--steps", "90"),
        ("--size", "240", "--zigzag", "--steps", "180"),
    ]
)
# size-by-altitude tables, which read every column of one mirrored list sweep
TABLES = [
    ("--zigzag", "--n-max", "200", "--k-max", "6"),
    ("--n-max", "80", "--k-max", "5", "--header"),
    ("--zigzag", "--n-max", "20", "--k-max", "4", "--header"),
]

# every asym formula, in csv and json, over two size lists that read the
# rows to n = 697 and to n = 2000; a formula with a band depth runs at each m
ASYM_SIZES = ("2,4,10,100,697", "2,10,500,1999,2000")
ASYM_DEPTHS = (0, 1, 2, 5)

BAD_INPUTS = [
    ["count", "--size", "-1"],
    ["count", "--size", "6", "--steps", "0"],
    ["count", "--size", "6", "--min-y", "1"],
    ["count", "--size", "6", "--min-y", "-1", "--max-y", "-2"],
    ["count", "--size", "6", "--zigzag", "--steps", "2", "--engine", "gf"],
    ["count", "--size", "x"],
    ["gf", "--name", "above-line", "--m", "0"],
    ["gf", "--name", "above-line", "--m", "-2"],
    ["gf", "--name", "above-line"],
    ["gf", "--name", "zigzag-altitude"],
    ["gf", "--name", "zigzag-nonneg", "--order", "0"],
    ["gf", "--name", "tube", "--m", "2", "--M", "1"],
    ["gf", "--name", "tube", "--m", "0", "--M", "0"],
    ["asym", "--formula", "above-line-prob", "--m", "1", "--n-list", "0"],
    ["asym", "--formula", "grand-all", "--n-list", "10,x"],
    ["asym", "--formula", "grand-all", "--m", "1", "--n-list", "10"],
    ["biject", "--map", "phi-inv", "--input", "N E Q"],
    ["biject", "--map", "phi", "--input", "X=1,2"],
    ["verify", "--only", "no-such-check"],
]


def grid() -> list[list[str]]:
    """Every command of the corpus, in a fixed order."""
    commands = []
    for name, param_sets in GF_PARAMS.items():
        for params in param_sets:
            gf = ["gf", "--name", name, *params]
            commands += [[*gf, "--order", str(n)] for n in GF_ORDERS]
            commands += [
                [*gf, "--order", str(n), "--format", fmt]
                for n in GF_FORMAT_ORDERS
                for fmt in ("json", "csv")
            ]
    every = ["--engine", "all", "--format", "json"]
    for flags in ZIGZAG_COUNTS:
        commands += [["count", "--size", str(n), "--zigzag", *flags, *every] for n in COUNT_SIZES]
    for flags in OTHER_COUNTS:
        commands += [["count", "--size", str(n), *flags, *every] for n in OTHER_SIZES]
    commands += [["count", *flags] for flags in DP_COUNTS]
    commands += [["table", *flags] for flags in TABLES]
    for formula, entry in asymptotics.FORMULAS.items():
        depths = [("--m", str(m)) for m in ASYM_DEPTHS] if entry.takes_m else [()]
        commands += [
            ["asym", "--formula", formula, *depth, "--n-list", sizes, "--format", fmt]
            for depth in depths
            for sizes in ASYM_SIZES
            for fmt in ("csv", "json")
        ]
    for level in ("quick", "full"):
        commands += [["verify", "--level", level], ["verify", "--level", level, "--json"]]
    return commands + BAD_INPUTS


_SECONDS = (re.compile(r"\(\d+\.\d+s\)"), re.compile(r'"seconds": [0-9.e+-]+'))


def output(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command, masked as the module says."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: keep its error line, not the usage above it
            return exc.code, out.getvalue(), err.getvalue().splitlines()[-1]
        except Exception as exc:  # a crash is a difference too, named like any other
            return -1, out.getvalue(), repr(exc)
    stdout = out.getvalue()
    if argv[0] == "verify":
        stdout = _SECONDS[0].sub("(s)", stdout)
        stdout = _SECONDS[1].sub('"seconds": 0', stdout)
    return code, stdout, err.getvalue()


def digest(argv: list[str]) -> str:
    code, stdout, stderr = output(argv)
    blob = json.dumps([argv, code, stdout, stderr]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def main() -> int:
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    corpus = {key(argv): digest(argv) for argv in grid()}
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in corpus.items()]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(corpus)} commands written to {CORPUS.name}")
    moves = (
        ("changed", [k for k in corpus if k in old and old[k] != corpus[k]]),
        ("added", [k for k in corpus if k not in old]),
        ("removed", [k for k in old if k not in corpus]),
    )
    for label, keys in moves:
        print(f"{len(keys)} {label}" + "".join(f"\n  {k}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
