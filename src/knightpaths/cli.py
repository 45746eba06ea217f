"""Command-line interface.

Subcommands: count, table, gf, biject, asym, verify.  Exit codes: 0 on
success, 1 when engines disagree or a gated verification check fails,
2 on bad flags or unparseable input.  Output is deterministic; JSON output
renders counts as decimal strings so arbitrary precision survives parsing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import asymptotics, bijections, counting, engines, series, verification
from .counting import ALL, NONNEG, CountQuery
from .paths import DOWN, UP, PathConstraints, parse_path


def _emit(payload: dict, fmt: str, plain_keys: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        print(",".join(str(payload[k]) for k in plain_keys))
    else:
        print(" ".join(str(payload[k]) for k in plain_keys))


# -- count ---------------------------------------------------------------------


def count_query(args) -> CountQuery:
    """The query of a parsed `count` command; raises ValueError for bad flags."""
    direction = {None: None, "up": UP, "down": DOWN}
    c = PathConstraints(
        zigzag=args.zigzag,
        min_y=args.min_y,
        max_y=args.max_y,
        steps=args.steps,
        first_dir=direction[args.first],
        last_dir=direction[args.last],
    )
    altitude = NONNEG if args.nonneg else ALL if args.altitude is None else args.altitude
    return CountQuery(args.size, altitude, c)


UNCOVERED = {"gf": "no generating function", "closed": "no closed form"}


def cmd_count(args) -> int:
    query = count_query(args)
    results: dict[str, int] = {}
    for engine in engines.ENGINES if args.engine == "all" else [args.engine]:
        got = engines.count(query, engine)
        if got is not None:
            results[engine] = got
        elif args.engine != "all":
            print(f"error: {UNCOVERED[engine]} covers this query", file=sys.stderr)
            return 2
    agree = len(set(results.values())) == 1
    payload = {k: str(v) for k, v in sorted(results.items())}
    payload["count"] = str(next(iter(results.values()))) if agree else "DISAGREEMENT"
    _emit(payload, args.format, ["count"])
    if not agree:
        print(f"engines disagree: {results}", file=sys.stderr)
        return 1
    return 0


# -- table -----------------------------------------------------------------------


def cmd_table(args) -> int:
    c = PathConstraints(zigzag=args.zigzag)
    if args.k_max < 0:
        raise ValueError("k_max must be non-negative")
    dists = list(counting.altitude_distributions(args.n_max, c))
    rows = [[dist.get(k, 0) for dist in dists] for k in range(args.k_max + 1)]
    if args.header:
        print("k\\n," + ",".join(str(n) for n in range(args.n_max + 1)))
    for k, row in enumerate(rows):
        prefix = f"{k}," if args.header else ""
        print(prefix + ",".join(str(v) for v in row))
    return 0


# -- gf ----------------------------------------------------------------------------


def cmd_gf(args) -> int:
    if args.order < 1:
        raise ValueError(f"--order must be >= 1, got {args.order}")
    coeffs = engines.gf_row(args.name, args.order, args.k, args.m, args.M)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "name": args.name,
                    "order": args.order,
                    "coeffs": [str(c) for c in coeffs],
                },
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        for n, c in enumerate(coeffs):
            print(f"{n},{c}")
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


# -- biject --------------------------------------------------------------------------


def _parse_pair(text: str) -> bijections.CompositionPair:
    try:
        x_part, y_part = text.split(";")
        xs = x_part.split("=", 1)[1]
        ys = y_part.split("=", 1)[1]
        x = tuple(int(t) for t in xs.replace(",", " ").split())
        y = tuple(int(t) for t in ys.replace(",", " ").split())
    except (ValueError, IndexError):
        raise ValueError(
            'expected "X=1,2 ; Y=2,1" with equal numbers of parts'
        ) from None
    return bijections.CompositionPair(
        bijections.Composition(x), bijections.Composition(y)
    )


def _format_pair(pair: bijections.CompositionPair) -> str:
    xs = ",".join(str(p) for p in pair.x.parts)
    ys = ",".join(str(p) for p in pair.y.parts)
    return f"X={xs} ; Y={ys}"


def cmd_biject(args) -> int:
    text = args.input if args.input is not None else sys.stdin.read()
    text = text.strip()
    if args.map in ("phi", "psi"):
        pair = _parse_pair(text)
        fn = (
            bijections.pair_to_path
            if args.map == "phi"
            else bijections.pair_to_path_falling
        )
        print(str(fn(pair)))
    elif args.map in ("phi-inv", "psi-inv"):
        path = parse_path(text)
        fn = (
            bijections.path_to_pair
            if args.map == "phi-inv"
            else bijections.path_to_pair_falling
        )
        print(_format_pair(fn(path)))
    elif args.map == "tube-phi":
        parts = tuple(int(t) for t in text.replace(",", " ").split())
        print(str(bijections.narrow_band_path(bijections.Composition(parts))))
    elif args.map == "tube-phi-inv":
        comp = bijections.narrow_band_composition(parse_path(text))
        print(",".join(str(p) for p in comp.parts))
    return 0


# -- asym -----------------------------------------------------------------------------


def _size(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"--n-list: {token!r} is not an integer") from None


def cmd_asym(args) -> int:
    n_list = sorted(map(_size, args.n_list.replace(",", " ").split()))
    report = asymptotics.convergence_report(args.formula, n_list, m=args.m)
    rows = report.as_dicts()
    if args.format == "json":
        # an exact value of 0 has a NaN ratio, which JSON cannot spell
        json_rows = [{**r, "ratio": None if math.isnan(r["ratio"]) else r["ratio"]} for r in rows]
        print(
            json.dumps(
                {
                    "formula": report.formula,
                    "m": report.m,
                    "conjecture": report.conjecture,
                    "tail_decreasing": report.tail_is_decreasing(),
                    "rows": json_rows,
                },
                sort_keys=True,
            )
        )
    else:
        for row in rows:
            print(f"{row['n']},{row['exact']},{row['estimate']},{row['ratio']}")
    return 0


# -- verify ----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = list(verification.run_checks(level=args.level, only=args.only))
    if not results:
        print(f"error: no check matches {args.only!r}", file=sys.stderr)
        return 2
    failed = [r for r in results if not r.passed]
    if args.json:
        print(
            json.dumps(
                {
                    "level": args.level,
                    "passed": not failed,
                    "checks": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "detail": r.detail,
                            "seconds": round(r.seconds, 3),
                        }
                        for r in results
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.name} ({r.seconds:.2f}s): {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knightpaths",
        description="Exact enumeration of grand (zigzag) knight's paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count paths of a given size")
    p.add_argument("--size", type=int, required=True)
    alt = p.add_mutually_exclusive_group()
    alt.add_argument("--altitude", type=int, help="exact final altitude")
    alt.add_argument("--all", action="store_true", help="any final altitude (default)")
    alt.add_argument("--nonneg", action="store_true", help="final altitude >= 0")
    p.add_argument("--zigzag", action="store_true")
    p.add_argument("--min-y", type=int, default=None, dest="min_y")
    p.add_argument("--max-y", type=int, default=None, dest="max_y")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--first", choices=["up", "down"], default=None)
    p.add_argument("--last", choices=["up", "down"], default=None)
    p.add_argument("--engine", choices=["dp", "gf", "closed", "all"], default="dp")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("table", help="size-by-altitude count grid as CSV")
    p.add_argument("--zigzag", action="store_true")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--header", action="store_true")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("gf", help="expand a named generating function")
    p.add_argument("--name", required=True, choices=list(engines.GF_ROWS))
    p.add_argument("--order", type=int, default=series.DEFAULT_ORDER)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(fn=cmd_gf)

    p = sub.add_parser("biject", help="apply a bijection to stdin or --input")
    p.add_argument(
        "--map",
        required=True,
        choices=["phi", "phi-inv", "psi", "psi-inv", "tube-phi", "tube-phi-inv"],
    )
    p.add_argument("--input", default=None, help="input text (default: stdin)")
    p.set_defaults(fn=cmd_biject)

    p = sub.add_parser("asym", help="convergence report for an asymptotic formula")
    p.add_argument("--formula", required=True, choices=sorted(asymptotics.FORMULAS))
    p.add_argument("--n-list", required=True, dest="n_list")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=cmd_asym)

    p = sub.add_parser("verify", help="run the cross-engine verification suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--only", default=None, help="substring filter on check names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main() call and reused after it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact counts run past the default 4,300 digits
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # bad input, ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
