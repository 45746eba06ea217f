"""Command-line interface.

Subcommands: count, table, gf, biject, asym, verify.  Exit codes: 0 on
success, 1 when engines disagree or a gated verification check fails,
2 on bad flags or unparseable input.  Output is deterministic; JSON output
renders counts as decimal strings so arbitrary precision survives parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import asymptotics, bijections, closedforms, counting, series, verification
from .counting import ALL, NONNEG
from .paths import DOWN, UP, ParseError, Path, PathConstraints, parse_path

ENV_ORDER = "KNIGHTPATHS_ORDER"


def _default_order() -> int:
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return series.DEFAULT_ORDER
    try:
        value = int(raw)
        if value < 8:
            raise ValueError
        return value
    except ValueError:
        raise SystemExit(f"{ENV_ORDER} must be an integer >= 8, got {raw!r}")


def _constraints(args) -> PathConstraints:
    first = {None: None, "up": UP, "down": DOWN}[args.first]
    last = {None: None, "up": UP, "down": DOWN}[getattr(args, "last", None)]
    return PathConstraints(
        zigzag=args.zigzag,
        min_y=args.min_y,
        max_y=args.max_y,
        steps=args.steps,
        first_dir=first,
        last_dir=last,
    )


def _emit(payload: dict, fmt: str, plain_keys: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        print(",".join(str(payload[k]) for k in plain_keys))
    else:
        print(" ".join(str(payload[k]) for k in plain_keys))


# -- count ---------------------------------------------------------------------


def _gf_count(size: int, altitude, c: PathConstraints, order: int) -> int | None:
    """Series-engine count, or None when no generating function applies."""
    if c.steps is not None or c.first_dir is not None or c.last_dir is not None:
        return None
    bounded = c.min_y is not None or c.max_y is not None
    if not c.zigzag:
        if bounded:
            return None
        if altitude == ALL:
            return series.GRAND_TOTAL_GF.expand(size + 1)[size]
        if altitude == NONNEG:
            h1, _ = series.grand_totals(size + 1)
            return int(series.z_coefficients(h1, size + 1)[size])
        gf = series.grand_altitude_gf(abs(altitude), size + 1)
        return int(series.z_coefficients(gf, size + 1)[size])
    if not bounded:
        if altitude == ALL:
            return series.zigzag_rational(size + 1)[size]
        if altitude == NONNEG:
            return series.int_coefficients(series.zigzag_nonneg_gf(size + 2), size + 1)[size]
        gf = series.zigzag_altitude_gf(abs(altitude), size + 2)
        return series.int_coefficients(gf, size + 1)[size]
    # banded zigzag
    m = -c.min_y if c.min_y is not None else None
    top = c.max_y
    if top is None:
        if altitude != ALL or m < 1:
            return None
        total, _ = series.above_line_gf(m, size + 2)
        return series.int_coefficients(total, size + 1)[size]
    if m is None:
        return None  # bounded above only: reflect at the caller if needed
    band = series.tube_gf(m, top, size + 2) if m <= top else series.tube_gf(top, m, size + 2)
    if altitude == ALL:
        return series.int_coefficients(band.total(), size + 1)[size]
    if altitude == NONNEG:
        return None
    y = altitude if m <= top else -altitude  # reflected band flips altitudes
    if not -band.m <= y <= band.M:
        return 0
    return series.int_coefficients(band.altitude(y), size + 1)[size]


def _closed_count(size: int, altitude, c: PathConstraints) -> int | None:
    """Closed-form count, or None when no binomial formula applies."""
    if not c.zigzag or c.min_y is not None or c.max_y is not None:
        return None
    if c.last_dir is not None:
        return None
    if c.steps is not None:
        if not isinstance(altitude, int):
            return None
        dirs = (c.first_dir,) if c.first_dir is not None else (UP, DOWN)
        return sum(
            closedforms.zigzag_step_count(size, altitude, c.steps, d) for d in dirs
        )
    if c.first_dir is not None:
        return None
    if altitude == ALL:
        return sum(
            closedforms.zigzag_count_closed(size, k)
            for k in range(-2 * size, 2 * size + 1)
        )
    if altitude == NONNEG:
        return sum(
            closedforms.zigzag_count_closed(size, k) for k in range(0, 2 * size + 1)
        )
    return closedforms.zigzag_count_closed(size, altitude)


def cmd_count(args) -> int:
    try:
        c = _constraints(args)
        if args.size < 0:
            raise ValueError("size must be non-negative")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        altitude = ALL
    elif args.nonneg:
        altitude = NONNEG
    else:
        altitude = args.altitude if args.altitude is not None else ALL
    order = args.order
    results: dict[str, int] = {}
    engines = ["dp", "gf", "closed"] if args.engine == "all" else [args.engine]
    for engine in engines:
        if engine == "dp":
            results["dp"] = counting.count_paths(args.size, altitude, c)
        elif engine == "gf":
            got = _gf_count(args.size, altitude, c, order)
            if got is not None:
                results["gf"] = got
            elif args.engine == "gf":
                print("error: no generating function covers this query", file=sys.stderr)
                return 2
        elif engine == "closed":
            got = _closed_count(args.size, altitude, c)
            if got is not None:
                results["closed"] = got
            elif args.engine == "closed":
                print("error: no closed form covers this query", file=sys.stderr)
                return 2
    values = set(results.values())
    payload = {k: str(v) for k, v in sorted(results.items())}
    payload["count"] = str(next(iter(results.values())))
    if len(values) > 1:
        payload["count"] = "DISAGREEMENT"
        _emit(payload, args.format, ["count"])
        print(f"engines disagree: {results}", file=sys.stderr)
        return 1
    _emit(payload, args.format, ["count"])
    return 0


# -- table -----------------------------------------------------------------------


def cmd_table(args) -> int:
    c = PathConstraints(zigzag=args.zigzag)
    try:
        dists = list(counting.altitude_distributions(args.n_max, c))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [[dist.get(k, 0) for dist in dists] for k in range(args.k_max + 1)]
    if args.header:
        print("k\\n," + ",".join(str(n) for n in range(args.n_max + 1)))
    for k, row in enumerate(rows):
        prefix = f"{k}," if args.header else ""
        print(prefix + ",".join(str(v) for v in row))
    return 0


# -- gf ----------------------------------------------------------------------------


def _gf_by_name(name: str, order: int, k: int | None, m: int | None, M: int | None) -> list[int]:
    def need(value, what):
        if value is None:
            raise SystemExit(f"error: gf {name!r} needs --{what}")
        return value

    if name == "grand-total":
        return series.GRAND_TOTAL_GF.expand(order)
    if name == "grand-nonneg":
        h1, _ = series.grand_totals(order)
        return [int(c) for c in series.z_coefficients(h1, order)]
    if name == "grand-altitude-sum":
        _, dh1 = series.grand_totals(order)
        return [int(c) for c in series.z_coefficients(dh1, order)]
    if name == "grand-altitude":
        gf = series.grand_altitude_gf(abs(need(k, "k")), order)
        return [int(c) for c in series.z_coefficients(gf, order)]
    if name == "grand-axis":
        gf = series.grand_boundary_gfs(order)[0]
        return [int(c) for c in series.z_coefficients(gf, order)]
    if name == "zigzag-total":
        return series.zigzag_rational(order)
    if name == "zigzag-nonneg":
        return series.int_coefficients(series.zigzag_nonneg_gf(order + 1), order)
    if name == "zigzag-axis":
        return series.int_coefficients(series.zigzag_altitude_gf(0, order + 1), order)
    if name == "zigzag-altitude":
        gf = series.zigzag_altitude_gf(abs(need(k, "k")), order + 1)
        return series.int_coefficients(gf, order)
    if name == "zigzag-primitive":
        return series.int_coefficients(series.zigzag_primitive_gf(order + 1), order)
    if name == "above-line":
        total, _ = series.above_line_gf(need(m, "m"), order + 1)
        return series.int_coefficients(total, order)
    if name == "sym-tube":
        total, _ = series.symmetric_tube_gf(need(m, "m"), order + 1)
        return series.int_coefficients(total, order)
    if name == "tube":
        gf = series.tube_total_gf(need(m, "m"), need(M, "M"), order + 1)
        return series.int_coefficients(gf, order)
    if name == "tube-axis":
        return series.int_coefficients(series.tube_axis_gf(need(M, "M"), order + 1), order)
    if name == "tube1-axis":
        return series.TUBE1_AXIS_GF.expand(order)
    if name == "span-exact":
        return series.int_coefficients(series.span_exact_gf(need(k, "k"), order + 1), order)
    raise SystemExit(f"error: unknown gf name {name!r}")


GF_NAMES = (
    "grand-total grand-nonneg grand-altitude-sum grand-altitude grand-axis "
    "zigzag-total zigzag-nonneg zigzag-axis zigzag-altitude zigzag-primitive "
    "above-line sym-tube tube tube-axis tube1-axis span-exact"
).split()


def cmd_gf(args) -> int:
    if args.order < 1:
        print(f"error: --order must be >= 1, got {args.order}", file=sys.stderr)
        return 2
    try:
        coeffs = _gf_by_name(args.name, args.order, args.k, args.m, args.M)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
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
    try:
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
    except (ValueError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# -- asym -----------------------------------------------------------------------------


def cmd_asym(args) -> int:
    try:
        n_list = sorted(int(t) for t in args.n_list.replace(",", " ").split())
        report = asymptotics.convergence_report(args.formula, n_list, m=args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = report.as_dicts()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "formula": report.formula,
                    "m": report.m,
                    "conjecture": report.conjecture,
                    "tail_decreasing": report.tail_is_decreasing(),
                    "rows": rows,
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
    p.add_argument("--order", type=int, default=_default_order())
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("table", help="size-by-altitude count grid as CSV")
    p.add_argument("--zigzag", action="store_true")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--header", action="store_true")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("gf", help="expand a named generating function")
    p.add_argument("--name", required=True, choices=GF_NAMES)
    p.add_argument("--order", type=int, default=_default_order())
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
