"""The four seeded workloads and the correctness oracle for their outputs.

A workload is a list of slots: an operation family with a parameter range.
The seed picks the concrete values inside each slot (sizes and orders within
a narrow stratum, signs, cost-equivalent band shapes) and the order of the
operations.  Slots whose cost would swing with a parameter keep that
parameter fixed, so the total work of a pass stays close from seed to seed
and differences between runs measure the program, not the draw.

The package sees only the generated argv.  The oracle imports it separately,
after the timed passes, and checks each output against an engine other than
the one that produced it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

WORKLOADS = ("query-mix", "series-deep", "exact-large", "verify-quick")


def _spread(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers covering [lo, hi]: the last is hi, so every seed reaches the
    top of the range (which sets the slow tail and the peak memory); the
    others are drawn one from the lowest third of each of k - 1 equal strata
    below it, so the seed moves the sizes but hardly the work."""
    width = (hi - lo) / k
    return [round(lo + width * (i + rng.random() / 3)) for i in range(k - 1)] + [hi]


def _near(rng: random.Random, top: int) -> int:
    """An integer at most 1% (at least 1) below top."""
    return top - rng.randint(0, max(1, round(0.01 * top)))


# -- query-mix ------------------------------------------------------------------
#
# The interactive user: many small queries, each running two or three engines.


def _zigzag_counts(rng: random.Random) -> list[list[str]]:
    ops = []

    def add(sizes, extra):
        for i, n in enumerate(sizes):
            ops.append(["count", "--size", str(n), "--zigzag", "--engine", "all", *extra(i, n)])

    # Parameters that set an operation's cost (|altitude|, the depth below
    # the axis, the band's span) are fixed per slot; the seed draws the
    # sizes, the signs and the mirror image of each band.
    # unconstrained: any altitude, altitude >= 0, one exact altitude
    add(_spread(rng, 10, 120, 12), lambda i, n: [])
    add(_spread(rng, 10, 120, 12), lambda i, n: ["--nonneg"])
    add(_spread(rng, 10, 120, 12), lambda i, n: ["--altitude", _sign(rng, i % 7)])
    # weakly above y = -m (the above-line series covers "all")
    add(_spread(rng, 10, 120, 8), lambda i, n: ["--min-y", str(-(1 + i % 4))])

    # inside a band [-m, M] of span 2 to 5, any altitude or one inside the band
    def band(i, n):
        m, top = _mirror(rng, *BANDS[i])
        alt = ["--altitude", str(rng.randint(-m, top))] if i % 2 else []
        return ["--min-y", str(-m), "--max-y", str(top), *alt]

    add(_spread(rng, 10, 120, len(BANDS)), band)

    # a step-count filter with an exact altitude (the closed form covers it);
    # the DP's memory grows with the step count, so it is tied to the size
    def steps(i, n):
        k = int(_sign(rng, i % 5))
        s = n - n // 5
        s -= (s - (n - k)) % 2  # a path of size n and altitude k has n - k steps mod 2
        return ["--altitude", str(k), "--steps", str(s)]

    add(_spread(rng, 10, 120, 8), steps)
    return ops


#: (m, M) of the bands [-m, M] that query-mix counts inside, one per slot.
BANDS = ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (2, 2), (1, 4), (2, 3))


def _sign(rng: random.Random, k: int) -> str:
    return str(rng.choice((-1, 1)) * k)


def _mirror(rng: random.Random, m: int, top: int) -> tuple[int, int]:
    """The band [-m, top] or its mirror image [-top, m], which costs the same."""
    return (m, top) if rng.random() < 0.5 else (top, m)


def _grand_counts(rng: random.Random) -> list[list[str]]:
    def count(n, *flags):
        return ["count", "--size", str(n), *flags, "--engine", "all"]

    ops = [count(n) for n in _spread(rng, 8, 30, 4)]
    ops += [count(n, "--nonneg") for n in _spread(rng, 8, 30, 3)]
    ops += [
        count(n, "--altitude", _sign(rng, k)) for n, k in zip(_spread(rng, 8, 30, 3), (1, 2, 3))
    ]
    return ops


def _gf(name: str, order: int, *flags: str) -> list[str]:
    return ["gf", "--name", name, *flags, "--order", str(order)]


def _tube_flags(m: int, top: int) -> tuple[str, ...]:
    return ("--m", str(m), "--M", str(top))  # tube_gf takes m <= M only


def _small_gfs(rng: random.Random) -> list[list[str]]:
    # two orders per family, with the cost-setting parameter fixed per order
    families = (
        ("zigzag-nonneg", 16, 80, lambda i: ()),
        ("zigzag-altitude", 16, 80, lambda i: ("--k", str(1 + 2 * i))),
        ("zigzag-axis", 16, 80, lambda i: ()),
        ("zigzag-primitive", 16, 80, lambda i: ()),
        ("above-line", 16, 80, lambda i: ("--m", str(1 + 2 * i))),
        ("tube", 16, 80, lambda i: _tube_flags(*((1, 2), (1, 3))[i])),
        ("grand-nonneg", 8, 24, lambda i: ()),
        ("grand-altitude-sum", 8, 24, lambda i: ()),
        ("grand-axis", 8, 24, lambda i: ()),
        ("grand-altitude", 8, 24, lambda i: ("--k", "2")),
    )
    return [
        _gf(name, order, *flags(i))
        for name, lo, hi, flags in families
        for i, order in enumerate(_spread(rng, lo, hi, 2))
    ]


def _compositions(rng: random.Random, parts: int) -> str:
    return ",".join(str(rng.randint(1, 2)) for _ in range(parts))


def _bijections(rng: random.Random) -> list[list[str]]:
    ops = []
    for kind in ("phi", "phi", "phi", "phi", "psi", "psi", "psi"):
        p = rng.randint(2, 12)
        text = f"X={_compositions(rng, p)} ; Y={_compositions(rng, p)}"
        ops.append(["biject", "--map", kind, "--input", text])
    for _ in range(3):
        parts = [rng.choice((2, 1, 3, 5)) for _ in range(rng.randint(1, 8))]
        ops.append(["biject", "--map", "tube-phi", "--input", ",".join(map(str, parts))])
    return ops


def query_mix(rng: random.Random) -> list[list[str]]:
    ops = _zigzag_counts(rng) + _grand_counts(rng) + _small_gfs(rng) + _bijections(rng)
    rng.shuffle(ops)
    return ops


# -- series-deep -------------------------------------------------------------------
#
# High-order expansions: laurent and series do nearly all the work.


def series_deep(rng: random.Random) -> list[list[str]]:
    ops = [
        _gf("zigzag-nonneg", _near(rng, 800)),
        _gf("zigzag-altitude", _near(rng, 500), "--k", "3"),
        _gf("above-line", _near(rng, 500), "--m", "2"),
        _gf("tube", _near(rng, 400), *_tube_flags(1, 4)),
        _gf("tube", _near(rng, 400), *_tube_flags(1, 3)),
        _gf("span-exact", _near(rng, 40), "--k", "3"),
        _gf("span-exact", _near(rng, 46), "--k", "4"),
        _gf("grand-nonneg", _near(rng, 56)),
        _gf("grand-altitude", _near(rng, 40), "--k", "2"),
        _gf("grand-altitude-sum", _near(rng, 40)),
    ]
    rng.shuffle(ops)
    return ops


# -- exact-large ---------------------------------------------------------------------
#
# Large exact sizes: counting, recurrences and asymptotics do the work and no
# LaurentSeries is built.


def exact_large(rng: random.Random) -> list[list[str]]:
    def asym(formula, top, *extra):
        n_list = ",".join(str(n) for n in (40, top // 2, top))
        return ["asym", "--formula", formula, *extra, "--n-list", n_list]

    ops = [
        ["count", "--size", "600", "--zigzag", "--nonneg"],  # sets the peak memory
        ["count", "--size", str(_near(rng, 300)), "--zigzag", "--nonneg"],
        ["count", "--size", str(_near(rng, 400)), "--zigzag", "--altitude", _sign(rng, 6)],
        ["count", "--size", str(_near(rng, 600)), "--zigzag", "--min-y", "-2"],
        ["count", "--size", str(_near(rng, 150))],
        ["count", "--size", str(_near(rng, 170))],
        asym("zigzag-expected-altitude", _near(rng, 700)),
        asym("zigzag-expected-altitude", _near(rng, 500)),
        asym("above-line-prob", _near(rng, 1200), "--m", "1"),
        asym("grand-nonneg", _near(rng, 200)),
        asym("grand-altitude-sum", _near(rng, 240)),
    ]
    rng.shuffle(ops)
    return ops


def verify_quick(rng: random.Random) -> list[list[str]]:
    return [["verify", "--level", "quick"]]


GENERATORS = {
    "query-mix": query_mix,
    "series-deep": series_deep,
    "exact-large": exact_large,
    "verify-quick": verify_quick,
}


def build(workload: str, seed: int) -> list[list[str]]:
    """The operation list (argv per operation) of a workload for a seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- oracle ------------------------------------------------------------------------------
#
# Every check uses an engine other than the one that printed the value:
# gf prefixes against the DP, full zigzag rows against closed forms or the
# integer recurrences, DP counts against closed forms, recurrences or the
# rational grand-total series, biject outputs against the inverse map.
# asym ratios are never gated; only the exact column is checked, at n = 40.

PREFIX = 32
GRAND_PREFIX = 24


@lru_cache(maxsize=None)
def _zigzag_band_row(n_max: int, m: int | None, top: int | None) -> tuple[int, ...]:
    from knightpaths import ALL, PathConstraints, count_row

    return tuple(count_row(n_max, ALL, PathConstraints(zigzag=True, min_y=m, max_y=top)))


@lru_cache(maxsize=None)
def _altitudes(n: int, zigzag: bool) -> dict[int, int]:
    from knightpaths import PathConstraints
    from knightpaths.counting import altitude_distribution

    return altitude_distribution(n, PathConstraints(zigzag=zigzag))


@lru_cache(maxsize=None)
def _grand_stats(n_max: int) -> dict[str, list[int]]:
    from knightpaths.counting import grand_row_stats

    return grand_row_stats(n_max)


def _span_row(k: int, n_max: int) -> list[int]:
    """Exact-span counts by inclusion-exclusion over DP band totals."""

    def band(m: int, top: int) -> tuple[int, ...]:
        if m < 0 or top < 0:
            return (0,) * (n_max + 1)
        if m == 0 and top == 0:
            return (1,) + (0,) * n_max
        return _zigzag_band_row(n_max, -m, top)

    rows = [
        (band(m, k - m), band(m - 1, k - m), band(m, k - m - 1), band(m - 1, k - m - 1))
        for m in range(k + 1)
    ]
    return [sum(a[n] - b[n] - c[n] + d[n] for a, b, c, d in rows) for n in range(n_max + 1)]


def _gf_dp(a, p: int) -> list[int]:
    """The first p coefficients of a gf row, from the DP."""
    from knightpaths import NONNEG, PathConstraints, count_row
    from knightpaths.counting import count_primitive

    name, zigzag = a.name, PathConstraints(zigzag=True)
    if name == "zigzag-nonneg":
        return count_row(p - 1, NONNEG, zigzag)
    if name in ("zigzag-altitude", "zigzag-axis"):
        return count_row(p - 1, a.k or 0, zigzag)
    if name == "above-line":
        return list(_zigzag_band_row(p - 1, -a.m, None))
    if name == "zigzag-primitive":
        return [count_primitive(n) for n in range(p)]
    if name == "tube":
        return list(_zigzag_band_row(p - 1, -a.m, a.M))
    if name == "span-exact":
        return _span_row(a.k, p - 1)
    if name in ("grand-nonneg", "grand-altitude-sum"):
        key = "nonneg" if name == "grand-nonneg" else "altitude_sum"
        return _grand_stats(p - 1)[key]
    if name in ("grand-altitude", "grand-axis"):
        return [_altitudes(n, False).get(a.k or 0, 0) for n in range(p)]
    raise ValueError(f"no DP reference for gf {name!r}")


def _gf_full(a) -> list[int] | None:
    """The whole gf row from a closed form or an integer recurrence, if one
    covers it; the grand rows come from the DP, which is cheap at their
    orders."""
    from knightpaths import closedforms, recurrences

    name, order = a.name, a.order
    if name == "zigzag-nonneg":
        return recurrences.zigzag_nonneg_row(order)
    if name in ("zigzag-altitude", "zigzag-axis"):
        return [closedforms.zigzag_count_closed(n, a.k or 0) for n in range(order)]
    if name == "above-line":
        return recurrences.above_line_row(a.m, order)
    if name in ("grand-nonneg", "grand-altitude-sum"):
        return _gf_dp(a, order)
    return None


def _count_reference(a) -> int | None:
    """An independent value for a count query, where one exists cheaply."""
    from knightpaths import closedforms, recurrences
    from knightpaths.series import GRAND_TOTAL_GF

    n = a.size
    if a.steps is not None or a.max_y is not None:
        return None
    if not a.zigzag:
        if a.min_y is not None or a.nonneg or a.altitude is not None:
            return None
        return GRAND_TOTAL_GF.expand(n + 1)[n]
    if a.min_y is not None:
        if a.nonneg or a.altitude is not None:
            return None
        return recurrences.above_line_row(-a.min_y, n + 1)[n]
    if a.nonneg:
        return recurrences.zigzag_nonneg_row(n + 1)[n]
    if a.altitude is not None:
        return closedforms.zigzag_count_closed(n, a.altitude)
    return recurrences.zigzag_total_row(n + 1)[n]


def _asym_reference(a, n: int) -> Fraction:
    """The exact column of an asym report at a small n, from the DP."""
    formula = a.formula
    if formula == "zigzag-expected-altitude":
        dist = _altitudes(n, True)
        alt_sum = sum(k * c for k, c in dist.items() if k > 0)
        return Fraction(alt_sum, sum(c for k, c in dist.items() if k >= 0))
    if formula == "above-line-prob":
        return Fraction(_zigzag_band_row(n, -a.m, None)[n], _zigzag_band_row(n, None, None)[n])
    dist = _altitudes(n, False)
    if formula == "grand-nonneg":
        return Fraction(sum(c for k, c in dist.items() if k >= 0))
    if formula == "grand-altitude-sum":
        return Fraction(sum(k * c for k, c in dist.items() if k > 0))
    raise ValueError(f"no reference for asym {formula!r}")


def _parse_pair(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    xs, ys = (part.split("=", 1)[1] for part in text.split(";"))
    return tuple(int(t) for t in xs.split(",") if t.strip()), tuple(
        int(t) for t in ys.split(",") if t.strip()
    )


def _biject_roundtrip(a, out: str) -> bool:
    """The inverse map returns the input, and the path's size, altitude and
    shape match what the input prescribes."""
    from knightpaths import bijections
    from knightpaths.paths import parse_path

    path = parse_path(out)
    if a.map == "tube-phi":
        parts = tuple(int(t) for t in a.input.split(","))
        lo, hi = path.heights
        return (
            bijections.narrow_band_composition(path).parts == parts
            and path.size == 2 * sum(parts) + 4
            and path.altitude == 0
            and -1 <= lo <= hi <= 1
        )
    xs, ys = _parse_pair(a.input)
    inverse = bijections.path_to_pair if a.map == "phi" else bijections.path_to_pair_falling
    pair = inverse(path)
    return (
        (pair.x.parts, pair.y.parts) == (xs, ys)
        and path.size == sum(xs) + sum(ys)
        and path.altitude == sum(ys) - sum(xs)
        and path.is_zigzag()
    )


def check(argv: list[str], rc, out: str) -> str | None:
    """None if the operation's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    from knightpaths.cli import build_parser

    a = build_parser().parse_args(argv)
    command = a.command
    if command == "count":
        want = _count_reference(a)
        got = int(out.split()[0])
        if want is not None and got != want:
            return f"count {got} != reference {want}"
    elif command == "gf":
        got = [int(t) for t in out.split()]
        if len(got) != a.order:
            return f"{len(got)} coefficients, expected {a.order}"
        p = min(a.order, GRAND_PREFIX if a.name.startswith("grand") else PREFIX)
        if got[:p] != _gf_dp(a, p):
            return f"the first {p} coefficients differ from the DP"
        full = _gf_full(a)
        if full is not None and got != full:
            return "coefficients differ from the closed form or recurrence"
    elif command == "biject":
        if not _biject_roundtrip(a, out.strip()):
            return "the round trip or the size and altitude bookkeeping failed"
    elif command == "asym":
        first = out.splitlines()[0].split(",")
        n, exact = int(first[0]), Fraction(first[1])
        want = _asym_reference(a, n)
        if exact != want:
            return f"exact value at n={n} is {exact}, DP gives {want}"
    elif command == "verify":
        from knightpaths.verification import CHECKS

        lines = out.splitlines()
        passed = {line.split()[1] for line in lines if line.startswith("PASS ")}
        if passed != set(CHECKS) or lines[-1] != f"{len(CHECKS)}/{len(CHECKS)} checks passed":
            return "not every check passed"
    else:
        return f"no oracle for {command!r}"
    return None
