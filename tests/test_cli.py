"""CLI behaviour: flags, engines, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knightpaths
from knightpaths import closedforms, engines, recurrences, series
from knightpaths.cli import build_parser, count_query, main
from knightpaths.counting import ALL, NONNEG, CountQuery, count_paths, count_primitive, count_row
from knightpaths.fixtures import SPAN_TABLE, ZIGZAG_TABLE
from knightpaths.paths import DOWN, UP, PathConstraints


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count_all_engines_agree(capsys):
    code, out, _ = run(
        capsys, "count", "--size", "7", "--altitude", "0", "--zigzag", "--engine", "all"
    )
    assert code == 0
    assert out.strip() == "6"


def test_count_grand_axis(capsys):
    code, out, _ = run(capsys, "count", "--size", "4", "--altitude", "0")
    assert code == 0
    assert out.strip() == "8"


def test_count_narrow_band(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--size",
        "3",
        "--altitude",
        "0",
        "--zigzag",
        "--min-y",
        "-1",
        "--max-y",
        "1",
        "--engine",
        "all",
    )
    assert code == 0
    assert out.strip() == "0"


def test_count_json_uses_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "count", "--size", "40", "--all", "--format", "json", "--engine", "all"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == str(int(payload["count"]))
    assert int(payload["count"]) > 10 ** 17


def test_count_with_steps_filter(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--size",
        "4",
        "--altitude",
        "0",
        "--zigzag",
        "--steps",
        "2",
        "--engine",
        "all",
    )
    assert code == 0
    assert out.strip() == "2"


def test_count_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "count", "--size", "4", "--engine", "turbo")
    assert exc.value.code == 2
    code, _, err = run(
        capsys, "count", "--size", "4", "--min-y", "2"
    )  # min_y must be <= 0
    assert code == 2 and "error" in err


def test_count_negative_size_exits_two(capsys):
    code, out, err = run(capsys, "count", "--size", "-3")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_a_value_error_past_the_flags_exits_two(capsys, monkeypatch):
    """main is the one error exit: a ValueError an engine raises is bad input too."""

    def refuse(query, engine):
        raise ValueError("refused")

    monkeypatch.setattr(engines, "count", refuse)
    code, out, err = run(capsys, "count", "--size", "4", "--engine", "all")
    assert (code, out, err) == (2, "", "error: refused\n")


def test_count_engine_gf_unsupported_query(capsys):
    code, _, err = run(
        capsys,
        "count",
        "--size",
        "4",
        "--zigzag",
        "--steps",
        "2",
        "--engine",
        "gf",
    )
    assert code == 2
    assert "no generating function" in err


def test_table_reproduces_zigzag_grid(capsys):
    code, out, _ = run(capsys, "table", "--zigzag", "--n-max", "15", "--k-max", "4")
    assert code == 0
    rows = [tuple(int(v) for v in line.split(",")) for line in out.strip().splitlines()]
    assert tuple(rows) == ZIGZAG_TABLE


@pytest.mark.parametrize("flags", [("3", "-1"), ("-1", "3")])
def test_table_negative_bound_exits_two(capsys, flags):
    n_max, k_max = flags
    code, out, err = run(capsys, "table", "--n-max", n_max, "--k-max", k_max)
    name = "k_max" if k_max == "-1" else "n_max"
    assert (code, out, err) == (2, "", f"error: {name} must be non-negative\n")


def test_gf_span_row(capsys):
    code, out, _ = run(capsys, "gf", "--name", "span-exact", "--k", "2", "--order", "17")
    assert code == 0
    assert tuple(int(v) for v in out.split()) == SPAN_TABLE[1]


def test_gf_json_format(capsys):
    code, out, _ = run(
        capsys, "gf", "--name", "zigzag-total", "--order", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["1", "2", "4", "6", "10", "16"]


def test_gf_missing_parameter(capsys):
    code, _, err = run(capsys, "gf", "--name", "above-line", "--order", "5")
    assert code == 2 and "--m" in err


def test_gf_negative_order_exits_two(capsys):
    code, out, err = run(capsys, "gf", "--name", "zigzag-total", "--order", "-1")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_gf_zero_order_exits_two(capsys):
    code, out, err = run(capsys, "gf", "--name", "grand-nonneg", "--order", "0")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_biject_phi_inv(capsys):
    code, out, _ = run(capsys, "biject", "--map", "phi-inv", "--input", "N Nb")
    assert code == 0
    assert out.strip() == "X=1 ; Y=1"


def test_biject_phi_round_trip(capsys):
    code, out, _ = run(capsys, "biject", "--map", "phi", "--input", "X=2,1 ; Y=1,2")
    assert code == 0
    code, out2, _ = run(capsys, "biject", "--map", "phi-inv", "--input", out.strip())
    assert code == 0
    assert out2.strip() == "X=2,1 ; Y=1,2"


def test_biject_tube_phi(capsys):
    code, out, _ = run(capsys, "biject", "--map", "tube-phi", "--input", "1")
    assert code == 0
    assert out.strip() == "E Nb N Eb"
    code, out2, _ = run(capsys, "biject", "--map", "tube-phi-inv", "--input", out.strip())
    assert code == 0
    assert out2.strip() == "1"


def test_biject_rejects_non_image(capsys):
    code, _, err = run(capsys, "biject", "--map", "phi-inv", "--input", "N")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "biject", "--map", "phi-inv", "--input", "X")
    assert code == 2


def test_asym_report(capsys):
    code, out, _ = run(
        capsys, "asym", "--formula", "grand-all", "--n-list", "10,20", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["exact"] == "18272"
    assert abs(payload["rows"][1]["ratio"] - 1) < 1e-6


def test_asym_bad_size_list_exits_two(capsys):
    for n_list in ("abc", "-5", "10,x"):
        code, out, err = run(capsys, "asym", "--formula", "grand-all", "--n-list", n_list)
        assert code == 2, n_list
        assert out == "" and err.startswith("error:"), n_list
    for n_list, token in (("abc", "abc"), ("10,x", "x"), ("7 1.5", "1.5")):
        _, _, err = run(capsys, "asym", "--formula", "grand-all", "--n-list", n_list)
        assert err == f"error: --n-list: {token!r} is not an integer\n", n_list


def test_asym_json_spells_an_undefined_ratio_null(capsys):
    argv = ("asym", "--formula", "zigzag-expected-altitude", "--n-list", "0,1")

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    code, out, _ = run(capsys, *argv, "--format", "json")
    rows = json.loads(out, parse_constant=reject)["rows"]
    assert code == 0
    assert [r["exact"] for r in rows] == ["0", "2"]
    assert rows[0]["ratio"] is None and rows[1]["ratio"] > 1
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "0,0,0.0,nan"  # CSV keeps nan


@pytest.mark.parametrize(
    "formula,first", [("grand-all", 707), ("grand-nonneg", 708), ("grand-altitude-sum", 704)]
)
def test_asym_spells_an_estimate_past_the_double_range(capsys, formula, first):
    """From the first size whose estimate overflows a double, both formats
    print it rounded to 17 significant digits; JSON as a string."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    argv = ("asym", "--formula", formula, "--n-list", f"{first - 1},{first},800")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out, parse_constant=reject)["rows"]
    assert isinstance(rows[0]["estimate"], float)
    spelled = [r["estimate"] for r in rows[1:]]
    assert all(isinstance(e, str) and len(e.split("e")[0]) == 18 for e in spelled)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert [line.split(",")[2] for line in out.splitlines()] == [repr(rows[0]["estimate"]), *spelled]
    if formula == "grand-all":
        assert spelled[-1] == "1.2243777464164895e+349"


GOLDEN_ASYM = json.loads((Path(__file__).parent / "data" / "asym_grand_golden.json").read_text())


@pytest.mark.parametrize("formula", sorted(GOLDEN_ASYM))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_asym_grand_output_is_byte_identical(capsys, formula, fmt):
    # captured from the DP-backed implementation; the recurrence rows must match it
    want = GOLDEN_ASYM[formula]
    code, out, err = run(
        capsys, "asym", "--formula", formula, "--n-list", want["n_list"], "--format", fmt
    )
    assert (code, out, err) == (0, want[fmt], "")


GOLDEN_ZIGZAG_ASYM = json.loads(
    (Path(__file__).parent / "data" / "asym_zigzag_golden.json").read_text()
)


@pytest.mark.parametrize("case", sorted(GOLDEN_ZIGZAG_ASYM))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_asym_zigzag_output_is_byte_identical(capsys, case, fmt):
    # every formula outside the grand family, captured from the mpmath-backed
    # implementation; the decimal evaluation must print the same bytes
    want = GOLDEN_ZIGZAG_ASYM[case]
    depth = [] if want["m"] is None else ["--m", str(want["m"])]
    code, out, err = run(
        capsys, "asym", "--formula", want["formula"], *depth,
        "--n-list", want["n_list"], "--format", fmt,
    )
    assert (code, out, err) == (0, want[fmt], "")


@pytest.mark.parametrize(
    "flags",
    [
        ("above-line-prob", "--m", "1"),
        ("min-height-prob", "--m", "0"),
        ("grand-expected-altitude-positive",),
    ],
)
def test_asym_undefined_at_zero_exits_two(capsys, flags):
    code, out, err = run(capsys, "asym", "--formula", *flags, "--n-list", "0,5")
    assert code == 2
    assert out == "" and err.startswith("error:") and "n = 0" in err


def test_asym_depth_on_a_formula_without_one_exits_two(capsys):
    code, out, err = run(capsys, "asym", "--formula", "grand-all", "--m", "5", "--n-list", "10", "--format", "json")
    assert (code, out, err) == (2, "", "error: grand-all takes no --m\n")


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)


def test_verify_only_filter(capsys):
    code, out, _ = run(capsys, "verify", "--only", "kernel", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["checks"]) == 1
    assert payload["checks"][0]["passed"]


def test_verify_unknown_filter(capsys):
    code, _, err = run(capsys, "verify", "--only", "nonsense")
    assert code == 2


def test_output_determinism(capsys):
    a = run(capsys, "gf", "--name", "tube", "--m", "1", "--M", "2", "--order", "12")
    b = run(capsys, "gf", "--name", "tube", "--m", "1", "--M", "2", "--order", "12")
    assert a == b


def test_engine_disagreement_is_fatal(capsys, monkeypatch):
    monkeypatch.setattr(closedforms, "zigzag_count_closed", lambda n, k: 999999)
    code, out, err = run(
        capsys, "count", "--size", "7", "--altitude", "0", "--zigzag", "--engine", "all"
    )
    assert code == 1
    assert "disagree" in err
    assert "DISAGREEMENT" in out


def test_gf_default_order_is_64(capsys):
    code, out, _ = run(capsys, "biject", "--map", "phi", "--input", "X=1 ; Y=1")
    assert (code, out) == (0, "N Nb\n")
    code, out, _ = run(capsys, "count", "--size", "7", "--altitude", "0", "--zigzag")
    assert (code, out) == (0, "6\n")
    code, out, err = run(capsys, "gf", "--name", "zigzag-total")
    assert (code, len(out.split()), err) == (0, 64, "")
    code, out, _ = run(capsys, "count", "--size", "7", "--zigzag", "--engine", "gf")
    assert (code, out) == (0, "42\n")
    code, out, _ = run(capsys, "gf", "--name", "zigzag-total", "--order", "3")
    assert (code, out) == (0, "1 2 4\n")


@pytest.mark.parametrize(
    "flags",
    [
        ("--name", "above-line", "--m", "0"),
        ("--name", "span-exact", "--k", "0"),
        ("--name", "tube", "--m", "0", "--M", "0"),
        ("--name", "tube-axis", "--M", "0"),
    ],
)
def test_gf_bad_series_parameter_exits_two(capsys, flags):
    code, out, err = run(capsys, "gf", *flags, "--order", "5")
    assert code == 2
    assert out == "" and err.startswith("error:")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package under test."""
    src = str(Path(knightpaths.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )


def _cli_import_reports(module: str) -> str:
    done = _python("-c", f"import sys, knightpaths.cli; print({module!r} in sys.modules)")
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_does_not_load_sympy():
    assert _cli_import_reports("sympy") == "False\n"


def test_cli_import_does_not_load_mpmath():
    # asym and verify evaluate in stdlib decimal; an import of mpmath fails here
    code = """
import contextlib, io, sys
sys.modules["mpmath"] = None
from knightpaths import asymptotics
from knightpaths.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for formula, entry in sorted(asymptotics.FORMULAS.items()):
        depth = ["--m", "1"] if entry.takes_m else []
        for fmt in ("csv", "json"):
            argv = ["asym", "--formula", formula, *depth, "--n-list", "40,200", "--format", fmt]
            codes.append(main(argv))
    codes.append(main(["verify", "--level", "quick"]))
print(codes)
"""
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[0] * (2 * len(knightpaths.asymptotics.FORMULAS) + 1)}\n"


def test_counts_past_the_int_string_cap_print_in_full():
    # Python >= 3.11 refuses int -> str past 4,300 digits unless the cap is
    # lifted; str(Decimal(n)) spells n in full without touching the cap
    done = _python("-m", "knightpaths.cli", "count", "--size", "21000", "--zigzag", "--engine", "gf")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-300:]
    want = str(Decimal(recurrences.zigzag_total_row(21001)[21000]))
    assert len(want) > 4300 and done.stdout == want + "\n"
    done = _python("-m", "knightpaths.cli", "asym", "--formula", "grand-all", "--n-list", "10000")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-300:]
    want = str(Decimal(recurrences.grand_total_row(10001)[10000]))
    assert len(want) > 4300 and done.stdout.split(",")[:2] == ["10000", want]


def test_count_takes_no_order(capsys):
    """count's rows run to size + 1, and --order is not a count flag."""
    with pytest.raises(SystemExit) as exc:
        main(["count", "--size", "3", "--engine", "gf", "--order", "40"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ("count", "--size", "30", "--zigzag", "--nonneg")
    code, out, err = run(capsys, *argv, "--engine", "all")
    assert (code, out, err) == (0, run(capsys, *argv)[1], "")
    code, out, err = run(capsys, "count", "--size", "64", "--engine", "all", "--min-y", "-3", "--max-y", "3")
    assert code == 0 and err == ""


def test_count_gf_reads_one_row_at_size_plus_one(capsys, monkeypatch):
    seen = []
    real = recurrences.zigzag_nonneg_row
    monkeypatch.setattr(recurrences, "zigzag_nonneg_row", lambda count: seen.append(count) or real(count))
    assert run(capsys, "count", "--size", "10", "--zigzag", "--nonneg", "--engine", "gf") == (0, "115\n", "")
    assert seen == [11]


GF_ROUTES = [
    ["--nonneg"],
    ["--altitude", "0"],
    ["--altitude", "-3"],
    ["--zigzag", "--nonneg"],
    ["--zigzag", "--altitude", "4"],
    ["--zigzag", "--min-y", "-2"],
    ["--zigzag", "--max-y", "1"],
    ["--min-y", "-1", "--max-y", "2", "--nonneg"],
]


@pytest.mark.parametrize("flags", GF_ROUTES)
def test_count_routes_print_a_gf_engine(capsys, flags):
    argv = ["count", "--size", "17", *flags, "--engine", "all", "--format", "json"]
    want = run(capsys, *argv)
    assert want[0] == 0 and '"gf"' in want[1]
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("engine", ["gf", "all"])
def test_count_zero_width_zigzag_band(capsys, engine):
    for size, want in enumerate(["1", "0", "0", "0"]):
        code, out, err = run(
            capsys, "count", "--size", str(size), "--zigzag", "--min-y", "0", "--max-y", "0",
            "--engine", engine,
        )
        assert (code, out, err) == (0, want + "\n", ""), size


def test_count_upper_bound_only_reflects_above_line(capsys):
    from knightpaths.counting import count_paths

    for top in (1, 2, 3):
        for size in (0, 1, 5, 12, 19):
            code, out, _ = run(
                capsys, "count", "--size", str(size), "--zigzag", "--max-y", str(top),
                "--engine", "gf", "--format", "json",
            )
            assert code == 0
            want = count_paths(size, "all", zigzag=True, max_y=top)
            assert json.loads(out) == {"gf": str(want), "count": str(want)}, (top, size)


@pytest.mark.parametrize(
    "flags",
    [
        ("--min-y", "-1", "--max-y", "2"),
        ("--min-y", "-2", "--max-y", "1", "--altitude", "-1"),
        ("--zigzag", "--min-y", "-1", "--max-y", "3", "--nonneg"),
        ("--zigzag", "--min-y", "-2", "--max-y", "2", "--first", "down", "--last", "up"),
    ],
)
def test_band_queries_gain_the_transfer_engine(capsys, flags):
    argv = ("count", "--size", "17", *flags)
    _, plain_dp, _ = run(capsys, *argv)
    code, plain_all, _ = run(capsys, *argv, "--engine", "all")
    assert code == 0 and plain_all == plain_dp
    code, out, _ = run(capsys, *argv, "--engine", "all", "--format", "json")
    payload = json.loads(out)
    assert payload["gf"] == payload["dp"] == payload["count"] == plain_dp.strip()


# -- the gf engine against the DP, the closed forms and the kernel-method series --

SERIES_ORDER = 42  # past every size drawn below


@functools.lru_cache(maxsize=None)
def _nonneg_series_row() -> tuple[int, ...]:
    n = SERIES_ORDER
    return tuple(series.int_coefficients(series.zigzag_nonneg_gf(n), n))


@functools.lru_cache(maxsize=None)
def _above_line_dp_row(m: int, count: int) -> tuple[int, ...]:
    return tuple(count_row(count - 1, ALL, PathConstraints(zigzag=True, min_y=-m)))


def _series_count(size: int, altitude, c: PathConstraints) -> int | None:
    """An unbanded query's count from an engine the gf engine's route does
    not read: the rational totals, the kernel-method series for zigzag
    altitude >= 0, the closed forms for a zigzag altitude, and the DP for
    the lines and the grand rows.  None where the gf engine covers nothing."""
    if c.min_y is not None or c.max_y is not None:
        if not c.zigzag or altitude != ALL:
            return None
        # staying below +m mirrors staying above -m
        m = -c.min_y if c.min_y is not None else c.max_y
        return _above_line_dp_row(m, SERIES_ORDER)[size]
    if altitude == ALL:
        total = series.GRAND_TOTAL_GF if not c.zigzag else series.ZIGZAG_TOTAL_GF
        return total.expand(size + 1)[size]
    if not c.zigzag:  # no series gives the grand rows: the DP alone checks them
        return count_paths(size, altitude, c)
    if altitude == NONNEG:
        return _nonneg_series_row()[size]
    return closedforms.zigzag_count_closed(size, altitude)


@st.composite
def unbanded_queries(draw):
    bound = draw(st.sampled_from([None, None, "min", "max"]))
    depth = draw(st.sampled_from([1, 2, 3, 4, 0]))  # 0 last: the draws favour early entries
    c = PathConstraints(
        zigzag=draw(st.booleans()),
        min_y=-depth if bound == "min" else None,
        max_y=depth if bound == "max" else None,
    )
    altitude = draw(st.sampled_from([ALL, NONNEG, None]))
    if altitude is None:
        altitude = draw(st.integers(-8, 8))
    return draw(st.integers(0, 40)), altitude, c


@settings(derandomize=True, deadline=None, max_examples=150)
@given(unbanded_queries())
def test_gf_count_matches_dp_and_series(query):
    size, altitude, c = query
    got = engines.count(CountQuery(size, altitude, c), "gf")
    want = _series_count(size, altitude, c)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == count_paths(size, altitude, c) == want


@functools.lru_cache(maxsize=None)
def _primitive_dp(size: int) -> int:
    return count_primitive(size)


def _gf_reference(name: str, param: int, order: int) -> list[int]:
    """The first `order` coefficients of a zigzag kernel-method gf name, from
    an engine other than the one that answers it: the exact row checks the
    series name, the closed forms the altitude names and the DP the others."""
    if name == "zigzag-nonneg":
        return recurrences.zigzag_nonneg_row(order)
    if name in ("zigzag-axis", "zigzag-altitude"):
        k = param if name == "zigzag-altitude" else 0
        return [closedforms.zigzag_count_closed(n, k) for n in range(order)]
    if name == "zigzag-primitive":
        return [_primitive_dp(n) for n in range(order)]
    return list(_above_line_dp_row(param, order))


@st.composite
def series_gf_queries(draw):
    name = draw(
        st.sampled_from(
            ["zigzag-nonneg", "zigzag-axis", "zigzag-altitude", "zigzag-primitive", "above-line"]
        )
    )
    param = draw(st.integers(0, 12) if name == "zigzag-altitude" else st.integers(1, 8))
    top = 24 if name == "zigzag-primitive" else 90  # the DP is the primitive reference
    return name, param, draw(st.integers(1, top))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(series_gf_queries())
def test_series_backed_gf_names_match_rows_and_dp(query):
    name, param, order = query
    flag = {"zigzag-altitude": ["--k", str(param)], "above-line": ["--m", str(param)]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gf", "--name", name, "--order", str(order), *flag.get(name, [])])
    assert code == 0
    assert [int(t) for t in out.getvalue().split()] == _gf_reference(name, param, order)


# One representative query per class, and the engines that answer it under
# --engine all.  The classes with only "dp" are the single-engine answers.
ENGINE_SETS = [
    (["--all"], {"dp", "gf"}),
    (["--nonneg"], {"dp", "gf"}),
    (["--altitude", "-2"], {"dp", "gf"}),
    (["--min-y", "-1"], {"dp"}),
    (["--max-y", "2", "--nonneg"], {"dp"}),
    (["--min-y", "-1", "--max-y", "2", "--altitude", "1"], {"dp", "gf"}),
    (["--steps", "6"], {"dp"}),
    (["--first", "up", "--altitude", "1"], {"dp"}),
    (["--last", "down", "--min-y", "-2", "--max-y", "1"], {"dp", "gf"}),
    (["--zigzag", "--all"], {"dp", "gf", "closed"}),
    (["--zigzag", "--nonneg"], {"dp", "gf", "closed"}),
    (["--zigzag", "--altitude", "3"], {"dp", "gf", "closed"}),
    (["--zigzag", "--min-y", "-2"], {"dp", "gf"}),
    (["--zigzag", "--max-y", "1"], {"dp", "gf"}),
    (["--zigzag", "--min-y", "-2", "--nonneg"], {"dp"}),
    (["--zigzag", "--max-y", "2", "--altitude", "1"], {"dp"}),
    (["--zigzag", "--min-y", "0"], {"dp", "gf"}),
    (["--zigzag", "--min-y", "-1", "--max-y", "2"], {"dp", "gf"}),
    (["--zigzag", "--min-y", "-1", "--max-y", "2", "--steps", "5"], {"dp"}),
    (["--zigzag", "--steps", "5", "--altitude", "1"], {"dp", "closed"}),
    (["--zigzag", "--steps", "5"], {"dp", "closed"}),
    (["--zigzag", "--first", "down", "--altitude", "-1"], {"dp", "closed"}),
    (["--zigzag", "--last", "up"], {"dp", "closed"}),
    (["--zigzag", "--first", "up", "--min-y", "-1", "--max-y", "1"], {"dp", "gf"}),
    (["--zigzag", "--max-y", "0"], {"dp", "gf"}),
    (["--zigzag", "--steps", "4", "--nonneg", "--first", "down"], {"dp", "closed"}),
]


@pytest.mark.parametrize("flags, engines", ENGINE_SETS)
def test_engine_set_per_query_class(capsys, flags, engines):
    argv = ["count", "--size", "9", *flags]
    code, out, err = run(capsys, *argv, "--engine", "all", "--format", "json")
    assert (code, err) == (0, "")
    assert set(json.loads(out)) == engines | {"count"}
    query = count_query(build_parser().parse_args(argv))
    router = knightpaths.engines
    assert {e for e in router.ENGINES if router.count(query, e) is not None} == engines


@pytest.mark.parametrize("bound", ["min_y", "max_y"])
def test_zigzag_axis_bound_gf_matches_dp(bound):
    c = PathConstraints(zigzag=True, **{bound: 0})
    dp = count_row(40, ALL, c)
    assert [engines.count(CountQuery(n, ALL, c), "gf") for n in range(41)] == dp
    assert engines.count(CountQuery(9, NONNEG, c), "gf") is None


# no direction, or one --first or --last direction
DIRECTIONS = [{}, *({side: d} for side in ("first_dir", "last_dir") for d in (UP, DOWN))]


@pytest.mark.parametrize("altitude", [ALL, NONNEG])
def test_zigzag_steps_closed_matches_dp(altitude):
    for steps in range(1, 23):
        for direction in DIRECTIONS:
            c = PathConstraints(zigzag=True, steps=steps, **direction)
            closed = [engines.count(CountQuery(n, altitude, c), "closed") for n in range(22)]
            assert closed == count_row(21, altitude, c), (steps, direction)


@pytest.mark.parametrize("direction", DIRECTIONS[1:])
def test_zigzag_direction_closed_matches_dp(direction):
    """Reversing a path's steps swaps its first and last directions."""
    c = PathConstraints(zigzag=True, **direction)
    for altitude in (ALL, *range(-8, 9)):
        closed = [engines.count(CountQuery(n, altitude, c), "closed") for n in range(22)]
        assert closed == count_row(21, altitude, c), altitude
    assert engines.count(CountQuery(9, NONNEG, c), "closed") is None
    both = PathConstraints(zigzag=True, first_dir=UP, last_dir=DOWN)
    assert engines.count(CountQuery(9, ALL, both), "closed") is None


def test_grand_altitude_needs_no_kernel_series(capsys):
    for k in (-3, -2, -1, 1, 2, 3):
        argv = ("count", "--size", "13", "--altitude", str(k))
        code, out, err = run(capsys, *argv, "--engine", "all", "--format", "json")
        payload = json.loads(out)
        assert (code, err) == (0, "") and payload["gf"] == payload["dp"], k
        assert run(capsys, "gf", "--name", "grand-altitude", "--k", str(k), "--order", "14")[0] == 0
