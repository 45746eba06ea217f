"""CLI behaviour: flags, engines, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knightpaths
from knightpaths.cli import main
from knightpaths.fixtures import SPAN_TABLE, ZIGZAG_TABLE


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
    for n_list in ("abc", "-5"):
        code, out, err = run(capsys, "asym", "--formula", "grand-all", "--n-list", n_list)
        assert code == 2, n_list
        assert out == "" and err.startswith("error:"), n_list


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
    import knightpaths.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.closedforms, "zigzag_count_closed", lambda n, k: 999999
    )
    code, out, err = run(
        capsys, "count", "--size", "7", "--altitude", "0", "--zigzag", "--engine", "all"
    )
    assert code == 1
    assert "disagree" in err
    assert "DISAGREEMENT" in out


def test_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("KNIGHTPATHS_ORDER", "9")
    code, out, _ = run(capsys, "gf", "--name", "zigzag-total")
    assert code == 0
    assert len(out.split()) == 9
    monkeypatch.setenv("KNIGHTPATHS_ORDER", "banana")
    code, out, err = run(capsys, "gf", "--name", "zigzag-total")
    assert code == 2
    assert out == "" and err.startswith("error: KNIGHTPATHS_ORDER")


def test_bad_order_env_exits_two_only_where_used(capsys, monkeypatch):
    monkeypatch.setenv("KNIGHTPATHS_ORDER", "abc")
    code, out, _ = run(capsys, "biject", "--map", "phi", "--input", "X=1 ; Y=1")
    assert (code, out) == (0, "N Nb\n")
    code, out, _ = run(capsys, "count", "--size", "7", "--altitude", "0", "--zigzag")
    assert (code, out) == (0, "6\n")
    code, out, err = run(capsys, "gf", "--name", "zigzag-total")
    assert code == 2
    assert out == "" and err.startswith("error:")
    code, out, err = run(capsys, "count", "--size", "7", "--zigzag", "--engine", "gf")
    assert code == 2
    assert out == "" and err.startswith("error:")
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


def _cli_import_reports(module: str) -> str:
    src = str(Path(knightpaths.__file__).resolve().parents[1])
    code = f"import sys, knightpaths.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_does_not_load_sympy():
    assert _cli_import_reports("sympy") == "False\n"


def test_cli_import_does_not_load_mpmath():
    # only asym and verify evaluate in extended precision
    assert _cli_import_reports("mpmath") == "False\n"


def test_count_takes_no_order(capsys, monkeypatch):
    """count's series run to size + 2 whatever KNIGHTPATHS_ORDER says, and
    --order is not a count flag."""
    with pytest.raises(SystemExit) as exc:
        main(["count", "--size", "3", "--engine", "gf", "--order", "40"])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("KNIGHTPATHS_ORDER", "9")
    argv = ("count", "--size", "30", "--zigzag", "--nonneg")
    code, out, err = run(capsys, *argv, "--engine", "all")
    assert (code, out, err) == (0, run(capsys, *argv)[1], "")
    code, out, err = run(capsys, "count", "--size", "64", "--engine", "all", "--min-y", "-3", "--max-y", "3")
    assert code == 0 and err == ""


def test_count_order_follows_the_size(capsys, monkeypatch):
    import knightpaths.cli as cli_mod

    seen = []
    real = cli_mod.series.zigzag_nonneg_gf
    monkeypatch.setattr(cli_mod.series, "zigzag_nonneg_gf", lambda order: seen.append(order) or real(order))
    monkeypatch.setenv("KNIGHTPATHS_ORDER", "40")
    run(capsys, "count", "--size", "10", "--zigzag", "--nonneg", "--engine", "gf")
    assert seen == [12]


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
