"""The engine router: every engine that answers a query agrees with the DP."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightpaths import counting, engines
from knightpaths.counting import ALL, NONNEG, CountQuery
from knightpaths.paths import DOWN, UP, PathConstraints


@st.composite
def queries(draw):
    size = draw(st.integers(0, 30))
    # weighted toward the zigzag, unbounded classes, where the closed forms answer
    bounds = draw(st.sampled_from(["none", "none", "min", "max", "both"]))
    direction = st.sampled_from([None, None, UP, DOWN])
    c = PathConstraints(
        zigzag=draw(st.sampled_from([True, True, False])),
        min_y=-draw(st.integers(0, 4)) if bounds in ("min", "both") else None,
        max_y=draw(st.integers(0, 4)) if bounds in ("max", "both") else None,
        # a path of size n has n/2..n steps: draw from there, so most counts are not 0
        steps=draw(st.one_of(st.none(), st.integers(max(1, (size + 1) // 2), max(1, size)))),
        first_dir=draw(direction),
        last_dir=draw(direction),
    )
    altitude = draw(st.one_of(st.sampled_from([ALL, NONNEG]), st.integers(-8, 8)))
    return CountQuery(size, altitude, c)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(queries())
def test_every_answering_engine_matches_the_dp(query):
    want = counting.count(query)
    for engine in engines.ENGINES:
        got = engines.count(query, engine)
        assert got is None or got == want, engine


def test_unknown_engine_raises():
    with pytest.raises(ValueError, match="unknown engine"):
        engines.count(CountQuery(3), "abacus")


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("nonsense", {}, "unknown gf name 'nonsense'"),
        ("grand-altitude", {}, "gf 'grand-altitude' needs --k"),
        ("tube", {"m": 1}, "gf 'tube' needs --M"),
        ("sym-tube", {"m": 0}, "m must be >= 1"),
        ("tube-axis", {"M": 0}, "M must be >= 1"),
    ],
)
def test_gf_row_rejects_bad_names_and_parameters(name, params, message):
    with pytest.raises(ValueError, match=message):
        engines.gf_row(name, 5, **params)
