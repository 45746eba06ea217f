"""Step, path, constraint, and parsing behaviour."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightpaths.paths import (
    DOWN,
    UP,
    ParseError,
    Path,
    PathConstraints,
    Step,
    parse_path,
    validate_path,
)

step_lists = st.lists(st.sampled_from(list(Step)), max_size=24)


def test_step_geometry():
    assert (Step.N.dx, Step.N.dy) == (1, 2)
    assert (Step.NB.dx, Step.NB.dy) == (1, -2)
    assert (Step.E.dx, Step.E.dy) == (2, 1)
    assert (Step.EB.dx, Step.EB.dy) == (2, -1)
    assert Step.N.direction == Step.E.direction == UP
    assert Step.NB.direction == Step.EB.direction == DOWN


def test_empty_path_summaries():
    p = Path()
    assert (p.size, p.altitude, p.height, p.min_height, p.step_count) == (0, 0, 0, 0, 0)


def test_path_summaries():
    p = parse_path("E Nb N Eb")
    assert p.size == 6
    assert p.altitude == 0
    assert p.vertices() == [(0, 0), (2, 1), (3, -1), (4, 1), (6, 0)]
    assert p.height == 1
    assert p.min_height == -1


def test_parse_round_trip():
    for text in ("", "N", "Nb", "E Nb N Eb", "NNbEEb"):
        p = parse_path(text)
        assert parse_path(str(p)) == p


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_path("X")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_path("N Eb Q")
    assert err.value.position == 5


def test_json_round_trip():
    p = parse_path("E Nb N Eb")
    assert Path.from_json(p.to_json()) == p
    assert json.loads(p.to_json()) == {"steps": ["E", "Nb", "N", "Eb"]}
    with pytest.raises(ValueError):
        Path.from_json('{"steps": ["Q"]}')


def test_validate_zigzag_examples():
    assert validate_path(parse_path("N Nb N Nb"), PathConstraints(zigzag=True))
    assert not validate_path(parse_path("N E"), PathConstraints(zigzag=True))
    # Nb E Nb reaches y = -4, below the line y = -2
    p = parse_path("Nb E Nb")
    assert not validate_path(p, PathConstraints(zigzag=True, min_y=-2))
    assert validate_path(p, PathConstraints(zigzag=True, min_y=-4))


def test_validate_filters():
    p = parse_path("N Eb")
    assert validate_path(p, PathConstraints(steps=2))
    assert not validate_path(p, PathConstraints(steps=1))
    assert validate_path(p, PathConstraints(first_dir=UP, last_dir=DOWN))
    assert not validate_path(p, PathConstraints(first_dir=DOWN))
    # the empty path cannot satisfy step/direction filters
    empty = Path()
    assert validate_path(empty, PathConstraints(zigzag=True, min_y=-1, max_y=1))
    assert not validate_path(empty, PathConstraints(first_dir=UP))
    assert not validate_path(empty, PathConstraints(last_dir=DOWN))


def test_constraint_validation():
    with pytest.raises(ValueError):
        PathConstraints(min_y=1)
    with pytest.raises(ValueError):
        PathConstraints(max_y=-1)
    with pytest.raises(ValueError):
        PathConstraints(steps=0)


@settings(derandomize=True, deadline=None)
@given(step_lists)
def test_altitude_between_extremes(steps):
    p = Path(tuple(steps))
    assert p.min_height <= 0 <= p.height
    assert p.min_height <= p.altitude <= p.height
    assert p.altitude == (p.vertices()[-1][1])
    assert p.size == (p.vertices()[-1][0]) >= 0


@settings(derandomize=True, deadline=None)
@given(step_lists)
def test_reflection_negates_altitude(steps):
    p = Path(tuple(steps))
    q = p.reflected()
    assert q.altitude == -p.altitude
    assert q.height == -p.min_height
    assert q.min_height == -p.height
    assert q.is_zigzag() == p.is_zigzag()


@settings(derandomize=True, deadline=None)
@given(step_lists)
def test_zigzag_invariant_under_reversal_and_reflection(steps):
    p = Path(tuple(steps))
    c = PathConstraints(zigzag=True)
    assert validate_path(p, c) == validate_path(p.reflected(), c)
    assert validate_path(p, c) == validate_path(p.reversed(), c)
