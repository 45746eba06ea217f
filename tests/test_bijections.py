"""Bijection round trips, image characterisation, tiling equinumerosity."""

from __future__ import annotations

import pytest

from knightpaths.bijections import (
    Composition,
    CompositionPair,
    check_bounded_pair,
    composition_pairs,
    narrow_band_composition,
    narrow_band_path,
    pair_to_path,
    pair_to_path_falling,
    path_to_pair,
    path_to_pair_falling,
    tiling_count,
)
from knightpaths.closedforms import zigzag_count_one_sided
from knightpaths.counting import count_paths
from knightpaths.fixtures import SEQUENCES
from knightpaths.paths import DOWN, UP, PathConstraints, Step, parse_path, validate_path

BAND = PathConstraints(zigzag=True, min_y=-1, max_y=1)


def pair(xs, ys):
    return CompositionPair(Composition(tuple(xs)), Composition(tuple(ys)))


def test_pair_validation():
    with pytest.raises(ValueError):
        pair((1, 3), (1, 1))
    with pytest.raises(ValueError):
        pair((1, 2), (1,))
    with pytest.raises(ValueError):
        Composition((0,))


def test_worked_example_pair():
    p = pair((2, 2, 2, 1, 1, 1, 1, 2, 1), (1, 2, 1, 2, 2, 1, 2, 1, 2))
    path = pair_to_path(p)
    assert str(path) == "E Nb E Eb E Nb N Eb N Eb N Nb N Eb E Nb N Eb"
    assert path.size == 27
    assert path.altitude == 1
    assert path_to_pair(path) == p


def test_single_block_cases():
    assert str(pair_to_path(pair((1,), (1,)))) == "N Nb"
    assert str(pair_to_path_falling(pair((1,), (1,)))) == "Nb N"
    assert path_to_pair(parse_path("E Eb E Eb")) == pair((2, 2), (2, 2))
    assert path_to_pair(parse_path("N Nb")) == pair((1,), (1,))


def test_round_trip_exhaustive():
    for n in range(0, 15):
        for m in range(0, 15 - n):
            for p in composition_pairs(n, m):
                rising = pair_to_path(p)
                assert rising.size == n + m
                assert rising.altitude == m - n
                assert rising.is_zigzag()
                assert path_to_pair(rising) == p
                falling = pair_to_path_falling(p)
                assert falling.size == n + m and falling.altitude == m - n
                assert falling.is_zigzag()
                assert path_to_pair_falling(falling) == p
                if p.x.part_count:
                    assert rising.steps[0].direction == UP
                    assert falling.steps[0].direction == DOWN


def test_images_disjoint_and_complete():
    # rising and falling images partition the same-parity classes
    for n in range(0, 13):
        for k in range(-n, n + 1):
            if (n - k) % 2:
                continue
            pairs = list(composition_pairs((n - k) // 2, (n + k) // 2))
            rising = {pair_to_path(p) for p in pairs}
            falling = {pair_to_path_falling(p) for p in pairs}
            assert len(rising) == len(pairs) == zigzag_count_one_sided(n, k)
            if (n, k) != (0, 0):
                assert not (rising & falling), (n, k)
            dp = count_paths(n, k, PathConstraints(zigzag=True))
            assert len(rising | falling) == dp, (n, k)


def test_inverse_rejects_non_images():
    with pytest.raises(ValueError):
        path_to_pair(parse_path("N"))  # odd step count
    with pytest.raises(ValueError):
        path_to_pair(parse_path("Nb N"))  # starts falling
    with pytest.raises(ValueError):
        path_to_pair(parse_path("N E N Eb"))  # N E is no block
    with pytest.raises(ValueError):
        path_to_pair_falling(parse_path("N Nb"))


def test_narrow_band_examples(paths_of):
    assert str(narrow_band_path(Composition((1,)))) == "E Nb N Eb"
    two_a = narrow_band_path(Composition((2,)))
    two_b = narrow_band_path(Composition((1, 1)))
    assert str(two_a) == "E Eb E Eb"
    assert str(two_b) == "E Nb N Nb N Eb"
    assert two_a.size == two_b.size == 8
    starters = [
        p
        for p in paths_of(8, BAND)
        if p.altitude == 0 and p.steps and p.steps[0] is Step.E
    ]
    assert sorted(map(str, starters)) == sorted([str(two_a), str(two_b)])


def test_narrow_band_round_trip_exhaustive(paths_of):
    for size in range(4, 17, 2):
        matched = 0
        for path in paths_of(size, BAND):
            if path.altitude != 0 or not path.steps or path.steps[0] is not Step.E:
                continue
            comp = narrow_band_composition(path)
            assert all(p == 2 or p % 2 == 1 for p in comp.parts)
            assert narrow_band_path(comp) == path
            assert 2 * comp.total + 4 == path.size
            matched += 1
        # half of all axis paths in the band start with E
        assert 2 * matched == count_paths(size, 0, BAND), size


def test_narrow_band_image_characterisation():
    for comp in [(), (1,), (2,), (3,), (1, 2), (5,), (2, 2, 1), (7, 1)]:
        path = narrow_band_path(Composition(comp))
        assert validate_path(path, BAND)
        assert path.altitude == 0
        assert path.steps[0] is Step.E


def test_narrow_band_accepts_all_odd_parts():
    # the part alphabet is {2} plus every odd number, 7 included
    path = narrow_band_path(Composition((7,)))
    assert narrow_band_composition(path) == Composition((7,))
    with pytest.raises(ValueError):
        narrow_band_path(Composition((4,)))


def test_narrow_band_rejects_non_images():
    with pytest.raises(ValueError):
        narrow_band_composition(parse_path("Eb E Eb E"))  # starts with Eb
    with pytest.raises(ValueError):
        narrow_band_composition(parse_path("N Nb N Nb"))  # leaves the band
    with pytest.raises(ValueError):
        narrow_band_composition(parse_path("E Nb N"))  # altitude 1, no final Eb


def test_tiling_counts():
    assert tiling_count(0) == 1
    assert [tiling_count(n) for n in range(9)] == [1, 1, 2, 4, 7, 14, 26, 50, 95]


def test_tiling_equals_band_paths():
    axis = SEQUENCES["tube1-axis"].terms
    for n in range(8):
        assert 2 * tiling_count(n) == axis[2 * n + 4], n
    for n in range(7):
        assert 2 * tiling_count(n) == count_paths(2 * n + 4, 0, BAND), n


def test_bounded_pair_examples():
    assert check_bounded_pair(pair((1,), (2,)), 0)
    assert not check_bounded_pair(pair((2,), (1,)), 0)
    assert check_bounded_pair(pair((1, 2), (2, 1)), 1, upper=1)
    assert not check_bounded_pair(pair((1, 1), (2, 2)), 0, upper=1)


def test_bounded_pair_lower_bound_matches_vertices():
    # for rising-start images the block-boundary test and the vertex test
    # agree on lower bounds
    for n in range(0, 13):
        for m in range(0, 13 - n):
            for p in composition_pairs(n, m):
                path = pair_to_path(p)
                for depth in (0, 1, 2):
                    boundary = check_bounded_pair(p, depth)
                    vertex = validate_path(
                        path, PathConstraints(zigzag=True, min_y=-depth)
                    )
                    assert boundary == vertex, (p, depth)


def test_bounded_pair_upper_bound_is_weaker_than_vertices():
    # the block test can pass where a vertex inside a block exceeds the cap
    witness = pair((1,), (1,))  # image N Nb touches altitude 2
    assert check_bounded_pair(witness, 1, upper=1)
    assert not validate_path(
        pair_to_path(witness), PathConstraints(zigzag=True, min_y=-1, max_y=1)
    )
    # vertex-valid always implies block-valid
    for n in range(0, 11):
        for m in range(0, 11 - n):
            for p in composition_pairs(n, m):
                path = pair_to_path(p)
                for depth, cap in ((1, 1), (2, 1), (1, 2)):
                    if validate_path(
                        path, PathConstraints(zigzag=True, min_y=-depth, max_y=cap)
                    ):
                        assert check_bounded_pair(p, depth, upper=cap), (p, depth, cap)
