"""Constructive bijections between composition pairs and zigzag paths.

Rising-start zigzag paths of even step count factor uniquely into the
two-step blocks {N Nb, E Eb, N Eb, E Nb}; reading block j as a pair of
parts (x_j, y_j) in {1, 2} gives a bijection with pairs of {1,2}-
compositions having equally many parts.  Block sizes add (x_j + y_j) to the
path size and (y_j - x_j) to the altitude.  Falling-start paths use the
mirrored block alphabet.

Also here: the narrow-band decomposition mapping band-limited axis paths to
compositions with parts in {2} and the odd numbers, an independent
profile-DP tiling counter equinumerous with those paths, and prefix-sum
band checks for composition pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .paths import DOWN, UP, Path, Step


@dataclass(frozen=True)
class Composition:
    """An ordered sequence of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise ValueError("composition parts must be positive")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class CompositionPair:
    """A pair of {1,2}-compositions with the same number of parts."""

    x: Composition
    y: Composition

    def __post_init__(self) -> None:
        for comp in (self.x, self.y):
            if any(p not in (1, 2) for p in comp.parts):
                raise ValueError("pair compositions must have parts in {1, 2}")
        if self.x.part_count != self.y.part_count:
            raise ValueError("pair compositions must have equal part counts")


# block alphabets: (x_j, y_j) -> two steps
_RISING_BLOCKS = {
    (2, 2): (Step.E, Step.EB),
    (1, 1): (Step.N, Step.NB),
    (1, 2): (Step.N, Step.EB),
    (2, 1): (Step.E, Step.NB),
}
_FALLING_BLOCKS = {
    (2, 2): (Step.EB, Step.E),
    (1, 1): (Step.NB, Step.N),
    (1, 2): (Step.EB, Step.N),
    (2, 1): (Step.NB, Step.E),
}
_RISING_INVERSE = {v: k for k, v in _RISING_BLOCKS.items()}
_FALLING_INVERSE = {v: k for k, v in _FALLING_BLOCKS.items()}


def _blocks_to_path(pair: CompositionPair, table) -> Path:
    steps: list[Step] = []
    for xj, yj in zip(pair.x.parts, pair.y.parts):
        steps.extend(table[(xj, yj)])
    return Path(tuple(steps))


def _path_to_blocks(path: Path, table, start: int) -> CompositionPair:
    if path.step_count % 2:
        raise ValueError("path has an odd number of steps; not a block word")
    if path.steps and path.steps[0].direction != start:
        side = "rising" if start == UP else "falling"
        raise ValueError(f"path does not start with a {side} step")
    xs: list[int] = []
    ys: list[int] = []
    for i in range(0, path.step_count, 2):
        block = (path.steps[i], path.steps[i + 1])
        if block not in table:
            raise ValueError(f"steps {block[0].token} {block[1].token} form no block")
        xj, yj = table[block]
        xs.append(xj)
        ys.append(yj)
    return CompositionPair(Composition(tuple(xs)), Composition(tuple(ys)))


def pair_to_path(pair: CompositionPair) -> Path:
    """Rising-start zigzag path for a composition pair.

    Size is total(x) + total(y); altitude is total(y) - total(x).
    """
    return _blocks_to_path(pair, _RISING_BLOCKS)


def path_to_pair(path: Path) -> CompositionPair:
    """Inverse of pair_to_path; raises if the path is not in its image."""
    return _path_to_blocks(path, _RISING_INVERSE, UP)


def pair_to_path_falling(pair: CompositionPair) -> Path:
    """Falling-start counterpart of pair_to_path (mirrored block alphabet)."""
    return _blocks_to_path(pair, _FALLING_BLOCKS)


def path_to_pair_falling(path: Path) -> CompositionPair:
    """Inverse of pair_to_path_falling."""
    return _path_to_blocks(path, _FALLING_INVERSE, DOWN)


def check_bounded_pair(
    pair: CompositionPair, m: int, upper: int | None = None
) -> bool:
    """Band check at block boundaries: -m <= sum(y_i - x_i, i <= j) <= upper.

    This inspects the partial sums after each whole block, which is the
    natural granularity on the composition side.  The path image can also
    be tested vertex-by-vertex with validate_path; for the lower bound the
    two tests agree on rising-start images (block interiors never dip below
    the surrounding boundary altitudes), but an upper bound can be violated
    inside a block (N Nb climbs two above its endpoints), so the vertex
    test is strictly stronger there.
    """
    run = 0
    for xj, yj in zip(pair.x.parts, pair.y.parts):
        run += yj - xj
        if run < -m:
            return False
        if upper is not None and run > upper:
            return False
    return True


def compositions(total: int, parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All compositions of `total` with parts drawn from the given set."""
    if total == 0:
        yield ()
        return
    for p in parts:
        if p <= total:
            for rest in compositions(total - p, parts):
                yield (p,) + rest


def composition_pairs(n: int, m: int) -> Iterator[CompositionPair]:
    """All of C_{n,m}: {1,2}-composition pairs with equal part counts."""
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for comp in compositions(m, (1, 2)):
        by_len.setdefault(len(comp), []).append(comp)
    for xc in compositions(n, (1, 2)):
        for yc in by_len.get(len(xc), []):
            yield CompositionPair(Composition(xc), Composition(yc))


# ---------------------------------------------------------------------------
# the narrow band [-1, +1]
# ---------------------------------------------------------------------------

def _narrow_block(part: int) -> tuple[Step, ...]:
    """Steps for one part: 2 -> Eb E; odd 2k+1 -> Nb (E Eb)^k N."""
    if part == 2:
        return (Step.EB, Step.E)
    if part >= 1 and part % 2 == 1:
        k = (part - 1) // 2
        return (Step.NB,) + (Step.E, Step.EB) * k + (Step.N,)
    raise ValueError(f"part {part} must be 2 or an odd positive integer")


def narrow_band_path(comp: Composition) -> Path:
    """Band path E ... Eb for a composition with parts in {2, odd numbers}.

    The result stays inside [-1, +1], ends on the axis, starts with E, and
    has size 2 * total + 4.
    """
    steps: list[Step] = [Step.E]
    for part in comp.parts:
        steps.extend(_narrow_block(part))
    steps.append(Step.EB)
    return Path(tuple(steps))


def narrow_band_composition(path: Path) -> Composition:
    """Inverse of narrow_band_path; raises if the path is not in its image."""
    lo, hi = path.heights
    if lo < -1 or hi > 1:
        raise ValueError("path leaves the band [-1, +1]")
    if path.altitude != 0:
        raise ValueError("path does not end on the x-axis")
    if path.size < 4 or not path.steps or path.steps[0] is not Step.E:
        raise ValueError("path must start with E and have size at least 4")
    if path.steps[-1] is not Step.EB:
        raise ValueError("path must end with Eb")
    inner = path.steps[1:-1]
    parts: list[int] = []
    i = 0
    while i < len(inner):
        if inner[i] is Step.EB and i + 1 < len(inner) and inner[i + 1] is Step.E:
            parts.append(2)
            i += 2
        elif inner[i] is Step.NB:
            j = i + 1
            k = 0
            while j + 1 < len(inner) and inner[j] is Step.E and inner[j + 1] is Step.EB:
                k += 1
                j += 2
            if j >= len(inner) or inner[j] is not Step.N:
                raise ValueError("malformed falling block in band path")
            parts.append(2 * k + 1)
            i = j + 1
        else:
            raise ValueError(f"unexpected step {inner[i].token} in band path")
    return Composition(tuple(parts))


def tiling_count(n: int) -> int:
    """Tilings of a 2 x 2n board by upright dominoes and flat 1 x 4 pieces.

    Pieces are a 1-wide 2-tall domino and a 4-wide 1-tall strip.  Counted by
    a profile DP over the ragged frontier (fill the lowest-leftmost empty
    cell first), independent of both path engines.  Equinumerous with the
    narrow-band axis paths of size 2n + 4 that start with E.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    width = 2 * n
    # state (a, b): columns filled so far in rows 0 and 1; each placement
    # covers the canonical next empty cell (the shorter row, row 0 on ties)
    # so every tiling is built in exactly one order
    states = {(0, 0): 1}
    ways = 0
    while states:
        nxt: dict[tuple[int, int], int] = {}

        def put(key: tuple[int, int], cnt: int) -> None:
            nxt[key] = nxt.get(key, 0) + cnt

        for (a, b), cnt in states.items():
            if a == b == width:
                ways += cnt
                continue
            if a == b:
                # next cell is (row 0, column a+1): upright domino or strip
                if a + 1 <= width:
                    put((a + 1, b + 1), cnt)
                if a + 4 <= width:
                    put((a + 4, b), cnt)
            elif a < b:
                # row 1 is already filled beside the gap; only a strip fits
                if a + 4 <= width:
                    put((a + 4, b), cnt)
            else:
                if b + 4 <= width:
                    put((a, b + 4), cnt)
        states = nxt
    return ways
