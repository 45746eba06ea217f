"""Steps, paths, and path constraints.

A grand knight's path starts at the origin and uses the four right-moving
knight steps N=(1,2), Nb=(1,-2), E=(2,1), Eb=(2,-1).  Its *size* is the final
x-coordinate (not the step count: E and Eb advance x by 2).  The *zigzag*
constraint forbids two consecutive steps with the same vertical direction.

All types here are immutable and all functions are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from operator import ne

UP = 1
DOWN = -1

#: Altitude filters: an int selects that exact altitude; these select sets.
ALL = "all"
NONNEG = "nonneg"


class Step(Enum):
    """The four knight moves, each with horizontal and vertical displacement.

    dx, dy and direction (UP (+1) if the step rises, DOWN (-1) if it falls)
    are plain attributes, set once per member: the path summaries read
    them step by step.
    """

    N = (1, 2)
    NB = (1, -2)
    E = (2, 1)
    EB = (2, -1)

    def __init__(self, dx: int, dy: int) -> None:
        self.dx, self.dy = dx, dy
        self.direction = UP if dy > 0 else DOWN

    @property
    def token(self) -> str:
        return _TOKENS[self]

    def reflected(self) -> Step:
        """Mirror across the x-axis: N <-> Nb, E <-> Eb."""
        return _REFLECT[self]


_TOKENS = {Step.N: "N", Step.NB: "Nb", Step.E: "E", Step.EB: "Eb"}
_REFLECT = {Step.N: Step.NB, Step.NB: Step.N, Step.E: Step.EB, Step.EB: Step.E}

#: Canonical step order used for lexicographic path generation.
STEP_ORDER = (Step.N, Step.NB, Step.E, Step.EB)


class ParseError(ValueError):
    """Raised for malformed path text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class Path:
    """An immutable sequence of steps with cached geometric summaries."""

    steps: tuple[Step, ...] = ()

    @cached_property
    def size(self) -> int:
        """Final x-coordinate."""
        return sum(s.dx for s in self.steps)

    @cached_property
    def altitude(self) -> int:
        """Final y-coordinate."""
        return sum(s.dy for s in self.steps)

    @cached_property
    def heights(self) -> tuple[int, int]:
        """(min, max) y-coordinate over all visited vertices, origin included."""
        ys = list(accumulate([s.dy for s in self.steps], initial=0))
        return min(ys), max(ys)

    @property
    def min_height(self) -> int:
        return self.heights[0]

    @property
    def height(self) -> int:
        return self.heights[1]

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def vertices(self) -> list[tuple[int, int]]:
        """All visited lattice points, starting at the origin."""
        out = [(0, 0)]
        x = y = 0
        for s in self.steps:
            x += s.dx
            y += s.dy
            out.append((x, y))
        return out

    def is_zigzag(self) -> bool:
        directions = [s.direction for s in self.steps]
        return all(map(ne, directions, directions[1:]))

    def reflected(self) -> Path:
        return Path(tuple(s.reflected() for s in self.steps))

    def reversed(self) -> Path:
        return Path(tuple(reversed(self.steps)))

    def __str__(self) -> str:
        return " ".join(s.token for s in self.steps)

    def to_json(self) -> str:
        return json.dumps({"steps": [s.token for s in self.steps]})

    @classmethod
    def from_json(cls, text: str) -> Path:
        data = json.loads(text)
        by_token = {v: k for k, v in _TOKENS.items()}
        try:
            return cls(tuple(by_token[t] for t in data["steps"]))
        except KeyError as exc:
            raise ValueError(f"unknown step token {exc.args[0]!r}") from None


def parse_path(text: str) -> Path:
    """Parse path text such as "E Nb N Eb" (whitespace optional).

    Tokens are N, Nb, E, Eb.  Raises ParseError with the position of the
    first unrecognised character.
    """
    steps: list[Step] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in ("N", "E"):
            raise ParseError(f"unknown token {ch!r}", i)
        barred = i + 1 < len(text) and text[i + 1] == "b"
        if ch == "N":
            steps.append(Step.NB if barred else Step.N)
        else:
            steps.append(Step.EB if barred else Step.E)
        i += 2 if barred else 1
    return Path(tuple(steps))


@dataclass(frozen=True)
class PathConstraints:
    """Filters a path must satisfy.

    min_y / max_y bound the y-coordinate of every *visited vertex* (the
    origin included); interior points of a step's chord are never tested.
    steps, first_dir and last_dir, when set, are exact filters; the empty
    path fails them (it has no steps and no first or last direction).
    """

    zigzag: bool = False
    min_y: int | None = None
    max_y: int | None = None
    steps: int | None = None
    first_dir: int | None = None
    last_dir: int | None = None

    def __post_init__(self) -> None:
        if self.min_y is not None and self.min_y > 0:
            raise ValueError("min_y must be <= 0 (paths start at the origin)")
        if self.max_y is not None and self.max_y < 0:
            raise ValueError("max_y must be >= 0 (paths start at the origin)")
        if self.steps is not None and self.steps <= 0:
            raise ValueError("steps filter must be a positive integer")
        if self.first_dir not in (None, UP, DOWN):
            raise ValueError("first_dir must be UP, DOWN, or None")
        if self.last_dir not in (None, UP, DOWN):
            raise ValueError("last_dir must be UP, DOWN, or None")


def reach(x: int, zigzag: bool, steps: int | None = None) -> int:
    """Largest |altitude| of a path of size x, or of one with `steps` steps.

    A step moves y by 2 over dx 1 or by 1 over dx 2, so |y| <= 2x, and
    with s steps (x - s of them wide) |y| <= 3s - x.  A zigzag path pairs a
    rise with the fall after it, so each pair moves y by at most dx/3 and a
    lone last step by 2 over dx 1: |y| <= (x + 5) // 3, tight at x = 1
    (mod 3).  The bounds also hold for any run of consecutive steps.  A
    negative result means no such path exists.
    """
    r = min(2 * x, (x + 5) // 3) if zigzag else 2 * x
    return r if steps is None else min(r, 3 * steps - x)


def validate_path(path: Path, constraints: PathConstraints) -> bool:
    """True iff the path satisfies every constraint.  Total function."""
    c = constraints
    if c.zigzag and not path.is_zigzag():
        return False
    if c.min_y is not None and path.min_height < c.min_y:
        return False
    if c.max_y is not None and path.height > c.max_y:
        return False
    if c.steps is not None and path.step_count != c.steps:
        return False
    if c.first_dir is not None:
        if not path.steps or path.steps[0].direction != c.first_dir:
            return False
    if c.last_dir is not None:
        if not path.steps or path.steps[-1].direction != c.last_dir:
            return False
    return True
