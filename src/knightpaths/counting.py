"""Exact dynamic-programming path counting and exhaustive generation.

The ground-truth engine.  Every counting entry point is a view over one
forward sweep along x (_sweep) with state (y, last direction), plus the
steps used when asked; the last direction is 0 for the empty prefix, and it
is tracked only where the query reads it (always for zigzag paths, for grand
paths only under a last_dir filter).  The altitude y is likewise tracked
only where the query reads it: a single-size count with no line bound and
any final altitude (ALL) sweeps one cell per row, every move's dy taken as
0, and the view functions, which return distributions, keep full columns.
A zigzag sweep over a band symmetric about the axis, with no first_dir,
builds only its rising rows and reads each falling row as their mirror
image.  A row's first contribution is copied into it; only later ones are
added cell by cell.  Steps advance x by 1 or 2, so the sweep keeps a
rolling window of three columns: O(n) memory for a size-n count (O(n^2)
when steps are tracked; O(1) and O(n) without y).  It yields every
column, so a whole row of sizes costs one pass.  The band is clipped to
the reach of a size-n path (paths.reach: |y| <= 2n, and (n + 5) // 3 for
zigzag paths), and each column extends only the cells a path can occupy.

A single-size count with no line bound and no first or last direction
sweeps only to h = ceil(n/2) and joins that sweep's columns (_join): every
size-n path has one last vertex with x <= h, at x = h or at h - 1 before a
wide step, and the rest of the path, reversed, is a path from the origin
of the same size, altitude change and step count whose last direction is
the rest's first, so the sweep's own columns at n - h and n - h - 1 count
it.  Any other single-size count (a band, one line, a first or last
direction) sweeps to n and skips prefixes that can no longer end with its
altitude and step count.  Counts are exact integers.

generate() shares no code with the sweep: it is the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import add, mul
from typing import Callable, Iterator

from .paths import ALL, DOWN, NONNEG, STEP_ORDER, UP, Path, PathConstraints, Step, reach

AltitudeFilter = int | str

GENERATE_CAP = 20

#: Row key of the grand prefixes whose last direction the sweep does not track.
ANY = None


@dataclass(frozen=True)
class CountQuery:
    """A counting request: paths of the given size, filtered by altitude."""

    size: int
    altitude: AltitudeFilter = ALL
    constraints: PathConstraints = field(default_factory=PathConstraints)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")
        if isinstance(self.altitude, str) and self.altitude not in (ALL, NONNEG):
            raise ValueError(f"unknown altitude filter {self.altitude!r}")


def _floor(n_max: int, c: PathConstraints, by_y: bool = True) -> int:
    """Lowest altitude of the sweep's band; index 0 of every column list.

    0 when the sweep does not track y: each of its rows is one cell.
    """
    if not by_y:
        return 0
    r = reach(n_max, c.zigzag)
    return -r if c.min_y is None else max(c.min_y, -r)


def _sweep(
    n_max: int,
    c: PathConstraints,
    by_steps: bool = False,
    end: AltitudeFilter | None = None,
    by_y: bool = True,
) -> Iterator[dict]:
    """Yield the DP column at x = 0, 1, ..., n_max.

    A column maps (last direction, steps used) to a list of counts indexed
    by y - _floor(n_max, c, by_y).  The empty path has direction 0.  A row
    is keyed by its last direction only where something reads it: a grand
    path's is read by a last_dir filter alone, so without one every grand
    prefix but the empty one sits in a single row keyed ANY.  Steps used
    are tracked when by_steps or c.steps asks for them (and stay 0
    otherwise); prefixes stop growing at c.steps steps.  Without by_y,
    which only a sweep with no line bound and `end` None or ALL may drop,
    y is not tracked: every row is one cell and every move keeps y at 0.

    A row's first contribution is copied into it, later ones added cell by
    cell, and every yielded row is a list of its own, so the caller may
    clear cells of a yielded column: the sweep extends what it finds there.

    A zigzag sweep with no first_dir, over a band that is symmetric about
    the axis once clipped to the reach, is its own up/down mirror image
    (y -> -y swaps rising and falling steps).  So only the rising rows are
    built: each falling row is yielded as the reverse of its rising twin,
    and it extends into rising targets alone, whose mirror images are the
    falling targets.  A caller that clears cells of such a column must
    clear a mirror-symmetric set in every row.

    Only the cells a counted path can occupy are extended: |y| within
    paths.reach of the prefix and, when `end` is the altitude filter of a
    single size-n_max query, near enough to end in it, with c.steps steps
    when set.  Under the mirror a falling row is extended over the least
    mirror-symmetric range holding those cells, so a counted path's mirror
    image is kept too.  With `end`, every column but the last holds only
    part of its counts, so only the last one is an answer.
    """
    by_steps = by_steps or c.steps is not None
    lo = _floor(n_max, c, by_y)
    top = reach(n_max, c.zigzag) if by_y else 0
    hi = top if c.max_y is None else min(c.max_y, top)
    width = hi - lo + 1
    zigzag, first, steps = c.zigzag, c.first_dir, c.steps
    ending = end is not None and (steps is not None or end != ALL)
    mirror = zigzag and lo == -hi and first is None

    def window(x: int, used: int) -> tuple[int, int]:
        """The index range [i0, i1) of the cells a counted path can occupy."""
        r = reach(x, zigzag, used if by_steps else None)
        ylo, yhi = -r, r
        if ending:
            left = n_max - x
            more = None if steps is None else steps - used
            if more is not None and not more <= left <= 2 * more:
                return 0, 0
            back = reach(left, zigzag, more)  # how far the rest of the path moves y
            if isinstance(end, int):
                ylo, yhi = max(ylo, end - back), min(yhi, end + back)
            elif end == NONNEG:
                ylo = max(ylo, -back)
        return max(0, ylo - lo), min(width, yhi - lo + 1)

    # plain ints, read per cell row: (direction, dx, dy, key of the target row)
    keyed = zigzag or c.last_dir is not None
    moves = tuple(
        (s.direction, s.dx, s.dy if by_y else 0, s.direction if keyed else ANY)
        for s in STEP_ORDER
        if not mirror or s.direction == UP
    )
    col = {(0, 0): [0] * -lo + [1] + [0] * hi}  # the empty path
    ahead: list[dict] = [{}, {}]  # the columns at x + 1 and x + 2
    for x in range(n_max + 1):
        if mirror:
            for d, used in list(col):
                if d == UP:
                    col[DOWN, used] = col[UP, used][::-1]
        yield col
        for (d, used), row in col.items():
            if by_steps and used == steps:
                continue
            if mirror and d == UP:
                continue  # its falls are the mirror images of its twin's rises
            s0, s1 = window(x, used)
            if s0 >= s1:
                continue  # no cell of this row is on a counted path
            if mirror:
                s0, s1 = min(s0, width - s1), max(s1, width - s0)
            nxt = used + 1 if by_steps else 0
            for direction, dx, dy, to in moves:
                if zigzag and d == direction:
                    continue
                if d == 0 and first not in (None, direction):
                    continue
                if x + dx > n_max:
                    continue
                i0, i1 = max(s0, -dy), min(s1, width - dy)
                if i0 >= i1:
                    continue  # no cell of this row can take the step
                key = (to, nxt)
                target = ahead[dx - 1].get(key)
                if target is None:  # the row's first contribution: a copy, no adds
                    target = ahead[dx - 1][key] = [0] * width
                    target[i0 + dy : i1 + dy] = row[i0:i1]
                else:
                    target[i0 + dy : i1 + dy] = map(add, target[i0 + dy : i1 + dy], row[i0:i1])
        col, ahead = ahead[0], [ahead[1], {}]


def _final(
    size: int,
    c: PathConstraints,
    altitude: AltitudeFilter = ALL,
    by_steps: bool = False,
    by_y: bool = True,
) -> dict:
    """The sweep's column at x = size, for paths ending in the altitude filter."""
    for col in _sweep(size, c, by_steps, end=altitude, by_y=by_y):
        pass
    return col


def _tally(col: dict, lo: int, c: PathConstraints, key: Callable) -> dict:
    """Counts of a column's paths that pass the end filters, by key(y, dir, steps)."""
    out: dict = {}
    for (d, used), row in col.items():
        if d == 0 and c.first_dir is not None:
            continue  # the empty path has no first step
        if c.last_dir is not None and d != c.last_dir:
            continue
        if c.steps is not None and used != c.steps:
            continue
        for i, n in enumerate(row):
            if n:
                k = key(lo + i, d, used)
                out[k] = out.get(k, 0) + n
    return out


def _end_states(size: int, c: PathConstraints) -> dict[tuple[int, int | None], int]:
    """Counts of the matching size-`size` paths keyed by (altitude, last_dir).

    last_dir is 0 for the empty path and ANY for a grand path when c has no
    last_dir filter: the sweep does not track what no filter reads.
    """
    return _tally(_final(size, c), _floor(size, c), c, lambda y, d, used: (y, d))


def _select(dist: dict[int, int], altitude: AltitudeFilter) -> int:
    """Apply an altitude filter to a distribution by final altitude."""
    if isinstance(altitude, int):
        return dist.get(altitude, 0)
    if altitude == NONNEG:
        return sum(n for y, n in dist.items() if y >= 0)
    return sum(dist.values())


def _joined(a: list[int], b: list[int], z: int, altitude: AltitudeFilter) -> int:
    """Sum of a[i] * b[j] over the cells whose joined altitude i + j - z passes the filter."""
    if altitude == ALL:
        return sum(a) * sum(b)
    w = len(a)
    if altitude == NONNEG:
        rb = list(accumulate(reversed(b)))  # rb[w - 1 - j]: b's paths at index j or above
        p, below = z, rb[-1]  # an i past p joins every path of b
    else:
        rb = b[::-1]  # rb[w - 1 - j] = b[j]
        p, below = z + altitude, 0
    i0, i1 = max(0, p - w + 1), max(0, min(w, p + 1))  # the i with 0 <= p - i < w
    return sum(map(mul, a[i0:i1], rb[w - 1 - p + i0 : w - 1 - p + i1])) + below * sum(a[i1:])


def _join(size: int, altitude: AltitudeFilter, c: PathConstraints, by_y: bool) -> int:
    """count() of a query with no line bound and no first or last direction.

    One sweep to h = ceil(size / 2).  A path splits at its last vertex with
    x <= h: a prefix at x = h and a rest of size - h, or a prefix at h - 1,
    a wide step and a rest of size - h - 1.  The rest, reversed, is a path
    of the sweep's column at its size, keyed by the rest's first direction,
    and it moves y and uses steps as the rest does.
    """
    h = (size + 1) // 2
    keep = (h - 1, h, size - h, size - h - 1)
    cols = {x: col for x, col in enumerate(_sweep(h, c, by_y=by_y)) if x in keep}
    z = -2 * _floor(h, c, by_y)  # i + j of two cells whose altitudes add up to 0
    joins = [(cols[h], cols[size - h], None)]
    if size - h - 1 >= 0:
        joins += [(cols[h - 1], cols[size - h - 1], s) for s in STEP_ORDER if s.dx == 2]
    total = 0
    for head, tail, step in joins:
        dy, extra = (0, 0) if step is None else (step.dy, 1)
        rests: dict[int, list] = {}  # the rest's rows by steps used
        for (d, used), row in tail.items():
            rests.setdefault(used, []).append((d, row))
        for (da, used), a in head.items():
            want = 0 if c.steps is None else c.steps - used - extra
            for db, b in rests.get(want, ()):
                if c.zigzag and (da == db != 0 if step is None else step.direction in (da, db)):
                    continue  # two rises or two falls in a row; 0 is the empty path
                total += _joined(a, b, z - dy, altitude)
    return total


def count(query: CountQuery) -> int:
    """Exact number of paths matching the query.

    With no min_y, max_y, first_dir or last_dir, from half a sweep joined
    with itself (_join); otherwise from a sweep to the size whose end
    window skips the prefixes that cannot end in the query.  Either sweep
    tracks y only under a line bound or an altitude filter other than ALL.
    """
    size, altitude, c = query.size, query.altitude, query.constraints
    by_y = (c.min_y, c.max_y, altitude) != (None, None, ALL)  # does anything read y?
    if (c.min_y, c.max_y, c.first_dir, c.last_dir) == (None,) * 4:
        return _join(size, altitude, c, by_y)
    col, lo = _final(size, c, altitude, by_y=by_y), _floor(size, c, by_y)
    return _select(_tally(col, lo, c, lambda y, d, used: y), altitude)


def count_paths(
    size: int,
    altitude: AltitudeFilter = ALL,
    constraints: PathConstraints | None = None,
    **kwargs,
) -> int:
    """Convenience wrapper: count_paths(7, 0, zigzag=True)."""
    c = constraints if constraints is not None else PathConstraints(**kwargs)
    return count(CountQuery(size, altitude, c))


def count_row(
    n_max: int,
    altitude: AltitudeFilter = ALL,
    constraints: PathConstraints | None = None,
    **kwargs,
) -> list[int]:
    """[count(size=0), ..., count(size=n_max)] for a fixed query template."""
    c = constraints if constraints is not None else PathConstraints(**kwargs)
    CountQuery(0, altitude, c)  # validates the altitude filter
    return [_select(dist, altitude) for dist in altitude_distributions(n_max, c)]


def altitude_distribution(
    size: int, constraints: PathConstraints
) -> dict[int, int]:
    """Counts of matching paths by final altitude."""
    out: dict[int, int] = {}
    for (y, _), c in _end_states(size, constraints).items():
        out[y] = out.get(y, 0) + c
    return out


def altitude_distributions(
    n_max: int, constraints: PathConstraints
) -> Iterator[dict[int, int]]:
    """altitude_distribution(n, constraints) for n = 0..n_max, from one sweep."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    lo = _floor(n_max, constraints)
    for col in _sweep(n_max, constraints):
        yield _tally(col, lo, constraints, lambda y, d, used: y)


def step_count_distribution(
    size: int, constraints: PathConstraints
) -> dict[tuple[int, int], int]:
    """Counts keyed by (final altitude, number of steps).

    The steps filter is not applied: every step count is listed.
    """
    c = replace(constraints, steps=None)
    col, lo = _final(size, c, by_steps=True), _floor(size, c)
    return _tally(col, lo, c, lambda y, d, used: (y, used))


def generate(
    size: int, constraints: PathConstraints | None = None, cap: int = GENERATE_CAP, **kwargs
) -> list[Path]:
    """All paths of exactly the given size, lexicographic in STEP_ORDER.

    Exponential in size; refuses sizes beyond the cap.
    """
    if size > cap:
        raise ValueError(f"size {size} exceeds generation cap {cap}")
    c = constraints if constraints is not None else PathConstraints(**kwargs)
    out: list[Path] = []
    prefix: list[Step] = []

    def rec(x: int, y: int) -> None:
        if x == size:
            p = Path(tuple(prefix))
            if _accept(p, c):
                out.append(p)
            return
        for step in STEP_ORDER:
            if c.zigzag and prefix and prefix[-1].direction == step.direction:
                continue
            nx, ny = x + step.dx, y + step.dy
            if nx > size:
                continue
            if c.min_y is not None and ny < c.min_y:
                continue
            if c.max_y is not None and ny > c.max_y:
                continue
            prefix.append(step)
            rec(nx, ny)
            prefix.pop()

    rec(0, 0)
    return out


def _accept(p: Path, c: PathConstraints) -> bool:
    if c.steps is not None and p.step_count != c.steps:
        return False
    if c.first_dir is not None and (not p.steps or p.steps[0].direction != c.first_dir):
        return False
    if c.last_dir is not None and (not p.steps or p.steps[-1].direction != c.last_dir):
        return False
    return True


def count_primitive(size: int) -> int:
    """Zigzag paths of altitude 0 whose interior vertices avoid the x-axis.

    The empty path counts as 1.  The sweep's arrivals at y = 0 are cleared
    in every column strictly inside (0, size), so none is extended.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    c = PathConstraints(zigzag=True)
    axis = -_floor(size, c)  # index of y = 0
    for x, col in enumerate(_sweep(size, c)):
        if 0 < x < size:
            for row in col.values():
                row[axis] = 0
    return sum(row[axis] for row in col.values())


def grand_row_stats(n_max: int) -> dict[str, list[int]]:
    """Per-size summaries for unconstrained (non-zigzag) paths in one DP pass.

    Returns lists indexed by size: total count, count ending at y >= 0,
    count ending at y > 0, count ending on the axis, and the sum of final
    altitudes over paths ending at y > 0.
    """
    total, nonneg, positive, axis, alt_sum = [], [], [], [], []
    c = PathConstraints()
    zero = -_floor(n_max, c)  # index of y = 0
    for col in _sweep(n_max, c):
        row = [sum(cells) for cells in zip(*col.values())]
        total.append(sum(row))
        nonneg.append(sum(row[zero:]))
        positive.append(sum(row[zero + 1 :]))
        axis.append(row[zero])
        alt_sum.append(sum(y * n for y, n in enumerate(row[zero:])))
    return dict(total=total, nonneg=nonneg, positive=positive, axis=axis, altitude_sum=alt_sum)
