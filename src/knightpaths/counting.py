"""Exact dynamic-programming path counting and exhaustive generation.

The ground-truth engine.  Every counting entry point is a view over one
forward sweep along x (_sweep) with state (y, last direction).  Without a
step count, each row (one per last direction) is one int whose fixed-width
fields are its cells, so a move is one shift and one add, not one int per
cell, and every column's window is planned once, before the first one;
past a measured field width, and for bands the list layout mirrors, a row
is a list of cells.  When the steps used are asked for, each cell
packs its counts by step count into one int (_Fields), so a column keeps
one row per direction whatever the step counts.  The last direction is 0
for the empty prefix, and it is tracked only where the query reads it
(always for zigzag paths, for grand paths only under a last_dir filter).
The altitude y is likewise tracked only where the query reads it: a
count or a row of sizes with no line bound and any final altitude (ALL)
sweeps one cell per row, every move's dy taken as 0, and the views that
return distributions keep full columns.  A zigzag sweep of list
rows over a band symmetric about the axis, with no first_dir, builds only
its rising rows and reads each falling row as their mirror image.  A list
row's first contribution is copied into it; only later ones are added
cell by cell.  Steps advance x by 1 or 2, so the sweep keeps a rolling
window of three columns: O(n) cells for a size-n count (one per
row without y), each an int of O(n) bits, or of O(n^2) bits when it packs
the O(n) step counts it can hold.  The band is clipped to the reach of a
size-n path (paths.reach: |y| <= 2n, and (n + 5) // 3 for zigzag paths),
and each column extends only the cells a path can occupy.

The sweep yields every column, so a whole row of sizes costs one pass.
count_row sweeps in count()'s layout with no end window and reads one
number per column straight off the rows, with no distribution built: a
packed sum of rows is folded by halves over the fields its altitude filter
keeps, a list row summed over a slice.  primitive_row and
step_count_distributions likewise read every column of one sweep.

A single-size count with no line bound and no first or last direction
sweeps only to h = ceil(n/2) and joins that sweep's columns (_join): every
size-n path has one last vertex with x <= h, at x = h or at h - 1 before a
wide step, and the rest of the path, reversed, is a path from the origin
of the same size, altitude change and step count whose last direction is
the rest's first, so the sweep's own columns at n - h and n - h - 1 count
it.  So does a count whose lines no path of the size can cross, when it
has no first or last direction.  Any other single-size count (a band, one
line, a first or last direction) sweeps to n and skips prefixes that can
no longer end with its altitude and step count.  Above a min_y line alone, ending in ALL or NONNEG
with no last direction, a packed such sweep with fields past RETIRE_BYTES
also retires each cell whose every completion counts (one that no run of
the remaining size can take below the line or the axis): its count times
the number of completions goes straight into the answer, so the rows
shrink as the sweep nears n.  Counts are exact integers.

generate() shares no code with the sweep: it is the independent oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, repeat, zip_longest
from operator import add, and_, lshift, mul, neg, rshift
from typing import Callable, Generator, Iterator, NamedTuple

from .paths import (
    ALL, DOWN, NONNEG, STEP_ORDER, UP, Path, PathConstraints, Step, reach, validate_path,
)

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


# log2 of the growth of the number of paths by size: 2 F(x + 1) <= 2 phi^x zigzag
# paths of size x, and a(x) <= (1 + sqrt 3)^x grand ones, a(x) = 2 a(x - 1) + 2 a(x - 2)
_LOG2_GROWTH = {True: 0.6942419136306174, False: 1.4499843134764958}

#: The widest field, in bytes, of a sweep that keeps each row as one int; a
#: sweep whose size needs wider fields keeps lists of cells (see _fields).
PACKED_BYTES = 128

#: The widest field, in bytes, of a packed line count that retires no cell
#: (see _sweep): up to it the work a move adds costs more than the smaller
#: rows save.  Measured, retiring broke even at 17-20 bytes for zigzag lines
#: (sizes 190-220) and at 9-11 bytes for grand ones (sizes 50-60).
RETIRE_BYTES = 16


def _path_bytes(x: int, zigzag: bool) -> int:
    """Whole bytes that hold the number of paths of size x (with a bit to spare)."""
    return (int(x * _LOG2_GROWTH[zigzag]) + 9) // 8


def _respace(v: int, size: int, new: int) -> int:
    """A packed row v of fields of `size` bytes, each widened to `new` bytes."""
    if not v:
        return v
    n = -(-v.bit_length() // (8 * size))
    raw, out = v.to_bytes(n * size, "little"), bytearray(n * new)
    for j in range(size):  # byte j of every field, in one strided copy
        out[j::new] = raw[j::size]
    return int.from_bytes(out, "little")


class _Fields(NamedTuple):
    """The layout of _sweep(n_max, c, by_steps, end, by_y)'s rows (see _sweep).

    A packed sweep (no steps) keeps each row as one int: field i, of
    field_bytes(x) bytes, counts cell window(x)[0] + i of column x, at
    altitude lo + window(x)[0] + i.  Otherwise a row is a list of `width`
    cells, cell i at altitude lo + i.  When steps are tracked (W = bits is
    not 0) each cell is one int too: field f of the cell at altitude y of
    row d in column x, its bits [f W, (f + 1) W), counts the prefixes with
    b = o + stride f wide steps, where o is origins(base(x), d)[y - lo].
    """

    bits: int
    size: int
    #: b = size - c.steps of every counted path, when a grand sweep ends in c.steps
    top: int | None
    #: the altitude of cell 0 and the number of cells of a row
    lo: int
    width: int
    #: 2 when the sweep tracks y, which has the parity of b; else 1
    stride: int
    zigzag: bool
    #: the altitude filter the counted paths end in, where it narrows the window
    end: AltitudeFilter | None
    packed: bool
    #: a retiring sweep's floor (min_y, or 0 for NONNEG): the cells of column x
    #: at y >= retire + reach(size - x) have left their rows; else None
    retire: int | None = None

    def base(self, x: int) -> int:
        """The fewest b in column x that can still reach top, or 0.

        The rest of a counted path, of size - x, has top - b wide steps,
        between 0 and (size - x) // 2.
        """
        return 0 if self.top is None else max(0, self.top - (self.size - x) // 2)

    def window(self, x: int) -> tuple[int, int]:
        """The index range [i0, i1) of the cells of column x a counted path can occupy.

        Read from the plan (columns) where top is None.
        """
        if self.top is None:
            i0, i1, _ = self.columns()[0][x]
            return i0, i1
        b0, b1 = self.base(x), min(self.top, x // 2)
        if b0 > b1:
            return 0, 0  # no prefix here can end with c.steps steps
        # with b0 wide steps, a kept prefix used at most x - b0 steps; a rest
        # takes at most size - top - x + b1, and moves y by at most back
        r = reach(x, self.zigzag, x - b0)
        back = reach(self.size - x, self.zigzag, self.size - self.top - x + b1)
        (i0,), (i1,) = self._spans([r], [back])
        return i0, i1

    def _spans(self, ups: list[int], backs: list[int]) -> tuple[list[int], list[int]]:
        """The windows of columns whose cells lie within ups[j] of the axis and
        whose rests move y by at most backs[j], near enough to end in `end`."""
        ylo, yhi = [-r for r in ups], ups
        if isinstance(self.end, int):
            ylo = list(map(max, ylo, [self.end - b for b in backs]))
            yhi = list(map(min, yhi, [self.end + b for b in backs]))
        elif self.end == NONNEG:
            ylo = list(map(max, ylo, map(neg, backs)))
        lo, width = self.lo, self.width
        i0 = [y - lo if y > lo else 0 for y in ylo]
        i1 = [y - lo + 1 if y < lo + width else width for y in yhi]
        return i0, i1

    @lru_cache(maxsize=2)
    def columns(self) -> tuple[list[tuple[int, int, bool]], dict[int, int]]:
        """Every column's window, planned once where top is None (see window).

        (i0, i1, cut) for x <= size + 2, the columns past size empty:
        window(x) is [i0, i1), and cut tells whether its top lies below the
        reach, where a line, the end window or retirement cuts it.  In a
        retiring sweep the window of column x > 0 stops below retire +
        reach(size - x), and may be empty.  And the columns at which a
        packed sweep's fields widen, with their field_bytes, which only grows
        with x.  Without y a row is one cell, at y = 0, with no field to
        carry into, so it keeps its first width.  The last two plans are
        kept, and shared, so read only: a count sweeps and then unpacks its
        last column with one plan.
        """
        n = self.size
        if self.stride == 1:
            return [(0, 1, False)] * (n + 1) + [(0, 0, False)] * 2, {0: self.field_bytes(0)}
        xs = range(n + 1)
        ups = list(map(reach, xs, repeat(self.zigzag)))
        backs = ups[::-1]  # the rest of column x has size - x
        i0, i1 = self._spans(ups, backs)
        if self.retire is not None:  # but column 0's: the empty path has no last direction
            caps = [self.retire + b - self.lo for b in backs[1:]]  # the lowest index retired
            i1[1:] = map(max, i0[1:], map(min, i1[1:], caps))
        cut = [b < r - self.lo + 1 for b, r in zip(i1, ups)]
        spans = list(zip(i0, i1, cut)) + [(0, 0, False)] * 2
        widths, x = {}, 0
        while x <= n:
            widths[x] = b = self.field_bytes(x)
            x = bisect_right(xs, b, x + 1, key=self.field_bytes)
        return spans, widths

    def field_bytes(self, x: int) -> int:
        """The bytes of a field of column x in a packed sweep.

        Enough for column x + 2, the furthest a move from column x reaches,
        rounded up to 8, 12, 16, 24, 32, 48, ... (two significant bits), so a
        sweep widens its fields O(log n) times, never past its size's.
        """
        need = max(_path_bytes(min(x + 2, self.size), self.zigzag), 8)
        drop = need.bit_length() - 2
        return min(-(-need >> drop) << drop, _path_bytes(self.size, self.zigzag))

    def origins(self, b0: int, d: int | None) -> list[int]:
        """The b of field 0 of each cell of row d in a column with base b0.

        The least b the cell can hold: b0 or more, of y's parity when y is
        tracked, and in a zigzag row more: with u rises and v falls, w_u
        and w_v of them wide, y = 2 (u - v) - w_u + w_v, and u - v is 0 or
        d, the last direction, so b >= w_u + w_v >= max(d y - 2, -d y).
        """
        ys, stride = range(self.lo, self.lo + self.width), self.stride
        if self.zigzag and d in (UP, DOWN):  # d y - 2 and -d y have y's parity
            return [max(b0 + (y - b0) % stride, d * y - 2, -d * y) for y in ys]
        return [b0 + (y - b0) % stride for y in ys]

    def plan(self, src: list, dst: list, dx: int, dy: int, over: bool, s0: int, s1: int) -> tuple:
        """How a move by (dx, dy) carries the fields of the cells s0 <= i < s1.

        src and dst are the origins of the source and target rows.  The
        left and right shifts by source cell, which take the fields from
        the origin of the source cell to that of the target cell (a field
        dropped on the right is empty or below base), and, when the move
        can take b past top (over), the masks by target cell that drop
        those fields.  Each is None where it does nothing.
        """
        w, stride, bits = self.width, self.stride, self.bits
        i0, i1 = max(s0, -dy), min(s1, w - dy)  # the cells whose target is in the band
        pairs = zip(src[i0:i1], dst[i0 + dy : i1 + dy])
        shift = [(a + dx - 1 - b) // stride * bits for a, b in pairs]
        left = right = masks = None
        if max(shift, default=0) > 0:
            left = [0] * w
            left[i0:i1] = [v if v > 0 else 0 for v in shift]
        if min(shift, default=0) < 0:
            right = [0] * w
            right[i0:i1] = [-v if v < 0 else 0 for v in shift]
        if over:  # keep the (top - o) // stride + 1 fields of b <= top, or none
            kept = [(self.top - o) // stride + 1 for o in dst[i0 + dy : i1 + dy]]
            mask = {k: (1 << k * bits) - 1 if k > 0 else 0 for k in set(kept)}
            masks = [0] * w
            masks[i0 + dy : i1 + dy] = [mask[k] for k in kept]
        return left, right, masks

    def unpack(self, col: dict, x: int, steps: int | None = None) -> dict:
        """Column x as (direction, steps used) -> list of cells: of every step count, or `steps`.

        A packed row's fields are read from its bytes.  With steps, the
        cells of one parity of y hold the b of that parity; padded at the
        low end to their least origin, they line up field by field.  Every
        field of a cell is read from its bytes, once per cell value, so
        rows that share cells (a mirrored column's) share their counts; one
        field is read with a shift.
        """
        if self.packed:
            i0, i1 = self.window(x)
            n, size = max(i1 - i0, 0), self.field_bytes(x)
            out = {}
            for d, v in col.items():
                raw = v.to_bytes(n * size, "little")  # raises if a field lies past the window
                row = out[d, 0] = [0] * self.width
                cells = [raw[k : k + size] for k in range(0, n * size, size)]
                row[i0 : i0 + n] = [int.from_bytes(cell, "little") for cell in cells]
            return out
        if not self.bits:
            return {(d, 0): row for d, row in col.items()}
        bits, stride, width = self.bits, self.stride, self.width
        size, mask = bits // 8, (1 << bits) - 1
        seen: dict[int, list[int]] = {}  # the fields of each cell value
        out: dict = {}
        for d, row in col.items():
            origins = self.origins(self.base(x), d)
            if steps is None:
                for v in set(row).difference(seen):
                    raw = v.to_bytes(-(-v.bit_length() // 8), "little")
                    starts = range(0, len(raw), size)
                    seen[v] = [int.from_bytes(raw[k : k + size], "little") for k in starts]
            for p in range(min(stride, width)):  # the cells of one parity of y
                org = origins[p::stride]
                o0 = min(org)
                if steps is None:
                    cells = zip(row[p::stride], org)
                    padded = [[0] * ((o - o0) // stride) + seen[v] for v, o in cells]
                    lines = enumerate(zip_longest(*padded, fillvalue=0))
                else:  # the one field b = x - steps, if these cells hold it
                    b, lines = x - steps, []
                    if b >= o0 and (b - o0) % stride == 0:
                        cells = zip(row[p::stride], org)
                        line = [v >> (b - o) // stride * bits & mask if o <= b else 0
                                for v, o in cells]
                        lines = [((b - o0) // stride, line)]
                for f, line in lines:
                    if any(line):
                        out.setdefault((d, x - o0 - stride * f), [0] * width)[p::stride] = line
        return out


def _fields(
    n_max: int,
    c: PathConstraints,
    by_steps: bool = False,
    end: AltitudeFilter | None = None,
    by_y: bool = True,
    every: bool = False,
    retire: bool = False,
) -> _Fields:
    """The band and the layout of _sweep(n_max, c, by_steps, end, by_y, every, retire)'s rows.

    Without steps, the rows are packed when a row is one cell, or when a
    field of size n_max takes at most PACKED_BYTES bytes; a sweep that
    would mirror its list rows packs only with no line, and fields of 9 to
    PACKED_BYTES // 2 bytes.  Above those widths, for mirrored bands, and
    when the caller reads every column (every), whose unpacking costs an
    int per cell per column, list rows measured faster.

    With retire, which only a count of the paths of size n_max passes, a
    packed sweep of one min_y line, no max_y and no last_dir, ending in ALL
    or NONNEG, retires its cells once their every completion counts (see
    _sweep), when its fields take more than RETIRE_BYTES bytes.
    """
    lo = _floor(n_max, c, by_y)
    reach_y = reach(n_max, c.zigzag) if by_y else 0
    hi = reach_y if c.max_y is None else min(c.max_y, reach_y)
    width, wide = hi - lo + 1, _path_bytes(n_max, c.zigzag)
    if end == ALL and c.steps is None:
        end = None  # every prefix can end in ALL
    if by_steps or c.steps is not None:  # the paths of size n_max bound every field
        # the window of b that can still end at c.steps pays for its per-column
        # plans in the grand world only; a zigzag sweep keeps every field
        top = None if end is None or c.steps is None or c.zigzag else n_max - c.steps
        return _Fields(8 * wide, n_max, top, lo, width, 2 if by_y else 1, c.zigzag, end, False)
    if c.zigzag and lo == -hi and c.first_dir is None:  # lists would mirror (see _sweep)
        packed = lo == -reach_y and 8 < wide <= PACKED_BYTES // 2
    else:
        packed = wide <= PACKED_BYTES
    packed = packed and not every or width == 1
    line = by_y and c.min_y is not None and (c.max_y, c.last_dir) == (None, None)
    if retire and packed and line and end in (None, NONNEG) and wide > RETIRE_BYTES:
        floor = 0 if end == NONNEG else c.min_y
    else:
        floor = None
    return _Fields(0, n_max, None, lo, width, 2 if by_y else 1, c.zigzag, end, packed, floor)


def _sweep(
    n_max: int,
    c: PathConstraints,
    by_steps: bool = False,
    end: AltitudeFilter | None = None,
    by_y: bool = True,
    every: bool = False,
    retire: bool = False,
) -> Generator[dict, None, int]:
    """Yield the DP column at x = 0, 1, ..., n_max; return the paths retired.

    A column maps a last direction to a row.  The empty path has direction
    0.  A row is keyed by its last direction only where something reads
    it: a grand path's is read by a last_dir filter alone, so without one
    every grand prefix but the empty one sits in a single row keyed ANY.
    Without by_y, which only a sweep with no line bound and `end` None or
    ALL may drop, y is not tracked: every row is one cell and every move
    keeps y at 0.  _Fields.unpack reads a column as (direction, steps used)
    -> list of cells indexed by y - _floor(n_max, c, by_y).

    A sweep that tracks no steps keeps each row as one int (packed, see
    _fields for the field widths where lists measured faster): field i, of
    W = 8 _Fields.field_bytes(x) bits, holds the count at altitude
    lo + i0(x) + i, where [i0(x), i1(x)) is window(x), the cells a counted
    path can occupy.  W bounds the number of paths of size x + 2, the
    furthest column a move from x reaches, so no field carries into the
    next; it grows with x, by a quarter or more each time, and then the
    column and the one ahead of it are respaced (_respace).  A move (dx, dy)
    is one shift by (dy + i0(x) - i0(x + dx)) W bits, which as a right
    shift drops the cells that fall under the target's window (a line, or
    an end window), one AND where a line or an end window cuts the
    target's window below the reach, and one add: no int per cell.  The
    windows, their cuts and the columns where W grows are planned once,
    before the first column (_Fields.columns), so a column's moves do only
    shifts, ANDs and adds.

    With retire, a packed count above a min_y line (see _fields) retires
    the cells whose every completion counts.  With floor = min_y, or 0 for
    NONNEG, a cell of column x at y >= floor + reach(n_max - x) can no
    longer cross the line or end below the axis, since paths.reach bounds
    every run of steps.  So its count times T(n_max - x) goes to the
    answer, and the cell leaves its row: the target window's top is capped
    below that altitude, and a move sums the fields above the cap before
    the AND drops them.  T(s) counts the completions of size s.  A zigzag
    one starts against the row's last direction, so T is 1, 1, 2, 3, 5,
    ..., T(s) = T(s - 1) + T(s - 2); a grand one is any grand path, 1, 2,
    6, 16, ..., T(s) = 2 T(s - 1) + 2 T(s - 2).  The last column is then
    empty, and the sweep returns the number of paths it retired: 0 without
    retire.

    Otherwise a row is a list of cells indexed by y - _floor(n_max, c, by_y).
    When by_steps or c.steps asks for steps, a cell is one int that holds
    its counts by the wide steps taken, b = x - used, in fields of W bits
    (_Fields): one row per direction, whatever the step counts.  W bounds
    the bit length of the number of paths of size n_max (_path_bytes), in
    whole bytes.  A field counts distinct paths of one size
    x <= n_max, and that number grows with x, so no field reaches 2^W and
    none carries into the next.  A cell packs only the b it can hold:
    from its origin (_Fields.origins), the least such b, in steps of 2
    when y is tracked, because y and b have the same parity.  A narrow step
    (N, Nb) keeps b and a wide one (E, Eb) adds 1, so a move shifts each
    cell by the fields between its origin, plus the wide step, and the
    target cell's origin (_Fields.plan): a map per shifted move, not one
    slice per step count.  Without top no move shifts right and no narrow
    move shifts at all, so it is not planned: it keeps y's parity, and a
    zigzag row's bound at y is its successor's at y +- 2 (the empty path's
    row holds y = 0 alone).  A prefix with more than c.steps steps is not
    stopped: its step count only grows, and no caller reads a field of
    more than c.steps steps.  Without steps, list cells are plain counts
    and no move shifts one.

    A list row's first contribution is copied into it, later ones added
    cell by cell, and every yielded list row is a list of its own, as every
    yielded column is a dict of its own, so the caller may clear cells of a
    yielded column of list rows: the sweep extends what it finds there.

    A zigzag sweep of list rows with no first_dir, over a band that is
    symmetric about the axis once clipped to the reach, is its own up/down
    mirror image (y -> -y swaps rising and falling steps, and keeps every
    origin).  So only the rising rows are built: each falling row is
    yielded as the reverse of its rising twin, and it extends into rising
    targets alone, whose mirror images are the falling targets.  A caller
    that clears cells of such a column must clear a mirror-symmetric set in
    every row.  Packed rows are not mirrored: reversing a row's fields
    would reverse the bytes within each field too.

    Only the cells a counted path can occupy are extended: |y| within
    paths.reach of the prefix and, when `end` is the altitude filter of a
    single size-n_max query, near enough to end in it, in the grand world
    with c.steps steps when set.  With c.steps, a grand such query keeps
    only the fields whose b can still end at top = n_max - c.steps: the
    rest of the path takes top - b wide steps, between 0 and
    (n_max - x) // 2, so b lies in [top - (n_max - x) // 2, top].  The low
    end is _Fields.base, below every origin, so a move drops the fields
    that fall under it, and a wide move that could take b past top is
    masked above it.  A zigzag sweep has no top and keeps every field: its
    per-column plans would cost more than the fields they drop.  Under the
    mirror a falling row is extended over the least mirror-symmetric range
    holding the cells, so a counted path's mirror image is kept too.  With
    `end`, every column but the last holds only part of its counts, so
    only the last one is an answer.
    """
    fields = _fields(n_max, c, by_steps, end, by_y, every, retire)
    bits, top, base, window = fields.bits, fields.top, fields.base, fields.window
    lo, width, packed, floor = fields.lo, fields.width, fields.packed, fields.retire
    hi = lo + width - 1
    zigzag, first = c.zigzag, c.first_dir
    mirror = zigzag and lo == -hi and first is None and not packed

    # plain ints, read per row: the moves out of a row by its key,
    # as (direction, dx, dy, key of the target row)
    keyed = zigzag or c.last_dir is not None
    every = [
        (s.direction, s.dx, s.dy if by_y else 0, s.direction if keyed else ANY)
        for s in STEP_ORDER
        if not mirror or s.direction == UP
    ]
    moves = {
        d: [
            m
            for m in every
            if not (zigzag and d == m[0])  # two rises or two falls in a row
            and (d != 0 or first in (None, m[0]))
        ]
        for d in (0, UP, DOWN, ANY)
    }
    # _Fields.plan of each move from column x by (source row, direction, dx),
    # made once without top, and the origins it reads by (base, row)
    plans: dict = {}
    origins: dict = {}
    over, span = False, (0, width)  # the cells the plans cover

    def origin(b0: int, d: int | None) -> list[int]:
        if (b0, d) not in origins:
            origins[b0, d] = fields.origins(b0, d)
        return origins[b0, d]

    retired = 0
    if packed:
        spans, widths = fields.columns()
        col = {0: int(spans[0][0] < spans[0][1])}  # the empty path, at field 0
        held = widths[0]
        w = 8 * held
        masks: dict = {}  # the mask of k fields of the held width, by k
        gone = [0, 0, 0]  # the retired fields of columns x, x + 1 and x + 2
        if floor is not None:  # T(s), the completions of size s
            a = 1 if zigzag else 2
            completions = [1, a]
            while len(completions) <= n_max:
                completions.append(a * (completions[-1] + completions[-2]))
    else:
        col = {0: [0] * -lo + [1] + [0] * hi}
    ahead: list[dict] = [{}, {}]  # the columns at x + 1 and x + 2
    for x in range(n_max + 1):
        if packed:
            if gone[0]:  # fields of the width they were moved at
                v, ones, paths = gone[0], (1 << w) - 1, 0
                while v:
                    paths, v = paths + (v & ones), v >> w
                retired += paths * completions[n_max - x]
            size = widths.get(x, held)
            if size > held:  # col and ahead[0] widen their fields to reach column x + 2
                for rows in (col, ahead[0]):
                    for d, v in rows.items():
                        rows[d] = _respace(v, held, size)
                gone[1] = _respace(gone[1], held, size)
                held, w = size, 8 * size
                masks.clear()
            s0, s1, _ = spans[x]
        elif mirror and UP in col:
            col[DOWN] = col[UP][::-1]
        yield col
        if not packed:
            s0, s1 = window(x)
        if mirror and s0 < s1:  # the falling rows: the least mirror-symmetric range
            s0, s1 = min(s0, width - s1), max(s1, width - s0)
        if top is not None:  # the origins move with base(x), the window with x
            over, span = x // 2 >= top, (s0, s1)  # over: a wide step can take b past top
            plans.clear()
            for key in [key for key in origins if key[0] < base(x)]:
                del origins[key]
        for d, row in col.items() if s0 < s1 else ():
            if mirror and d == UP:
                continue  # its falls are the mirror images of its twin's rises
            for direction, dx, dy, to in moves[d]:
                if x + dx > n_max:
                    continue
                if packed:  # one shift, the window's cut and one add
                    t0, t1, cut = spans[x + dx]
                    if not row or t0 >= t1 and floor is None:
                        continue
                    k = (s0 + dy - t0) * w
                    cells = row << k if k > 0 else row >> -k if k else row
                    if cut and s1 + dy > t1:  # fields above the target's top
                        if floor is not None:
                            gone[dx] += cells >> (t1 - t0) * w
                        mask = masks.get(t1 - t0)
                        if mask is None:
                            mask = masks[t1 - t0] = (1 << (t1 - t0) * w) - 1
                        cells &= mask
                    target = ahead[dx - 1].get(to)
                    ahead[dx - 1][to] = cells if target is None else target + cells
                    continue
                i0, i1 = max(s0, -dy), min(s1, width - dy)
                if i0 >= i1:
                    continue  # no cell of this row can take the step
                cells = row[i0:i1]
                if bits and (dx == 2 or top is not None):  # a narrow move keeps the origins
                    plan = plans.get((d, direction, dx))
                    if plan is None:
                        src, dst = origin(base(x), d), origin(base(x + dx), to)
                        wide = over and dx == 2
                        plan = plans[d, direction, dx] = fields.plan(src, dst, dx, dy, wide, *span)
                    left, right, masks = plan
                    if left:
                        cells = map(lshift, cells, left[i0:i1])
                    if right:
                        cells = map(rshift, cells, right[i0:i1])
                    if masks:
                        cells = map(and_, cells, masks[i0 + dy : i1 + dy])
                target = ahead[dx - 1].get(to)
                if target is None:  # the row's first contribution: a copy, no adds
                    target = ahead[dx - 1][to] = [0] * width
                    target[i0 + dy : i1 + dy] = cells
                else:
                    target[i0 + dy : i1 + dy] = map(add, target[i0 + dy : i1 + dy], cells)
        col, ahead = ahead[0], [ahead[1], {}]
        if floor is not None:
            gone = [gone[1], gone[2], 0]
    return retired


def _final(
    size: int,
    c: PathConstraints,
    altitude: AltitudeFilter = ALL,
    by_steps: bool = False,
    by_y: bool = True,
) -> dict:
    """The sweep's column at x = size, for paths ending in the altitude filter.

    As (direction, steps used) -> row, of c.steps steps alone when set.
    """
    for col in _sweep(size, c, by_steps, end=altitude, by_y=by_y):
        pass
    return _fields(size, c, by_steps, altitude, by_y).unpack(col, size, c.steps)


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
    and it moves y and uses steps as the rest does.  Each column is
    unpacked (_Fields.unpack) when a join first reads it and dropped after
    the last join that reads it.
    """
    h = (size + 1) // 2
    keep = (h - 1, h, size - h, size - h - 1)
    cols = {x: col for x, col in enumerate(_sweep(h, c, by_y=by_y)) if x in keep}
    fields = _fields(h, c, by_y=by_y)
    z = -2 * _floor(h, c, by_y)  # i + j of two cells whose altitudes add up to 0
    joins = [(h, size - h, [None])]
    if size - h - 1 >= 0:
        joins.append((h - 1, size - h - 1, [s for s in STEP_ORDER if s.dx == 2]))
    total, views = 0, {}  # views: the columns unpacked so far
    for xa, xb, steps in joins:
        for x in (xa, xb):
            if x not in views:
                views[x] = fields.unpack(cols.pop(x), x)
        head, tail = views[xa], views[xb]
        rests: dict[int, list] = {}  # the rest's rows by steps used
        for (d, used), row in tail.items():
            rests.setdefault(used, []).append((d, row))
        extra = 0 if steps == [None] else 1
        for (da, used), a in head.items():
            want = 0 if c.steps is None else c.steps - used - extra
            for db, b in rests.get(want, ()):
                for step in steps:
                    if c.zigzag and (da == db != 0 if step is None else step.direction in (da, db)):
                        continue  # two rises or two falls in a row; 0 is the empty path
                    total += _joined(a, b, z - (0 if step is None else step.dy), altitude)
        del head, tail, rests, views[xa]  # no later join reads the head's column
    return total


def _out_of_reach(size: int, c: PathConstraints) -> bool:
    """Whether c has a line bound and no path of the size can cross any of them."""
    r = reach(size, c.zigzag)
    low, high = c.min_y is None or c.min_y <= -r, c.max_y is None or c.max_y >= r
    return (c.min_y, c.max_y) != (None, None) and low and high


def count(query: CountQuery) -> int:
    """Exact number of paths matching the query.

    With no min_y, max_y, first_dir or last_dir, from half a sweep joined
    with itself (_join), which also counts lines that no path of the size
    can cross when no direction is set; otherwise from a sweep to the size
    whose end window skips the prefixes that cannot end in the query, and
    which above a line may retire the cells whose every completion counts.
    Either sweep tracks y only under a line bound or an altitude filter
    other than ALL.
    """
    size, altitude, c = query.size, query.altitude, query.constraints
    if (c.first_dir, c.last_dir) == (None, None) and _out_of_reach(size, c):
        c = replace(c, min_y=None, max_y=None)  # no path of the size meets its lines
    by_y = (c.min_y, c.max_y, altitude) != (None, None, ALL)  # does anything read y?
    if (c.min_y, c.max_y, c.first_dir, c.last_dir) == (None,) * 4:
        return _join(size, altitude, c, by_y)
    sweep = _sweep(size, c, end=altitude, by_y=by_y, retire=True)
    while True:  # to the last column, and the number of paths the sweep retired
        try:
            col = next(sweep)
        except StopIteration as done:
            retired = done.value
            break
    fields = _fields(size, c, end=altitude, by_y=by_y, retire=True)
    ends = _tally(fields.unpack(col, size, c.steps), fields.lo, c, lambda y, d, used: y)
    return retired + _select(ends, altitude)


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
    """[count(size=0), ..., count(size=n_max)] for a fixed query template.

    One sweep in count()'s layout with no end window, y dropped where
    count() drops it, read one number per column: the rows the direction
    filters keep are added, and a packed sum folded by halves over the
    fields the altitude filter keeps (_folded), a list sum summed over its
    slice.  With c.steps, from the distributions.
    """
    c = constraints if constraints is not None else PathConstraints(**kwargs)
    CountQuery(0, altitude, c)  # validates the altitude filter
    if c.steps is not None:
        return [_select(dist, altitude) for dist in altitude_distributions(n_max, c)]
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    by_y = (c.min_y, c.max_y, altitude) != (None, None, ALL)
    fields = _fields(n_max, c, by_y=by_y)
    lo, width = fields.lo, fields.width
    # the cells [a, b) the altitude filter keeps
    if altitude == ALL:
        a, b = 0, width
    elif altitude == NONNEG:
        a, b = -lo, width
    else:
        a, b = (min(max(i, 0), width) for i in (altitude - lo, altitude - lo + 1))
    keys = [c.last_dir] if c.last_dir is not None else [UP, DOWN, ANY]
    if c.first_dir is None and c.last_dir is None:
        keys.append(0)  # the empty path's row
    out = []
    if fields.packed:
        spans, widths = fields.columns()
        held, masks = widths[0], {}
        for x, col in enumerate(_sweep(n_max, c, by_y=by_y)):
            held = widths.get(x, held)
            w, (i0, i1, _) = 8 * held, spans[x]
            j0, j1 = max(a, i0) - i0, min(b, i1) - i0  # the kept fields of the window
            v = sum(col[d] for d in keys if d in col) >> j0 * w if j0 < j1 else 0
            if isinstance(altitude, int):
                out.append(v & _mask(w, masks))
            else:
                out.append(_folded(v, j1 - j0, w, masks))
        return out
    for col in _sweep(n_max, c, by_y=by_y):
        out.append(sum(sum(col[d][a:b]) for d in keys if d in col))
    return out


def _mask(bits: int, masks: dict) -> int:
    """(1 << bits) - 1, kept in masks by bits."""
    mask = masks.get(bits)
    if mask is None:
        mask = masks[bits] = (1 << bits) - 1
    return mask


def _folded(v: int, n: int, w: int, masks: dict) -> int:
    """The sum of the n fields of w bits that v holds, when it stays below 2^w.

    Folded by halves: the high half of the fields is added onto the low
    half, a sum of fields with no carry from one into the next, until one
    field is left.  About log2 n rounds of a mask, a shift and an add.
    """
    while n > 1:
        h = (n + 1) // 2
        v, n = (v & _mask(h * w, masks)) + (v >> h * w), h
    return v


def altitude_distribution(
    size: int, constraints: PathConstraints
) -> dict[int, int]:
    """Counts of matching paths by final altitude."""
    c = constraints
    return _tally(_final(size, c), _floor(size, c), c, lambda y, d, used: y)


def altitude_distributions(
    n_max: int, constraints: PathConstraints
) -> Iterator[dict[int, int]]:
    """altitude_distribution(n, constraints) for n = 0..n_max, from one sweep."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    lo, fields = _floor(n_max, constraints), _fields(n_max, constraints, every=True)
    for x, col in enumerate(_sweep(n_max, constraints, every=True)):
        col = fields.unpack(col, x, constraints.steps)
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


def step_count_distributions(
    n_max: int, constraints: PathConstraints
) -> Iterator[dict[tuple[int, int], int]]:
    """step_count_distribution(n, constraints) for n = 0..n_max, from one sweep."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    c = replace(constraints, steps=None)
    fields = _fields(n_max, c, by_steps=True)
    for x, col in enumerate(_sweep(n_max, c, by_steps=True)):
        yield _tally(fields.unpack(col, x), fields.lo, c, lambda y, d, used: (y, used))


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
            if validate_path(p, c):
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


def primitive_row(n_max: int) -> list[int]:
    """[count_primitive(0), ..., count_primitive(n_max)], from one sweep.

    Zigzag paths of altitude 0 whose interior vertices avoid the x-axis;
    the empty path counts as 1.  Each column x > 0 is read at y = 0, and
    those arrivals are then cleared, so none is extended.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    c = PathConstraints(zigzag=True)
    axis = -_floor(n_max, c)  # index of y = 0
    out = [1]  # the empty path; a size-0 sweep packs its one cell
    for x, col in enumerate(_sweep(n_max, c, every=True)):
        if x:  # list rows, whose axis cells are a mirror-symmetric set
            out.append(sum(row[axis] for row in col.values()))
            for row in col.values():
                row[axis] = 0
    return out


def count_primitive(size: int) -> int:
    """Zigzag paths of altitude 0 whose interior vertices avoid the x-axis.

    The empty path counts as 1.  The last entry of primitive_row(size).
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    return primitive_row(size)[-1]


def grand_row_stats(n_max: int) -> dict[str, list[int]]:
    """Per-size summaries for unconstrained (non-zigzag) paths in one DP pass.

    Returns lists indexed by size: total count, count ending at y >= 0,
    count ending at y > 0, count ending on the axis, and the sum of final
    altitudes over paths ending at y > 0.
    """
    total, nonneg, positive, axis, alt_sum = [], [], [], [], []
    for dist in altitude_distributions(n_max, PathConstraints()):
        total.append(_select(dist, ALL))
        nonneg.append(_select(dist, NONNEG))
        axis.append(_select(dist, 0))
        positive.append(nonneg[-1] - axis[-1])
        alt_sum.append(sum(y * n for y, n in dist.items() if y > 0))
    return dict(total=total, nonneg=nonneg, positive=positive, axis=axis, altitude_sum=alt_sum)
