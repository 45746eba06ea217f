"""Transfer-matrix engine: exact rational generating functions for bands.

A path confined to a two-sided band [lo, hi] is a walk on a finite graph, so
its generating function by size is rational: P/Q with Q = det(I - T) for the
graph's transfer matrix T (Flajolet & Sedgewick, *Analytic Combinatorics*,
2009, V.4-V.6; Banderier & Flajolet, "Basic analytic combinatorics of
directed lattice paths", TCS 281, 2002).

States.  A grand path's state is its altitude.  A zigzag path alternates
rising and falling steps, so its state is the altitude reached after a
falling step, and a transition is a rise followed by a fall (degree <= 4 in
z).  The start is a state of its own in both worlds: nothing returns to it,
it may fall first, and a first-direction filter restricts its row alone.
The states are ordered by altitude, with the start last.

The end vector v holds, per state, the ways to stop there: at once, or after
one final step (a final rise in the zigzag world), filtered by altitude and
last direction.  Then x = (I - T)^-1 v counts the paths from every state,
and the answer is x at the start.  With the start last, one fraction-free
Bareiss elimination of [I - T | v_1 ... v_r] over integer polynomials leaves
Q = det(I - T) as the last pivot and, beside it, each Cramer numerator
det(I - T with its last column replaced by v_t): no back substitution.
Every division in the elimination is exact; each is checked and raises
ArithmeticError if it is not.

The P/Q the elimination leaves is not in lowest terms (Q has up to twice
the degree it needs), so `band_gfs` divides both by gcd(P, Q), each division
checked exact, and `verify` certifies P Q_red = P_red Q in integers.

The matrix is banded: a zigzag transition moves the altitude by at most 1,
a grand step by at most 2.  A row with zeros left of the pivot column is
only ever scaled by the elimination, so it is left alone until the column
reaches it, and the cost grows with the band's span, not with the order.

The engine is independent of the DP and of the kernel-method series.
`verify` and the tests check its bands against the DP.  Its polynomial
arithmetic is that of `poly`, which it shares with `recurrences` but not
with the DP, the closed forms or `LaurentSeries`.
"""

from __future__ import annotations

from operator import add, sub
from typing import Sequence

from . import poly
from .paths import ALL, DOWN, NONNEG, STEP_ORDER, UP, PathConstraints, reach
from .poly import Poly, RationalGF

_STEPS = tuple((s.dx, s.dy, s.direction) for s in STEP_ORDER)


# -- the band's state graph ---------------------------------------------------------


def _selector(altitude):
    if isinstance(altitude, int):
        return lambda y: y == altitude
    if altitude == ALL:
        return lambda y: True
    if altitude == NONNEG:
        return lambda y: y >= 0
    raise ValueError(f"unknown altitude filter {altitude!r}")


def _moves(c: PathConstraints, y: int, start: bool) -> tuple[list, list]:
    """(transitions, finals) out of the state at altitude y.

    Each is a list of (altitude reached, degree in z, first direction, last
    direction); 0 marks the empty path, which has neither.  Finals end the
    path: a grand path stops where it stands (or, under a last-direction
    filter, after one final step); a zigzag path stops after its fall or
    after one final rise.
    """
    lo, hi = c.min_y, c.max_y
    steps = [(y + dy, dx, d) for dx, dy, d in _STEPS if lo <= y + dy <= hi]
    if not c.zigzag:
        moves = [(y2, dx, d, d) for y2, dx, d in steps]
        if c.last_dir is not None:
            return moves, moves
        return moves, [(y, 0, 0, 0)]
    rises = [(y2, dx, UP, UP) for y2, dx, d in steps if d == UP]
    moves = [
        (y2 + dy, dx1 + dx, UP, DOWN)
        for y2, dx1, _, _ in rises
        for dx, dy, d in _STEPS
        if d == DOWN and y2 + dy >= lo
    ]
    if start:
        moves += [(y2, dx, DOWN, DOWN) for y2, dx, d in steps if d == DOWN]
    here = 0 if start else DOWN
    return moves, rises + [(y, 0, here, here)]


def _system(c: PathConstraints, altitudes: Sequence) -> list[list[Poly]]:
    """The augmented matrix [I - T | v_1 ... v_r], one end vector per altitude filter."""
    states = list(range(c.min_y, c.max_y if c.zigzag else c.max_y + 1))
    n = len(states) + 1
    index = {y: i for i, y in enumerate(states)}
    selectors = [_selector(a) for a in altitudes]
    rows = []
    for i in range(n):
        start = i == n - 1
        moves, finals = _moves(c, 0 if start else states[i], start)
        if start and c.first_dir is not None:
            moves = [mv for mv in moves if mv[2] == c.first_dir]
            finals = [mv for mv in finals if mv[2] == c.first_dir]
        if c.last_dir is not None:
            finals = [mv for mv in finals if mv[3] == c.last_dir]
        row: list[Poly] = [[] for _ in range(n + len(selectors))]
        row[i] = [1]
        for y, degree, _, _ in moves:
            _bump(row, index[y], degree, -1)
        for t, sel in enumerate(selectors):
            for y, degree, _, _ in finals:
                if sel(y):
                    _bump(row, n + t, degree, 1)
        rows.append([poly.trim(p) for p in row])
    return rows


def _bump(row: list[Poly], j: int, degree: int, c: int) -> None:
    p = row[j]
    if len(p) <= degree:
        p.extend([0] * (degree + 1 - len(p)))
    p[degree] += c


# -- elimination ------------------------------------------------------------------------


def _bareiss_step(rows: list[list[Poly]], k: int, prev: Poly, touched: list[bool]) -> None:
    """Eliminate column k below the pivot rows[k][k], dividing by the last pivot.

    Afterwards rows[i][j] (i, j > k) is the minor of rows 0..k, i and columns
    0..k, j of the original matrix, a polynomial: the division by prev is
    exact unless an entry was corrupted, and then it raises.  A row with
    zeros in columns 0..k would only be scaled, to pivot times itself, so it
    is left as it was; once column k is nonzero the minor of such a row is
    pivot * row - row[k] * pivot row, with no division.
    """
    pivot = rows[k]
    p = pivot[k]
    for i in range(k + 1, len(rows)):
        row = rows[i]
        a = row[k]
        if not (a or touched[i]):
            continue
        for j in range(k + 1, len(row)):
            x, y = row[j], pivot[j]
            if a and y:
                num = poly.sub(poly.mul(p, x), poly.mul(a, y))
            elif x:
                num = poly.mul(p, x)
            else:
                continue  # zero stays zero
            row[j] = num if prev == [1] or not touched[i] else poly.divexact(num, prev)
        row[k] = []
        touched[i] = True


def _solve(rows: list[list[Poly]]) -> tuple[Poly, list[Poly]]:
    """(det(I - T), Cramer numerators for the last state) of an augmented matrix."""
    prev: Poly = [1]
    touched = [False] * len(rows)
    for k in range(len(rows)):
        if not touched[k]:  # left as it was by every step so far: stands for prev * row
            rows[k] = [poly.mul(prev, x) for x in rows[k]]
        _bareiss_step(rows, k, prev, touched)
        prev = rows[k][k]
    if not prev or prev[0] != 1:
        raise ArithmeticError(f"det(I - T) must be 1 at z = 0, got {prev[:1] or [0]}")
    return prev, rows[-1][len(rows) :]


# -- public entry points ----------------------------------------------------------------


def band_gfs(c: PathConstraints, altitudes: Sequence) -> list[RationalGF]:
    """Rational generating functions in lowest terms, one per altitude filter, for a two-sided band.

    c must bound both sides and carry no step-count filter; zigzag, first
    and last direction are honoured.  All filters share one elimination.
    Each result keeps the elimination's own (P, Q) as `unreduced`, which
    `verify` certifies it against.
    """
    if c.min_y is None or c.max_y is None:
        raise ValueError("the transfer engine needs both min_y and max_y")
    if c.steps is not None:
        raise ValueError("the transfer engine does not count steps")
    q, numerators = _solve(_system(c, altitudes))
    out = []
    for p in numerators:
        _, p_red, q_red = poly.cofactors(p, q)
        unit = q_red[0]  # the gcd divides Q and Q(0) = 1, so Q_red(0) = +-1: make it 1
        out.append(RationalGF(poly.shift(p_red, 0, unit), poly.shift(q_red, 0, unit)))
        out[-1].unreduced = p, q
    return out


def band_gf(c: PathConstraints, altitude=ALL) -> RationalGF:
    """The rational generating function of one altitude filter in a band, in lowest terms."""
    return band_gfs(c, (altitude,))[0]


def span_exact_row(k: int, count: int) -> list[int]:
    """Zigzag paths of sizes 0..count-1 whose altitude range is exactly k.

    A path of span exactly k fits a unique window [-m, k-m] (m is how far it
    dips); inclusion-exclusion over the window's walls counts the paths that
    touch both, and summing every window m = 0..k counts each path once.
    Folding to half the windows with a factor 2 would overcount when k is
    even: the symmetric window is its own mirror image.  Band totals are
    reflection-invariant, so each band and its mirror image are derived once.
    No zigzag path of these sizes leaves [-r, r], r = paths.reach(count - 1,
    True), so a wall past r is never touched: each window is clamped to
    [-r, r] first, and the cost is bounded by the sizes, however large k is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows: dict[tuple[int, int], list[int]] = {}
    r = max(reach(count - 1, True), 0)

    def band(m: int, top: int) -> list[int]:
        if m < 0 or top < 0:
            return [0] * count
        m, top = min(m, r), min(top, r)
        key = (min(m, top), max(m, top))
        if key not in rows:
            c = PathConstraints(zigzag=True, min_y=-key[0], max_y=key[1])
            rows[key] = band_gf(c).expand(count)
        return rows[key]

    out = [0] * count
    for m in range(k + 1):
        top = k - m
        out = list(map(add, out, map(sub, band(m, top), band(m - 1, top))))
        out = list(map(sub, out, map(sub, band(m, top - 1), band(m - 1, top - 1))))
    return out
