"""Exact generating-function engines via the kernel method.

Two worlds share the LaurentSeries type:

* Grand knight's paths (no zigzag constraint).  The kernel
  K(u) = u^2 - z*u^4 - z - z^2*u - z^2*u^3 has two large roots whose radical
  expressions involve sqrt(z^4 + 8z^2 + 4z), which is not a power series in
  z.  All grand-side computations therefore run in the half-power variable
  w with w**2 = z; final answers must be even in w (checked, never rounded).

* Grand zigzag knight's paths.  The kernel u^2*z^3 + u*z^4 + z^2*u + z^3 - u
  has roots that are ordinary Laurent series in z itself, so the zigzag side
  works directly in z.

The bounded-band engine, tube_gf, cancels the kernel numerator at both
roots (a 2x2 linear solve for the two unknown boundary series) and then
recovers the full altitude-resolved polynomial in u by exact long division;
the division remainder must vanish identically, which doubles as a
certificate.  Band queries are answered by the transfer-matrix engine
(knightpaths.transfer); tube_gf is the independent check on its numbers.

Every public function is exact to its requested order in z (2 * order in
w) and raises if internal cancellation ever eats past it.  Each working
order is the exact precision loss of its derivation, read off the
valuations involved by the rules LaurentSeries propagates orders with: x*y
is exact to min(order(x) + val(y), order(y) + val(x)), 1/x to
order(x) - 2 val(x) and sqrt(x) to order(x) - val(x) / 2.  The grand roots
have valuation -1 in w; the zigzag roots 3 (small) and -3 (large) in z.
A surplus above the requested order is only what a derivation states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentSeries, RationalGF

DEFAULT_ORDER = 64

#: The least orders grand_kernel_roots and zigzag_kernel_roots accept; a
#: working order below them is raised to them (and the result has surplus).
GRAND_LEAST, ZIGZAG_LEAST = 4, 6

#: All grand knight's paths by size: 1/(1 - 2z - 2z^2).
GRAND_TOTAL_GF = RationalGF([1], [1, -2, -2])

#: All grand zigzag knight's paths by size: (1 + z + z^2)/(1 - z - z^2).
ZIGZAG_TOTAL_GF = RationalGF([1, 1, 1], [1, -1, -1])

#: Zigzag paths inside the band [-1, +1] ending on the x-axis:
#: (-z^4 + z - 1)/(z^4 + z - 1).
TUBE1_AXIS_GF = RationalGF([-1, 1, 0, 0, -1], [-1, 1, 0, 0, 1])


def _mono(exponent: int, coeff=1) -> LaurentSeries:
    return LaurentSeries.from_poly({exponent: coeff})


def check_positive(name: str, value: int) -> None:
    """Raise ValueError unless a band parameter is at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def check_band(m: int, M: int) -> None:
    """Raise ValueError unless [-m, +M] is a band tube_gf solves."""
    if not 0 <= m <= M:
        raise ValueError("band bounds must satisfy 0 <= m <= M")
    if M == 0:
        raise ValueError("band [-0, +0] admits no steps; only the empty path")


# The kernel roots and boundary series are derived once per process.  Each
# memoised function keeps one entry, the result at the highest order asked
# for so far; a request at that order or below gets the entry truncated to
# exactly what a fresh derivation would return.  The order a derivation
# reaches is affine in the request, with slope 1 in z and 2 in w (w**2 = z),
# so a request `top - d` drops slope * d from each stored order.  A truncation
# never reaches past the stored order, so every coefficient it keeps is exact.
_memo: dict[str, tuple[int, tuple[LaurentSeries, ...]]] = {}


def _memoised(key: str, order: int, slope: int, derive, *args) -> tuple[LaurentSeries, ...]:
    """derive(order, *args), or the stored entry truncated to what it would return."""
    entry = _memo.get(key)
    if entry is not None and order <= entry[0]:
        top, result = entry
        drop = slope * (top - order)
        return tuple(s.truncate(s.order - drop) for s in result)
    result = derive(order, *args)
    _memo[key] = (order, result)
    return result


def _ensure_order(series: LaurentSeries, needed: int, what: str) -> LaurentSeries:
    if series.order is not None and series.order < needed:
        raise ArithmeticError(
            f"{what}: internal cancellation left only order {series.order}, "
            f"needed {needed} (raise the working guard)"
        )
    return series


def z_coefficients(series: LaurentSeries, count: int) -> list[Fraction]:
    """Read z-coefficients 0..count-1 out of a w-series (w**2 = z).

    Raises if any odd-w coefficient below the window is nonzero: a final
    answer that fails parity purity indicates an algebra bug upstream.
    """
    top = 2 * count
    if series.order is not None:
        top = min(top, series.order)
    lo = min(series.valuation, 0)
    nums = series.numerators(lo, top)
    for i, n in enumerate(nums, lo):
        if i % 2 and n:
            raise ArithmeticError(
                f"odd half-power coefficient at w^{i} is {Fraction(n, series.den)}"
            )
    if count > 0 and 2 * (count - 1) >= top:
        series.coefficient(max(top + top % 2, 0))  # past the order: raises
    return [Fraction(n, series.den) for n in nums[-lo::2]]


def int_coefficients(series: LaurentSeries, count: int) -> list[int]:
    """Coefficients 0..count-1 of an ordinary series, demanded integral."""
    top = count if series.order is None else max(min(count, series.order), 0)
    out, den = series.numerators(0, top), series.den
    if den != 1:
        for i, n in enumerate(out):
            if n % den:
                raise ArithmeticError(
                    f"coefficient of index {i} is not integral: {Fraction(n, den)}"
                )
        out = [n // den for n in out]
    if top < count:
        series.coefficient(top)  # past the order: raises
    return out


# ---------------------------------------------------------------------------
# grand knight's paths (half-power world, w**2 = z)
# ---------------------------------------------------------------------------


def grand_kernel_roots(order: int = DEFAULT_ORDER) -> tuple[LaurentSeries, LaurentSeries]:
    """The two large roots (in u) of u^2 - z*u^4 - z - z^2*u - z^2*u^3.

    Returned as Laurent series in w (w**2 = z), both of valuation -1 and
    exact to w^(2 order): their product (valuation -2) is then exact to
    w^(2 order - 1), so z-coefficients 0..order-1 of the root sum and product
    can be read.  The radical formulas are evaluated exactly; sqrt arguments
    are rescaled so their leading coefficients are rational squares.
    """
    if order < GRAND_LEAST:
        raise ValueError(f"order must be at least {GRAND_LEAST}")
    return _memoised("grand roots", order, 2, _derive_grand_roots)


def _derive_grand_roots(order: int) -> tuple[LaurentSeries, LaurentSeries]:
    z = _mono(2)
    # z^4 + 8z^2 + 4z = w^8 + 8w^4 + 4w^2; its sqrt (valuation 1) to relative
    # order rel is exact to w^(rel + 1), and times w^-2 / 4 to w^(rel - 1)
    rel = 2 * order + 1
    radical = LaurentSeries.from_poly({8: 1, 4: 8, 2: 4}).sqrt(order=rel)
    quarter_z = _mono(-2, Fraction(1, 4))
    base = LaurentSeries.from_poly({6: 1, 2: -4, 0: 2})  # z^3 - 4z + 2 in w
    eighth_z = _mono(-2, Fraction(1, 8))
    root1 = (_mono(4, -1) + radical) * quarter_z + ((base - z * radical) * eighth_z).sqrt()
    root2 = (_mono(4, -1) - radical) * quarter_z - ((base + z * radical) * eighth_z).sqrt()
    # the inner sqrt (argument of valuation -2, exact to w^(rel + 1)) keeps
    # w^(rel + 2), so both roots are exact to w^(rel - 1) = w^(2 order)
    needed = 2 * order
    return _ensure_order(root1, needed, "grand root"), _ensure_order(
        root2, needed, "grand root"
    )


def grand_kernel_value(u: LaurentSeries) -> LaurentSeries:
    """K(u) in the w world; identically zero (to order) at a kernel root."""
    z = _mono(2)
    z2 = _mono(4)
    return u * u - z * u**4 - z - z2 * u - z2 * u**3


def grand_kernel_residuals(order: int = 50) -> tuple[LaurentSeries, LaurentSeries]:
    """Kernel evaluated at both computed roots; certificate series.

    Exact to w^(2 order + 1): one more than asked, the rounding of the roots'
    even order.
    """
    # u^2 and z u^4 (u of valuation -1, exact to w^R) are exact to w^(R - 1)
    r1, r2 = grand_kernel_roots(max(order + 1, GRAND_LEAST))
    return grand_kernel_value(r1), grand_kernel_value(r2)


def _grand_boundary(order: int) -> tuple[LaurentSeries, LaurentSeries, LaurentSeries, LaurentSeries]:
    """(axis GF, altitude-1 GF, root1, root2), all in w.

    The roots are exact to w^(2 order), the axis GF to w^(2 order + 1) and
    the altitude-1 GF to w^(2 order + 2).
    """
    root1, root2 = grand_kernel_roots(order)
    axis, alt1 = _memoised("grand boundary", order, 2, _derive_grand_boundary, root1, root2)
    return axis, alt1, root1, root2


def _derive_grand_boundary(
    order: int, root1: LaurentSeries, root2: LaurentSeries
) -> tuple[LaurentSeries, LaurentSeries]:
    # prod and denom have valuation -2 and are exact to w^(R - 1) (roots to
    # w^R); 1/denom (valuation 2) to w^(R + 3), so axis to w^(R + 1), and
    # total/(1 + prod) (valuation 4) to w^(R + 2), so alt1 to w^(R + 2)
    z = _mono(2)
    prod = root1 * root2
    total = root1 + root2
    one = _mono(0)
    denom = (
        one
        + prod
        - 2 * z * z * total
        - 2 * z
        + 2 * z * (one - root1 * root1 - root2 * root2) * prod.inverse()
    )
    axis = (one + prod).divide(denom)
    alt1 = total.divide(one + prod) * axis
    needed = 2 * order
    return (
        _ensure_order(axis, needed, "grand axis gf"),
        _ensure_order(alt1, needed, "grand altitude-1 gf"),
    )


def grand_boundary_gfs(order: int = DEFAULT_ORDER) -> tuple[LaurentSeries, LaurentSeries]:
    """Generating functions for paths ending at altitude 0 and altitude 1.

    These are the two unknowns the kernel method pins down; every other
    grand-side generating function is built from them.  Exact to
    w^(2 order + 1) and w^(2 order + 2) (order raised to GRAND_LEAST).
    """
    axis, alt1, _, _ = _grand_boundary(max(order, GRAND_LEAST))
    return axis, alt1


def grand_altitude_gf(k: int, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Series (in w) whose z-coefficients count paths of size n, altitude k.

    Exact to w^(2 order + 1) for even k and to w^(2 order) for odd k, once
    the working order is at least GRAND_LEAST.
    """
    if k < 0:
        raise ValueError("altitude index must be >= 0 (counts are symmetric in k)")
    # a and b are exact to w^(R + 1) (roots to w^R) and root^-1 has valuation 1,
    # so a root^-k is exact to w^(R + 1 + k): R = 2 order - 1 - k, rounded up to even
    axis, alt1, root1, root2 = _grand_boundary(max(order - (k + 1) // 2, GRAND_LEAST))
    gap = root1 - root2
    a = (axis * root1 - alt1).divide(gap)
    b = (axis * root2 - alt1).divide(gap)
    out = a * root2.inverse() ** k - b * root1.inverse() ** k
    return _ensure_order(out, 2 * order, f"grand altitude {k} gf")


def grand_totals(order: int = DEFAULT_ORDER) -> tuple[LaurentSeries, LaurentSeries]:
    """(count, altitude sum) series over paths ending at altitude >= 0.

    The second component is the u-derivative of the altitude-marked
    generating function at u = 1, i.e. sum of final altitudes.  Exact to
    w^(2 order + 1) and w^(2 order + 2) (order raised to GRAND_LEAST).
    """
    # (1 - r1)(1 - r2) has valuation -2 and is exact to w^(R - 1), so its
    # inverse to w^(R + 3) and its squared inverse (valuation 4) to w^(R + 5);
    # h1's numerator (valuation -2, exact to w^(R - 1)) leaves w^(R + 1), and
    # dh1's (valuation -2, exact to w^(R - 2)) leaves w^(R + 2)
    axis, alt1, root1, root2 = _grand_boundary(max(order, GRAND_LEAST))
    one = _mono(0)
    prod = root1 * root2
    h1 = (axis * prod - alt1).divide((one - root1) * (one - root2))
    numer = axis * root1 * root1 * root2 + prod * (axis * root2 - 2 * axis - alt1) + alt1
    dh1 = numer.divide(((one - root1) * (one - root2)) ** 2)
    needed = 2 * order
    return (
        _ensure_order(h1, needed, "grand nonneg total"),
        _ensure_order(dh1, needed, "grand altitude sum"),
    )


# ---------------------------------------------------------------------------
# grand zigzag knight's paths (ordinary z world)
# ---------------------------------------------------------------------------


def zigzag_kernel_roots(order: int = DEFAULT_ORDER) -> tuple[LaurentSeries, LaurentSeries]:
    """(small, large) roots in u of u^2*z^3 + u*z^4 + z^2*u + z^3 - u.

    The small root has valuation 3; the large one is Laurent with valuation
    -3; their product is exactly 1.  Both are exact to z^order.  Raises if
    the radical numerator fails to cancel below z^3 before the division by
    2z^3.
    """
    if order < ZIGZAG_LEAST:
        raise ValueError(f"order must be at least {ZIGZAG_LEAST}")
    return _memoised("zigzag roots", order, 1, _derive_zigzag_roots)


def _derive_zigzag_roots(order: int) -> tuple[LaurentSeries, LaurentSeries]:
    W = order + 3  # the radical is exact to z^W; the division by 2z^3 loses 3
    disc = LaurentSeries.from_poly({8: 1, 6: -2, 4: -1, 2: -2, 0: 1})
    radical = disc.sqrt(order=W)
    lead = LaurentSeries.from_poly({0: 1, 2: -1, 4: -1})
    numer = lead - radical
    if not numer.is_zero() and numer.valuation < 3:
        raise ArithmeticError(
            f"small-root numerator has valuation {numer.valuation}, expected >= 3"
        )
    half_shift = _mono(-3, Fraction(1, 2))
    small = numer * half_shift
    large = (lead + radical) * half_shift
    return small, large


def zigzag_kernel_value(u: LaurentSeries) -> LaurentSeries:
    z2, z3, z4 = _mono(2), _mono(3), _mono(4)
    return u * u * z3 + u * z4 + z2 * u + z3 - u


def zigzag_kernel_residuals(order: int = 50) -> tuple[LaurentSeries, LaurentSeries]:
    # every term of the kernel keeps z^R at either root: z^3 u^2 at the large
    # one is exact to z^(R - 3 + 3), and -u to z^R
    small, large = zigzag_kernel_roots(max(order, ZIGZAG_LEAST))
    return zigzag_kernel_value(small), zigzag_kernel_value(large)


def zigzag_boundary_gf(order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Axis-enders whose final step rises, plus the empty path.

    The kernel-method boundary unknown for the zigzag world; the full
    axis-enders count is twice this minus one (the empty path is in the
    rising class but has no mirror).  Exact to z^order, for order >= 3.
    """
    # numer and denom both have valuation 3 and are exact to z^R and
    # z^(R + 5); 1/denom is exact to z^(R - 1), so the quotient to z^(R - 3)
    small, _ = zigzag_kernel_roots(order + 3)
    (boundary,) = _memoised("zigzag boundary", order, 1, _derive_zigzag_boundary, small)
    return boundary


def _derive_zigzag_boundary(order: int, small: LaurentSeries) -> tuple[LaurentSeries]:
    numer = small * LaurentSeries.from_poly({1: 1, 0: -1})
    denom = _mono(3) * (small * _mono(2) + LaurentSeries.from_poly({1: 1, 0: -1}))
    return (_ensure_order(numer.divide(denom), order, "zigzag boundary gf"),)


def zigzag_altitude_gf(k: int, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Counts of zigzag paths of size n ending at altitude k (k >= 0).

    Exact to z^order once the working order is at least ZIGZAG_LEAST.
    """
    if k < 0:
        raise ValueError("altitude index must be >= 0 (counts are symmetric in k)")
    # roots and boundary exact to z^R.  k = 0: 2 up - 1 keeps z^R.  k = 1: the
    # numerator (valuation 1) is exact to z^R and 1/(z^2 large) has valuation 1,
    # so z^(R + 1).  k >= 2: small^(k-1) (valuation 3(k-1)) is exact to
    # z^(R + 3(k-2)) and the bundle (valuation 0) to z^(R + 1), so after z^-2
    # the result is exact to z^(R + 3k - 8)
    loss = 0 if k == 0 else -1 if k == 1 else 8 - 3 * k
    work = max(order + loss, ZIGZAG_LEAST)
    small, large = zigzag_kernel_roots(work)
    up_axis = zigzag_boundary_gf(work)
    one = _mono(0)
    z, z2 = _mono(1), _mono(2)
    if k == 0:
        out = 2 * up_axis - one
    elif k == 1:
        out = (small + z + 2 * z2 * up_axis).divide(z2 * large)
    else:
        bundle = one + small * (small + z) + 2 * small * z2 * up_axis
        out = small ** (k - 1) * bundle * _mono(-2)
    return _ensure_order(out, order, f"zigzag altitude {k} gf")


def zigzag_nonneg_gf(order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Counts of zigzag paths ending at altitude >= 0; exact to z^order."""
    # z^2 large (2 up - 1) has valuation -1 and is exact to z^(R - 1), and
    # 1/(z^2 (1 - large)) has valuation 1: the quotient keeps z^R
    work = max(order, ZIGZAG_LEAST)
    small, large = zigzag_kernel_roots(work)
    up_axis = zigzag_boundary_gf(work)
    one = _mono(0)
    numer = one + small + _mono(1) + _mono(2) + _mono(2) * large * (2 * up_axis - one)
    out = -numer.divide(_mono(2) * (one - large))
    return _ensure_order(out, order, "zigzag nonneg gf")


def zigzag_altitude_sum_gf(order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Sum of final altitudes over zigzag paths ending at altitude >= 0.

    Assembled from the per-altitude closed forms: the altitude-1 series
    plus sum(k * small^(k-1), k >= 2) against the shared altitude bundle.
    Exact to z^order.
    """
    # the bundle times z^-2 (valuation -2) is exact to z^(R - 1) and the tail
    # (valuation 3) to z^R, so their product to z^(R - 2)
    work = max(order + 2, ZIGZAG_LEAST)
    small, _ = zigzag_kernel_roots(work)
    up_axis = zigzag_boundary_gf(work)
    one = _mono(0)
    z, z2 = _mono(1), _mono(2)
    alt1 = zigzag_altitude_gf(1, order)
    bundle = one + small * (small + z) + 2 * small * z2 * up_axis
    tail = (2 * small - small * small).divide((one - small) ** 2)
    out = alt1 + bundle * _mono(-2) * tail
    return _ensure_order(out, order, "zigzag altitude-sum gf")


def zigzag_primitive_gf(order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Counts of zigzag axis-enders touching the x-axis only at the ends.

    Exact to z^order.
    """
    # numer and denom have valuation 3 and are exact to z^R; 1/denom is
    # exact to z^(R - 6), so the quotient to z^(R - 3)
    work = max(order + 3, ZIGZAG_LEAST)
    small, _ = zigzag_kernel_roots(work)
    numer = (
        2 * _mono(5) * small
        + LaurentSeries.from_poly({4: 2, 3: -2})
        - 3 * small * _mono(1)
        + 3 * small
    )
    denom = small * LaurentSeries.from_poly({0: 1, 1: -1})
    return _ensure_order(numer.divide(denom), order, "zigzag primitive gf")


def above_line_gf(
    m: int, order: int = DEFAULT_ORDER
) -> tuple[LaurentSeries, LaurentSeries]:
    """Zigzag paths staying weakly above y = -m (m >= 1).

    Returns (total, bottom_edge): total counts all such paths by size;
    bottom_edge is the boundary series for paths ending at altitude -m+1
    with a rising step (the empty path included when m = 1).  Both are
    exact to z^order once the working order is at least ZIGZAG_LEAST.
    """
    check_positive("m", m)
    # small^j (valuation 3j) is exact to z^(R + 3j - 3), and small^0 = 1 exactly.
    # m = 1: numer keeps z^(R + 2), bottom z^(R + 1).  m >= 2: numer keeps
    # z^(R + 3m - 5) through z small^(m-1), bottom z^(R + 3m - 6); the exact
    # divisor of the total is inverted to z^order
    loss = -1 if m == 1 else 6 - 3 * m
    small, _ = zigzag_kernel_roots(max(order + loss, ZIGZAG_LEAST))
    z, z2 = _mono(1), _mono(2)
    one = _mono(0)
    numer = (
        z * small ** (m - 1)
        + z2 * small**m
        + small ** (m + 1)
        - LaurentSeries.from_poly({2: 1, 1: 1, 0: 1})
    )
    total = numer.divide(LaurentSeries.from_poly({2: 1, 1: 1, 0: -1}), order=order)
    bottom = (one + z * small) * small ** (m - 1) + small ** (m + 1) * _mono(-1)
    return (
        _ensure_order(total, order, "above-line total"),
        _ensure_order(bottom, order, "above-line bottom edge"),
    )


@dataclass(frozen=True)
class TubeSeries:
    """Altitude-resolved generating functions for a band [-m, +M].

    up[j] counts paths ending at altitude -m+j with a rising final step
    (the empty path is included in up[m]); down[j] the falling counterpart.
    """

    m: int
    M: int
    up: tuple[LaurentSeries, ...]
    down: tuple[LaurentSeries, ...]

    def altitude(self, y: int) -> LaurentSeries:
        if not -self.m <= y <= self.M:
            raise ValueError(f"altitude {y} outside band [-{self.m}, {self.M}]")
        j = y + self.m
        return self.up[j] + self.down[j]

    def axis(self) -> LaurentSeries:
        return self.altitude(0)

    def total(self) -> LaurentSeries:
        acc = LaurentSeries.zero(self.up[0].order)
        for s in self.up:
            acc = acc + s
        for s in self.down:
            acc = acc + s
        return acc


def tube_gf(m: int, M: int, order: int = DEFAULT_ORDER) -> TubeSeries:
    """Full altitude-resolved solution for the band [-m, +M].

    Cancels the kernel numerator at both roots (2x2 solve for the two
    boundary unknowns), then long-divides the numerator polynomial by the
    kernel to recover every altitude slice.  The division remainder must
    vanish identically; a nonzero remainder raises.

    m = M = 0 is rejected: no step keeps y = 0, so the band is trivial.
    Requires m <= M; a band with the deeper side below is the reflection of
    one with it above, so swap the bounds and flip altitudes at the caller.

    up[j] is exact to z^(order + 3j) and down[j] to z^order, once the
    working order is at least ZIGZAG_LEAST.
    """
    check_band(m, M)
    span = m + M
    # roots exact to z^R: z large^(m+3) in edge_rhs(large) keeps z^(R - 3m - 5),
    # a1 (valuation 6) times it z^(R - 3m - 5), and 1/det (valuation
    # 3 span - 3) lifts top to z^(R + 3M - 8); each of the span + 1 division
    # steps by z^3 then loses 3, leaving up[j] exact to z^(R - 3m - 8 + 3j).
    # M = 1 has no step N: top keeps z^(R - 1) at m = 1 (edge_rhs(large) to
    # z^(R - 3m - 1)) and z^(R - 4) at m = 0 (a2 c1), so up[0] keeps z^(R - 7)
    loss = 7 if M == 1 else 3 * m + 8
    small, large = zigzag_kernel_roots(max(order + loss, ZIGZAG_LEAST))
    one = _mono(0)
    z, z2, z3 = _mono(1), _mono(2), _mono(3)
    has_n_room = M >= 2  # the single step N ends at +2 and must fit the band
    has_eps_at_zero = m == 0  # rising class at the floor holds only the empty path

    def edge_rhs(root: LaurentSeries) -> LaurentSeries:
        v = root ** (m + 1) + z2 * root ** (m + 2)
        if has_n_room:
            v = v + z * root ** (m + 3)
        if has_eps_at_zero:
            v = v - z2 * (z + root) * (one + z * root)
        return v

    a1 = z2 * small * (z + small)
    b1 = z3 * small ** (span + 2)
    a2 = z2 * large * (z + large)
    b2 = z3 * large ** (span + 2)
    c1, c2 = edge_rhs(small), edge_rhs(large)
    det = a1 * b2 - a2 * b1
    bottom = (c1 * b2 - c2 * b1).divide(det)
    top = (a1 * c2 - a2 * c1).divide(det)

    # numerator polynomial in u, then exact division by the kernel quadratic
    degree = span + 2
    numer: dict[int, LaurentSeries] = {j: LaurentSeries.zero(None) for j in range(degree + 1)}

    def add_term(j: int, s: LaurentSeries) -> None:
        numer[j] = numer[j] + s

    add_term(m + 1, one)
    add_term(m + 2, z2)
    if has_n_room:
        add_term(m + 3, z)
    add_term(span + 2, -(z3 * top))
    add_term(1, -(z3 * bottom))
    add_term(2, -(z2 * bottom))
    if has_eps_at_zero:
        add_term(0, -z3)
        add_term(1, -(z2 * LaurentSeries.from_poly({0: 1, 2: 1})))
        add_term(2, -z3)

    mid = LaurentSeries.from_poly({4: 1, 2: 1, 0: -1})  # u-coefficient of the kernel
    shift = _mono(-3)  # divide by the kernel's leading z^3
    quotient: dict[int, LaurentSeries] = {}
    work_poly = dict(numer)
    for j in range(degree, 1, -1):
        qj = work_poly[j] * shift
        quotient[j - 2] = qj
        work_poly[j] = work_poly[j] - qj * z3
        work_poly[j - 1] = work_poly[j - 1] - qj * mid
        work_poly[j - 2] = work_poly[j - 2] - qj * z3
    for j in (1, 0):
        if not work_poly[j].is_zero():
            raise ArithmeticError(
                f"band [-{m},{M}]: kernel division left a nonzero remainder at u^{j}"
            )

    up = []
    for j in range(span + 1):
        s = -quotient.get(j, LaurentSeries.zero(order))
        up.append(_ensure_order(s, order, f"band [-{m},{M}] altitude slice"))
    down = []
    for j in range(span + 1):
        acc = LaurentSeries.zero(order)
        if j + 2 <= span:
            acc = acc + z * up[j + 2]
        if j + 1 <= span:
            acc = acc + z2 * up[j + 1]
        down.append(_ensure_order(acc, order, f"band [-{m},{M}] altitude slice"))
    return TubeSeries(m, M, tuple(up), tuple(down))
