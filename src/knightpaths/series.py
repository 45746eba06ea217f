"""Truncated kernel-method series for grand zigzag knight's paths.

The zigzag kernel u^2*z^3 + u*z^4 + z^2*u + z^3 - u has two roots in u that
are ordinary Laurent series in z: the small one of valuation 3 and the
large one of valuation -3.  The kernel method (Banderier and Flajolet, TCS
281, 2002) builds every zigzag generating function here from them: the
paths ending at each altitude, at altitude >= 0 and the paths staying
above a line.  `gf --name zigzag-nonneg` prints the nonneg series.  The
small root is the integer row `recurrences.small_root_coeffs`, which
`verify` certifies against the kernel; the large one is their sum minus it.
So this module checks the arithmetic of the exact rows of `recurrences`,
which work the same formulas in Q(z)(r), in O(n) steps at any altitude or
line, and answer `gf --name zigzag-axis`, `zigzag-altitude` and
`above-line`; the closed forms and the DP check both.  Every grand row,
every band and the primitive axis-enders come from `recurrences` and
`transfer` instead.

Every divisor here has a lead of +1 or -1, so every series is integral.
Every public function is exact to its requested order in z and raises if
internal cancellation ever eats past it.  Each working order is the exact
precision loss of its derivation, read off the valuations involved by the
rules LaurentSeries propagates orders with: x*y is exact to
min(order(x) + val(y), order(y) + val(x)) and 1/x to order(x) - 2 val(x).
A surplus above the requested order is only what a derivation states.

The module also holds the rational generating functions the other engines
share, DEFAULT_ORDER and the parameter checks of the `gf` names.
"""

from __future__ import annotations

from . import recurrences
from .laurent import LaurentSeries
from .poly import RationalGF

DEFAULT_ORDER = 64

#: The least order zigzag_kernel_roots accepts; a working order below it is
#: raised to it (and the result has surplus).
ZIGZAG_LEAST = 6

#: All grand knight's paths by size: 1/(1 - 2z - 2z^2).
GRAND_TOTAL_GF = RationalGF([1], [1, -2, -2])

#: All grand zigzag knight's paths by size: (1 + z + z^2)/(1 - z - z^2).
ZIGZAG_TOTAL_GF = RationalGF([1, 1, 1], [1, -1, -1])

#: Zigzag paths inside the band [-1, +1] ending on the x-axis:
#: (-z^4 + z - 1)/(z^4 + z - 1).
TUBE1_AXIS_GF = RationalGF([-1, 1, 0, 0, -1], [-1, 1, 0, 0, 1])


def _mono(exponent: int) -> LaurentSeries:
    return LaurentSeries.from_poly({exponent: 1})


def check_positive(name: str, value: int) -> None:
    """Raise ValueError unless a band parameter is at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def check_band(m: int, M: int) -> None:
    """Raise ValueError unless [-m, +M] is a band `gf --name tube` takes.

    It reaches at least as far up as down (m <= M); [-M, +m] is its reflection.
    """
    if not 0 <= m <= M:
        raise ValueError("band bounds must satisfy 0 <= m <= M")
    if M == 0:
        raise ValueError("band [-0, +0] admits no steps; only the empty path")


# The boundary series is derived once per process (the small root it is
# built from is a stored row of `recurrences`).  The memo keeps it at the
# highest order asked for so far; a request at that order or below gets it
# truncated to exactly what a fresh derivation would return.  The order a
# derivation reaches is the request plus a constant, so a request `top - d`
# drops d from the stored order.  A truncation never reaches past the
# stored order, so every coefficient it keeps is exact.
_memo: dict[str, tuple[int, LaurentSeries]] = {}


def _ensure_order(series: LaurentSeries, needed: int, what: str) -> LaurentSeries:
    if series.order is not None and series.order < needed:
        raise ArithmeticError(
            f"{what}: internal cancellation left only order {series.order}, "
            f"needed {needed} (raise the working guard)"
        )
    return series


def int_coefficients(series: LaurentSeries, count: int) -> list[int]:
    """Coefficients 0..count-1 of an ordinary series; raises past its order."""
    if series.order is not None and count > series.order:
        series.coefficient(max(series.order, 0))  # past the order: raises
    return series.window(0, count)


#: The sum of the two kernel roots, z^-3 (1 - z^2 - z^4).
_ROOT_SUM = LaurentSeries.from_poly({-3: 1, -1: -1, 1: -1})


def zigzag_kernel_roots(order: int = DEFAULT_ORDER) -> tuple[LaurentSeries, LaurentSeries]:
    """(small, large) roots in u of u^2*z^3 + u*z^4 + z^2*u + z^3 - u.

    The small root has valuation 3 and is the certified integer row
    `recurrences.small_root_coeffs`; the large one is Laurent with valuation
    -3, the roots' sum z^-3 (1 - z^2 - z^4) minus the small one; their
    product is exactly 1.  Both are exact to z^order.
    """
    if order < ZIGZAG_LEAST:
        raise ValueError(f"order must be at least {ZIGZAG_LEAST}")
    small = LaurentSeries(0, recurrences.small_root_coeffs(order), order)
    return small, _ROOT_SUM - small


def zigzag_boundary_gf(order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Axis-enders whose final step rises, plus the empty path.

    The kernel-method boundary unknown for the zigzag world; the full
    axis-enders count is twice this minus one (the empty path is in the
    rising class but has no mirror).  Exact to z^order, for order >= 3.
    """
    # numer and denom both have valuation 3 and are exact to z^R and
    # z^(R + 5); 1/denom is exact to z^(R - 1), so the quotient to z^(R - 3)
    small, _ = zigzag_kernel_roots(order + 3)  # first: its order check runs on a hit too
    entry = _memo.get("zigzag boundary")
    if entry is not None and order <= entry[0]:
        top, boundary = entry
        return boundary.truncate(boundary.order - (top - order))
    boundary = _derive_zigzag_boundary(order, small)
    _memo["zigzag boundary"] = order, boundary
    return boundary


def _derive_zigzag_boundary(order: int, small: LaurentSeries) -> LaurentSeries:
    numer = small * LaurentSeries.from_poly({1: 1, 0: -1})
    denom = _mono(3) * (small * _mono(2) + LaurentSeries.from_poly({1: 1, 0: -1}))
    return _ensure_order(numer.divide(denom), order, "zigzag boundary gf")


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
        bundle = one + small * (small + z + 2 * z2 * up_axis)
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


def above_line_gf(m: int, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Zigzag paths staying weakly above y = -m (m >= 1), by size.

    Exact to z^order.
    """
    check_positive("m", m)
    # small^j (valuation 3j) is exact to z^(R + 3j - 3), and small^0 = 1 exactly.
    # m = 1: numer keeps z^(R + 2).  m >= 2: numer keeps z^(R + 3m - 5) through
    # z small^(m-1); the exact divisor is inverted to z^order
    loss = -2 if m == 1 else 5 - 3 * m
    small, _ = zigzag_kernel_roots(max(order + loss, ZIGZAG_LEAST))
    z, z2 = _mono(1), _mono(2)
    low = small ** (m - 1)
    numer = low * (z + small * (z2 + small)) - LaurentSeries.from_poly({2: 1, 1: 1, 0: 1})
    total = numer.divide(LaurentSeries.from_poly({2: 1, 1: 1, 0: -1}), order=order)
    return _ensure_order(total, order, "above-line total")
