"""Truncated kernel-method series for `gf --name zigzag-nonneg`.

The zigzag kernel u^2*z^3 + u*z^4 + z^2*u + z^3 - u has two roots in u that
are ordinary Laurent series in z: the small one of valuation 3 and the
large one of valuation -3.  The kernel method (Banderier and Flajolet, TCS
281, 2002) builds from them, and from the boundary unknown of the paths
ending on the axis with a rise, the series of the zigzag paths ending at
altitude >= 0, which `gf --name zigzag-nonneg` prints.  The small root is
the integer row `recurrences.small_root_coeffs`, which `verify` certifies
against the kernel; the large one is their sum minus it.  So this module
checks the arithmetic of `recurrences.zigzag_nonneg_row`, which works the
same formula in Q(z)(r); the closed forms and the DP check both.  Every
other row, every band and every other `gf` name come from `recurrences`
and `transfer` instead.

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
    small, _ = zigzag_kernel_roots(order + 3)
    numer = small * LaurentSeries.from_poly({1: 1, 0: -1})
    denom = _mono(3) * (small * _mono(2) + LaurentSeries.from_poly({1: 1, 0: -1}))
    return _ensure_order(numer.divide(denom), order, "zigzag boundary gf")


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
