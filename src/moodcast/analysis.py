"""Time-series analysis: smoothing, gap handling, rolling correlation.

Operates on ``NumericSeries`` values: contiguous monthly axes with float or
None (missing) entries. Smoothing is a causal truncated Hamming window;
correlation is a centered rolling Pearson r with edge windows truncated
symmetrically and an exact t-test for significance. The t-test's tail is a
regularized incomplete beta function evaluated with the standard library
alone, so correlating loads neither numpy nor scipy.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from typing import Optional

from .months import MonthAxis, check_contiguous
from .records import Record


class NumericSeries(Record):
    """A monthly numeric series on a checked ``MonthAxis``; None marks a missing month."""

    __slots__ = ("months", "values")

    def __init__(self, months: Sequence[str], values: list[Optional[float]]) -> None:
        if len(months) != len(values):
            raise ValueError("months and values must have equal length")
        if not isinstance(months, MonthAxis):
            months = check_contiguous(months, "numeric series")
        super().__init__(months, values)

    def __len__(self) -> int:
        return len(self.months)

    def __getitem__(self, span: slice) -> NumericSeries:
        """The months of ``span`` and their values; a series is sliced, never indexed."""
        if not isinstance(span, slice):
            raise TypeError(f"a numeric series takes a slice, not {type(span).__name__}")
        return NumericSeries(self.months[span], self.values[span])

    __iter__ = None  # iterate ``months`` or ``values`` instead


def check_smooth_window(window_len: int) -> None:
    """Reject a smoothing window shorter than one month."""
    if window_len < 1:
        raise ValueError(f"window length must be >= 1, got {window_len}")


def hamming_weights(window_len: int, count: int) -> list[float]:
    """The first ``count`` coefficients 0.54 - 0.46 cos(2 pi k / (L - 1)) of a
    length-L Hamming window; a length-1 window degenerates to the identity weight."""
    check_smooth_window(window_len)
    if window_len == 1:
        return [1.0]
    return [
        0.54 - 0.46 * math.cos(2.0 * math.pi * k / (window_len - 1))
        for k in range(count)
    ]


def hamming_smooth(series: NumericSeries, window_len: int) -> NumericSeries:
    """Causal Hamming smoothing, truncated and renormalized at the start.

    Output month t averages input months t, t-1, ... t-(L-1) with Hamming
    weights indexed so k=0 lands on month t itself. Near the start of the
    history the window is cut to the available months and the remaining
    weights are rescaled to sum to one. Outputs are clamped to the input's
    range, which rounding can leave by an ulp. Missing values are not allowed;
    resolve gaps first (see ``linear_interpolate``). Only the weights that
    reach a month of the series are computed.
    """
    weights = hamming_weights(window_len, min(window_len, len(series)))
    if None in series.values:
        gap = series.months[series.values.index(None)]
        raise ValueError(
            f"cannot smooth a series with missing values (first gap at {gap}); "
            "apply a gap policy such as linear interpolation first"
        )
    lo, hi = min(series.values, default=0.0), max(series.values, default=0.0)
    out: list[Optional[float]] = []
    for t in range(len(series)):
        span = min(window_len, t + 1)
        total = math.fsum(weights[:span])
        acc = math.fsum(
            weights[k] * series.values[t - k]  # type: ignore[operator]
            for k in range(span)
        )
        out.append(min(max(acc / total, lo), hi))
    return NumericSeries(months=series.months, values=out)


def linear_interpolate(series: NumericSeries) -> NumericSeries:
    """Fill missing months by linear interpolation on the month index.

    Interior gaps interpolate between the nearest present neighbours; gaps
    at either edge extend the nearest present value. A series with no
    present values cannot be filled.
    """
    present = [i for i, v in enumerate(series.values) if v is not None]
    if not present:
        raise ValueError("cannot interpolate a series with no present values")
    values: list[Optional[float]] = list(series.values)
    first, last = present[0], present[-1]
    for i in range(first):
        values[i] = values[first]
    for i in range(last + 1, len(values)):
        values[i] = values[last]
    for lo, hi in zip(present, present[1:]):
        a = values[lo]
        b = values[hi]
        assert a is not None and b is not None
        for i in range(lo + 1, hi):
            frac = (i - lo) / (hi - lo)
            values[i] = a + frac * (b - a)
    return NumericSeries(months=series.months, values=values)


def fisher_significance(r: float, n: int, alpha: float) -> tuple[float, bool]:
    """Two-sided p-value for a Pearson r under the null of zero correlation.

    Uses the exact relation t = r sqrt(n-2) / sqrt(1-r^2) with n-2 degrees
    of freedom. Returns (p_value, p_value < alpha). Callers must handle
    |r| = 1 themselves; here it would divide by zero.
    """
    if n < 3:
        raise ValueError(f"significance needs n >= 3, got {n}")
    if not -1.0 < r < 1.0:
        raise ValueError(f"r must lie strictly inside (-1, 1), got {r}")
    t = r * math.sqrt(n - 2) / math.sqrt(1.0 - r * r)
    p = _student_t_two_sided(t, n - 2)
    return p, p < alpha


def _student_t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    This is the regularized incomplete beta function I_x(df/2, 1/2) at
    x = df / (df + t^2), from Lentz's continued fraction (Numerical Recipes,
    3rd ed., section 6.4), switched to 1 - I_(1-x)(1/2, df/2) where the
    fraction converges slowly. 1 - x is formed as t^2 / (df + t^2) and log x
    as -log1p(t^2 / df), so neither loses digits when t^2 is small against df.
    """
    t2 = t * t
    y = t2 / (df + t2)
    if y == 0.0:
        return 1.0
    a = 0.5 * df
    x = df / (df + t2)
    # log of x^a y^(1/2) / B(a, 1/2), with B(a, 1/2) = Gamma(a) sqrt(pi) / Gamma(a + 1/2).
    front = math.exp(
        _log_gamma_half_ratio(a) - 0.5 * math.log(math.pi)
        - a * math.log1p(t2 / df) + 0.5 * math.log(y)
    )
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


@functools.lru_cache(maxsize=256)
def _log_gamma_half_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) for a > 0, within a few ulps.

    ``math.lgamma(a + 0.5) - math.lgamma(a)`` would keep each term's absolute
    error, which grows with a (about 1e-11 at a = 10,000). Instead a is
    raised by Gamma(z + 1) = z Gamma(z) until Stirling's series is exact to
    double precision, and the two series are differenced term by term.
    Cached: a correlation run meets only a few window sizes.
    """
    shift = 1.0
    while a < 16.0:
        shift *= a / (a + 0.5)
        a += 1.0
    b = a + 0.5
    stirling = (
        (1.0 / b - 1.0 / a) / 12.0
        - (1.0 / b**3 - 1.0 / a**3) / 360.0
        + (1.0 / b**5 - 1.0 / a**5) / 1260.0
        - (1.0 / b**7 - 1.0 / a**7) / 1680.0
        + (1.0 / b**9 - 1.0 / a**9) / 1188.0
    )
    return math.log(shift) + a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5 + stirling


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        am = a + 2 * m
        for coefficient in (
            m * (b - m) * x / ((am - 1.0) * am),
            -(a + m) * (a + b + m) * x / (am * (am + 1.0)),
        ):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coefficient / c
            c = c if abs(c) > tiny else tiny
            step = d * c
            h *= step
        if abs(step - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _pearson(x: list[float], y: list[float]) -> Optional[float]:
    """Plain Pearson r; None when either side has zero variance."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def check_correlation_args(window: int, alpha: float) -> None:
    """Reject a correlation window that is even or below 3, or alpha outside (0, 1)."""
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


class CorrelationTrack(Record):
    """Rolling-correlation results, one entry per month of the input axis."""

    __slots__ = ("months", "r", "n_window", "p_value", "significant")

    def __init__(self, months: Sequence[str], r: list[Optional[float]], n_window: list[int],
                 p_value: list[Optional[float]], significant: list[bool]) -> None:
        if not isinstance(months, MonthAxis):
            months = check_contiguous(months, "correlation track")
        super().__init__(months, r, n_window, p_value, significant)


def rolling_correlation(
    x: NumericSeries, y: NumericSeries, window: int, alpha: float
) -> CorrelationTrack:
    """Centered rolling Pearson correlation with truncated edge windows.

    ``window`` must be odd and >= 3, and ``alpha`` in (0, 1). At month t
    the window covers [t - h, t + h] clipped to the axis, so edge windows
    shrink down to h + 1 months. Windows containing a missing value yield a
    missing r; windows where either side is constant also yield a missing
    r. A perfect |r| = 1 is reported with p = 0.
    """
    if x.months != y.months:
        raise ValueError("correlation inputs must share one month axis")
    check_correlation_args(window, alpha)
    h = (window - 1) // 2
    total = len(x.months)
    r_out: list[Optional[float]] = []
    n_out: list[int] = []
    p_out: list[Optional[float]] = []
    sig_out: list[bool] = []
    for t in range(total):
        lo = max(0, t - h)
        hi = min(total - 1, t + h)
        xs = x.values[lo : hi + 1]
        ys = y.values[lo : hi + 1]
        n = hi - lo + 1
        r = None if None in xs or None in ys else _pearson(xs, ys)  # type: ignore[arg-type]
        if r is None:
            p, significant = None, False
        elif n == 2 or abs(r) == 1.0:
            # Two non-constant points always correlate perfectly; a perfect r has p = 0.
            r, p, significant = (1.0 if r > 0 else -1.0), 0.0, True
        else:
            p, significant = fisher_significance(r, n, alpha)
        r_out.append(r)
        n_out.append(n)
        p_out.append(p)
        sig_out.append(significant)
    return CorrelationTrack(
        months=x.months, r=r_out, n_window=n_out, p_value=p_out, significant=sig_out
    )
