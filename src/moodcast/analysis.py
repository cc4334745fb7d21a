"""Time-series analysis: smoothing, gap handling, rolling correlation.

Operates on ``NumericSeries`` values: contiguous monthly axes with float or
None (missing) entries. Smoothing is a causal truncated Hamming window;
correlation is a centered rolling Pearson r with edge windows truncated
symmetrically and an exact t-test for significance. The t-test's tail comes
from ``scipy.special.stdtr``, imported by ``fisher_significance`` itself so
that only the stages that correlate pay for loading scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .months import MonthAxis, check_contiguous


@dataclass(frozen=True)
class NumericSeries:
    """A monthly numeric series on a checked ``MonthAxis``; None marks a missing month."""

    months: MonthAxis
    values: list[Optional[float]]

    def __post_init__(self) -> None:
        if len(self.months) != len(self.values):
            raise ValueError("months and values must have equal length")
        if not isinstance(self.months, MonthAxis):
            object.__setattr__(self, "months", check_contiguous(self.months, "numeric series"))

    def __len__(self) -> int:
        return len(self.months)


def hamming_weights(window_len: int) -> list[float]:
    """Hamming window coefficients 0.54 - 0.46 cos(2 pi k / (L - 1)).

    A length-1 window degenerates to the identity weight.
    """
    if window_len < 1:
        raise ValueError(f"window length must be >= 1, got {window_len}")
    if window_len == 1:
        return [1.0]
    return [
        0.54 - 0.46 * math.cos(2.0 * math.pi * k / (window_len - 1))
        for k in range(window_len)
    ]


def hamming_smooth(series: NumericSeries, window_len: int = 4) -> NumericSeries:
    """Causal Hamming smoothing, truncated and renormalized at the start.

    Output month t averages input months t, t-1, ... t-(L-1) with Hamming
    weights indexed so k=0 lands on month t itself. Near the start of the
    history the window is cut to the available months and the remaining
    weights are rescaled to sum to one. Outputs are clamped to the input's
    range, which rounding can leave by an ulp. Missing values are not allowed;
    resolve gaps first (see ``linear_interpolate``).
    """
    weights = hamming_weights(window_len)
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
        used = weights[:span]
        total = math.fsum(used)
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
        if hi - lo == 1:
            continue
        a = values[lo]
        b = values[hi]
        assert a is not None and b is not None
        for i in range(lo + 1, hi):
            frac = (i - lo) / (hi - lo)
            values[i] = a + frac * (b - a)
    return NumericSeries(months=series.months, values=values)


def fisher_significance(r: float, n: int, alpha: float = 0.05) -> tuple[float, bool]:
    """Two-sided p-value for a Pearson r under the null of zero correlation.

    Uses the exact relation t = r sqrt(n-2) / sqrt(1-r^2) with n-2 degrees
    of freedom. Returns (p_value, p_value < alpha). Callers must handle
    |r| = 1 themselves; here it would divide by zero.
    """
    if n < 3:
        raise ValueError(f"significance needs n >= 3, got {n}")
    if not -1.0 < r < 1.0:
        raise ValueError(f"r must lie strictly inside (-1, 1), got {r}")
    # Imported here so that only `correlate` and `run` pay for loading scipy.
    from scipy.special import stdtr

    t = r * math.sqrt(n - 2) / math.sqrt(1.0 - r * r)
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return p, p < alpha


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


@dataclass(frozen=True)
class CorrelationTrack:
    """Rolling-correlation results, one entry per month of the input axis."""

    months: MonthAxis
    r: list[Optional[float]]
    n_window: list[int]
    p_value: list[Optional[float]]
    significant: list[bool]

    def __post_init__(self) -> None:
        if not isinstance(self.months, MonthAxis):
            object.__setattr__(self, "months", check_contiguous(self.months, "correlation track"))


def rolling_correlation(
    x: NumericSeries,
    y: NumericSeries,
    window: int = 13,
    alpha: float = 0.05,
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
        n_out.append(n)
        gap = any(v is None for v in xs) or any(v is None for v in ys)
        r = None if gap else _pearson(xs, ys)  # type: ignore[arg-type]
        if r is None:
            r_out.append(None)
            p_out.append(None)
            sig_out.append(False)
            continue
        if n == 2:
            # Two non-constant points always correlate perfectly.
            r = 1.0 if r > 0 else -1.0
        r_out.append(r)
        if abs(r) == 1.0:
            p_out.append(0.0)
            sig_out.append(True)
            continue
        p, sig = fisher_significance(r, n, alpha)
        p_out.append(p)
        sig_out.append(sig)
    return CorrelationTrack(
        months=x.months, r=r_out, n_window=n_out, p_value=p_out, significant=sig_out
    )


__all__ = [
    "NumericSeries",
    "CorrelationTrack",
    "hamming_weights",
    "hamming_smooth",
    "linear_interpolate",
    "fisher_significance",
    "rolling_correlation",
]
