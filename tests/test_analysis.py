import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from moodcast.analysis import (
    NumericSeries,
    fisher_significance,
    hamming_smooth,
    hamming_weights,
    linear_interpolate,
    rolling_correlation,
)
from moodcast.months import MonthAxis, month_ord, ord_month


def ns(values, first="2000-01"):
    start = month_ord(first)
    months = [ord_month(start + i) for i in range(len(values))]
    return NumericSeries(months=months, values=list(values))


def t_tail_by_quadrature(t_stat, dof):
    """Two-sided tail mass of the t distribution, integrated numerically."""
    coeff = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2))
    coeff /= math.sqrt(dof * math.pi)

    def pdf(u):
        return coeff * (1.0 + u * u / dof) ** (-(dof + 1) / 2)

    tail, _ = quad(pdf, abs(t_stat), math.inf)
    return 2.0 * tail


class TestNumericSeries:
    def test_rejects_axis_value_length_mismatch(self):
        with pytest.raises(ValueError):
            NumericSeries(months=["2000-01"], values=[1.0, 2.0])

    def test_rejects_gapped_axis(self):
        with pytest.raises(ValueError):
            NumericSeries(months=["2000-01", "2000-03"], values=[1.0, 2.0])

    def test_len(self):
        assert len(ns([1.0, 2.0, 3.0])) == 3


class TestHammingWeights:
    def test_four_point_values(self):
        weights = hamming_weights(4)
        assert weights == pytest.approx([0.08, 0.77, 0.77, 0.08], abs=1e-15)
        assert sum(weights) == pytest.approx(1.7, abs=1e-12)

    def test_length_one_degenerates(self):
        assert hamming_weights(1) == [1.0]

    def test_symmetry(self):
        for length in (2, 4, 5, 9):
            weights = hamming_weights(length)
            assert weights == pytest.approx(list(reversed(weights)), abs=1e-15)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            hamming_weights(0)


def unclamped_smooth(values, window_len):
    """The smoothing formula without the clamp to the input's range: the oracle."""
    weights = hamming_weights(window_len)
    out = []
    for t in range(len(values)):
        span = min(window_len, t + 1)
        acc = math.fsum(weights[k] * values[t - k] for k in range(span))
        out.append(acc / math.fsum(weights[:span]))
    return out


class TestHammingSmooth:
    def test_constant_preserved(self):
        smoothed = hamming_smooth(ns([3.7] * 20))
        assert smoothed.values == pytest.approx([3.7] * 20, abs=1e-12)

    def test_impulse_response_is_normalized_weights(self):
        values = [0.0] * 20
        values[10] = 1.0
        smoothed = hamming_smooth(ns(values))
        weights = hamming_weights(4)
        total = sum(weights)
        expected = [0.0] * 20
        for k in range(4):
            expected[10 + k] = weights[k] / total
        assert smoothed.values == pytest.approx(expected, abs=1e-12)

    def test_startup_truncates_and_renormalizes(self):
        smoothed = hamming_smooth(ns([1.0, 2.0, 3.0, 4.0, 5.0]))
        w = hamming_weights(4)
        assert smoothed.values[0] == pytest.approx(1.0)
        assert smoothed.values[1] == pytest.approx(
            (w[0] * 2.0 + w[1] * 1.0) / (w[0] + w[1])
        )
        assert smoothed.values[2] == pytest.approx(
            (w[0] * 3.0 + w[1] * 2.0 + w[2] * 1.0) / (w[0] + w[1] + w[2])
        )
        assert smoothed.values[3] == pytest.approx(
            (w[0] * 4.0 + w[1] * 3.0 + w[2] * 2.0 + w[3] * 1.0) / sum(w)
        )

    def test_length_one_series_unchanged(self):
        assert hamming_smooth(ns([42.0])).values == [42.0]

    def test_output_axis_equals_input_axis(self):
        series = ns([1.0, 2.0, 3.0])
        assert hamming_smooth(series).months == series.months

    def test_rejects_missing_values(self):
        with pytest.raises(ValueError, match="2000-02"):
            hamming_smooth(ns([1.0, None, 3.0]))

    def test_bounded_by_window_extremes(self):
        rng = np.random.default_rng(3)
        values = list(rng.normal(0, 1, 50))
        smoothed = hamming_smooth(ns(values))
        for t, out in enumerate(smoothed.values):
            window = values[max(0, t - 3) : t + 1]
            assert min(window) - 1e-12 <= out <= max(window) + 1e-12

    @given(
        st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200)
    def test_clamps_the_oracle_to_the_series_range(self, values, window):
        lo, hi = min(values), max(values)
        smoothed = hamming_smooth(ns(values), window).values
        assert smoothed == [min(max(v, lo), hi) for v in unclamped_smooth(values, window)]
        assert all(lo <= v <= hi for v in smoothed)

    def test_constant_100_stays_100(self):
        # Unclamped, the third month reads 100.00000000000001, not a legal rate.
        assert unclamped_smooth([100.0] * 4, 4)[2] > 100.0
        assert hamming_smooth(ns([100.0] * 12), 4).values == [100.0] * 12

    def test_empty_series_smooths_to_empty(self):
        empty = NumericSeries(months=MonthAxis(month_ord("2000-01"), 0), values=[])
        assert hamming_smooth(empty, 4).values == []

    def test_long_window_computes_only_the_weights_it_reaches(self, attitude):
        # A 66-month series reaches 66 of the 2,000,000 weights; building all
        # of them took about 76 MB.
        window = 2_000_000
        tracemalloc.start()
        try:
            smoothed = hamming_smooth(attitude, window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        values = attitude.values
        assert len(values) == 66
        weights = [
            0.54 - 0.46 * math.cos(2.0 * math.pi * k / (window - 1)) for k in range(len(values))
        ]
        expected = [
            math.fsum(weights[k] * values[t - k] for k in range(t + 1))
            / math.fsum(weights[: t + 1])
            for t in range(len(values))
        ]
        lo, hi = min(values), max(values)
        assert smoothed.values == [min(max(v, lo), hi) for v in expected]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = list(rng.normal(0, 5, 30))
        y = list(rng.normal(0, 5, 30))
        a, b = rng.normal(0, 3, 2)
        combined = hamming_smooth(ns([a * u + b * v for u, v in zip(x, y)]))
        separate = [
            a * u + b * v
            for u, v in zip(hamming_smooth(ns(x)).values, hamming_smooth(ns(y)).values)
        ]
        assert combined.values == pytest.approx(separate, abs=1e-10)


class TestLinearInterpolate:
    def test_interior_gap(self):
        filled = linear_interpolate(ns([1.0, None, None, 4.0]))
        assert filled.values == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_edges_extend_nearest(self):
        filled = linear_interpolate(ns([None, 5.0, None]))
        assert filled.values == pytest.approx([5.0, 5.0, 5.0])

    def test_no_gaps_is_identity(self):
        series = ns([1.0, 2.0, 3.0])
        assert linear_interpolate(series).values == series.values

    def test_rejects_all_missing(self):
        with pytest.raises(ValueError):
            linear_interpolate(ns([None, None]))


class TestFisherSignificance:
    def test_r_zero_gives_p_one(self):
        p, significant = fisher_significance(0.0, 13)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert not significant

    def test_reference_value_r075_n13(self):
        p, significant = fisher_significance(0.75, 13)
        t_stat = 0.75 * math.sqrt(11) / math.sqrt(1 - 0.75**2)
        assert t_stat == pytest.approx(3.7607, abs=1e-4)
        assert p == pytest.approx(t_tail_by_quadrature(t_stat, 11), abs=1e-9)
        assert p == pytest.approx(0.00315, abs=5e-5)
        assert significant

    def test_small_window_not_significant(self):
        p, significant = fisher_significance(0.30, 7)
        assert p == pytest.approx(t_tail_by_quadrature(0.30 * math.sqrt(5) / math.sqrt(0.91), 5), abs=1e-9)
        assert p > 0.4
        assert not significant

    def test_monotone_in_abs_r(self):
        ps = [fisher_significance(r, 13)[0] for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert ps == sorted(ps, reverse=True)

    def test_monotone_in_n(self):
        ps = [fisher_significance(0.5, n)[0] for n in (7, 13, 30, 66)]
        assert ps == sorted(ps, reverse=True)

    def test_symmetric_in_sign(self):
        assert fisher_significance(0.6, 13)[0] == pytest.approx(
            fisher_significance(-0.6, 13)[0], abs=1e-15
        )

    def test_matches_scipy_stats_t_sf_exactly(self):
        # Oracle: the earlier implementation, 2 * stats.t.sf(|t|, n - 2).
        # Tolerance 0.0: both evaluate the same cephes Student-t routine.
        from scipy import stats

        rs = [*np.linspace(-0.999, 0.999, 97), 1e-12, -1e-9, 0.9999999, -0.99999999999]
        for dof in range(1, 201):
            t_stats = [r * math.sqrt(dof) / math.sqrt(1.0 - r * r) for r in rs]
            expected = 2.0 * stats.t.sf(np.abs(t_stats), dof)
            got = [fisher_significance(r, dof + 2)[0] for r in rs]
            assert got == expected.tolist(), f"dof={dof}"

    def test_rejects_small_n_and_perfect_r(self):
        with pytest.raises(ValueError):
            fisher_significance(0.5, 2)
        with pytest.raises(ValueError):
            fisher_significance(1.0, 13)


class TestRollingCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        x = ns(list(rng.normal(0, 1, 66)))
        track = rolling_correlation(x, x)
        assert all(r == pytest.approx(1.0) for r in track.r)
        assert all(track.significant)

    def test_edge_window_sequence_66_by_13(self):
        rng = np.random.default_rng(1)
        x = ns(list(rng.normal(0, 1, 66)))
        y = ns(list(rng.normal(0, 1, 66)))
        track = rolling_correlation(x, y, window=13)
        expected = list(range(7, 13)) + [13] * 54 + list(range(12, 6, -1))
        assert track.n_window == expected

    def test_edge_window_law_formula(self):
        rng = np.random.default_rng(2)
        total, window = 66, 13
        x = ns(list(rng.normal(0, 1, total)))
        y = ns(list(rng.normal(0, 1, total)))
        track = rolling_correlation(x, y, window=window)
        h = (window - 1) // 2
        for t in range(total):
            assert track.n_window[t] == min(window, h + 1 + min(t, total - 1 - t))

    def test_hand_computed_center_value(self):
        x_vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        y_vals = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0]
        track = rolling_correlation(ns(x_vals), ns(y_vals), window=7)
        mx = sum(x_vals) / 7
        my = sum(y_vals) / 7
        sxy = sum((a - mx) * (b - my) for a, b in zip(x_vals, y_vals))
        sxx = sum((a - mx) ** 2 for a in x_vals)
        syy = sum((b - my) ** 2 for b in y_vals)
        assert track.r[3] == pytest.approx(sxy / math.sqrt(sxx * syy), abs=1e-12)

    def test_significance_matches_alpha_rule(self):
        rng = np.random.default_rng(4)
        x = ns(list(rng.normal(0, 1, 40)))
        y = ns(list(rng.normal(0, 1, 40)))
        track = rolling_correlation(x, y, window=13, alpha=0.05)
        for r, p, significant in zip(track.r, track.p_value, track.significant):
            if p is None:
                assert not significant
            else:
                assert significant == (p < 0.05)

    def test_window_with_missing_value_yields_missing_r(self):
        values = list(range(20))
        values[9] = None
        x = ns([float(v) if v is not None else None for v in values])
        y = ns([float(i) * 2 + 1 for i in range(20)])
        track = rolling_correlation(x, y, window=5)
        for t in range(20):
            touches_gap = abs(t - 9) <= 2
            if touches_gap:
                assert track.r[t] is None
                assert track.p_value[t] is None
                assert not track.significant[t]
            else:
                assert track.r[t] is not None

    def test_constant_window_yields_missing_r(self):
        x = ns([5.0] * 15)
        y = ns([float(i) for i in range(15)])
        track = rolling_correlation(x, y, window=5)
        assert all(r is None for r in track.r)
        assert not any(track.significant)

    def test_sign_flip_negates_r(self):
        rng = np.random.default_rng(5)
        x_vals = list(rng.normal(0, 1, 30))
        y_vals = list(rng.normal(0, 1, 30))
        plus = rolling_correlation(ns(x_vals), ns(y_vals), window=7)
        minus = rolling_correlation(ns(x_vals), ns([-v for v in y_vals]), window=7)
        for a, b in zip(plus.r, minus.r):
            assert a == pytest.approx(-b, abs=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=25)
    def test_significance_invariant_under_positive_affine(self, scale, shift):
        rng = np.random.default_rng(6)
        x_vals = list(rng.normal(0, 1, 30))
        y_vals = list(rng.normal(0, 1, 30))
        base = rolling_correlation(ns(x_vals), ns(y_vals), window=7)
        mapped = rolling_correlation(
            ns(x_vals), ns([scale * v + shift for v in y_vals]), window=7
        )
        assert base.significant == mapped.significant
        for a, b in zip(base.r, mapped.r):
            assert a == pytest.approx(b, abs=1e-9)

    def test_rejects_mismatched_axes(self):
        x = ns([1.0, 2.0, 3.0])
        y = ns([1.0, 2.0, 3.0], first="2001-01")
        with pytest.raises(ValueError):
            rolling_correlation(x, y)

    def test_rejects_even_or_small_window(self):
        x = ns([1.0] * 10)
        with pytest.raises(ValueError):
            rolling_correlation(x, x, window=12)
        with pytest.raises(ValueError):
            rolling_correlation(x, x, window=1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    def test_rejects_alpha_outside_open_unit_interval(self, alpha):
        x = ns([1.0, 2.0, 4.0, 3.0, 5.0])
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            rolling_correlation(x, x, window=3, alpha=alpha)
