import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import stdtr

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

    def test_slice_takes_months_and_values(self):
        series = ns([1.0, None, 3.0, 4.0])
        assert series[1:3] == ns([None, 3.0], first="2000-02")
        assert series[:2].months == MonthAxis(month_ord("2000-01"), 2)
        assert series[-1:].values == [4.0]

    def test_slice_rejects_a_step(self):
        with pytest.raises(ValueError, match="step 1"):
            ns([1.0, 2.0, 3.0])[::2]

    def test_index_and_iteration_raise_type_error(self):
        series = ns([1.0, 2.0])
        with pytest.raises(TypeError, match="takes a slice"):
            series[0]
        with pytest.raises(TypeError):
            iter(series)


class TestHammingWeights:
    def test_four_point_values(self):
        weights = hamming_weights(4, 4)
        assert weights == pytest.approx([0.08, 0.77, 0.77, 0.08], abs=1e-15)
        assert sum(weights) == pytest.approx(1.7, abs=1e-12)

    def test_length_one_degenerates(self):
        assert hamming_weights(1, 1) == [1.0]

    def test_symmetry(self):
        for length in (2, 4, 5, 9):
            weights = hamming_weights(length, length)
            assert weights == pytest.approx(list(reversed(weights)), abs=1e-15)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            hamming_weights(0, 0)


def unclamped_smooth(values, window_len):
    """The smoothing formula without the clamp to the input's range: the oracle."""
    weights = hamming_weights(window_len, window_len)
    out = []
    for t in range(len(values)):
        span = min(window_len, t + 1)
        acc = math.fsum(weights[k] * values[t - k] for k in range(span))
        out.append(acc / math.fsum(weights[:span]))
    return out


class TestHammingSmooth:
    def test_constant_preserved(self, reference):
        smoothed = hamming_smooth(ns([3.7] * 20), reference.smooth_window)
        assert smoothed.values == pytest.approx([3.7] * 20, abs=1e-12)

    def test_impulse_response_is_normalized_weights(self, reference):
        values = [0.0] * 20
        values[10] = 1.0
        smoothed = hamming_smooth(ns(values), reference.smooth_window)
        weights = hamming_weights(4, 4)
        total = sum(weights)
        expected = [0.0] * 20
        for k in range(4):
            expected[10 + k] = weights[k] / total
        assert smoothed.values == pytest.approx(expected, abs=1e-12)

    def test_startup_truncates_and_renormalizes(self, reference):
        smoothed = hamming_smooth(ns([1.0, 2.0, 3.0, 4.0, 5.0]), reference.smooth_window)
        w = hamming_weights(4, 4)
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

    def test_length_one_series_unchanged(self, reference):
        assert hamming_smooth(ns([42.0]), reference.smooth_window).values == [42.0]

    def test_output_axis_equals_input_axis(self, reference):
        series = ns([1.0, 2.0, 3.0])
        assert hamming_smooth(series, reference.smooth_window).months == series.months

    def test_rejects_missing_values(self, reference):
        with pytest.raises(ValueError, match="2000-02"):
            hamming_smooth(ns([1.0, None, 3.0]), reference.smooth_window)

    def test_bounded_by_window_extremes(self, reference):
        rng = np.random.default_rng(3)
        values = list(rng.normal(0, 1, 50))
        smoothed = hamming_smooth(ns(values), reference.smooth_window)
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
    def test_linearity(self, reference, seed):
        rng = np.random.default_rng(seed)
        x = list(rng.normal(0, 5, 30))
        y = list(rng.normal(0, 5, 30))
        a, b = rng.normal(0, 3, 2)
        window = reference.smooth_window
        combined = hamming_smooth(ns([a * u + b * v for u, v in zip(x, y)]), window)
        smooth_x, smooth_y = hamming_smooth(ns(x), window), hamming_smooth(ns(y), window)
        separate = [a * u + b * v for u, v in zip(smooth_x.values, smooth_y.values)]
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
    def test_r_zero_gives_p_one(self, reference):
        p, significant = fisher_significance(0.0, 13, reference.alpha)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert not significant

    def test_reference_value_r075_n13(self, reference):
        p, significant = fisher_significance(0.75, 13, reference.alpha)
        t_stat = 0.75 * math.sqrt(11) / math.sqrt(1 - 0.75**2)
        assert t_stat == pytest.approx(3.7607, abs=1e-4)
        assert p == pytest.approx(t_tail_by_quadrature(t_stat, 11), abs=1e-9)
        assert p == pytest.approx(0.00315, abs=5e-5)
        assert significant

    def test_small_window_not_significant(self, reference):
        p, significant = fisher_significance(0.30, 7, reference.alpha)
        assert p == pytest.approx(t_tail_by_quadrature(0.30 * math.sqrt(5) / math.sqrt(0.91), 5), abs=1e-9)
        assert p > 0.4
        assert not significant

    def test_monotone_in_abs_r(self, reference):
        ps = [fisher_significance(r, 13, reference.alpha)[0] for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert ps == sorted(ps, reverse=True)

    def test_monotone_in_n(self, reference):
        ps = [fisher_significance(0.5, n, reference.alpha)[0] for n in (7, 13, 30, 66)]
        assert ps == sorted(ps, reverse=True)

    def test_symmetric_in_sign(self, reference):
        assert fisher_significance(0.6, 13, reference.alpha)[0] == pytest.approx(
            fisher_significance(-0.6, 13, reference.alpha)[0], abs=1e-15
        )

    def test_matches_scipy_stats_t_sf(self, reference):
        # Oracle: the earlier implementation, 2 * stats.t.sf(|t|, n - 2). The
        # stdlib tail may differ in its last bits; where p < 0.5 it must stay
        # within 1e-12 relative (near p = 1, see the closed forms below).
        # Below the smallest normal double both sides read as zero.
        from scipy import stats

        rs = [*np.linspace(-0.999, 0.999, 97), 1e-12, -1e-9, 0.9999999, -0.99999999999]
        for dof in range(1, 201):
            t_stats = [r * math.sqrt(dof) / math.sqrt(1.0 - r * r) for r in rs]
            expected = 2.0 * stats.t.sf(np.abs(t_stats), dof)
            got = [fisher_significance(r, dof + 2, reference.alpha)[0] for r in rs]
            for r, p, want in zip(rs, got, expected.tolist()):
                if want < 0.5:
                    assert p == pytest.approx(want, rel=1e-12, abs=sys.float_info.min), (dof, r)

    def test_matches_scipy_stats_t_sf_at_large_dof(self, reference):
        # Windows far longer than the reference 13 months: df 201..20,000.
        # The r grid is dense where the tail switches to its symmetric form
        # (|t| near sqrt(3)), the region where rounding is amplified most.
        from scipy import stats

        rs = np.concatenate([np.linspace(-0.999, 0.999, 97), np.linspace(-0.05, 0.05, 101)])
        for dof in [*range(201, 20_001, 211), 20_000]:
            t_stats = rs * math.sqrt(dof) / np.sqrt(1.0 - rs * rs)
            expected = 2.0 * stats.t.sf(np.abs(t_stats), dof)
            for r, want in zip(rs.tolist(), expected.tolist()):
                if 0.0 < want < 0.5:
                    p = fisher_significance(r, dof + 2, reference.alpha)[0]
                    assert p == pytest.approx(want, rel=1e-10, abs=0.0), (dof, r)

    @pytest.mark.parametrize("t_stat", [1e-8, 1e-4, 0.3, -0.3])
    def test_near_p_one_matches_closed_forms(self, reference, t_stat):
        # df 1 is Cauchy and df 2 has an algebraic tail. Near p = 1 the stdlib
        # tail matches both to rounding; scipy's is off by 3e-9 at df 1, t = 1e-8.
        closed = {
            1: 1.0 - (2.0 / math.pi) * math.atan(abs(t_stat)),
            2: 1.0 - abs(t_stat) / math.sqrt(2.0 + t_stat * t_stat),
        }
        for dof, want in closed.items():
            r = t_stat / math.sqrt(dof + t_stat * t_stat)
            p = fisher_significance(r, dof + 2, reference.alpha)[0]
            assert p == pytest.approx(want, rel=1e-15, abs=0.0), dof

    @given(
        st.floats(min_value=-0.999, max_value=0.999),
        st.integers(min_value=3, max_value=200),
        st.floats(min_value=1e-4, max_value=0.5),
    )
    @example(r=5.5e-163, n=11, alpha=0.5)  # t^2 / (df + t^2) underflows to 0
    @settings(max_examples=300)
    def test_significant_matches_the_scipy_decision(self, r, n, alpha):
        # `significant` may flip only where the old p lies within 1e-12 * alpha
        # of alpha; p stays in (0, 1] and ignores the sign of r. With |r| <= 0.999
        # and n <= 200, p stays above 1e-270, far from underflow.
        p, significant = fisher_significance(r, n, alpha)
        assert 0.0 < p <= 1.0
        assert fisher_significance(-r, n, alpha) == (p, significant)
        t_stat = r * math.sqrt(n - 2) / math.sqrt(1.0 - r * r)
        p_old = 2.0 * float(stdtr(n - 2, -abs(t_stat)))
        if abs(p_old - alpha) > 1e-12 * alpha:
            assert significant == (p_old < alpha)

    def test_rejects_small_n_and_perfect_r(self, reference):
        with pytest.raises(ValueError):
            fisher_significance(0.5, 2, reference.alpha)
        with pytest.raises(ValueError):
            fisher_significance(1.0, 13, reference.alpha)


class TestRollingCorrelation:
    def test_self_correlation_is_one(self, reference):
        rng = np.random.default_rng(0)
        x = ns(list(rng.normal(0, 1, 66)))
        track = rolling_correlation(x, x, reference.corr_window, reference.alpha)
        assert all(r == pytest.approx(1.0) for r in track.r)
        assert all(track.significant)

    def test_edge_window_sequence_66_by_13(self, reference):
        rng = np.random.default_rng(1)
        x = ns(list(rng.normal(0, 1, 66)))
        y = ns(list(rng.normal(0, 1, 66)))
        track = rolling_correlation(x, y, window=13, alpha=reference.alpha)
        expected = list(range(7, 13)) + [13] * 54 + list(range(12, 6, -1))
        assert track.n_window == expected

    def test_edge_window_law_formula(self, reference):
        rng = np.random.default_rng(2)
        total, window = 66, 13
        x = ns(list(rng.normal(0, 1, total)))
        y = ns(list(rng.normal(0, 1, total)))
        track = rolling_correlation(x, y, window=window, alpha=reference.alpha)
        h = (window - 1) // 2
        for t in range(total):
            assert track.n_window[t] == min(window, h + 1 + min(t, total - 1 - t))

    def test_hand_computed_center_value(self, reference):
        x_vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        y_vals = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0]
        track = rolling_correlation(ns(x_vals), ns(y_vals), window=7, alpha=reference.alpha)
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

    def test_window_with_missing_value_yields_missing_r(self, reference):
        values = list(range(20))
        values[9] = None
        x = ns([float(v) if v is not None else None for v in values])
        y = ns([float(i) * 2 + 1 for i in range(20)])
        track = rolling_correlation(x, y, window=5, alpha=reference.alpha)
        for t in range(20):
            touches_gap = abs(t - 9) <= 2
            if touches_gap:
                assert track.r[t] is None
                assert track.p_value[t] is None
                assert not track.significant[t]
            else:
                assert track.r[t] is not None

    def test_constant_window_yields_missing_r(self, reference):
        x = ns([5.0] * 15)
        y = ns([float(i) for i in range(15)])
        track = rolling_correlation(x, y, window=5, alpha=reference.alpha)
        assert all(r is None for r in track.r)
        assert not any(track.significant)

    def test_sign_flip_negates_r(self, reference):
        rng = np.random.default_rng(5)
        x_vals = list(rng.normal(0, 1, 30))
        y_vals = list(rng.normal(0, 1, 30))
        plus = rolling_correlation(ns(x_vals), ns(y_vals), window=7, alpha=reference.alpha)
        minus = rolling_correlation(
            ns(x_vals), ns([-v for v in y_vals]), window=7, alpha=reference.alpha
        )
        for a, b in zip(plus.r, minus.r):
            assert a == pytest.approx(-b, abs=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=25)
    def test_significance_invariant_under_positive_affine(self, reference, scale, shift):
        rng = np.random.default_rng(6)
        x_vals = list(rng.normal(0, 1, 30))
        y_vals = list(rng.normal(0, 1, 30))
        base = rolling_correlation(ns(x_vals), ns(y_vals), window=7, alpha=reference.alpha)
        mapped = rolling_correlation(
            ns(x_vals), ns([scale * v + shift for v in y_vals]), window=7,
            alpha=reference.alpha,
        )
        assert base.significant == mapped.significant
        for a, b in zip(base.r, mapped.r):
            assert a == pytest.approx(b, abs=1e-9)

    def test_rejects_mismatched_axes(self, reference):
        x = ns([1.0, 2.0, 3.0])
        y = ns([1.0, 2.0, 3.0], first="2001-01")
        with pytest.raises(ValueError):
            rolling_correlation(x, y, reference.corr_window, reference.alpha)

    def test_rejects_even_or_small_window(self, reference):
        x = ns([1.0] * 10)
        with pytest.raises(ValueError):
            rolling_correlation(x, x, window=12, alpha=reference.alpha)
        with pytest.raises(ValueError):
            rolling_correlation(x, x, window=1, alpha=reference.alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    def test_rejects_alpha_outside_open_unit_interval(self, alpha):
        x = ns([1.0, 2.0, 4.0, 3.0, 5.0])
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            rolling_correlation(x, x, window=3, alpha=alpha)
