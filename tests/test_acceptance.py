"""End-to-end acceptance gate.

Ten numbered criteria, each printing a single ``ACCEPTANCE n name: PASS``
or ``FAIL`` line directly to the console (bypassing capture) before
asserting. Tolerances and runtime budgets are pinned in each test.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from moodcast.analysis import (
    NumericSeries,
    fisher_significance,
    hamming_smooth,
    rolling_correlation,
)
from moodcast.emotion import COMPONENTS, DIMENSIONS, score_month
from moodcast.forecast import (
    MODEL_NAMES,
    ArmaSpec,
    evaluate,
    fit_arma,
    model_suite,
    surrogate_test,
)
from moodcast.ingest import MonthlyBucket
from moodcast.months import month_ord, ord_month
from moodcast.pipeline import PipelineConfig, run_pipeline


@pytest.fixture
def verdict(capfd):
    """Print one uncaptured pass/fail line, then enforce the outcome."""

    def emit(number, name, ok, detail=""):
        with capfd.disabled():
            print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, detail or name

    return emit


def ns(values, first="2000-01"):
    start = month_ord(first)
    return NumericSeries(
        months=[ord_month(start + i) for i in range(len(values))],
        values=[float(v) for v in values],
    )


def test_criterion_01_scoring_oracle(lexicon, verdict):
    """Frequency-weighted scoring equals expanded-token brute force."""
    start = time.perf_counter()
    words = sorted(lexicon)
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng([1, i])
        k = int(rng.integers(1, 21))
        chosen = rng.choice(words, size=min(k, len(words)), replace=False)
        token_counts = {w: int(rng.integers(1, 51)) for w in chosen}
        if rng.random() < 0.3:
            token_counts["unscorable"] = int(rng.integers(1, 51))
        bucket = MonthlyBucket(month="2000-01", token_counts=token_counts, thread_count=1)
        row, _ = score_month(bucket, lexicon)
        stats = dict(zip(COMPONENTS, row))
        for dim in DIMENSIONS:
            expanded = []
            for word, count in token_counts.items():
                entry = lexicon.get(word)
                if entry is not None:
                    expanded.extend([getattr(entry, dim)] * count)
            mean = math.fsum(expanded) / len(expanded)
            std = math.sqrt(
                math.fsum((v - mean) ** 2 for v in expanded) / len(expanded)
            )
            for got, want in ((stats[f"mean-{dim}"], mean), (stats[f"std-{dim}"], std)):
                scale = max(abs(want), 1.0)
                worst = max(worst, abs(got - want) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(1, "scoring-oracle", ok, f"worst relative error {worst}, {elapsed:.2f}s")


def test_criterion_02_edge_window_law(verdict):
    """n_window over a 66-month axis with window 13 follows the edge law."""
    start = time.perf_counter()
    rng = np.random.default_rng([2, 0])
    track = rolling_correlation(
        ns(rng.normal(0, 1, 66)), ns(rng.normal(0, 1, 66)), window=13, alpha=0.05
    )
    expected = [7, 8, 9, 10, 11, 12] + [13] * 54 + [12, 11, 10, 9, 8, 7]
    elapsed = time.perf_counter() - start
    ok = track.n_window == expected and elapsed < 1.0
    verdict(2, "edge-window-law", ok, f"n_window {track.n_window[:8]}..., {elapsed:.2f}s")


def _t_tail_by_quadrature(t_stat, dof):
    log_coeff = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )

    def density(x):
        return math.exp(log_coeff - ((dof + 1) / 2.0) * math.log1p(x * x / dof))

    tail, _ = integrate.quad(density, abs(t_stat), math.inf)
    return tail


def test_criterion_03_significance_oracle(verdict, reference):
    """p-values match numerical integration of the t density to 1e-6."""
    start = time.perf_counter()
    worst = 0.0
    for tenths in range(1, 10):
        for sign in (1.0, -1.0):
            r = sign * tenths / 10.0
            for n in range(7, 67):
                p, _ = fisher_significance(r, n, reference.alpha)
                t_stat = r * math.sqrt(n - 2) / math.sqrt(1.0 - r * r)
                oracle = 2.0 * _t_tail_by_quadrature(t_stat, n - 2)
                worst = max(worst, abs(p - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    verdict(3, "significance-oracle", ok, f"worst abs error {worst}, {elapsed:.2f}s")


def test_criterion_04_smoothing_identities(verdict):
    """Constant preservation, impulse response, and linearity."""
    problems = []

    constant = hamming_smooth(ns([7.25] * 40), 4)
    if any(abs(v - 7.25) > 1e-12 for v in constant.values):
        problems.append("constant series not preserved")

    weights = [0.54 - 0.46 * math.cos(2 * math.pi * k / 3) for k in range(4)]
    total = math.fsum(weights)
    impulse = hamming_smooth(ns([0.0] * 10 + [1.0] + [0.0] * 9), 4)
    expected = [0.0] * 10 + [w / total for w in weights] + [0.0] * 6
    if any(abs(got - want) > 1e-12 for got, want in zip(impulse.values, expected)):
        problems.append("impulse response mismatch")

    rng = np.random.default_rng([4, 0])
    for _ in range(20):
        x = rng.normal(0, 10, 30)
        y = rng.normal(0, 10, 30)
        a, b = rng.normal(0, 3, 2)
        combined = hamming_smooth(ns(a * x + b * y), 4)
        parts = [
            a * u + b * v
            for u, v in zip(hamming_smooth(ns(x), 4).values, hamming_smooth(ns(y), 4).values)
        ]
        if any(abs(got - want) > 1e-10 for got, want in zip(combined.values, parts)):
            problems.append("linearity violated")
            break

    verdict(4, "smoothing-identities", not problems, "; ".join(problems))


def test_criterion_05_ar1_recovery(verdict):
    """Near-unit AR(1) coefficient recovered within +-0.02 on >=95/100 seeds."""
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng([5, seed])
        x = [1.0]
        for _ in range(199):
            x.append(0.95 * x[-1] + rng.normal(0, 0.01))
        model = fit_arma(ArmaSpec(1, 0, ()), ns(x), {})
        if abs(model.coefficients[0] - 0.95) <= 0.02:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 5.0
    verdict(5, "ar1-recovery", ok, f"{hits}/100 within tolerance, {elapsed:.2f}s")


def _lagged_drive_fixture(seed, sigma=0.1):
    """Target driven by its own lag and an observed series two months back."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0, 1, 66)
    x = np.zeros(66)
    for t in range(1, 66):
        drive = 0.5 * y[t - 2] if t >= 2 else 0.0
        x[t] = 0.9 * x[t - 1] + drive + rng.normal(0, sigma)
    return ns(x), {"y": ns(y)}


def test_criterion_06_exogenous_improvement(verdict):
    """Exogenous-lag model MAE at least 20% below the benchmark, 20 seeds."""
    start = time.perf_counter()
    worst_ratio = 0.0
    months_agree = True
    for seed in range(20):
        target, exog = _lagged_drive_fixture([6, seed])
        spec = ArmaSpec(1, 3, ("y",))
        benchmark = ArmaSpec(1, 3, ())
        full = evaluate(fit_arma(spec, target, exog), target, exog)
        bench = evaluate(fit_arma(benchmark, target, {}), target, {})
        months_agree = months_agree and full.months == bench.months
        worst_ratio = max(worst_ratio, full.mae / bench.mae)
    elapsed = time.perf_counter() - start
    ok = months_agree and worst_ratio <= 0.8 and elapsed < 5.0
    verdict(
        6,
        "exogenous-improvement",
        ok,
        f"worst mae ratio {worst_ratio:.4f}, months_agree={months_agree}, {elapsed:.2f}s",
    )


def test_criterion_07_nested_sse_dominance(verdict):
    """Adding exogenous columns never raises in-sample SSE."""
    worst_excess = -math.inf
    for i in range(100):
        rng = np.random.default_rng([7, i])
        length = int(rng.integers(12, 80))
        target = ns(rng.normal(50, 5, length))
        exog = {"y": ns(rng.normal(0, 1, length))}
        full = fit_arma(ArmaSpec(1, 3, ("y",)), target, exog)
        bench = fit_arma(ArmaSpec(1, 3, ()), target, {})
        worst_excess = max(worst_excess, full.sse - bench.sse)
    ok = worst_excess <= 1e-9
    verdict(7, "nested-sse-dominance", ok, f"worst SSE excess {worst_excess}")


def test_criterion_08_surrogate_calibration(verdict):
    """Permutation test: near-zero p on informative input, dull on noise."""
    start = time.perf_counter()
    target, exog = _lagged_drive_fixture([6, 0])
    informative = surrogate_test(
        ArmaSpec(1, 3, ("y",)), target, exog, n_surrogates=1000, seed=0
    )

    dull = 0
    for seed in range(100):
        rng = np.random.default_rng([8, seed])
        y = rng.normal(0, 1, 66)
        x = np.zeros(66)
        for t in range(1, 66):
            x[t] = 0.9 * x[t - 1] + rng.normal(0, 0.1)
        report = surrogate_test(
            ArmaSpec(1, 3, ("y",)), ns(x), {"y": ns(y)}, n_surrogates=200, seed=seed
        )
        if report.p_hat >= 0.05:
            dull += 1
    elapsed = time.perf_counter() - start
    ok = informative.p_hat <= 0.01 and dull >= 90 and elapsed < 120.0
    verdict(
        8,
        "surrogate-calibration",
        ok,
        f"informative p_hat {informative.p_hat}, dull {dull}/100, {elapsed:.1f}s",
    )


def test_criterion_09_pipeline_determinism(
    tmp_path, lexicon_path, messages_path, attitude_path, verdict
):
    """Two standard-settings runs on the shipped corpus are byte-identical."""
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        run_pipeline(
            PipelineConfig(
                lexicon=lexicon_path,
                messages=messages_path,
                attitude=attitude_path,
                out=out,
            )
        )
        outputs.append(out)
    first, second = outputs
    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    differing = []
    if first_files != second_files:
        differing.append("artifact listings differ")
    for rel in first_files:
        if rel.name == "run_manifest.json":
            continue  # carries the run timestamp
        if (first / rel).read_bytes() != (second / rel).read_bytes():
            differing.append(str(rel))
    ok = not differing and len(first_files) > 50
    verdict(9, "pipeline-determinism", ok, f"differing artifacts: {differing}")


def test_criterion_10_suite_shape(verdict, reference):
    """Exactly the ten named models, fixed order, coherent error curves."""
    rng = np.random.default_rng([10, 0])
    components = {}
    for name in ("mean-valence", "mean-dominance", "std-valence", "std-dominance"):
        components[name] = ns(rng.normal(5, 1, 66))
    mean_a = rng.normal(5, 1, 66)
    std_a = rng.normal(2, 0.5, 66)
    components["mean-arousal"] = ns(mean_a)
    components["std-arousal"] = ns(std_a)
    x = np.zeros(66)
    x[0] = 50.0
    for t in range(1, 66):
        drive = 0.6 * mean_a[t - 1] + (0.4 * std_a[t - 2] if t >= 2 else 0.0)
        x[t] = 0.8 * x[t - 1] + drive + rng.normal(0, 0.05)

    entries = model_suite(ns(x), components, MODEL_NAMES, reference.p, reference.q, 0)
    problems = []
    if [e.name for e in entries] != list(MODEL_NAMES):
        problems.append(f"model order {[e.name for e in entries]}")
    for entry in entries:
        report = entry.report
        lengths = {
            len(report.months),
            len(report.errors),
            len(report.cumulative_mean_abs_error),
        }
        if len(lengths) != 1 or not report.months:
            problems.append(f"{entry.name}: ragged report")
        if abs(report.cumulative_mean_abs_error[-1] - report.mae) > 1e-12:
            problems.append(f"{entry.name}: final cumulative point != mae")
    verdict(10, "suite-shape", not problems, "; ".join(problems))
