import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from moodcast import forecast
from moodcast.analysis import NumericSeries
from moodcast.forecast import (
    MODEL_EXOGENOUS,
    MODEL_NAMES,
    ArmaSpec,
    SuiteEntry,
    assemble_regression,
    evaluate,
    fit_arma,
    model_suite,
    permute_series,
    surrogate_test,
)
from moodcast.months import month_ord, ord_month
from moodcast.reports import read_emotion_csv, read_series_csv


@pytest.fixture(scope="module")
def shipped_smoothed(pipeline_run):
    """The smoothed attitude series and emotion components of the shipped run."""
    out, _ = pipeline_run
    target = read_series_csv(out / "attitude_smoothed.csv")
    return target, read_emotion_csv(out / "emotion_series_smoothed.csv").components


def predict_one_step(model, target, exogenous, month):
    """Oracle: predict the target at ``month`` from values strictly before it.

    A direct sum over the fitted coefficients and lagged values, kept here
    to check the design matrix that ``assemble_regression`` builds.
    """
    spec = model.spec
    try:
        t = target.months.index(month)
    except ValueError:
        raise ValueError(f"month {month} is not on the target axis") from None
    if t < spec.max_lag:
        raise ValueError(f"month {month} has fewer than {spec.max_lag} months of history")
    p, q = spec.ar_order, spec.exog_order
    acc = 0.0
    for i, coeff in enumerate(model.coefficients[:p], start=1):
        acc += coeff * target.values[t - i]
    for k, name in enumerate(spec.exogenous_names):
        for i, coeff in enumerate(model.coefficients[p + k * q : p + (k + 1) * q], start=1):
            acc += coeff * exogenous[name].values[t - i]
    return float(acc)


def ns(values, first="2000-01"):
    start = month_ord(first)
    months = [ord_month(start + i) for i in range(len(values))]
    return NumericSeries(months=months, values=[float(v) for v in values])


def make_components(seed, length=66):
    """Six random component series keyed like the emotion exports."""
    rng = np.random.default_rng(seed)
    return {
        name: ns(rng.normal(5, 1, length))
        for name in (
            "mean-valence",
            "mean-arousal",
            "mean-dominance",
            "std-valence",
            "std-arousal",
            "std-dominance",
        )
    }


def rows_regression(spec, target_values, exogenous_values):
    """Oracle: the lagged design and response built row by row from value lists.

    This is how ``assemble_regression`` once built every design; the
    array-slicing version must give the same float64 values, shape and layout.
    """
    start, total = spec.max_lag, len(target_values)
    rows = []
    for t in range(start, total):
        row = [target_values[t - i] for i in range(1, spec.ar_order + 1)]
        for name in spec.exogenous_names:
            ev = exogenous_values[name]
            row.extend(ev[t - i] for i in range(1, spec.exog_order + 1))
        rows.append(row)
    return np.asarray(rows, dtype=float), np.asarray(target_values[start:], dtype=float)


def rows_surrogate_test(spec, target, exogenous, n_surrogates, seed):
    """Oracle: the surrogate test from the row-built design, lstsq and a cumsum MAE."""

    def mae(exogenous_values):
        x, y = rows_regression(spec, target.values, exogenous_values)
        coefficients = np.linalg.lstsq(x, y, rcond=None)[0]
        errors = y - x @ coefficients
        return float((np.cumsum(np.abs(errors)) / np.arange(1, len(errors) + 1))[-1])

    empirical = mae({name: exogenous[name].values for name in spec.exogenous_names})
    maes = []
    for i in range(n_surrogates):
        rng = np.random.default_rng([seed, i])
        maes.append(mae({
            name: list(rng.permutation(np.asarray(exogenous[name].values, dtype=float)))
            for name in spec.exogenous_names
        }))
    return empirical, maes, sum(1 for m in maes if m <= empirical) / n_surrogates


@st.composite
def lag_designs(draw, min_exogenous=0, fitted=False):
    """A valid spec with ``min_exogenous``-2 exogenous series and inputs of up to 80 months.

    Inputs are at least ``max_lag + 2`` months long; a ``fitted`` design has
    more rows than columns.
    """
    n_exogenous = draw(st.integers(min_exogenous, 2))
    ar_order = draw(st.integers(0, 3))
    exog_order = draw(st.integers(1 if n_exogenous or ar_order == 0 else 0, 3))
    spec = ArmaSpec(ar_order, exog_order, ("a", "b")[:n_exogenous])
    n_columns = ar_order + n_exogenous * exog_order
    length = draw(st.integers(spec.max_lag + max(2, n_columns + 1 if fitted else 0), 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = ns(rng.normal(50, 5, length))
    exogenous = {name: ns(rng.normal(0, 1, length)) for name in spec.exogenous_names}
    return spec, target, exogenous


class TestArmaSpec:
    def test_orders_and_counts(self):
        spec = ArmaSpec(1, 3, ("a", "b"))
        assert spec.n_exogenous == 2
        assert spec.max_lag == 3

    def test_benchmark_spec_keeps_exog_order_for_alignment(self):
        assert ArmaSpec(1, 3, ()).max_lag == 3

    def test_rejects_degenerate_orders(self):
        with pytest.raises(ValueError):
            ArmaSpec(0, 0, ())
        with pytest.raises(ValueError):
            ArmaSpec(-1, 3, ())
        with pytest.raises(ValueError):
            ArmaSpec(1, 0, ("a",))


class TestAssembleRegression:
    def test_shape_66_months_two_series(self):
        target = ns(np.arange(66))
        exog = {"a": ns(np.arange(66) * 2), "b": ns(np.arange(66) * 3)}
        system = assemble_regression(ArmaSpec(1, 3, ("a", "b")), target, exog)
        assert system.regressors.shape == (63, 7)
        assert system.response.shape == (63,)
        assert len(system.months) == 63
        assert system.months[0] == target.months[3]

    def test_benchmark_has_single_lag_column(self):
        target = ns(np.arange(10))
        system = assemble_regression(ArmaSpec(1, 0, ()), target, {})
        assert system.regressors.shape == (9, 1)

    def test_hand_written_matrix(self):
        # length 6, ar 1, exog lag 1, one series: rows read off the inputs.
        target = ns([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        exog = {"y": ns([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])}
        system = assemble_regression(ArmaSpec(1, 1, ("y",)), target, exog)
        assert system.regressors.tolist() == [
            [10.0, 1.0],
            [20.0, 2.0],
            [30.0, 3.0],
            [40.0, 4.0],
            [50.0, 5.0],
        ]
        assert system.response.tolist() == [20.0, 30.0, 40.0, 50.0, 60.0]

    @given(lag_designs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_built_oracle(self, design):
        spec, target, exogenous = design
        system = assemble_regression(spec, target, exogenous)
        regressors, response = rows_regression(
            spec, target.values, {name: s.values for name, s in exogenous.items()}
        )
        for got, want in ((system.regressors, regressors), (system.response, response)):
            assert got.shape == want.shape
            assert got.dtype == want.dtype == np.float64
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_spec_without_columns_has_an_empty_design(self):
        # ``run --p 0`` gives the "ar" model no lag column at all.
        target = ns(np.arange(12.0))
        spec = ArmaSpec(0, 3, ())
        system = assemble_regression(spec, target, {})
        regressors, response = rows_regression(spec, target.values, {})
        assert system.regressors.shape == regressors.shape == (9, 0)
        assert system.regressors.dtype == regressors.dtype == np.float64
        assert np.array_equal(system.response, response)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="too short"):
            assemble_regression(ArmaSpec(1, 3, ("y",)), ns([1.0, 2.0, 3.0, 4.0]), {"y": ns([1.0, 2.0, 3.0, 4.0])})

    def test_rejects_missing_series_and_missing_values(self):
        target = ns(np.arange(10))
        with pytest.raises(ValueError, match="missing exogenous"):
            assemble_regression(ArmaSpec(1, 1, ("y",)), target, {})
        gappy = NumericSeries(months=target.months, values=[1.0] * 9 + [None])
        with pytest.raises(ValueError, match="missing a value|missing value"):
            assemble_regression(ArmaSpec(1, 1, ("y",)), target, {"y": gappy})

    def test_rejects_mismatched_axis(self):
        target = ns(np.arange(10))
        with pytest.raises(ValueError, match="month axis"):
            assemble_regression(
                ArmaSpec(1, 1, ("y",)), target, {"y": ns(np.arange(10), first="2001-01")}
            )


class TestFitArma:
    def test_ar1_recovery_single_seed(self):
        rng = np.random.default_rng(42)
        x = [1.0]
        for _ in range(199):
            x.append(0.95 * x[-1] + rng.normal(0, 0.01))
        model = fit_arma(ArmaSpec(1, 0, ()), ns(x), {})
        assert model.coefficients[0] == pytest.approx(0.95, abs=0.02)
        assert model.coefficients[1:] == []

    def test_matches_closed_form_ols_slope(self):
        rng = np.random.default_rng(7)
        x = list(rng.normal(0, 1, 50))
        model = fit_arma(ArmaSpec(1, 0, ()), ns(x), {})
        prev = np.array(x[:-1])
        cur = np.array(x[1:])
        assert model.coefficients[0] == pytest.approx(
            float(prev @ cur) / float(prev @ prev), rel=1e-12
        )

    def test_zero_response_gives_zero_coefficients(self):
        # the all-zero target lag column makes the design rank-deficient
        target = ns([0.0] * 20)
        exog = {"y": ns(np.random.default_rng(0).normal(0, 1, 20))}
        with pytest.warns(RuntimeWarning):
            model = fit_arma(ArmaSpec(1, 2, ("y",)), target, exog)
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert all(abs(c) < 1e-12 for c in model.coefficients[1:])
        assert model.sse == pytest.approx(0.0, abs=1e-24)

    def test_residual_orthogonal_to_regressors(self):
        rng = np.random.default_rng(11)
        target = ns(rng.normal(0, 1, 60))
        exog = {"y": ns(rng.normal(0, 1, 60))}
        spec = ArmaSpec(1, 3, ("y",))
        model = fit_arma(spec, target, exog)
        system = assemble_regression(spec, target, exog)
        residual = system.response - system.regressors @ model.coefficients
        norms = np.linalg.norm(system.regressors, axis=0)
        dots = (system.regressors / norms).T @ residual
        assert np.max(np.abs(dots)) <= 1e-8

    def test_rank_deficient_warns_and_returns_min_norm(self):
        # duplicated exogenous series makes the design rank-deficient
        rng = np.random.default_rng(13)
        shared = rng.normal(0, 1, 40)
        target = ns(rng.normal(0, 1, 40))
        exog = {"a": ns(shared), "b": ns(shared)}
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            model = fit_arma(ArmaSpec(1, 2, ("a", "b")), target, exog)
        assert model.coefficients[1:3] == pytest.approx(model.coefficients[3:5], abs=1e-8)

    def test_rejects_underdetermined(self):
        target = ns(np.arange(6))
        exog = {name: ns(np.random.default_rng(1).normal(0, 1, 6)) for name in "abc"}
        with pytest.raises(ValueError, match="underdetermined"):
            fit_arma(ArmaSpec(1, 3, ("a", "b", "c")), target, exog)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        target = ns(rng.normal(0, 1, 50))
        exog = {"y": ns(rng.normal(0, 1, 50))}
        first = fit_arma(ArmaSpec(1, 3, ("y",)), target, exog)
        second = fit_arma(ArmaSpec(1, 3, ("y",)), target, exog)
        assert first == second


class TestPredictOneStep:
    def test_near_unit_ar_coefficient(self):
        # one-term product with a fitted coefficient of 0.989
        target = ns([60.0, 60.0, 60.0, 60.0, 60.0])
        model = fit_arma(ArmaSpec(1, 0, ()), target, {})
        manual = model.coefficients[0] * 60.0
        assert predict_one_step(model, target, {}, target.months[-1]) == pytest.approx(manual)

    def test_documented_reference_product(self):
        # a near-unit coefficient of 0.989 applied to a level of 60.0
        target = ns([58.0, 59.0, 61.0, 60.0, 55.0])
        model = fit_arma(ArmaSpec(1, 0, ()), target, {})._replace(coefficients=[0.989])
        predicted = predict_one_step(model, target, {}, target.months[-1])
        assert predicted == pytest.approx(59.34, abs=1e-12)

    def test_hand_model_dot_product(self):
        target = ns([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        exog = {"y": ns([0.5, 1.5, 2.5, 3.5, 4.5, 5.5])}
        spec = ArmaSpec(1, 1, ("y",))
        model = fit_arma(spec, target, exog)
        month = target.months[4]
        expected = model.coefficients[0] * 4.0 + model.coefficients[1] * 3.5
        assert predict_one_step(model, target, exog, month) == pytest.approx(expected)

    def test_linear_in_coefficients(self):
        target = ns([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        exog = {"y": ns([2.0, 1.0, 2.0, 1.0, 2.0, 1.0])}
        spec = ArmaSpec(1, 1, ("y",))
        base = fit_arma(spec, target, exog)
        doubled = base._replace(coefficients=[2 * c for c in base.coefficients])
        month = target.months[-1]
        assert predict_one_step(doubled, target, exog, month) == pytest.approx(
            2 * predict_one_step(base, target, exog, month)
        )

    def test_zero_coefficients_predict_zero(self):
        target = ns([1.0, 2.0, 3.0, 4.0, 5.0])
        model = fit_arma(ArmaSpec(1, 0, ()), target, {})._replace(coefficients=[0.0])
        assert predict_one_step(model, target, {}, target.months[-1]) == 0.0

    def test_rejects_insufficient_history(self):
        rng = np.random.default_rng(19)
        target = ns(rng.normal(0, 1, 10))
        exog = {"y": ns(rng.normal(0, 1, 10))}
        spec = ArmaSpec(1, 3, ("y",))
        model = fit_arma(spec, target, exog)
        with pytest.raises(ValueError, match="history"):
            predict_one_step(model, target, exog, target.months[2])
        with pytest.raises(ValueError, match="not on the target axis"):
            predict_one_step(model, target, exog, "1999-01")

    def test_design_rows_match_the_oracle(self):
        rng = np.random.default_rng(29)
        target = ns(rng.normal(50, 5, 48))
        exog = {"a": ns(rng.normal(5, 1, 48)), "b": ns(rng.normal(2, 1, 48))}
        spec = ArmaSpec(2, 3, ("a", "b"))
        model = fit_arma(spec, target, exog)
        system = assemble_regression(spec, target, exog)
        rows = system.regressors @ model.coefficients
        assert len(rows) == len(system.months) == 45
        for month, row in zip(system.months, rows):
            assert abs(row - predict_one_step(model, target, exog, month)) <= 1e-12


class TestEvaluate:
    def test_noise_free_ar1_perfect_fit(self):
        x = [1.0]
        for _ in range(30):
            x.append(0.9 * x[-1])
        target = ns(x)
        model = fit_arma(ArmaSpec(1, 0, ()), target, {})
        report = evaluate(model, target, {})
        assert report.mae == pytest.approx(0.0, abs=1e-12)
        assert report.cumulative_mean_abs_error == pytest.approx([0.0] * len(report.months), abs=1e-12)

    def test_final_cumulative_point_equals_mae(self):
        rng = np.random.default_rng(23)
        target = ns(rng.normal(50, 5, 40))
        exog = {"y": ns(rng.normal(0, 1, 40))}
        model = fit_arma(ArmaSpec(1, 3, ("y",)), target, exog)
        report = evaluate(model, target, exog)
        assert report.cumulative_mean_abs_error[-1] == report.mae

    def test_cumulative_identity_every_point(self):
        rng = np.random.default_rng(29)
        target = ns(rng.normal(50, 5, 40))
        model = fit_arma(ArmaSpec(1, 0, ()), target, {})
        report = evaluate(model, target, {})
        for k in range(len(report.errors)):
            expected = sum(abs(e) for e in report.errors[: k + 1]) / (k + 1)
            assert report.cumulative_mean_abs_error[k] == pytest.approx(expected, abs=1e-12)

    def test_predictions_match_actuals_minus_errors(self):
        rng = np.random.default_rng(31)
        target = ns(rng.normal(0, 1, 30))
        model = fit_arma(ArmaSpec(1, 0, ()), target, {})
        report = evaluate(model, target, {})
        # Each error is the month's value minus its one-step AR(1) prediction.
        (coefficient,) = model.coefficients
        values = target.values
        assert len(report.errors) == len(values) - 1
        for t, error in enumerate(report.errors, start=1):
            assert values[t] - coefficient * values[t - 1] == pytest.approx(error, abs=1e-12)


def prefix_suite(target, components, names, ar_order, exog_order, holdout):
    """Oracle: the suite as it once held out months, each model fitted on
    series cut to the training prefix and evaluated from the split row."""
    split = len(target) - holdout
    entries = []
    for name in names:
        spec = ArmaSpec(ar_order, exog_order, MODEL_EXOGENOUS[name])
        exogenous = {n: components[n] for n in spec.exogenous_names}
        model = fit_arma(spec, target[:split], {n: s[:split] for n, s in exogenous.items()})
        first_row = split - spec.max_lag if holdout else 0
        entries.append(SuiteEntry(name, model, evaluate(model, target, exogenous, first_row)))
    return entries


class TestEvaluateHoldout:
    def test_holdout_months_are_the_tail(self):
        rng = np.random.default_rng(37)
        target = ns(rng.normal(50, 5, 66))
        ((_, _, report),) = model_suite(target, {}, ("ar",), 1, 0, holdout=12)
        assert report.months == target.months[-12:]

    def test_coefficients_come_from_training_prefix_only(self):
        rng = np.random.default_rng(41)
        values = list(rng.normal(50, 5, 66))
        target = ns(values)
        ((_, model, _),) = model_suite(target, {}, ("ar",), 1, 0, holdout=12)
        prefix_model = fit_arma(ArmaSpec(1, 0, ()), ns(values[:-12]), {})
        assert model.coefficients == prefix_model.coefficients

    def test_rejects_oversized_holdout(self):
        target = ns(np.arange(10))
        with pytest.raises(ValueError, match="holdout"):
            model_suite(target, {}, ("ar",), 1, 0, holdout=9)

    @pytest.fixture(scope="class")
    def shipped_models(self, shipped_smoothed, reference):
        """Each suite model's name, spec and series on the shipped corpus's smoothed run output."""
        target, components = shipped_smoothed
        return [
            (name, ArmaSpec(reference.p, reference.q, names), target,
             {n: components[n] for n in names})
            for name, names in MODEL_EXOGENOUS.items()
        ]

    def test_evaluation_from_a_later_row_is_the_tail_of_the_full_one(self, shipped_models):
        for _, spec, target, exogenous in shipped_models:
            model = fit_arma(spec, target, exogenous)
            full = evaluate(model, target, exogenous)
            for first_row in range(len(full.errors)):
                report = evaluate(model, target, exogenous, first_row)
                assert report.errors == full.errors[first_row:], (spec, first_row)
                assert report.months == full.months[first_row:]

    def test_holdout_is_the_prefix_model_evaluated_from_the_split(self, shipped_models):
        for name, spec, target, exogenous in shipped_models:
            for holdout in (1, 12, 24):
                split = len(target) - holdout
                ((_, model, report),) = model_suite(
                    target, exogenous, (name,), spec.ar_order, spec.exog_order, holdout
                )
                prefix = {n: s[:split] for n, s in exogenous.items()}
                assert model == fit_arma(spec, target[:split], prefix)
                assert report == evaluate(model, target, exogenous, split - spec.max_lag)
                assert report.months[0] == target.months[split]

    def test_largest_admitted_holdout_fits_and_one_more_is_rejected(self, shipped_models):
        # Training needs max_lag months, then at least two rows and one row
        # per coefficient: on the shipped 66 months (p 1, q 3) that is 5
        # months for ar, 7 for one series and 10 for a pair.
        for name, spec, target, exogenous in shipped_models:
            coefficients = spec.ar_order + spec.n_exogenous * spec.exog_order
            need = spec.max_lag + max(2, coefficients)
            largest = len(target) - need
            lags = spec.ar_order, spec.exog_order
            ((_, model, report),) = model_suite(target, exogenous, (name,), *lags, largest)
            assert len(model.coefficients) == coefficients
            assert len(report.errors) == largest
            message = (f"holdout of {largest + 1} leaves only {need - 1} training months; "
                       f"need at least {need}")
            with pytest.raises(ValueError, match=re.escape(message)):
                model_suite(target, exogenous, (name,), *lags, largest + 1)

    @settings(max_examples=100, deadline=None)
    @given(
        length=st.integers(12, 120),
        ar_order=st.integers(0, 3),
        exog_order=st.integers(0, 3),
        constant=st.sampled_from((None, *MODEL_EXOGENOUS["both-arousal"])),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_held_out_rows_of_the_one_design_fit_as_prefix_series(
        self, length, ar_order, exog_order, constant, seed, data
    ):
        # A zero exogenous order admits the benchmark alone; a constant
        # component makes the designs that use it rank-deficient.
        assume(ar_order or exog_order)
        names = MODEL_NAMES if exog_order else ("ar",)
        max_lag = max(ar_order, exog_order)
        need = max_lag + max(2, ar_order + (2 if exog_order else 0) * exog_order)
        holdout = data.draw(st.integers(0, length - need), label="holdout")
        rng = np.random.default_rng(seed)
        target = ns(rng.normal(50, 5, length))
        components = {name: ns(rng.normal(5, 1, length)) for name in make_components(0)}
        if constant is not None:
            components[constant] = ns([5.0] * length)
        lags = ar_order, exog_order
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            entries = model_suite(target, components, names, *lags, holdout)
            assert entries == prefix_suite(target, components, names, *lags, holdout)

    @pytest.mark.parametrize("holdout", [0, 12])
    def test_one_fit_and_one_evaluation_per_model_and_no_series_slice(
        self, monkeypatch, reference, holdout
    ):
        rng = np.random.default_rng(71)
        target, components = ns(rng.normal(50, 5, 66)), make_components(71)
        calls = []

        def counted(kind, function):
            def wrapper(*args, **kwargs):
                calls.append(kind)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(forecast, "fit_arma", counted("fit", forecast.fit_arma))
        monkeypatch.setattr(forecast, "evaluate", counted("evaluate", forecast.evaluate))
        monkeypatch.setattr(
            NumericSeries, "__getitem__", counted("slice", NumericSeries.__getitem__)
        )
        entries = model_suite(target, components, MODEL_NAMES, reference.p, reference.q, holdout)
        assert len(entries) == len(MODEL_NAMES)
        assert calls == ["fit", "evaluate"] * len(MODEL_NAMES)


class TestModelSuite:
    @pytest.fixture(scope="class")
    def full_suites(self, shipped_smoothed, reference):
        """The full suite on the shipped smoothed run output, in-sample and holding out 12."""
        target, components = shipped_smoothed
        return {
            holdout: model_suite(
                target, components, MODEL_NAMES, reference.p, reference.q, holdout
            )
            for holdout in (0, 12)
        }

    @settings(max_examples=25, deadline=None)
    @given(
        names=st.lists(st.sampled_from(MODEL_NAMES), min_size=1, unique=True).map(tuple),
        holdout=st.sampled_from((0, 12)),
    )
    def test_named_models_fit_as_in_the_full_suite(
        self, shipped_smoothed, full_suites, reference, names, holdout
    ):
        target, components = shipped_smoothed
        entries = model_suite(target, components, names, reference.p, reference.q, holdout)
        by_name = {entry.name: entry for entry in full_suites[holdout]}
        # Exact equality: every coefficient, error and curve point bit for bit.
        assert entries == [by_name[name] for name in names]

    def test_ten_models_fixed_order(self, reference):
        rng = np.random.default_rng(43)
        target = ns(rng.normal(50, 5, 66))
        entries = model_suite(target, make_components(43), MODEL_NAMES, reference.p, reference.q, 0)
        assert [e.name for e in entries] == list(MODEL_NAMES)
        assert len(entries) == 10

    def test_shared_evaluation_months(self, reference):
        rng = np.random.default_rng(47)
        target = ns(rng.normal(50, 5, 66))
        entries = model_suite(target, make_components(47), MODEL_NAMES, reference.p, reference.q, 0)
        first = entries[0].report.months
        assert all(e.report.months == first for e in entries)

    def test_exogenous_wiring_matches_names(self, reference):
        rng = np.random.default_rng(53)
        target = ns(rng.normal(50, 5, 66))
        entries = model_suite(target, make_components(53), MODEL_NAMES, reference.p, reference.q, 0)
        for entry in entries:
            assert entry.model.spec.exogenous_names == MODEL_EXOGENOUS[entry.name]

    def test_driven_target_makes_both_arousal_win(self, reference):
        target, components = _arousal_driven_fixture(0)
        entries = model_suite(target, components, MODEL_NAMES, reference.p, reference.q, 0)
        best = min(entries, key=lambda e: e.report.mae)
        assert best.name == "both-arousal"

    def test_nested_sse_dominance_within_suite(self, reference):
        rng = np.random.default_rng(59)
        target = ns(rng.normal(50, 5, 66))
        entries = model_suite(target, make_components(59), MODEL_NAMES, reference.p, reference.q, 0)
        ar_sse = next(e for e in entries if e.name == "ar").model.sse
        for entry in entries:
            assert entry.model.sse <= ar_sse + 1e-9

    def test_constant_components_still_ten_entries(self, reference):
        # constant series make every exogenous design rank-deficient; the
        # suite still completes with min-norm fits and nested SSE dominance
        rng = np.random.default_rng(61)
        target = ns(rng.normal(50, 5, 66))
        components = {name: ns([5.0] * 66) for name in make_components(0)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            entries = model_suite(target, components, MODEL_NAMES, reference.p, reference.q, 0)
        assert [e.name for e in entries] == list(MODEL_NAMES)
        ar_sse = next(e for e in entries if e.name == "ar").model.sse
        for entry in entries:
            assert entry.model.sse <= ar_sse + 1e-9

    def test_rejects_missing_component(self, reference):
        rng = np.random.default_rng(67)
        target = ns(rng.normal(50, 5, 66))
        components = make_components(67)
        del components["std-dominance"]
        with pytest.raises(ValueError, match="std-dominance"):
            model_suite(target, components, MODEL_NAMES, reference.p, reference.q, 0)


def _arousal_driven_fixture(seed):
    """Target driven by the arousal mean and std components."""
    rng = np.random.default_rng([10, seed])
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
    return ns(x), components


class TestPermuteSeries:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_preserves_value_multiset(self, seed):
        rng = np.random.default_rng(seed)
        values = list(np.random.default_rng(seed + 1).normal(0, 1, 30))
        shuffled = permute_series(ns(values), rng)
        assert sorted(shuffled.values) == pytest.approx(sorted(values))
        assert shuffled.months == ns(values).months

    def test_rejects_missing_values(self):
        series = NumericSeries(
            months=ns([0.0, 0.0]).months, values=[1.0, None]
        )
        with pytest.raises(ValueError):
            permute_series(series, np.random.default_rng(0))


class TestSurrogateTest:
    def test_single_surrogate_deterministic(self):
        rng = np.random.default_rng(71)
        target = ns(rng.normal(50, 5, 40))
        exog = {"y": ns(rng.normal(0, 1, 40))}
        spec = ArmaSpec(1, 3, ("y",))
        first = surrogate_test(spec, target, exog, n_surrogates=1, seed=9)
        second = surrogate_test(spec, target, exog, n_surrogates=1, seed=9)
        assert first == second
        assert len(first.surrogate_maes) == 1

    def test_p_hat_counts_at_or_below(self):
        rng = np.random.default_rng(73)
        target = ns(rng.normal(50, 5, 40))
        exog = {"y": ns(rng.normal(0, 1, 40))}
        report = surrogate_test(ArmaSpec(1, 3, ("y",)), target, exog, n_surrogates=25, seed=3)
        manual = sum(1 for m in report.surrogate_maes if m <= report.empirical_mae) / 25
        assert report.p_hat == manual

    def test_informative_input_beats_surrogates(self):
        rng = np.random.default_rng([6, 0])
        y = rng.normal(0, 1, 66)
        x = np.zeros(66)
        for t in range(1, 66):
            drive = 0.5 * y[t - 2] if t >= 2 else 0.0
            x[t] = 0.9 * x[t - 1] + drive + rng.normal(0, 0.1)
        report = surrogate_test(
            ArmaSpec(1, 3, ("y",)), ns(x), {"y": ns(y)}, n_surrogates=100, seed=0
        )
        assert report.p_hat <= 0.05

    def test_shipped_corpus_maes_equal_the_row_built_oracle(self, pipeline_run):
        out, _ = pipeline_run
        target = read_series_csv(out / "attitude_smoothed.csv")
        components = read_emotion_csv(out / "emotion_series_smoothed.csv").components
        spec = ArmaSpec(1, 3, MODEL_EXOGENOUS["both-arousal"])
        exogenous = {name: components[name] for name in spec.exogenous_names}
        report = surrogate_test(spec, target, exogenous, n_surrogates=200, seed=0)
        empirical, maes, p_hat = rows_surrogate_test(spec, target, exogenous, 200, 0)
        assert report.empirical_mae == empirical
        assert report.surrogate_maes == maes
        assert report.p_hat == p_hat

    @given(lag_designs(min_exogenous=1, fitted=True), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_maes_equal_the_row_built_oracle(self, design, seed):
        spec, target, exogenous = design
        report = surrogate_test(spec, target, exogenous, n_surrogates=5, seed=seed)
        assert (report.empirical_mae, report.surrogate_maes, report.p_hat) == (
            rows_surrogate_test(spec, target, exogenous, 5, seed)
        )

    def test_rejects_no_exogenous_and_bad_count(self, reference):
        target = ns(np.arange(20))
        with pytest.raises(ValueError):
            surrogate_test(ArmaSpec(1, 0, ()), target, {}, n_surrogates=10, seed=reference.seed)
        with pytest.raises(ValueError):
            surrogate_test(
                ArmaSpec(1, 1, ("y",)), target, {"y": ns(np.arange(20))}, n_surrogates=0,
                seed=reference.seed,
            )
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            surrogate_test(
                ArmaSpec(1, 1, ("y",)), target, {"y": ns(np.arange(20))},
                n_surrogates=reference.surrogates, seed=-1,
            )
