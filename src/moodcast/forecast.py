"""One-step forecasting of a target series from its own and exogenous lags.

The model is linear in lagged values: the target regressed on its last
``ar_order`` values and on the last ``exog_order`` values of each exogenous
series, with no intercept. Coefficients come from ordinary least squares; a
fitted ``ArmaModel`` keeps them as one vector in the design's column order.
Evaluation is one-step-ahead, by mean absolute error and its running mean:
``evaluate`` scores a fit in sample, or from a later row (``first_row``), and
a held-out evaluation fits the rows before that row (``fit_arma``'s ``stop``).

numpy is imported by the functions that compute, not at module import, so
the subcommands that fit no model start without it.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

from .analysis import NumericSeries
from .emotion import COMPONENTS, DIMENSIONS
from .months import MonthAxis
from .records import Record

if TYPE_CHECKING:
    import numpy as np

# The ten standard models, in report order: the pure autoregressive
# benchmark, one per emotion component, and one per mean+std pair.
MODEL_EXOGENOUS: dict[str, tuple[str, ...]] = {
    "ar": (),
    **{name: (name,) for name in COMPONENTS},
    **{f"both-{dim}": (f"mean-{dim}", f"std-{dim}") for dim in DIMENSIONS},
}
MODEL_NAMES = tuple(MODEL_EXOGENOUS)

# The models with at least one emotion series: candidates for the surrogate test.
EXOGENOUS_MODELS = tuple(name for name in MODEL_NAMES if MODEL_EXOGENOUS[name])


class ArmaSpec(Record):
    """Model shape: autoregressive order, exogenous lag order, series names."""

    __slots__ = ("ar_order", "exog_order", "exogenous_names")

    def __init__(self, ar_order: int, exog_order: int, exogenous_names: tuple[str, ...]) -> None:
        if ar_order < 0 or exog_order < 0:
            raise ValueError("lag orders must be non-negative")
        if ar_order == 0 and exog_order == 0:
            raise ValueError("model needs at least one lag term")
        if exogenous_names and exog_order == 0:
            raise ValueError("exogenous series given but exog_order is 0")
        super().__init__(ar_order, exog_order, exogenous_names)

    @property
    def n_exogenous(self) -> int:
        return len(self.exogenous_names)

    @property
    def max_lag(self) -> int:
        # exog_order counts even with no exogenous series attached, so a
        # benchmark spec with matching orders is evaluated over exactly the
        # same months as the models it is compared against.
        return max(self.ar_order, self.exog_order)


class RegressionSystem(NamedTuple):
    """A lagged design matrix and its response, rows labelled by month."""

    regressors: np.ndarray
    response: np.ndarray
    months: MonthAxis


def assemble_regression(
    spec: ArmaSpec,
    target: NumericSeries,
    exogenous: Mapping[str, NumericSeries],
) -> RegressionSystem:
    """Build the least-squares system for one-step prediction.

    Row t predicts target(t) from target(t-1..t-ar_order) and, per
    exogenous series, series(t-1..t-exog_order). Rows start at the maximum
    lag; every series must share the target's month axis and be gap-free.
    """
    for name in spec.exogenous_names:
        if name not in exogenous:
            raise ValueError(f"missing exogenous series {name!r}")
        if exogenous[name].months != target.months:
            raise ValueError(f"exogenous series {name!r} is not on the target month axis")
    import numpy as np

    start = spec.max_lag
    total = len(target.months)
    columns = []
    for label, series, lags in [("target", target, spec.ar_order)] + [
        (name, exogenous[name], spec.exog_order) for name in spec.exogenous_names
    ]:
        if None in series.values:
            month = series.months[series.values.index(None)]
            raise ValueError(f"series {label!r} has a missing value at {month}")
        values = np.asarray(series.values, dtype=float)
        if label == "target":
            response = values[start:]
        # Column i of a series holds its lag-i values for the rows start..total-1.
        columns.extend(values[start - i : total - i] for i in range(1, lags + 1))
    if total - start < 2:
        raise ValueError(
            f"series of length {total} is too short for maximum lag {start}"
        )
    # column_stack needs a column; ``ArmaSpec(0, q, ())`` (``run --p 0``'s "ar" model) has none.
    return RegressionSystem(
        regressors=np.column_stack(columns) if columns else np.empty((total - start, 0)),
        response=response,
        months=target.months[start:],
    )


class ArmaModel(NamedTuple):
    """A fitted lagged-regression model: its coefficients in the column order
    of ``assemble_regression``, the target's lags and then each exogenous
    series' lags."""

    spec: ArmaSpec
    coefficients: list[float]
    sse: float


def fit_arma(
    spec: ArmaSpec,
    target: NumericSeries,
    exogenous: Mapping[str, NumericSeries],
    stop: Optional[int] = None,
) -> ArmaModel:
    """Fit the lagged regression by ordinary least squares on the regression
    rows before row ``stop`` (every row when it is None).

    On a rank-deficient design the minimum-norm solution is returned and a
    RuntimeWarning is issued.
    """
    import numpy as np

    system = assemble_regression(spec, target, exogenous)
    regressors, response = system.regressors[:stop], system.response[:stop]
    n_rows, n_cols = regressors.shape
    if n_rows < n_cols:
        raise ValueError(
            f"underdetermined fit: {n_rows} rows for {n_cols} coefficients"
        )
    solution, _, rank, _ = np.linalg.lstsq(regressors, response, rcond=None)
    if rank < n_cols:
        warnings.warn(
            f"rank-deficient design (rank {rank} of {n_cols} columns); "
            "returning the minimum-norm least-squares solution",
            RuntimeWarning,
            stacklevel=2,
        )
    residual = response - regressors @ solution
    sse = float(residual @ residual)
    return ArmaModel(spec=spec, coefficients=solution.tolist(), sse=sse)


class EvaluationReport(NamedTuple):
    """One-step evaluation of the rows evaluated: in-sample, or the held-out months."""

    months: MonthAxis
    errors: list[float]
    cumulative_mean_abs_error: list[float]
    mae: float


def evaluate(
    model: ArmaModel,
    target: NumericSeries,
    exogenous: Mapping[str, NumericSeries],
    first_row: int = 0,
) -> EvaluationReport:
    """One-step predictions, signed errors, and the running-mean error curve
    from regression row ``first_row`` on.

    The final point of the cumulative curve equals the mean absolute error.
    """
    import numpy as np

    system = assemble_regression(model.spec, target, exogenous)
    # Predict every row, then keep the tail: a row's prediction does not
    # depend on ``first_row`` (a one-row product can differ in the last bit).
    predictions = system.regressors @ np.asarray(model.coefficients, dtype=float)
    errors = (system.response - predictions)[first_row:]
    cumulative = np.cumsum(np.abs(errors)) / np.arange(1, len(errors) + 1)
    return EvaluationReport(
        months=system.months[first_row:],
        errors=errors.tolist(),
        cumulative_mean_abs_error=cumulative.tolist(),
        mae=float(cumulative[-1]),
    )


class SuiteEntry(NamedTuple):
    """One fitted and evaluated model of the comparison suite."""

    name: str
    model: ArmaModel
    report: EvaluationReport


def model_suite(
    target: NumericSeries,
    components: Mapping[str, NumericSeries],
    names: tuple[str, ...],
    ar_order: int,
    exog_order: int,
    holdout: int,
) -> list[SuiteEntry]:
    """Fit and evaluate the named standard models, in the order named.

    ``components`` must supply the component series those models use. The
    pure-autoregressive benchmark uses the same lag orders as the rest so
    every model is evaluated over the same months. A ``holdout`` of 0 is
    the in-sample evaluation; any other fits the rows before the last
    ``holdout`` months and predicts those, one step ahead from true lags.
    """
    missing = {n for name in names for n in MODEL_EXOGENOUS[name] if n not in components}
    if missing:
        raise ValueError(f"components are missing series: {sorted(missing)}")
    if holdout < 0:
        raise ValueError(f"holdout must be >= 0, got {holdout}")
    split = len(target.months) - holdout
    if holdout and split < 1:
        raise ValueError(
            f"holdout of {holdout} is not shorter than the series of {len(target.months)} months"
        )
    entries = []
    for name in names:
        spec = ArmaSpec(ar_order, exog_order, MODEL_EXOGENOUS[name])
        # The training rows after the first max_lag months: at least two, and
        # at least one per coefficient.
        need = spec.max_lag + max(2, spec.ar_order + spec.n_exogenous * spec.exog_order)
        if holdout and split < need:
            raise ValueError(
                f"holdout of {holdout} leaves only {split} training months; need at least {need}"
            )
        # Regression row ``split - max_lag`` is the first to predict month ``split``.
        first_row = split - spec.max_lag if holdout else 0
        model = fit_arma(spec, target, components, first_row or None)
        entries.append(SuiteEntry(name, model, evaluate(model, target, components, first_row)))
    return entries


def permute_series(series: NumericSeries, rng: np.random.Generator) -> NumericSeries:
    """Randomly reorder a gap-free series' values on the same month axis."""
    if None in series.values:
        month = series.months[series.values.index(None)]
        raise ValueError(f"cannot permute a series with a missing value at {month}")
    import numpy as np

    shuffled = rng.permutation(np.asarray(series.values, dtype=float))
    return NumericSeries(months=series.months, values=shuffled.tolist())


class SurrogateReport(NamedTuple):
    """Permutation-test outcome for one model's exogenous information."""

    spec: ArmaSpec
    n_surrogates: int
    empirical_mae: float
    surrogate_maes: list[float]
    p_hat: float
    seed: int


def check_surrogate_args(n_surrogates: int, seed: int) -> None:
    """Reject a surrogate count below 1 or a negative seed."""
    if n_surrogates < 1:
        raise ValueError(f"n_surrogates must be >= 1, got {n_surrogates}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def surrogate_test(
    spec: ArmaSpec,
    target: NumericSeries,
    exogenous: Mapping[str, NumericSeries],
    n_surrogates: int,
    seed: int,
) -> SurrogateReport:
    """Permutation significance test for the exogenous contribution.

    Each surrogate independently shuffles every exogenous series in time
    (destroying temporal alignment, preserving each value multiset), refits
    the model, and records its in-sample mean absolute error. ``p_hat`` is
    the fraction of surrogates with error at or below the empirical
    model's.
    """
    check_surrogate_args(n_surrogates, seed)
    if not spec.exogenous_names:
        raise ValueError("surrogate test needs at least one exogenous series")
    import numpy as np

    empirical = evaluate(fit_arma(spec, target, exogenous), target, exogenous)
    maes = []
    for i in range(n_surrogates):
        rng = np.random.default_rng([seed, i])
        shuffled = {
            name: permute_series(exogenous[name], rng)
            for name in spec.exogenous_names
        }
        model = fit_arma(spec, target, shuffled)
        maes.append(evaluate(model, target, shuffled).mae)
    at_or_below = sum(1 for m in maes if m <= empirical.mae)
    return SurrogateReport(
        spec=spec,
        n_surrogates=n_surrogates,
        empirical_mae=empirical.mae,
        surrogate_maes=maes,
        p_hat=at_or_below / n_surrogates,
        seed=seed,
    )
