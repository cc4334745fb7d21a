"""The record contract: field names and order, immutability, equality, hashing,
copies and the constructor checks of every record class the package defines."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import moodcast
from moodcast.analysis import CorrelationTrack, NumericSeries
from moodcast.emotion import COMPONENTS, EmotionSeries, MonthCounts
from moodcast.forecast import (
    ArmaModel,
    ArmaSpec,
    EvaluationReport,
    RegressionSystem,
    SuiteEntry,
    SurrogateReport,
)
from moodcast.ingest import MonthlyBucket, ThreadTally
from moodcast.lexicon import LexiconEntry
from moodcast.months import MonthAxis
from moodcast.pipeline import PipelineConfig
from moodcast.records import Record

README = Path(__file__).resolve().parents[1] / "README.md"
AXIS = MonthAxis(24000, 3)
# Arrays compare element-wise, so both copies of a regression system share them.
ARRAYS = np.ones((3, 2)), np.ones(3)


def _components(order=COMPONENTS):
    return {name: NumericSeries(AXIS, [5.0] * 3) for name in order}


def _model():
    return ArmaModel(ArmaSpec(1, 1, ("x",)), [0.5, 0.25], 0.5)


def _evaluation():
    return EvaluationReport(AXIS[1:], [0.5, 0.0], [0.5, 0.25], 0.25)


# Record class -> (its fields in order, a function that builds one anew).
RECORDS = {
    MonthAxis: (("start", "length"), lambda: MonthAxis(24000, 3)),
    NumericSeries: (("months", "values"), lambda: NumericSeries(AXIS, [1.0, None, 3.0])),
    CorrelationTrack: (
        ("months", "r", "n_window", "p_value", "significant"),
        lambda: CorrelationTrack(AXIS, [None, 0.5, 1.0], [2, 3, 2], [None, 0.5, 0.0],
                                 [False, False, True]),
    ),
    MonthCounts: (("match_count", "thread_count"), lambda: MonthCounts(3, 2)),
    EmotionSeries: (("components", "records"),
                    lambda: EmotionSeries(_components(), [MonthCounts(3, 2)] * 3)),
    LexiconEntry: (("valence", "arousal", "dominance"), lambda: LexiconEntry(2.08, 7.49, 4.0)),
    ThreadTally: (("stamps", "subjects", "counts", "message_count"),
                  lambda: ThreadTally({"t": datetime(2000, 1, 1, tzinfo=timezone.utc)},
                                      {"t": "war"}, {"t": 2}, 2)),
    MonthlyBucket: (("month", "token_counts", "thread_count"),
                    lambda: MonthlyBucket("2000-01", {"war": 2}, 1)),
    ArmaSpec: (("ar_order", "exog_order", "exogenous_names"), lambda: ArmaSpec(1, 3, ("x",))),
    RegressionSystem: (("regressors", "response", "months"),
                       lambda: RegressionSystem(*ARRAYS, AXIS)),
    ArmaModel: (("spec", "coefficients", "sse"), _model),
    EvaluationReport: (
        ("months", "errors", "cumulative_mean_abs_error", "mae"),
        _evaluation,
    ),
    SuiteEntry: (("name", "model", "report"), lambda: SuiteEntry("x", _model(), _evaluation())),
    SurrogateReport: (
        ("spec", "n_surrogates", "empirical_mae", "surrogate_maes", "p_hat", "seed"),
        lambda: SurrogateReport(ArmaSpec(1, 1, ("x",)), 2, 0.5, [0.25, 0.75], 0.5, 0),
    ),
    PipelineConfig: (
        ("lexicon", "messages", "attitude", "out", "min_messages", "smooth_window",
         "corr_window", "alpha", "p", "q", "surrogates", "seed", "gap_policy",
         "surrogate_model"),
        lambda: PipelineConfig(Path("l.csv"), Path("m.jsonl"), Path("a.csv"), Path("o")),
    ),
}

# The records whose every field is hashable; the others hold a list, dict or array.
HASHABLE = {
    MonthAxis, MonthCounts, LexiconEntry, ArmaSpec, PipelineConfig
}


def test_records_lists_every_record_class():
    defined = set()
    for info in pkgutil.iter_modules(moodcast.__path__, "moodcast."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            named_tuple = issubclass(cls, tuple) and hasattr(cls, "_fields")
            if cls.__module__ == info.name and (named_tuple or issubclass(cls, Record)):
                defined.add(cls)
    assert defined - {Record} == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, build = RECORDS[cls]
    first, second = build(), build()
    assert type(first) is cls
    assert tuple(getattr(cls, "_fields", None) or cls.__slots__) == fields
    # Equal fields give equal records, and equal hashes where the fields are hashable.
    assert first == second and not first != second
    # A named tuple also equals the plain tuple of its fields; a checked record does not.
    values = tuple(getattr(first, name) for name in fields)
    assert (first == values) is hasattr(cls, "_fields")
    if cls in HASHABLE:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    # Read-only: no field can be set or deleted, and no attribute added.
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(first, name, getattr(second, name))
        with pytest.raises(AttributeError):
            delattr(first, name)
    with pytest.raises(AttributeError):
        first.extra = 1
    assert first == second
    # A copy is an equal record of the same class.
    for twin in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert type(twin) is cls and (cls is RegressionSystem or twin == first)
    assert repr(first).startswith(f"{cls.__name__}({fields[0]}=")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MonthAxis(-1, 3), "month axis out of range: start -1, length 3"),
        (lambda: MonthAxis(0, -1), "month axis out of range: start 0, length -1"),
        (lambda: MonthAxis(10000 * 12 - 1, 2), "month axis out of range: start 119999, length 2"),
        (lambda: NumericSeries(AXIS, [1.0]), "months and values must have equal length"),
        (lambda: EmotionSeries(_components(), [MonthCounts(3, 2)]),
         "months and records must have equal length"),
        (lambda: NumericSeries(["2000-01", "2000-03"], [1.0, 2.0]),
         "numeric series: month axis not contiguous near 2000-03 (expected 2000-02)"),
        (lambda: EmotionSeries(_components(order=sorted(COMPONENTS)), [MonthCounts(3, 2)] * 3),
         "emotion components must be mean-valence, mean-arousal, mean-dominance, "
         "std-valence, std-arousal, std-dominance, in that order"),
        (lambda: EmotionSeries(
            {**_components(), "std-dominance": NumericSeries(AXIS[1:], [1.0] * 2)},
            [MonthCounts(3, 2)] * 3,
        ),
         "emotion components must share one month axis"),
        (lambda: CorrelationTrack([], [], [], [], []), "correlation track: month axis is empty"),
        (lambda: ArmaSpec(-1, 1, ()), "lag orders must be non-negative"),
        (lambda: ArmaSpec(1, -1, ()), "lag orders must be non-negative"),
        (lambda: ArmaSpec(0, 0, ()), "model needs at least one lag term"),
        (lambda: ArmaSpec(1, 0, ("x",)), "exogenous series given but exog_order is 0"),
    ],
)
def test_checked_records_reject_bad_fields(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()



@pytest.mark.parametrize(
    "kind, named_tuples", [("Named tuples", True), ("Read-only slot classes", False)]
)
def test_readme_lists_each_record_class_by_kind(kind, named_tuples):
    # The first sentence of README's "*<kind>*" item under Library layout names its classes.
    layout = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    item = re.search(rf"^- \*{kind}\*(.*?)\.\s", layout, re.MULTILINE | re.DOTALL)
    listed = set(re.findall(r"`(\w+)`", item.group(1)))
    assert listed == {cls.__name__ for cls in RECORDS if hasattr(cls, "_fields") is named_tuples}
