"""Monthly emotion time series from discussion archives.

The library turns a timestamped message corpus into monthly valence,
arousal and dominance series by scoring subject-line tokens against an
affective lexicon, analyzes those series (causal Hamming smoothing,
rolling windowed correlation with significance), and fits lagged
regressions that forecast an external monthly attitude series one step
ahead, including a surrogate-permutation significance test. The
``moodcast`` command line drives the same stages end to end.
"""

from .analysis import (
    CorrelationTrack,
    NumericSeries,
    fisher_significance,
    hamming_smooth,
    hamming_weights,
    linear_interpolate,
    rolling_correlation,
)
from .emotion import (
    DIMENSIONS,
    EmotionSeries,
    MonthEmotion,
    WeightedWord,
    build_series,
    component_series,
    score_month,
    top_lexicon_words,
)
from .errors import InputFormatError
from .forecast import (
    MODEL_EXOGENOUS,
    MODEL_NAMES,
    ArmaModel,
    ArmaSpec,
    EvaluationReport,
    SuiteEntry,
    SurrogateReport,
    evaluate,
    evaluate_holdout,
    fit_arma,
    model_suite,
    surrogate_test,
)
from .ingest import (
    MonthlyBucket,
    ThreadSummary,
    build_threads,
    filter_threads,
    monthly_subject_buckets,
    parse_messages,
)
from .lexicon import Lexicon, LexiconEntry, load_lexicon, tokenize
from .pipeline import PipelineConfig, run_pipeline
from .reports import load_attitude_series
from .version import PACKAGE_VERSION

__version__ = PACKAGE_VERSION

__all__ = [
    "__version__",
    "InputFormatError",
    "Lexicon",
    "LexiconEntry",
    "load_lexicon",
    "tokenize",
    "ThreadSummary",
    "MonthlyBucket",
    "parse_messages",
    "build_threads",
    "filter_threads",
    "monthly_subject_buckets",
    "load_attitude_series",
    "DIMENSIONS",
    "MonthEmotion",
    "EmotionSeries",
    "WeightedWord",
    "score_month",
    "build_series",
    "component_series",
    "top_lexicon_words",
    "NumericSeries",
    "CorrelationTrack",
    "hamming_weights",
    "hamming_smooth",
    "linear_interpolate",
    "fisher_significance",
    "rolling_correlation",
    "MODEL_NAMES",
    "MODEL_EXOGENOUS",
    "ArmaSpec",
    "ArmaModel",
    "EvaluationReport",
    "SuiteEntry",
    "SurrogateReport",
    "fit_arma",
    "evaluate",
    "evaluate_holdout",
    "model_suite",
    "surrogate_test",
    "PipelineConfig",
    "run_pipeline",
]
