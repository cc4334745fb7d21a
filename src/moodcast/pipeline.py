"""Pipeline stages and the full run.

Each stage function (ingest, score, gap policy, emotion smoothing, suite,
surrogate) takes in-memory inputs, writes its artifacts and returns its
result followed by the list of paths it wrote. The ``moodcast`` stage
subcommands read their inputs back from files and call these functions;
``run_pipeline`` calls them in order, with the align step between score
and gap policy and the rolling correlations after smoothing, so a staged
run and a full run write the same bytes. The full run ends with a manifest
of configuration, input and artifact digests and stage times. The timestamp
and the times live only in the manifest, so reruns with identical inputs and
configuration reproduce every other artifact byte for byte. A failed stage
leaves a ``run.failed`` marker naming the stage.
"""

from __future__ import annotations

import os
import time
import warnings
from datetime import datetime, timezone
from itertools import combinations, groupby
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, TextIO

from . import __version__
from .analysis import (
    NumericSeries,
    check_correlation_args,
    check_smooth_window,
    hamming_smooth,
    linear_interpolate,
    rolling_correlation,
)
from .emotion import COMPONENTS, EmotionSeries, build_series, top_lexicon_words
from .forecast import (
    EXOGENOUS_MODELS,
    MODEL_EXOGENOUS,
    MODEL_NAMES,
    ArmaSpec,
    SuiteEntry,
    SurrogateReport,
    check_surrogate_args,
    model_suite,
    surrogate_test,
)
from .ingest import (
    MonthlyBucket,
    ThreadTally,
    build_threads,
    check_min_messages,
    filter_threads,
    monthly_subject_buckets,
    parse_messages,
)
from .lexicon import Lexicon, load_lexicon
from .months import month_ord
from .reports import (
    _write_json,
    load_attitude_series,
    sha256_file,
    write_buckets_json,
    write_correlation_csv,
    write_counts_csv,
    write_emotion_csv,
    write_models_json,
    write_series_csv,
    write_surrogate_json,
    write_top_words_csv,
)

GAP_POLICIES = ("fail", "linear-interpolate")

# Canonical series order for correlation pair files.
SERIES_ORDER = tuple(name.replace("-", "_") for name in COMPONENTS) + ("attitude",)

FAILURE_MARKER = "run.failed"
MANIFEST = "run_manifest.json"


class PipelineConfig(NamedTuple):
    """Everything a full run needs; defaults are the reference setup.

    Each field is the ``moodcast run`` flag of its name, which the CLI and
    the manifest's config echo take from here, in this order.
    """

    lexicon: Path
    messages: Path
    attitude: Path
    out: Path
    min_messages: int = 3
    smooth_window: int = 4
    corr_window: int = 13
    alpha: float = 0.05
    p: int = 1
    q: int = 3
    surrogates: int = 1000
    seed: int = 0
    gap_policy: str = "fail"
    surrogate_model: Optional[str] = None
    surrogate_full: bool = False


def ingest_stage(
    tally: ThreadTally, out: Path, *, min_messages: int
) -> tuple[list[MonthlyBucket], dict[str, int], list[Path]]:
    """Summarize, filter and bucket parsed threads into ``buckets.json``
    and ``discussion_counts.csv`` under ``out``.

    Returns the monthly buckets and the message, thread and kept-thread
    counts, then the paths written.
    """
    threads = build_threads(tally)
    kept = filter_threads(threads, min_messages)
    buckets = monthly_subject_buckets(kept)
    if not buckets:
        raise ValueError(f"no threads with at least {min_messages} messages; nothing to score")
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "buckets.json", out / "discussion_counts.csv"]
    write_buckets_json(paths[0], buckets)
    write_counts_csv(paths[1], buckets)
    counts = {"messages": len(tally), "threads": len(threads), "threads_kept": len(kept)}
    return buckets, counts, paths


def score_stage(
    buckets: list[MonthlyBucket], lexicon: Lexicon, out: Path
) -> tuple[EmotionSeries, list[Path]]:
    """Score buckets into ``emotion_series.csv`` and rank each year's
    lexicon words into ``top_words.csv`` under ``out``.

    Returns the raw emotion series, then the paths written.
    """
    emotion = build_series(buckets, lexicon)  # checks that the months run in order
    per_year = {}
    for year, year_buckets in groupby(buckets, key=lambda bucket: bucket.month[:4]):
        words = top_lexicon_words(list(year_buckets), lexicon)
        if words:
            per_year[year] = words
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "emotion_series.csv", out / "top_words.csv"]
    write_emotion_csv(paths[0], emotion)
    write_top_words_csv(paths[1], per_year)
    return emotion, paths


def check_gap_policy(policy: str) -> None:
    """Reject a gap policy that is not one of ``GAP_POLICIES``."""
    if policy not in GAP_POLICIES:
        raise ValueError(f"gap_policy must be one of {GAP_POLICIES}, got {policy!r}")


def fill_gaps(
    components: Mapping[str, NumericSeries], policy: str
) -> tuple[dict[str, NumericSeries], dict[str, list[str]]]:
    """Apply the gap policy to named series that may lack some months.

    ``fail`` rejects the first series, in name order, with a missing month;
    ``linear-interpolate`` fills every gap; any other policy is rejected,
    gaps or not. Returns the gap-free series and the filled months per series.
    """
    check_gap_policy(policy)
    filled = dict(components)
    interpolated: dict[str, list[str]] = {}
    for name in sorted(components):
        series = components[name]
        gaps = [m for m, v in zip(series.months, series.values) if v is None]
        if not gaps:
            continue
        if policy == "fail":
            raise ValueError(
                f"series {name} has no value for {gaps[0]} ({len(gaps)} gap month(s) in "
                f"{series.months[0]}..{series.months[-1]}); rerun with "
                "--gap-policy linear-interpolate to fill gaps"
            )
        filled[name] = linear_interpolate(series)
        interpolated[name] = gaps
    return filled, interpolated


def smooth_emotion(
    series: EmotionSeries, path: Path, *, window: int
) -> tuple[EmotionSeries, list[Path]]:
    """Smooth the six gap-free components into an emotion table at ``path``;
    each month keeps its match and thread counts."""
    components = {name: hamming_smooth(c, window) for name, c in series.components.items()}
    smoothed = EmotionSeries(components, series.records)
    write_emotion_csv(path, smoothed)
    return smoothed, [path]


def suite_stage(
    target: NumericSeries,
    components: Mapping[str, NumericSeries],
    path: Path,
    *,
    names: tuple[str, ...],
    ar_order: int,
    exog_order: int,
    holdout: int,
) -> tuple[list[SuiteEntry], list[Path]]:
    """Fit and evaluate the named models into a models JSON at ``path``,
    in-sample at a ``holdout`` of 0 and on the held-out split otherwise."""
    entries = model_suite(target, components, names, ar_order, exog_order, holdout)
    write_models_json(path, entries, "held-out" if holdout else "in-sample")
    return entries, [path]


def surrogate_stage(
    target: NumericSeries,
    components: Mapping[str, NumericSeries],
    path: Path,
    *,
    model: str,
    ar_order: int,
    exog_order: int,
    n_surrogates: int,
    seed: int,
    include_maes: bool,
) -> tuple[SurrogateReport, list[Path]]:
    """Surrogate test of one exogenous model, written as JSON at ``path``."""
    spec = ArmaSpec(ar_order, exog_order, MODEL_EXOGENOUS[model])
    exogenous = {name: components[name] for name in spec.exogenous_names}
    report = surrogate_test(spec, target, exogenous, n_surrogates=n_surrogates, seed=seed)
    write_surrogate_json(path, report, model_name=model, include_maes=include_maes)
    return report, [path]


class _StageRecorder:
    """The running stage's name and the wall seconds of each stage it closed.
    Given a ``progress`` stream, it writes one ``stage <name>[: detail]`` line per stage."""

    def __init__(self, progress: Optional[TextIO]) -> None:
        self.progress, self.name, self.timings = progress, "config", {}
        self.started = time.perf_counter()

    def __call__(self, name: str, detail: str = "", *, quiet: bool = False) -> None:
        """Close the running stage's time and start ``name``, writing its line unless ``quiet``."""
        now = time.perf_counter()
        self.timings[self.name] = round(now - self.started, 6)
        self.name, self.started = name, now
        if not quiet:
            self.note(detail)

    def note(self, detail: str) -> None:
        """Write the running stage's line, with ``detail`` after a colon if it has one."""
        if self.progress is not None:
            print(f"stage {self.name}" + (detail and f": {detail}"), file=self.progress, flush=True)


def run_pipeline(config: PipelineConfig, progress: Optional[TextIO] = None) -> dict:
    """Run every stage and return the manifest dictionary.

    The manifest and failure marker of an earlier run are removed first,
    and the new manifest is written last, by rename, so it only ever
    describes a finished run. The first stage checks every option, numeric
    ones with the checks of the stages that use them, before any input is read.
    A stage failure writes ``run.failed`` (stage name plus diagnostic) and
    re-raises; given a ``progress`` stream, each stage writes its line there.
    """
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / FAILURE_MARKER
    for stale in (marker, out / MANIFEST):
        stale.unlink(missing_ok=True)
    artifacts: list[Path] = []
    stage = _StageRecorder(progress)
    try:
        check_min_messages(config.min_messages)
        check_smooth_window(config.smooth_window)
        check_gap_policy(config.gap_policy)
        check_correlation_args(config.corr_window, config.alpha)
        for name in MODEL_NAMES:
            ArmaSpec(config.p, config.q, MODEL_EXOGENOUS[name])
        check_surrogate_args(config.surrogates, config.seed)
        if config.surrogate_model not in (None, *EXOGENOUS_MODELS):
            raise ValueError(
                f"surrogate_model must be an exogenous model name, got {config.surrogate_model!r}"
            )

        stage("load-inputs")
        lexicon = load_lexicon(config.lexicon)
        tally = parse_messages(config.messages)
        attitude = load_attitude_series(config.attitude)

        stage("ingest", f"{len(tally)} messages")
        buckets, corpus, paths = ingest_stage(tally, out, min_messages=config.min_messages)
        artifacts += paths

        stage("score", f"{len(buckets)} monthly buckets")
        raw_emotion, paths = score_stage(buckets, lexicon, out)
        artifacts += paths

        first = max(raw_emotion.months[0], attitude.months[0], key=month_ord)
        last = min(raw_emotion.months[-1], attitude.months[-1], key=month_ord)
        stage("align", f"common range {first}..{last}")
        if month_ord(first) > month_ord(last):
            raise ValueError(
                f"corpus months {raw_emotion.months[0]}..{raw_emotion.months[-1]} and "
                f"attitude months {attitude.months[0]}..{attitude.months[-1]} do not overlap"
            )
        span = slice(raw_emotion.months.index(first), raw_emotion.months.index(last) + 1)
        components = {name: series[span] for name, series in raw_emotion.components.items()}
        attitude = attitude[attitude.months.index(first) : attitude.months.index(last) + 1]

        stage("gaps", quiet=True)
        components, interpolated = fill_gaps(components, config.gap_policy)
        if interpolated:
            stage.note(f"interpolated {len(interpolated)} series")
        emotion = EmotionSeries(components, raw_emotion.records[span])
        aligned = [out / "emotion_series_aligned.csv", out / "attitude_aligned.csv"]
        write_emotion_csv(aligned[0], emotion)
        write_series_csv(aligned[1], attitude, "rate")
        artifacts += aligned

        stage("smooth", f"window {config.smooth_window}")
        smoothed, paths = smooth_emotion(
            emotion, out / "emotion_series_smoothed.csv", window=config.smooth_window
        )
        smooth_attitude = hamming_smooth(attitude, config.smooth_window)
        write_series_csv(out / "attitude_smoothed.csv", smooth_attitude, "rate")
        artifacts += [*paths, out / "attitude_smoothed.csv"]

        stage("correlate", f"window {config.corr_window}, alpha {config.alpha}")
        for label, table, target in (
            ("raw", emotion, attitude),
            ("smoothed", smoothed, smooth_attitude),
        ):
            pool = dict(zip(SERIES_ORDER, [*table.components.values(), target]))
            pair_dir = out / "correlations" / label
            pair_dir.mkdir(parents=True, exist_ok=True)
            for name_a, name_b in combinations(SERIES_ORDER, 2):
                track = rolling_correlation(
                    pool[name_a], pool[name_b], config.corr_window, config.alpha
                )
                path = pair_dir / f"{name_a}__{name_b}.csv"
                write_correlation_csv(path, track)
                artifacts.append(path)

        with warnings.catch_warnings(record=True) as fit_warnings:
            warnings.simplefilter("always")
            stage("forecast", f"{len(MODEL_NAMES)} models, lag orders {config.p}/{config.q}")
            lags = {"ar_order": config.p, "exog_order": config.q}
            entries, paths = suite_stage(
                smooth_attitude, smoothed.components, out / "models.json",
                names=MODEL_NAMES, holdout=0, **lags,
            )
            artifacts += paths

            chosen = config.surrogate_model or min(
                (e for e in entries if e.name in EXOGENOUS_MODELS),
                key=lambda e: (e.report.mae, MODEL_NAMES.index(e.name)),
            ).name
            stage("surrogate", f"model {chosen}, {config.surrogates} surrogates")
            surrogate, paths = surrogate_stage(
                smooth_attitude, smoothed.components, out / "surrogate.json", model=chosen,
                n_surrogates=config.surrogates, seed=config.seed,
                include_maes=config.surrogate_full, **lags,
            )
            artifacts += paths

        stage("manifest", quiet=True)
        manifest = {
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config": {
                name: str(value) if isinstance(value, Path) else value
                for name, value in config._asdict().items()
            },
            "inputs": {
                name: {"path": str(path), "sha256": sha256_file(path)}
                for name in ("lexicon", "messages", "attitude")
                for path in [getattr(config, name)]
            },
            "corpus": {
                **corpus,
                "first_month": raw_emotion.months[0],
                "last_month": raw_emotion.months[-1],
            },
            "aligned_months": {"first": first, "last": last},
            "interpolated_months": interpolated,
            "surrogate": {
                "model": chosen,
                "p_hat": surrogate.p_hat,
                "empirical_mae": surrogate.empirical_mae,
            },
            "warnings": [str(w.message) for w in fit_warnings],
            "timings": stage.timings,
            "artifacts": {
                str(path.relative_to(out)): sha256_file(path)
                for path in sorted(artifacts)
            },
        }
        pending = out / (MANIFEST + ".tmp")
        _write_json(pending, manifest)
        os.replace(pending, out / MANIFEST)
        if progress is not None:
            print(f"run complete: {len(artifacts) + 1} artifacts in {out}", file=progress)
        return manifest
    except Exception as exc:
        marker.write_text(f"{stage.name}: {exc}\n", encoding="utf-8")
        raise
