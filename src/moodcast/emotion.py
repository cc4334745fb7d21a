"""Monthly emotion scoring against an affective lexicon.

Turns monthly token buckets into per-dimension mean and standard deviation
series. Scoring is frequency weighted: a token that appears five times in a
month's subjects counts five times in that month's population statistics.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Mapping, NamedTuple, Optional

from .analysis import NumericSeries
from .ingest import MonthlyBucket
from .lexicon import Lexicon
from .months import MonthAxis, check_contiguous
from .records import Record

DIMENSIONS = ("valence", "arousal", "dominance")
STATS = ("mean", "std")

# The six component series of an emotion series, named ``<stat>-<dimension>``.
COMPONENTS = tuple(f"{stat}-{dim}" for stat in STATS for dim in DIMENSIONS)

# How many words ``top_lexicon_words`` ranks.
TOP_WORDS = 20


class MonthEmotion(NamedTuple):
    """Emotion statistics for one month.

    ``mean`` and ``std`` map dimension name to the frequency-weighted
    population statistic, or to None when no token matched the lexicon.
    ``thread_count`` is the number of threads the month's tokens came from.
    """

    month: str
    mean: dict[str, Optional[float]]
    std: dict[str, Optional[float]]
    match_count: int
    thread_count: int


class EmotionSeries(Record):
    """Month-indexed emotion records on a contiguous axis, checked as in ``NumericSeries``."""

    __slots__ = ("months", "records")

    def __init__(self, months: Sequence[str], records: list[MonthEmotion]) -> None:
        if len(months) != len(records):
            raise ValueError("months and records must have equal length")
        if not isinstance(months, MonthAxis):
            months = check_contiguous(months, "emotion series")
        super().__init__(months, records)


def score_month(bucket: MonthlyBucket, lexicon: Lexicon) -> MonthEmotion:
    """Score one month's token counts against the lexicon.

    Returns frequency-weighted population mean and std per dimension over
    the matched tokens. A month with no matches gets None statistics.
    """
    matched: list[tuple[int, dict[str, float]]] = []
    for token, count in bucket.token_counts.items():
        entry = lexicon.get(token)
        if entry is not None:
            scores = {dim: entry.score(dim) for dim in DIMENSIONS}
            matched.append((count, scores))
    match_count = sum(count for count, _ in matched)
    if match_count == 0:
        missing: dict[str, Optional[float]] = {dim: None for dim in DIMENSIONS}
        return MonthEmotion(bucket.month, dict(missing), dict(missing), 0, bucket.thread_count)
    mean: dict[str, Optional[float]] = {}
    std: dict[str, Optional[float]] = {}
    for dim in DIMENSIONS:
        values = {scores[dim] for _, scores in matched}
        if len(values) == 1:
            # All matched tokens share one score: the statistics are exact.
            only = values.pop()
            mean[dim] = only
            std[dim] = 0.0
            continue
        total = math.fsum(count * scores[dim] for count, scores in matched)
        mu = total / match_count
        var = math.fsum(count * (scores[dim] - mu) ** 2 for count, scores in matched) / match_count
        lo = min(scores[dim] for _, scores in matched)
        hi = max(scores[dim] for _, scores in matched)
        mean[dim] = min(max(mu, lo), hi)
        std[dim] = math.sqrt(max(var, 0.0))
    return MonthEmotion(bucket.month, mean, std, match_count, bucket.thread_count)


def build_series(buckets: list[MonthlyBucket], lexicon: Lexicon) -> EmotionSeries:
    """Score every bucket; the bucket axis must be contiguous and nonempty."""
    if not buckets:
        raise ValueError("cannot build an emotion series from zero monthly buckets")
    months = check_contiguous([b.month for b in buckets], what="monthly buckets")
    return EmotionSeries(months=months, records=[score_month(b, lexicon) for b in buckets])


def component_series(series: EmotionSeries) -> dict[str, NumericSeries]:
    """Split an emotion series into its six numeric components.

    Keys are the ``COMPONENTS`` names in their order; unmatched months
    carry None values.
    """
    out: dict[str, NumericSeries] = {}
    for name in COMPONENTS:
        stat, dim = name.split("-")
        values = [getattr(rec, stat)[dim] for rec in series.records]
        out[name] = NumericSeries(months=series.months, values=values)
    return out


def assemble_from_components(
    components: Mapping[str, NumericSeries],
    template: EmotionSeries,
) -> EmotionSeries:
    """Rebuild an emotion series from named component values.

    ``components`` holds the six ``COMPONENTS`` series on one month axis;
    ``template`` supplies the match and thread counts per month (its axis
    must cover the components' axis). Used to carry counts through
    smoothing and interpolation.
    """
    months = components[COMPONENTS[0]].months
    offset = template.months.index(months[0])
    records = []
    for i, (month, counted) in enumerate(zip(months, template.records[offset:])):
        mean = {dim: components[f"mean-{dim}"].values[i] for dim in DIMENSIONS}
        std = {dim: components[f"std-{dim}"].values[i] for dim in DIMENSIONS}
        records.append(MonthEmotion(month, mean, std, counted.match_count, counted.thread_count))
    return EmotionSeries(months=months, records=records)


class WeightedWord(NamedTuple):
    """A ranked word with its count and square-root display weight."""

    word: str
    occurrences: int
    display_weight: float


def top_lexicon_words(buckets: list[MonthlyBucket], lexicon: Lexicon) -> list[WeightedWord]:
    """Rank the ``TOP_WORDS`` most frequent lexicon-matched words of the buckets.

    Ties break alphabetically. ``display_weight`` is the square root of the
    count, for size-proportional rendering downstream.
    """
    totals: dict[str, int] = {}
    for bucket in buckets:
        for token, count in bucket.token_counts.items():
            if token in lexicon:
                totals[token] = totals.get(token, 0) + count
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:TOP_WORDS]
    return [
        WeightedWord(word=w, occurrences=c, display_weight=math.sqrt(c))
        for w, c in ranked
    ]
