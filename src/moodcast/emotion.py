"""Monthly emotion scoring against an affective lexicon.

Turns monthly token buckets into per-dimension mean and standard deviation
series. Scoring is frequency weighted: a token that appears five times in a
month's subjects counts five times in that month's population statistics.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

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


class MonthCounts(NamedTuple):
    """One month's lexicon-matched token count and the number of its threads."""

    match_count: int
    thread_count: int


class EmotionSeries(Record):
    """An emotion table: the six ``COMPONENTS`` series, in that order, on one
    month axis (None where no token matched), and one ``MonthCounts`` per month."""

    __slots__ = ("components", "records")

    def __init__(self, components: dict[str, NumericSeries], records: list[MonthCounts]) -> None:
        if tuple(components) != COMPONENTS:
            raise ValueError(f"emotion components must be {', '.join(COMPONENTS)}, in that order")
        months = components[COMPONENTS[0]].months
        if any(series.months != months for series in components.values()):
            raise ValueError("emotion components must share one month axis")
        if len(records) != len(months):
            raise ValueError("months and records must have equal length")
        super().__init__(components, records)

    @property
    def months(self) -> MonthAxis:
        return self.components[COMPONENTS[0]].months


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
    scored = [score_month(b, lexicon) for b in buckets]
    components = {
        f"{stat}-{dim}": NumericSeries(months, [getattr(m, stat)[dim] for m in scored])
        for stat in STATS
        for dim in DIMENSIONS
    }
    return EmotionSeries(components, [MonthCounts(m.match_count, m.thread_count) for m in scored])


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
