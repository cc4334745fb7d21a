"""Monthly emotion scoring against an affective lexicon.

Turns monthly token buckets into per-dimension mean and standard deviation
series. Scoring is frequency weighted: a token that appears five times in a
month's subjects counts five times in that month's population statistics.
``top_lexicon_words`` ranks the most frequent matched words of some buckets
as (word, count) pairs.
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


def score_month(
    bucket: MonthlyBucket, lexicon: Lexicon
) -> tuple[tuple[Optional[float], ...], MonthCounts]:
    """Score one month's token counts against the lexicon.

    Returns the month's row of the emotion table: the six ``COMPONENTS``
    values, the frequency-weighted population mean and std of each dimension
    over the matched tokens, and the month's ``MonthCounts``. A month with no
    matches gets six None values.
    """
    looked_up = ((count, lexicon.get(token)) for token, count in bucket.token_counts.items())
    matched = [(count, entry) for count, entry in looked_up if entry is not None]
    weights = [count for count, _ in matched]
    counts = MonthCounts(sum(weights), bucket.thread_count)
    if counts.match_count == 0:
        return (None,) * len(COMPONENTS), counts
    means, stds = [], []
    for dim in DIMENSIONS:
        scores = [getattr(entry, dim) for _, entry in matched]
        if len(set(scores)) == 1:
            # All matched tokens share one score: the statistics are exact.
            means.append(scores[0])
            stds.append(0.0)
            continue
        mu = math.fsum(w * x for w, x in zip(weights, scores)) / counts.match_count
        var = math.fsum(w * (x - mu) ** 2 for w, x in zip(weights, scores)) / counts.match_count
        means.append(min(max(mu, min(scores)), max(scores)))
        stds.append(math.sqrt(max(var, 0.0)))
    return (*means, *stds), counts


def build_series(buckets: list[MonthlyBucket], lexicon: Lexicon) -> EmotionSeries:
    """Score every bucket; the bucket axis must be contiguous and nonempty."""
    if not buckets:
        raise ValueError("cannot build an emotion series from zero monthly buckets")
    months = check_contiguous([b.month for b in buckets], what="monthly buckets")
    rows, records = zip(*[score_month(b, lexicon) for b in buckets])
    columns = {name: NumericSeries(months, list(v)) for name, v in zip(COMPONENTS, zip(*rows))}
    return EmotionSeries(columns, list(records))


def top_lexicon_words(buckets: list[MonthlyBucket], lexicon: Lexicon) -> list[tuple[str, int]]:
    """The ``TOP_WORDS`` most frequent lexicon-matched words of the buckets,
    as (word, count) pairs, most frequent first; ties break alphabetically."""
    totals: dict[str, int] = {}
    for bucket in buckets:
        for token, count in bucket.token_counts.items():
            if token in lexicon:
                totals[token] = totals.get(token, 0) + count
    return sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:TOP_WORDS]
