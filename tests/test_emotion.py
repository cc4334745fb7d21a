import math
from types import MappingProxyType

import pytest
from hypothesis import example, given, strategies as st

from moodcast.emotion import (
    COMPONENTS,
    DIMENSIONS,
    MonthCounts,
    build_series,
    score_month,
    top_lexicon_words,
)
from moodcast.ingest import MonthlyBucket
from moodcast.lexicon import SCALE_MAX, SCALE_MIN, LexiconEntry
from moodcast.pipeline import score_stage
from moodcast.reports import write_top_words_csv


def _lex(*entries):
    return MappingProxyType({word: LexiconEntry(v, a, d) for word, v, a, d in entries})


TWO_WORD_LEX = _lex(("a", 2.0, 3.0, 4.0), ("b", 8.0, 5.0, 6.0))


def _bucket(month="2004-01", thread_count=1, **counts):
    return MonthlyBucket(month=month, token_counts=counts, thread_count=thread_count)


def _scored(bucket, lexicon):
    """``score_month``'s row as {component: value}, and its counts."""
    row, counts = score_month(bucket, lexicon)
    return dict(zip(COMPONENTS, row)), counts


def reference_score_month(bucket, lexicon):
    """The former dict-based scoring, kept as the oracle of ``score_month``.

    Returns ``(mean, std, match_count, thread_count)``; ``mean`` and ``std``
    map each dimension to its frequency-weighted population statistic, or to
    None when no token matched.
    """
    matched = []
    for token, count in bucket.token_counts.items():
        entry = lexicon.get(token)
        if entry is not None:
            scores = {dim: getattr(entry, dim) for dim in DIMENSIONS}
            matched.append((count, scores))
    match_count = sum(count for count, _ in matched)
    if match_count == 0:
        missing = {dim: None for dim in DIMENSIONS}
        return dict(missing), dict(missing), 0, bucket.thread_count
    mean, std = {}, {}
    for dim in DIMENSIONS:
        values = {scores[dim] for _, scores in matched}
        if len(values) == 1:
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
    return mean, std, match_count, bucket.thread_count


# Few words and few distinct scores and counts, so that draws often repeat a
# count or give every matched word of a dimension the same score.
_WORDS = ("a", "b", "c", "d")
_SCORES = st.sampled_from([1.1, 2.08, 3.3, 9.0]) | st.floats(SCALE_MIN, SCALE_MAX)
_LEXICONS = st.dictionaries(
    st.sampled_from(_WORDS), st.tuples(_SCORES, _SCORES, _SCORES), max_size=len(_WORDS)
).map(lambda entries: _lex(*[(word, *scores) for word, scores in entries.items()]))
_BUCKETS = st.builds(
    lambda counts, threads: _bucket(thread_count=threads, **counts),
    st.dictionaries(
        st.sampled_from(_WORDS + ("zzz",)), st.sampled_from([1, 2, 7]) | st.integers(1, 10**6)
    ),
    st.integers(0, 50),
)


# No match; equal valences whose weighted mean is not exact (3.2999999999999994
# unless taken as exact); a mean that rounds past the larger score unless
# clamped; repeated counts.
@example(bucket=_bucket(zzz=5, thread_count=3), lexicon=TWO_WORD_LEX)
@example(bucket=_bucket(x=1, y=2), lexicon=_lex(("x", 3.3, 5.0, 5.0), ("y", 3.3, 6.0, 5.0)))
@example(
    bucket=_bucket(x=1199, y=641621),
    lexicon=_lex(("x", 6.345225609854807, 5.0, 5.0), ("y", 6.345225609854808, 6.0, 5.0)),
)
@example(bucket=_bucket(a=3, b=3, zzz=3), lexicon=TWO_WORD_LEX)
@given(bucket=_BUCKETS, lexicon=_LEXICONS)
def test_score_month_equals_the_dict_reference_bit_for_bit(bucket, lexicon):
    row, counts = score_month(bucket, lexicon)
    mean, std, match_count, thread_count = reference_score_month(bucket, lexicon)
    expected = [mean[dim] for dim in DIMENSIONS] + [std[dim] for dim in DIMENSIONS]
    assert len(row) == len(COMPONENTS)
    assert [v if v is None else v.hex() for v in row] == [
        v if v is None else v.hex() for v in expected
    ]
    assert counts == MonthCounts(match_count, thread_count)


class TestScoreMonth:
    def test_single_occurrence(self):
        lex = _lex(("war", 2.08, 7.49, 6.38))
        stats, counts = _scored(_bucket(war=1), lex)
        assert stats["mean-valence"] == 2.08
        assert stats["std-valence"] == 0.0
        assert stats["mean-arousal"] == 7.49
        assert counts.match_count == 1

    def test_weighted_mean_and_std(self):
        # {a:3, b:1} with valence 2 and 8 expands to [2,2,2,8]:
        # mean 3.5, population variance 27/4.
        stats, counts = _scored(_bucket(a=3, b=1), TWO_WORD_LEX)
        assert stats["mean-valence"] == pytest.approx(3.5, abs=1e-12)
        assert stats["std-valence"] == pytest.approx(math.sqrt(27.0 / 4.0), abs=1e-12)
        assert counts.match_count == 4

    def test_no_matches_gives_missing(self):
        stats, counts = _scored(_bucket(unknown=5), TWO_WORD_LEX)
        for dim in DIMENSIONS:
            assert stats[f"mean-{dim}"] is None
            assert stats[f"std-{dim}"] is None
        assert counts.match_count == 0

    def test_unmatched_tokens_ignored(self):
        with_noise, _ = _scored(_bucket(a=3, b=1, zzz=9), TWO_WORD_LEX)
        without, _ = _scored(_bucket(a=3, b=1), TWO_WORD_LEX)
        assert with_noise == without

    def test_identical_scores_give_exact_zero_std(self):
        lex = _lex(("x", 3.3, 5.0, 5.0), ("y", 3.3, 5.0, 5.0))
        stats, _ = _scored(_bucket(x=7, y=13), lex)
        assert stats["mean-valence"] == 3.3
        assert stats["std-valence"] == 0.0

    def test_doubling_counts_preserves_stats(self):
        base, base_counts = _scored(_bucket(a=3, b=1), TWO_WORD_LEX)
        doubled, doubled_counts = _scored(_bucket(a=6, b=2), TWO_WORD_LEX)
        for dim in DIMENSIONS:
            assert doubled[f"mean-{dim}"] == pytest.approx(base[f"mean-{dim}"], abs=1e-12)
            assert doubled[f"std-{dim}"] == pytest.approx(base[f"std-{dim}"], abs=1e-12)
        assert doubled_counts.match_count == 2 * base_counts.match_count

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=1, max_value=40),
            min_size=1,
        )
    )
    def test_mean_bounded_by_matched_scores(self, counts):
        lex = _lex(
            ("a", 1.5, 2.0, 3.0),
            ("b", 4.5, 5.0, 5.5),
            ("c", 8.5, 7.0, 6.0),
            ("d", 6.0, 3.5, 8.0),
        )
        stats, _ = _scored(_bucket(**counts), lex)
        for dim in DIMENSIONS:
            scores = [getattr(lex[w], dim) for w in counts]
            assert min(scores) <= stats[f"mean-{dim}"] <= max(scores)
            assert stats[f"std-{dim}"] >= 0.0


class TestBuildSeries:
    def test_axis_preserved(self, corpus_buckets, lexicon):
        series = build_series(corpus_buckets, lexicon)
        assert list(series.months) == [b.month for b in corpus_buckets]
        assert len(series.records) == 66

    def test_token_map_order_irrelevant(self):
        forward = _bucket(a=3, b=1)
        backward = MonthlyBucket(
            month="2004-01", token_counts={"b": 1, "a": 3}, thread_count=1
        )
        lex = TWO_WORD_LEX
        assert score_month(forward, lex) == score_month(backward, lex)

    def test_all_empty_buckets_give_missing_series(self):
        buckets = [
            MonthlyBucket(month=m, token_counts={}, thread_count=0)
            for m in ("2004-01", "2004-02")
        ]
        series = build_series(buckets, TWO_WORD_LEX)
        for component in series.components.values():
            assert component.values == [None, None]

    def test_rejects_empty_bucket_list(self):
        with pytest.raises(ValueError):
            build_series([], TWO_WORD_LEX)

    def test_rejects_gapped_buckets(self):
        buckets = [_bucket(month="2004-01", a=1), _bucket(month="2004-03", a=1)]
        with pytest.raises(ValueError):
            build_series(buckets, TWO_WORD_LEX)


class TestComponentSeries:
    def test_six_components_on_same_axis(self, corpus_buckets, lexicon):
        series = build_series(corpus_buckets, lexicon)
        components = series.components
        assert list(components) == list(COMPONENTS) == [
            "mean-valence",
            "mean-arousal",
            "mean-dominance",
            "std-valence",
            "std-arousal",
            "std-dominance",
        ]
        for component in components.values():
            assert component.months == series.months

    def test_components_and_counts_are_the_scored_months(self, corpus_buckets, lexicon):
        series = build_series(corpus_buckets, lexicon)
        for i, bucket in enumerate(corpus_buckets):
            row, counts = score_month(bucket, lexicon)
            assert series.months[i] == bucket.month
            for name, value in zip(COMPONENTS, row, strict=True):
                assert series.components[name].values[i] == value
            assert series.records[i] == counts


class TestTopWords:
    def test_display_weight_is_sqrt(self, tmp_path):
        buckets = [_bucket(a=100)]
        path = tmp_path / "top_words.csv"
        write_top_words_csv(path, {"2004": top_lexicon_words(buckets, TWO_WORD_LEX)})
        _, row = path.read_text(encoding="utf-8").splitlines()
        _, _, word, occurrences, display_weight = row.split(",")
        assert word == "a"
        assert int(occurrences) == 100
        assert float(display_weight) == pytest.approx(10.0)

    def test_tie_broken_alphabetically(self):
        lex = _lex(("pike", 5, 5, 5), ("ash", 5, 5, 5))
        buckets = [_bucket(pike=5, ash=5)]
        words = top_lexicon_words(buckets, lex)
        assert [w for w, _ in words] == ["ash", "pike"]

    def test_top_k_of_25_words(self):
        entries = [(f"w{i:02d}", 5.0, 5.0, 5.0) for i in range(25)]
        lex = _lex(*entries)
        counts = {f"w{i:02d}": i + 1 for i in range(25)}
        buckets = [_bucket(**counts)]
        words = top_lexicon_words(buckets, lex)
        assert len(words) == 20
        assert words[0] == ("w24", 25)
        assert all(words[i][1] >= words[i + 1][1] for i in range(19))
        # the five lowest-count words are exactly the ones dropped
        assert {w for w, _ in words} == {f"w{i:02d}" for i in range(5, 25)}

    def test_each_year_ranks_its_own_buckets(self, tmp_path):
        buckets = [_bucket(month="2004-12", a=10), _bucket(month="2005-01", b=10)]
        score_stage(buckets, TWO_WORD_LEX, tmp_path)
        rows = (tmp_path / "top_words.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[:3] for row in rows[1:]] == [["2004", "1", "a"], ["2005", "1", "b"]]

    def test_non_lexicon_words_never_ranked(self):
        buckets = [_bucket(a=1, junk=500)]
        words = top_lexicon_words(buckets, TWO_WORD_LEX)
        assert [w for w, _ in words] == ["a"]
