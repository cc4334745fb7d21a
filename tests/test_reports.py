import hashlib
import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from moodcast.analysis import CorrelationTrack, NumericSeries
from moodcast.emotion import (
    COMPONENTS,
    EmotionSeries,
    MonthCounts,
    WeightedWord,
)
from moodcast.errors import InputFormatError
from moodcast.forecast import ArmaSpec, SuiteEntry, SurrogateReport, evaluate, fit_arma
from moodcast.ingest import MonthlyBucket
from moodcast.lexicon import SCALE_MAX, SCALE_MIN, load_lexicon
from moodcast.months import MonthAxis, check_contiguous, month_ord, ord_month
from moodcast.reports import (
    CORRELATION_HEADER,
    _write_json,
    EMOTION_HEADER,
    load_attitude_series,
    read_buckets_json,
    read_correlation_csv,
    read_emotion_csv,
    read_series_csv,
    render_run_report,
    sha256_file,
    suite_entry_payload,
    write_buckets_json,
    write_correlation_csv,
    write_counts_csv,
    write_emotion_csv,
    write_models_json,
    write_series_csv,
    write_surrogate_json,
    write_top_words_csv,
)

AWKWARD = [0.1 + 0.2, 1.0 / 3.0, 1e-17, 12345.678900000001, 2.08]


def months_from(first, count):
    start = month_ord(first)
    return [ord_month(start + i) for i in range(count)]


def month_record(month, base, match_count=5, thread_count=0):
    """One month's emotion-table row: the month, six ``COMPONENTS`` values, ``MonthCounts``."""
    values = (base, base + 0.5, base + 1.0, 0.0, base / 7.0, base / 3.0)
    return month, values, MonthCounts(match_count, thread_count)


def emotion_series(rows):
    """The emotion series of ``(month, values, counts)`` rows."""
    months, values, counts = zip(*rows)
    axis = check_contiguous(list(months))
    columns = zip(COMPONENTS, zip(*values))
    return EmotionSeries({name: NumericSeries(axis, list(v)) for name, v in columns}, list(counts))


def emotion_rows(series):
    """The ``(month, values, counts)`` rows of an emotion series."""
    columns = [series.components[name].values for name in COMPONENTS]
    return list(zip(series.months, zip(*columns), series.records))


class TestEmotionCsv:
    def test_round_trip(self, tmp_path):
        months = months_from("2000-11", 4)
        records = [month_record(m, i + 1.125, thread_count=i) for i, m in enumerate(months)]
        records[2] = (months[2], (None,) * 6, MonthCounts(match_count=0, thread_count=2))
        series = emotion_series(records)
        counts = {m: i for i, m in enumerate(months)}
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, series)
        loaded = read_emotion_csv(path)
        assert list(loaded.months) == months
        assert {month: c.thread_count for month, _, c in emotion_rows(loaded)} == counts
        for (_, values, original), (_, copy, copied) in zip(records, emotion_rows(loaded)):
            assert copy[:3] == values[:3]  # the means
            assert copy[3:] == values[3:]  # the spreads
            assert copied.match_count == original.match_count

    def test_missing_values_become_empty_fields(self, tmp_path):
        months = months_from("2000-01", 1)
        series = emotion_series([
            (months[0], (1.5, None, None, 0.0, None, None), MonthCounts(2, 2)),
        ])
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, series)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(EMOTION_HEADER)
        assert lines[1] == "2000-01,1.5,0.0,,,,,2,2"

    def test_float_repr_fidelity(self, tmp_path):
        # A mean lies on the lexicon's [1, 9] scale; a spread on [0, 4].
        on_scale = [1.1 + 2.2, 4.0 / 3.0, 1.0 + 1e-15, 9.0 - 2e-15, 2.08]
        spreads = [0.1 + 0.2, 1.0 / 3.0, 1e-17, 4.0 - 4e-16, 2.08]
        months = months_from("2001-01", len(spreads))
        records = [
            (m, (u, u, u, v, v, v), MonthCounts(match_count=1, thread_count=0))
            for m, u, v in zip(months, on_scale, spreads)
        ]
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, emotion_series(records))
        loaded = read_emotion_csv(path)
        for (_, values, _), u, v in zip(emotion_rows(loaded), on_scale, spreads):
            assert values[COMPONENTS.index("mean-valence")] == u
            assert values[COMPONENTS.index("std-dominance")] == v

    @pytest.mark.parametrize(
        "cells, message",
        [("0.999,0.0,5,1,5,1", "valence_mean '0.999' outside [1, 9]"),
         ("5,1,9.001,1,5,1", "arousal_mean '9.001' outside [1, 9]"),
         ("5,1,5,1,5,-1e-300", "dominance_std '-1e-300' outside [0, 4]"),
         ("1,0.0,9,-0.0,5,4.0", None),
         ("5,4.5,5,1,5,1", "valence_std '4.5' outside [0, 4]"),
         ("5,1,5,7.5,5,1", "arousal_std '7.5' outside [0, 4]"),
         ("5,1,5,1,5,1e300", "dominance_std '1e300' outside [0, 4]")],
        ids=["mean-below", "mean-above", "std-negative", "bounds", "std-4.5", "std-7.5",
             "std-1e300"],
    )
    def test_statistics_stay_on_their_scales(self, tmp_path, cells, message):
        path = tmp_path / "emotion.csv"
        path.write_text(f"{','.join(EMOTION_HEADER)}\n2000-01,{cells},3,1\n", encoding="utf-8")
        if message is None:
            assert read_emotion_csv(path).components["mean-valence"].values == [1.0]
        else:
            with pytest.raises(InputFormatError, match=re.escape(f"{path} row 2: {message}")):
                read_emotion_csv(path)

    @pytest.mark.parametrize(
        "cells, message",
        [("5,1,5,,5,1,3", "arousal_std is empty but other statistics are not"),
         (",,,,,1,0", "valence_mean is empty but other statistics are not"),
         (",,,,,,3", "match_count 3 with no statistics"),
         (",,,,,,0", None),
         ("5.5,1,5,1,5,1,0", None)],  # what linear interpolation writes for a month
        ids=["one-empty", "five-empty", "matches-without-statistics", "no-match", "interpolated"],
    )
    def test_statistics_all_present_or_all_empty(self, tmp_path, cells, message):
        path = tmp_path / "emotion.csv"
        path.write_text(f"{','.join(EMOTION_HEADER)}\n2000-01,{cells},1\n", encoding="utf-8")
        if message is None:
            assert read_emotion_csv(path).records[0].match_count == int(cells[-1])
        else:
            with pytest.raises(InputFormatError, match=re.escape(f"{path} row 2: {message}")):
                read_emotion_csv(path)

    def test_rejects_wrong_header_and_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("month,valence\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="header"):
            read_emotion_csv(path)
        path.write_text("", encoding="utf-8")
        with pytest.raises(InputFormatError, match="no header"):
            read_emotion_csv(path)
        path.write_text(
            ",".join(EMOTION_HEADER) + "\n2000-13,1,1,1,1,1,1,1,1\n", encoding="utf-8"
        )
        with pytest.raises(InputFormatError, match="bad month"):
            read_emotion_csv(path)
        path.write_text(",".join(EMOTION_HEADER) + "\n2000-01,1,1\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="expected 9 fields"):
            read_emotion_csv(path)
        path.write_text(
            ",".join(EMOTION_HEADER) + "\n2000-01,1,1,1,1,1,1,1,1\n2000-03,1,1,1,1,1,1,1,1\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="expected month 2000-02"):
            read_emotion_csv(path)
        path.write_text(",".join(EMOTION_HEADER) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="no data rows"):
            read_emotion_csv(path)
        path.write_text(",".join(EMOTION_HEADER) + "\n2000-01,1,1,1,1,1,1,-2,1\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=r"row 2: count not in \[0, 2\*\*53\]: '-2'"):
            read_emotion_csv(path)


class TestSeriesCsv:
    def test_round_trip_exact_floats(self, tmp_path):
        # A month,rate file may not hold 12345.678900000001, so use another name.
        series = NumericSeries(
            months=months_from("2003-05", len(AWKWARD)), values=list(AWKWARD)
        )
        path = tmp_path / "series.csv"
        write_series_csv(path, series, "value")
        assert read_series_csv(path) == series

    def test_missing_value_round_trip(self, tmp_path):
        series = NumericSeries(
            months=months_from("2003-05", 3), values=[1.0, None, 3.0]
        )
        path = tmp_path / "series.csv"
        write_series_csv(path, series, "rate")
        assert read_series_csv(path).values == [1.0, None, 3.0]

    def test_rejects_month_gap_naming_the_missing_month(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("month,rate\n2001-01,1.0\n2001-03,3.0\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="row 3: expected month 2001-02, got 2001-03"):
            read_series_csv(path)
        path.write_text("month,rate\n2001-02,1.0\n2001-01,3.0\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="expected month 2001-03, got 2001-01"):
            read_series_csv(path)
        path.write_text("month,rate\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="no data rows"):
            read_series_csv(path)

    def test_value_name_check(self, tmp_path):
        # The attitude loader requires the ``rate`` column.
        series = NumericSeries(months=months_from("2003-05", 2), values=[1.0, 2.0])
        path = tmp_path / "series.csv"
        write_series_csv(path, series, "approval")
        with pytest.raises(InputFormatError, match="expected value column"):
            load_attitude_series(path)

    def test_unix_newlines(self, tmp_path):
        series = NumericSeries(months=months_from("2003-05", 2), values=[1.0, 2.0])
        path = tmp_path / "series.csv"
        write_series_csv(path, series, "rate")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestCorrelationCsv:
    def make_track(self):
        months = months_from("2002-01", 5)
        return CorrelationTrack(
            months=months,
            r=[0.5, None, -1.0, 1.0 / 3.0, 0.0],
            n_window=[7, 13, 13, 13, 7],
            p_value=[0.04, None, 0.0, 0.5, 1.0],
            significant=[True, False, True, False, False],
        )

    def test_round_trip(self, tmp_path):
        track = self.make_track()
        path = tmp_path / "corr.csv"
        write_correlation_csv(path, track)
        loaded = read_correlation_csv(path)
        assert loaded == track

    def test_boolean_tokens_in_file(self, tmp_path):
        path = tmp_path / "corr.csv"
        write_correlation_csv(path, self.make_track())
        body = path.read_text(encoding="utf-8")
        assert ",true" in body and ",false" in body
        assert "True" not in body

    def test_rejects_bad_boolean(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text(
            ",".join(CORRELATION_HEADER) + "\n2002-01,0.5,13,0.04,yes\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="true or false"):
            read_correlation_csv(path)

    def test_rejects_negative_window_length(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text(
            ",".join(CORRELATION_HEADER) + "\n2002-01,0.5,-13,0.04,false\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="count not in"):
            read_correlation_csv(path)

    @pytest.mark.parametrize(
        "cells, message",
        [("5.0,13,0.04", "r '5.0' outside [-1, 1]"),
         ("-1.0000000000000002,13,0.04", "r '-1.0000000000000002' outside [-1, 1]"),
         ("0.5,13,-2.0", "p_value '-2.0' outside [0, 1]"),
         ("0.5,13,1.5", "p_value '1.5' outside [0, 1]"),
         ("-1.0,13,1.0", None),
         ("1.0,13,0.0", None),
         (",13,", None)],
        ids=["r-5", "r-below", "p-negative", "p-above", "bounds-low", "bounds-high", "missing"],
    )
    def test_r_and_p_value_stay_in_their_ranges(self, tmp_path, cells, message):
        path = tmp_path / "corr.csv"
        path.write_text(f"{','.join(CORRELATION_HEADER)}\n2001-01,{cells},false\n",
                        encoding="utf-8")
        if message is None:
            assert len(read_correlation_csv(path).r) == 1
        else:
            with pytest.raises(InputFormatError, match=re.escape(f"{path} row 2: {message}")):
                read_correlation_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["2001-01", "2001-03"], "row 3: expected month 2001-02, got 2001-03"),
            (["2001-03", "2001-01"], "row 3: expected month 2001-04, got 2001-01"),
            (["2001-01", "2001-01"], "row 3: expected month 2001-02, got 2001-01"),
            ([], "no data rows"),
        ],
        ids=["gap", "out-of-order", "repeated", "no-rows"],
    )
    def test_rejects_months_that_are_not_contiguous(self, tmp_path, rows, message):
        path = tmp_path / "corr.csv"
        body = "".join(f"\n{month},0.5,13,0.04,false" for month in rows)
        path.write_text(",".join(CORRELATION_HEADER) + body + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=message):
            read_correlation_csv(path)


class TestCountsCsv:
    def test_rows_follow_bucket_order(self, tmp_path):
        buckets = [
            MonthlyBucket(month="2000-01", token_counts={"war": 2}, thread_count=2),
            MonthlyBucket(month="2000-02", token_counts={}, thread_count=0),
        ]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, buckets)
        assert path.read_text(encoding="utf-8") == (
            "month,thread_count\n2000-01,2\n2000-02,0\n"
        )


class TestTopWordsCsv:
    def test_years_ascending_ranks_from_one(self, tmp_path):
        per_year = {
            "2001": [
                WeightedWord(word="war", occurrences=100, display_weight=10.0),
                WeightedWord(word="love", occurrences=25, display_weight=5.0),
            ],
            "2000": [WeightedWord(word="tax", occurrences=9, display_weight=3.0)],
        }
        path = tmp_path / "words.csv"
        write_top_words_csv(path, per_year)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "year,rank,word,occurrences,display_weight"
        assert lines[1] == "2000,1,tax,9,3.0"
        assert lines[2] == "2001,1,war,100,10.0"
        assert lines[3] == "2001,2,love,25,5.0"


class TestBucketsJson:
    def test_round_trip(self, tmp_path):
        buckets = [
            MonthlyBucket(
                month="2000-01",
                token_counts={"war": 2, "love": 1, "apple": 4},
                thread_count=3,
            ),
            MonthlyBucket(month="2000-02", token_counts={}, thread_count=0),
        ]
        path = tmp_path / "buckets.json"
        write_buckets_json(path, buckets)
        assert read_buckets_json(path) == buckets

    def test_token_keys_sorted_in_file(self, tmp_path):
        buckets = [
            MonthlyBucket(
                month="2000-01", token_counts={"zebra": 1, "apple": 1}, thread_count=1
            )
        ]
        path = tmp_path / "buckets.json"
        write_buckets_json(path, buckets)
        body = path.read_text(encoding="utf-8")
        assert body.index("apple") < body.index("zebra")
        assert body.endswith("}\n")

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "buckets.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(InputFormatError, match="buckets"):
            read_buckets_json(path)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            read_buckets_json(path)
        path.write_text(
            json.dumps({"buckets": [{"month": "2000-01"}]}), encoding="utf-8"
        )
        with pytest.raises(InputFormatError, match="malformed bucket"):
            read_buckets_json(path)

    @pytest.mark.parametrize(
        "token_count, thread_count",
        [(2.7, 1), (2.0, 1), (-1, 1), (True, 1), ("2", 1), (2**53 + 1, 1), (10**400, 1),
         (2, True), (2, -3), (2, 1.5)],
    )
    def test_rejects_counts_that_are_not_non_negative_ints(
        self, tmp_path, token_count, thread_count
    ):
        path = tmp_path / "buckets.json"
        entry = {"month": "2000-01", "thread_count": thread_count,
                 "token_counts": {"war": token_count}}
        path.write_text(json.dumps({"buckets": [entry]}), encoding="utf-8")
        with pytest.raises(InputFormatError, match="integer in"):
            read_buckets_json(path)

    @pytest.mark.parametrize(
        "months, message",
        [(["2001-01", "2001-03"], " bucket 2: expected month 2001-02, got 2001-03"),
         (["2001-01", "2001-02", "2001-02"], " bucket 3: expected month 2001-03, got 2001-02"),
         (["2001-02", "2001-01"], " bucket 2: expected month 2001-03, got 2001-01"),
         ([], ": no buckets")],
    )
    def test_months_follow_the_table_rule(self, tmp_path, months, message):
        path = tmp_path / "buckets.json"
        entries = [{"month": m, "thread_count": 0, "token_counts": {}} for m in months]
        path.write_text(json.dumps({"buckets": entries}), encoding="utf-8")
        with pytest.raises(InputFormatError, match=f"^{re.escape(f'{path}{message}')}"):
            read_buckets_json(path)


# Reader -> (header, a good row, row 3 with one bad cell).
BAD_THIRD_ROW = {
    "lexicon": (load_lexicon, "word,valence,arousal,dominance", "war,2,7,6", "love,8,6,nan"),
    "attitude": (load_attitude_series, "month,rate", "2001-01,50", "2001-02,101"),
    "emotion": (
        read_emotion_csv, ",".join(EMOTION_HEADER), "2001-01,5,1,5,1,5,1,3,1",
        "2001-02,5,1,5,1,5,1,3,-1",
    ),
    "series": (read_series_csv, "month,value", "2001-01,1.5", "2001-02,inf"),
    "correlation": (
        read_correlation_csv, ",".join(CORRELATION_HEADER), "2001-01,0.5,7,0.25,false",
        "2001-02,0.5,7,0.25,maybe",
    ),
}


@pytest.mark.parametrize("reader", sorted(BAD_THIRD_ROW))
def test_every_csv_reader_names_the_file_and_row(tmp_path, reader):
    read, header, good, bad = BAD_THIRD_ROW[reader]
    path = tmp_path / f"{reader}.csv"
    path.write_text(f"{header}\n{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))} row 3: "):
        read(path)


# Round trips through every writer and its reader. Floats are any finite
# value, written as their repr, so they must read back equal; None is an
# empty cell.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_COUNTS = st.integers(min_value=0, max_value=2**53)
_AXES = st.builds(
    MonthAxis, st.integers(month_ord("1990-01"), month_ord("2030-12")), st.integers(1, 8)
)
_ROUND_TRIPS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestRoundTrips:
    @_ROUND_TRIPS
    @given(axis=_AXES, data=st.data(), name=st.sampled_from(["value", "mean_valence", "x y"]))
    def test_series_csv(self, tmp_path, axis, data, name):
        values = data.draw(st.lists(st.none() | _FLOATS, min_size=len(axis), max_size=len(axis)))
        series = NumericSeries(months=axis, values=values)
        path = tmp_path / "series.csv"
        write_series_csv(path, series, name)
        assert read_series_csv(path) == series

    @_ROUND_TRIPS
    @given(axis=_AXES, data=st.data())
    def test_emotion_csv(self, tmp_path, axis, data):
        # A mean lies on the lexicon's [1, 9] scale and a spread on [0, 4]; a
        # month has all six statistics, or none and no match.
        means = st.tuples(*[st.floats(SCALE_MIN, SCALE_MAX)] * 3)
        spreads = st.tuples(*[st.floats(0.0, 4.0)] * 3)
        records = [
            (month, data.draw(means) + data.draw(spreads),
             MonthCounts(data.draw(_COUNTS), data.draw(_COUNTS)))
            if data.draw(st.booleans())
            else (month, (None,) * 6, MonthCounts(0, data.draw(_COUNTS)))
            for month in axis
        ]
        series = emotion_series(records)
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, series)
        assert read_emotion_csv(path) == series

    @_ROUND_TRIPS
    @given(axis=_AXES, data=st.data())
    def test_correlation_csv(self, tmp_path, axis, data):
        def column(strategy):
            return data.draw(st.lists(strategy, min_size=len(axis), max_size=len(axis)))

        track = CorrelationTrack(
            months=axis, r=column(st.none() | st.floats(-1.0, 1.0)), n_window=column(_COUNTS),
            p_value=column(st.none() | st.floats(0.0, 1.0)), significant=column(st.booleans()),
        )
        path = tmp_path / "corr.csv"
        write_correlation_csv(path, track)
        assert read_correlation_csv(path) == track

    @_ROUND_TRIPS
    @given(axis=st.builds(MonthAxis, st.integers(0, 10000 * 12 - 4), st.integers(1, 4)),
           data=st.data())
    def test_buckets_json(self, tmp_path, axis, data):
        # A buckets file holds at least one bucket, on contiguous months.
        tokens = st.dictionaries(st.text(), _COUNTS, max_size=4)
        buckets = [MonthlyBucket(month, data.draw(tokens), data.draw(_COUNTS)) for month in axis]
        path = tmp_path / "buckets.json"
        write_buckets_json(path, buckets)
        assert read_buckets_json(path) == buckets


def suite_entry(seed=0):
    rng = np.random.default_rng(seed)
    months = months_from("2000-01", 40)
    target = NumericSeries(months=months, values=[float(v) for v in rng.normal(50, 5, 40)])
    exog = {
        "mean-arousal": NumericSeries(
            months=months, values=[float(v) for v in rng.normal(5, 1, 40)]
        )
    }
    spec = ArmaSpec(1, 3, ("mean-arousal",))
    model = fit_arma(spec, target, exog)
    return SuiteEntry(name="mean-arousal", model=model, report=evaluate(model, target, exog))


class TestModelPayload:
    def test_payload_keys_and_identities(self):
        entry = suite_entry()
        payload = suite_entry_payload(entry, "in-sample")
        assert list(payload) == [
            "name",
            "ar_order",
            "exog_order",
            "exogenous",
            "evaluation_mode",
            "coefficients",
            "sse",
            "mae",
            "evaluated_months",
            "errors",
            "cumulative_mean_abs_error",
        ]
        assert payload["name"] == "mean-arousal"
        assert payload["ar_order"] == 1 and payload["exog_order"] == 3
        assert payload["exogenous"] == ["mean-arousal"]
        assert payload["evaluation_mode"] == "in-sample"
        assert payload["cumulative_mean_abs_error"][-1] == payload["mae"]
        assert payload["evaluated_months"]["first"] == entry.report.months[0]
        assert payload["evaluated_months"]["last"] == entry.report.months[-1]
        assert len(payload["coefficients"]["exogenous"]) == 1
        assert len(payload["coefficients"]["exogenous"][0]) == 3

    def test_models_json_order_and_mode(self, tmp_path):
        entries = [suite_entry(0), suite_entry(1)]
        path = tmp_path / "models.json"
        write_models_json(path, entries, evaluation_mode="held-out")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert [m["evaluation_mode"] for m in payload["models"]] == ["held-out"] * 2
        assert payload["models"][0]["mae"] == entries[0].report.mae


class TestSurrogateJson:
    def make_report(self):
        maes = [float(i) for i in range(101)]
        rng = np.random.default_rng(5)
        rng.shuffle(maes)
        return SurrogateReport(
            spec=ArmaSpec(1, 3, ("mean-arousal", "std-arousal")),
            n_surrogates=101,
            empirical_mae=3.0,
            surrogate_maes=maes,
            p_hat=4 / 101,
            seed=11,
        )

    def test_quantiles_on_known_grid(self, tmp_path):
        path = tmp_path / "surrogate.json"
        write_surrogate_json(path, self.make_report(), "both-arousal", include_maes=False)
        payload = json.loads(path.read_text(encoding="utf-8"))
        quantiles = payload["surrogate_mae_quantiles"]
        assert quantiles == {
            "min": 0.0,
            "p05": 5.0,
            "p25": 25.0,
            "p50": 50.0,
            "p75": 75.0,
            "p95": 95.0,
            "max": 100.0,
        }
        assert payload["model"] == "both-arousal"
        assert payload["p_hat"] == 4 / 101
        assert "surrogate_maes" not in payload

    def test_refuses_non_finite_values(self, tmp_path):
        report = self.make_report()._replace(empirical_mae=float("nan"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_surrogate_json(
                tmp_path / "surrogate.json", report, "both-arousal", include_maes=False
            )

    def test_full_list_behind_flag(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "surrogate.json"
        write_surrogate_json(path, report, "both-arousal", include_maes=True)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["surrogate_maes"] == report.surrogate_maes


def _writes(value):
    """Each writer with a float field, and a call that writes ``value`` in one of its cells."""
    months = months_from("2000-01", 3)
    return {
        "emotion": lambda path: write_emotion_csv(path, emotion_series(
            [month_record(m, base) for m, base in zip(months, [1.0, value, 2.0])]
        )),
        "series": lambda path: write_series_csv(path, NumericSeries(months, [1.0, value, 2.0]),
                                                "rate"),
        "correlation": lambda path: write_correlation_csv(path, CorrelationTrack(
            months, r=[0.5, 0.5, 0.5], n_window=[2, 3, 2], p_value=[0.0, value, 0.0],
            significant=[True, False, True],
        )),
        "top-words": lambda path: write_top_words_csv(
            path, {"2000": [WeightedWord("war", 9, 3.0), WeightedWord("peace", 4, value)]}
        ),
        # Long enough that the encoder has flushed a partial file when it meets the value.
        "json": lambda path: _write_json(path, {"a": list(range(3000)), "b": value}),
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("writer", sorted(_writes(0.0)))
def test_writer_refuses_a_non_finite_number_and_leaves_no_file(tmp_path, writer, value):
    path = tmp_path / "out"
    _writes(0.5)[writer](path)
    assert path.stat().st_size > 0
    path.unlink()
    with pytest.raises(ValueError):
        _writes(value)[writer](path)
    assert not path.exists()


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"monthly series\n" * 1000)
        assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunReport:
    def test_renders_all_sections(self, pipeline_run):
        out, _ = pipeline_run
        text = render_run_report(out)
        for heading in (
            "# Run report",
            "## Corpus",
            "## Smoothed emotion series",
            "## Forecast models",
            "## Surrogate test",
            "## Correlations (smoothed series)",
        ):
            assert heading in text
        for name in ("ar", "both-arousal", "std-dominance"):
            assert f"| {name} |" in text
        # 21 pair tracks summarized
        assert text.count(" vs ") == 21
        assert "figure" not in text.lower()

    @pytest.mark.parametrize(
        "name, keys, value, message",
        [("surrogate.json", ["n_surrogates"], 2.0, "n_surrogates must be an integer in [0, 2**53]"),
         ("surrogate.json", ["n_surrogates"], True,
          "n_surrogates must be an integer in [0, 2**53]"),
         ("surrogate.json", ["seed"], -1, "seed must be a non-negative integer"),
         ("surrogate.json", ["seed"], 2**64, None),
         ("surrogate.json", ["p_hat"], 1.5, "p_hat must be a number in [0, 1]"),
         ("surrogate.json", ["surrogate_mae_quantiles", "max"], "1",
          "surrogate_mae_quantiles.max must be a number"),
         ("models.json", ["models", 3, "sse"], None, "models[3].sse must be a number"),
         ("models.json", ["models", 0, "name"], 7, "models[0].name must be a string"),
         ("run_manifest.json", ["corpus", "threads_kept"], -1,
          "corpus.threads_kept must be an integer in [0, 2**53]"),
         ("run_manifest.json", ["aligned_months", "first"], 200001,
          "aligned_months.first must be a string"),
         ("run_manifest.json", ["warnings"], ["ok", 1], "warnings must be a list of strings")],
    )
    def test_rendered_fields_have_their_kinds(self, tmp_path, pipeline_run, name, keys, value,
                                              message):
        run = tmp_path / "run"
        shutil.copytree(pipeline_run[0], run)
        payload = json.loads((run / name).read_text(encoding="utf-8"))
        holder = payload
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = value
        (run / name).write_text(json.dumps(payload), encoding="utf-8")
        if message is None:
            assert f"| seed | {value} |" in render_run_report(run)
        else:
            expected = f"^{re.escape(f'{run / name}: {message}')}$"
            with pytest.raises(InputFormatError, match=expected):
                render_run_report(run)
