import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from moodcast.analysis import CorrelationTrack, NumericSeries
from moodcast.emotion import DIMENSIONS, EmotionSeries, MonthEmotion, WeightedWord
from moodcast.errors import InputFormatError
from moodcast.forecast import ArmaSpec, SuiteEntry, SurrogateReport, evaluate, fit_arma
from moodcast.ingest import MonthlyBucket
from moodcast.lexicon import load_lexicon
from moodcast.months import MonthAxis, month_ord, ord_month
from moodcast.reports import (
    CORRELATION_HEADER,
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
    mean = {"valence": base, "arousal": base + 0.5, "dominance": None}
    std = {"valence": 0.0, "arousal": base / 7.0, "dominance": None}
    return MonthEmotion(
        month=month, mean=mean, std=std, match_count=match_count, thread_count=thread_count
    )


class TestEmotionCsv:
    def test_round_trip(self, tmp_path):
        months = months_from("2000-11", 4)
        records = [month_record(m, i + 0.125, thread_count=i) for i, m in enumerate(months)]
        records[2] = MonthEmotion(
            month=months[2],
            mean={d: None for d in ("valence", "arousal", "dominance")},
            std={d: None for d in ("valence", "arousal", "dominance")},
            match_count=0,
            thread_count=2,
        )
        series = EmotionSeries(months=months, records=records)
        counts = {m: i for i, m in enumerate(months)}
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, series)
        loaded = read_emotion_csv(path)
        assert list(loaded.months) == months
        assert {r.month: r.thread_count for r in loaded.records} == counts
        for original, copy in zip(records, loaded.records):
            assert copy.mean == original.mean
            assert copy.std == original.std
            assert copy.match_count == original.match_count

    def test_missing_values_become_empty_fields(self, tmp_path):
        months = months_from("2000-01", 1)
        series = EmotionSeries(
            months=months,
            records=[
                MonthEmotion(
                    month=months[0],
                    mean={"valence": 1.5, "arousal": None, "dominance": None},
                    std={"valence": 0.0, "arousal": None, "dominance": None},
                    match_count=2,
                    thread_count=2,
                )
            ],
        )
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, series)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(EMOTION_HEADER)
        assert lines[1] == "2000-01,1.5,0.0,,,,,2,2"

    def test_float_repr_fidelity(self, tmp_path):
        months = months_from("2001-01", len(AWKWARD))
        records = [
            MonthEmotion(
                month=m,
                mean={"valence": v, "arousal": v, "dominance": v},
                std={"valence": v, "arousal": v, "dominance": v},
                match_count=1,
            )
            for m, v in zip(months, AWKWARD)
        ]
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, EmotionSeries(months=months, records=records))
        loaded = read_emotion_csv(path)
        for record, v in zip(loaded.records, AWKWARD):
            assert record.mean["valence"] == v
            assert record.std["dominance"] == v

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
        series = NumericSeries(
            months=months_from("2003-05", len(AWKWARD)), values=list(AWKWARD)
        )
        path = tmp_path / "series.csv"
        write_series_csv(path, series, "rate")
        assert read_series_csv(path, "rate") == series

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
        series = NumericSeries(months=months_from("2003-05", 2), values=[1.0, 2.0])
        path = tmp_path / "series.csv"
        write_series_csv(path, series, "rate")
        with pytest.raises(InputFormatError, match="expected value column"):
            read_series_csv(path, "approval")

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
            alpha=0.05,
            window=13,
        )

    def test_round_trip(self, tmp_path):
        track = self.make_track()
        path = tmp_path / "corr.csv"
        write_correlation_csv(path, track)
        loaded = read_correlation_csv(path, alpha=0.05, window=13)
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
        assert read_series_csv(path, name) == series

    @_ROUND_TRIPS
    @given(axis=_AXES, data=st.data())
    def test_emotion_csv(self, tmp_path, axis, data):
        stats = st.fixed_dictionaries({dim: st.none() | _FLOATS for dim in DIMENSIONS})
        records = [
            MonthEmotion(month, data.draw(stats), data.draw(stats), data.draw(_COUNTS),
                         data.draw(_COUNTS))
            for month in axis
        ]
        series = EmotionSeries(months=axis, records=records)
        path = tmp_path / "emotion.csv"
        write_emotion_csv(path, series)
        assert read_emotion_csv(path) == series

    @_ROUND_TRIPS
    @given(axis=_AXES, data=st.data())
    def test_correlation_csv(self, tmp_path, axis, data):
        def column(strategy):
            return data.draw(st.lists(strategy, min_size=len(axis), max_size=len(axis)))

        track = CorrelationTrack(
            months=axis, r=column(st.none() | _FLOATS), n_window=column(_COUNTS),
            p_value=column(st.none() | _FLOATS), significant=column(st.booleans()),
            alpha=0.05, window=13,
        )
        path = tmp_path / "corr.csv"
        write_correlation_csv(path, track)
        assert read_correlation_csv(path, alpha=0.05, window=13) == track

    @_ROUND_TRIPS
    @given(
        st.lists(
            st.builds(
                MonthlyBucket,
                month=st.integers(0, 10000 * 12 - 1).map(ord_month),
                token_counts=st.dictionaries(st.text(), _COUNTS, max_size=4),
                thread_count=_COUNTS,
            ),
            max_size=4,
        )
    )
    def test_buckets_json(self, tmp_path, buckets):
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
        payload = suite_entry_payload(entry)
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
            n_surrogates=101,
            empirical_mae=3.0,
            surrogate_maes=maes,
            p_hat=4 / 101,
            seed=11,
        )

    def test_quantiles_on_known_grid(self, tmp_path):
        path = tmp_path / "surrogate.json"
        write_surrogate_json(
            path, self.make_report(), "both-arousal", 1, 3,
            ["mean-arousal", "std-arousal"],
        )
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
        report = dataclasses.replace(self.make_report(), empirical_mae=float("nan"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_surrogate_json(tmp_path / "surrogate.json", report, "both-arousal", 1, 3, [])

    def test_full_list_behind_flag(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "surrogate.json"
        write_surrogate_json(
            path, report, "both-arousal", 1, 3, ["mean-arousal"], include_maes=True
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["surrogate_maes"] == report.surrogate_maes


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
