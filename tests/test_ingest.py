import io
import json

import pytest
from hypothesis import given, strategies as st

from moodcast.errors import InputFormatError
from moodcast.ingest import (
    MessageRecord,
    ThreadSummary,
    build_threads,
    filter_threads,
    load_attitude_series,
    monthly_subject_buckets,
    parse_messages,
    strip_reply_markers,
)


def _line(message_id, thread_id="t1", timestamp="2004-03-05T10:00:00Z", subject="war talk"):
    return json.dumps(
        {
            "message_id": message_id,
            "thread_id": thread_id,
            "group": "g",
            "timestamp": timestamp,
            "subject": subject,
        }
    )


def _thread(thread_id, subject, month, count=3):
    return ThreadSummary(
        thread_id=thread_id, subject=subject, message_count=count, first_month=month
    )


class TestParseMessages:
    def test_three_lines_three_records(self):
        text = "\n".join(_line(f"m{i}") for i in range(3)) + "\n"
        records = parse_messages(io.StringIO(text))
        assert len(records) == 3
        assert [r.message_id for r in records] == ["m0", "m1", "m2"]

    def test_fields_reproduced(self):
        records = parse_messages(io.StringIO(_line("m0") + "\n"))
        rec = records[0]
        assert rec.thread_id == "t1"
        assert rec.group == "g"
        assert rec.subject == "war talk"
        assert rec.timestamp.tzinfo is not None
        assert rec.timestamp.utcoffset().total_seconds() == 0

    def test_blank_lines_skipped(self):
        text = _line("m0") + "\n\n" + _line("m1") + "\n"
        assert len(parse_messages(io.StringIO(text))) == 2

    def test_missing_key_names_line(self):
        obj = json.loads(_line("m0"))
        del obj["subject"]
        text = _line("m1") + "\n" + json.dumps(obj) + "\n"
        with pytest.raises(InputFormatError, match="line 2.*subject"):
            parse_messages(io.StringIO(text))

    def test_extra_key_rejected(self):
        obj = json.loads(_line("m0"))
        obj["sender"] = "someone"
        with pytest.raises(InputFormatError, match="unexpected.*sender"):
            parse_messages(io.StringIO(json.dumps(obj) + "\n"))

    def test_non_string_value_rejected(self):
        obj = json.loads(_line("m0"))
        obj["subject"] = 7
        with pytest.raises(InputFormatError, match="subject must be a string"):
            parse_messages(io.StringIO(json.dumps(obj) + "\n"))

    def test_invalid_json_names_line(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_messages(io.StringIO("{not json\n"))

    def test_bad_timestamp_rejected(self):
        with pytest.raises(InputFormatError, match="timestamp"):
            parse_messages(io.StringIO(_line("m0", timestamp="yesterday") + "\n"))

    def test_duplicate_id_named(self):
        text = _line("m0") + "\n" + _line("m0") + "\n"
        with pytest.raises(InputFormatError, match="duplicate message_id: 'm0'"):
            parse_messages(io.StringIO(text))

    def test_offset_timestamp_converted_to_utc(self):
        text = _line("m0", timestamp="2004-03-31T22:30:00-05:00") + "\n"
        rec = parse_messages(io.StringIO(text))[0]
        assert rec.timestamp.month == 4  # crossed into April in UTC


class TestStripReplyMarkers:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Tax cuts", "Tax cuts"),
            ("Re: Tax cuts", "Tax cuts"),
            ("RE: Re: Tax cuts", "Tax cuts"),
            ("re:re:  re: Tax cuts", "Tax cuts"),
            ("  Re: Tax cuts", "Tax cuts"),
            ("More about re: something", "More about re: something"),
        ],
    )
    def test_stripping(self, raw, expected):
        assert strip_reply_markers(raw) == expected


class TestBuildThreads:
    def test_reply_chain_collapses_to_one_summary(self):
        subjects = ["Tax cuts", "Re: Tax cuts", "RE: Re: Tax cuts"]
        text = "\n".join(
            _line(f"m{i}", timestamp=f"2004-03-0{i + 1}T10:00:00Z", subject=s)
            for i, s in enumerate(subjects)
        )
        threads = build_threads(parse_messages(io.StringIO(text)))
        assert len(threads) == 1
        assert threads[0].subject == "Tax cuts"
        assert threads[0].message_count == 3
        assert threads[0].first_month == "2004-03"

    def test_empty_input(self):
        assert build_threads([]) == []

    def test_earliest_message_wins_even_out_of_order(self):
        text = "\n".join(
            [
                _line("m0", timestamp="2004-03-10T10:00:00Z", subject="Re: Original"),
                _line("m1", timestamp="2004-02-20T10:00:00Z", subject="Original"),
            ]
        )
        threads = build_threads(parse_messages(io.StringIO(text)))
        assert threads[0].subject == "Original"
        assert threads[0].first_month == "2004-02"

    def test_timestamp_tie_broken_by_input_order(self):
        text = "\n".join(
            [
                _line("m0", timestamp="2004-03-10T10:00:00Z", subject="First in file"),
                _line("m1", timestamp="2004-03-10T10:00:00Z", subject="Second in file"),
            ]
        )
        threads = build_threads(parse_messages(io.StringIO(text)))
        assert threads[0].subject == "First in file"

    def test_two_threads_counted_separately(self):
        lines = [_line(f"a{i}", thread_id="ta") for i in range(7)]
        lines += [_line(f"b{i}", thread_id="tb") for i in range(3)]
        threads = build_threads(parse_messages(io.StringIO("\n".join(lines))))
        counts = {t.thread_id: t.message_count for t in threads}
        assert counts == {"ta": 7, "tb": 3}

    def test_output_order_is_first_appearance(self):
        text = "\n".join(
            [
                _line("m0", thread_id="tz"),
                _line("m1", thread_id="ta"),
                _line("m2", thread_id="tz"),
            ]
        )
        threads = build_threads(parse_messages(io.StringIO(text)))
        assert [t.thread_id for t in threads] == ["tz", "ta"]


class TestFilterThreads:
    def test_boundary_counts(self):
        threads = [_thread(f"t{i}", "s", "2004-01", count=c) for i, c in enumerate([1, 2, 3, 19000])]
        kept = filter_threads(threads, 3)
        assert [t.message_count for t in kept] == [3, 19000]

    def test_min_one_is_identity(self):
        threads = [_thread(f"t{i}", "s", "2004-01", count=c) for i, c in enumerate([1, 5])]
        assert filter_threads(threads, 1) == threads

    def test_empty_input(self):
        assert filter_threads([], 3) == []

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            filter_threads([], 0)

    @given(
        st.lists(st.integers(min_value=1, max_value=30), max_size=20),
        st.integers(min_value=1, max_value=10),
    )
    def test_monotone_in_threshold(self, counts, min_messages):
        threads = [_thread(f"t{i}", "s", "2004-01", count=c) for i, c in enumerate(counts)]
        lower = filter_threads(threads, min_messages)
        higher = filter_threads(threads, min_messages + 1)
        assert set(t.thread_id for t in higher) <= set(t.thread_id for t in lower)


class TestMonthlyBuckets:
    def test_counting_by_definition(self):
        threads = [
            _thread("t1", "war now", "2004-01"),
            _thread("t2", "war talk", "2004-01"),
        ]
        buckets = monthly_subject_buckets(threads)
        assert len(buckets) == 1
        assert buckets[0].month == "2004-01"
        assert buckets[0].token_counts == {"war": 2, "now": 1, "talk": 1}
        assert buckets[0].thread_count == 2

    def test_single_thread_single_month(self):
        buckets = monthly_subject_buckets([_thread("t1", "war", "2004-05")])
        assert [b.month for b in buckets] == ["2004-05"]

    def test_gap_month_present_with_zero_count(self):
        threads = [
            _thread("t1", "war", "2004-01"),
            _thread("t2", "love", "2004-03"),
        ]
        buckets = monthly_subject_buckets(threads)
        assert [b.month for b in buckets] == ["2004-01", "2004-02", "2004-03"]
        gap = buckets[1]
        assert gap.thread_count == 0
        assert gap.token_counts == {}

    def test_empty_input(self):
        assert monthly_subject_buckets([]) == []

    def test_thread_count_sums_to_thread_total(self, corpus_buckets, corpus_messages):
        kept = filter_threads(build_threads(corpus_messages), 3)
        assert sum(b.thread_count for b in corpus_buckets) == len(kept)

    def test_fixture_axis_is_66_contiguous_months(self, corpus_buckets):
        assert len(corpus_buckets) == 66
        assert corpus_buckets[0].month == "2000-01"
        assert corpus_buckets[-1].month == "2005-06"

    def test_all_counts_positive(self, corpus_buckets):
        for bucket in corpus_buckets:
            assert all(count >= 1 for count in bucket.token_counts.values())


class TestLoadAttitude:
    def test_sorted_contiguous(self):
        csv_text = "month,rate\n2004-02,51.5\n2004-01,50.0\n2004-03,52.0\n"
        series = load_attitude_series(io.StringIO(csv_text))
        assert list(series.months) == ["2004-01", "2004-02", "2004-03"]
        assert series.values == [50.0, 51.5, 52.0]

    def test_fixture_covers_66_months(self, attitude):
        assert len(attitude.months) == 66
        assert all(0.0 <= v <= 100.0 for v in attitude.values)

    def test_gap_named(self):
        csv_text = "month,rate\n2004-01,50\n2004-03,52\n"
        with pytest.raises(InputFormatError, match="2004-02"):
            load_attitude_series(io.StringIO(csv_text))

    def test_duplicate_named(self):
        csv_text = "month,rate\n2004-01,50\n2004-01,52\n"
        with pytest.raises(InputFormatError, match="duplicate month 2004-01"):
            load_attitude_series(io.StringIO(csv_text))

    def test_out_of_range_rate(self):
        with pytest.raises(InputFormatError, match="outside"):
            load_attitude_series(io.StringIO("month,rate\n2004-01,101\n"))

    def test_bad_header(self):
        with pytest.raises(InputFormatError, match="header"):
            load_attitude_series(io.StringIO("month,approval\n2004-01,50\n"))

    def test_no_rows(self):
        with pytest.raises(InputFormatError, match="no data rows"):
            load_attitude_series(io.StringIO("month,rate\n"))
