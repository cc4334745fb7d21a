import io
import json
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from moodcast.errors import InputFormatError
from moodcast.ingest import (
    MESSAGE_KEYS,
    ThreadSummary,
    build_threads,
    filter_threads,
    monthly_subject_buckets,
    parse_messages,
    strip_reply_markers,
)
from moodcast.reports import load_attitude_series, read_series_csv


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


# The reference: the two-pass ingest that kept one record per message and
# then walked the records again. It differs from the original only where
# that crashed: a timestamp that leaves datetime's range in UTC is a bad
# timestamp, and an over-deep line is invalid JSON.


@dataclass(frozen=True)
class _Record:
    message_id: str
    thread_id: str
    group: str
    timestamp: datetime
    subject: str


def _oracle_timestamp(raw):
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def _oracle_parse(text):
    records = []
    seen_ids = set()
    for lineno, line in enumerate(io.StringIO(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"messages line {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise InputFormatError(f"messages line {lineno}: invalid JSON (nested too deeply)") from None
        if not isinstance(obj, dict):
            raise InputFormatError(f"messages line {lineno}: expected a JSON object")
        missing = [k for k in MESSAGE_KEYS if k not in obj]
        extra = [k for k in obj if k not in MESSAGE_KEYS]
        if missing or extra:
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unexpected {extra}")
            raise InputFormatError(f"messages line {lineno}: {', '.join(detail)}")
        for key in MESSAGE_KEYS:
            if not isinstance(obj[key], str):
                raise InputFormatError(f"messages line {lineno}: {key} must be a string")
        try:
            timestamp = _oracle_timestamp(obj["timestamp"])
        except (ValueError, OverflowError):
            raise InputFormatError(
                f"messages line {lineno}: bad timestamp {obj['timestamp']!r}"
            ) from None
        if obj["message_id"] in seen_ids:
            raise InputFormatError(f"duplicate message_id: {obj['message_id']!r}")
        seen_ids.add(obj["message_id"])
        records.append(_Record(**{key: obj[key] for key in MESSAGE_KEYS} | {"timestamp": timestamp}))
    return records


def _oracle_threads(records):
    earliest = {}
    counts = Counter()
    for index, record in enumerate(records):
        counts[record.thread_id] += 1
        key = (record.timestamp, index, record)
        if record.thread_id not in earliest or key < earliest[record.thread_id]:
            earliest[record.thread_id] = key
    return [
        ThreadSummary(
            thread_id=thread_id,
            subject=strip_reply_markers(first.subject),
            message_count=counts[thread_id],
            first_month=f"{timestamp.year:04d}-{timestamp.month:02d}",
        )
        for thread_id, (timestamp, _, first) in earliest.items()
    ]


# Local clock readings near month ends, and offsets that move some of them
# across a month boundary in UTC; one pair names the same instant twice.
_CLOCKS = ["2004-02-29T23:30:00", "2004-03-01T04:00:00", "2004-03-31T22:30:00",
           "2004-04-01T03:30:00", "2004-12-31T23:00:00", "2005-01-01T00:00:00"]
_ZONES = ["", "Z", "z", "+00:00", "-05:00", "+05:00", "+13:00", "-11:30"]
_SUBJECTS = ["Tax cuts", "Re: Tax cuts", "RE: re:Tax cuts", "  re : war", "war", ""]

_messages = st.lists(
    st.tuples(
        st.sampled_from(["t0", "t1", "t2"]),
        st.sampled_from(_CLOCKS),
        st.sampled_from(_ZONES),
        st.sampled_from(_SUBJECTS),
        st.sampled_from(["", " ", "\t"]),  # JSON whitespace around the object
        st.booleans(),  # a blank line before the message
    ),
    max_size=25,
)


def _archive(messages):
    lines = []
    for i, (thread_id, clock, zone, subject, pad, blank) in enumerate(messages):
        if blank:
            lines.append(" " * (i % 3))
        lines.append(pad + _line(f"m{i}", thread_id, clock + zone, subject) + pad)
    return "\n".join(lines) + "\n"


_CORRUPTIONS = [
    lambda obj: "{not json",
    lambda obj: json.dumps(obj) + " x",
    lambda obj: "\ufeff" + json.dumps(obj),
    lambda obj: "[" * 5000 + "]" * 5000,
    lambda obj: json.dumps([obj]),
    lambda obj: "5",
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "group"}),
    lambda obj: json.dumps(obj | {"sender": "x"}),
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "subject"} | {"extra": 1}),
    lambda obj: json.dumps(obj | {"subject": 7, "group": None}),
    lambda obj: json.dumps(obj | {"thread_id": ["t1"]}),
    lambda obj: json.dumps(obj | {"timestamp": "yesterday"}),
    lambda obj: json.dumps(obj | {"timestamp": "0001-01-01T00:30:00+01:00"}),
    lambda obj: json.dumps(obj | {"timestamp": "9999-12-31T23:30:00-01:00"}),
    lambda obj: json.dumps(obj | {"message_id": "m0"}),
]


def _outcome(parse, text):
    try:
        return parse(text)
    except InputFormatError as exc:
        return f"error: {exc}"


def _parse(text):
    """``parse_messages`` on ``text`` written to a file in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "messages.jsonl"
        path.write_bytes(text.encode("utf-8"))
        return parse_messages(path)


def _fold(text):
    return build_threads(_parse(text))


def _two_pass(text):
    return _oracle_threads(_oracle_parse(text))


class TestAgainstTwoPassOracle:
    @given(_messages)
    def test_same_threads_and_count(self, messages):
        text = _archive(messages)
        records = _oracle_parse(text)
        tally = _parse(text)
        assert len(tally) == len(records) == len(messages)
        assert build_threads(tally) == _oracle_threads(records)

    @given(_messages.filter(bool), st.data())
    def test_same_outcome_with_a_corrupted_line(self, messages, data):
        lines = _archive(messages).splitlines()
        index = data.draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[index]) if lines[index].strip() else json.loads(_line("m0"))
        lines[index] = data.draw(st.sampled_from(_CORRUPTIONS))(obj)
        text = "\n".join(lines) + "\n"
        assert _outcome(_fold, text) == _outcome(_two_pass, text)


class TestParseMessages:
    def test_three_lines_three_records(self):
        text = "\n".join(_line(f"m{i}") for i in range(3)) + "\n"
        tally = _parse(text)
        assert len(tally) == 3
        assert [(t.thread_id, t.message_count) for t in build_threads(tally)] == [("t1", 3)]

    def test_fields_reproduced(self):
        tally = _parse(_line("m0") + "\n")
        assert len(tally) == 1
        assert build_threads(tally) == [_thread("t1", "war talk", "2004-03", count=1)]
        # The thread keeps the instant 2004-03-05T10:00Z: a later message at
        # that instant leaves its subject, one a second earlier replaces it.
        same = _line("m1", timestamp="2004-03-05T11:00:00+01:00", subject="same instant")
        earlier = _line("m1", timestamp="2004-03-05T10:59:59+01:00", subject="a second earlier")
        for second, subject in ((same, "war talk"), (earlier, "a second earlier")):
            text = _line("m0") + "\n" + second + "\n"
            assert build_threads(_parse(text)) == [
                _thread("t1", subject, "2004-03", count=2)
            ]

    def test_blank_lines_skipped(self):
        text = _line("m0") + "\n\n  \n" + _line("m1") + "\n"
        assert len(_parse(text)) == 2

    def test_missing_key_names_line(self):
        obj = json.loads(_line("m0"))
        del obj["subject"]
        text = _line("m1") + "\n" + json.dumps(obj) + "\n"
        with pytest.raises(InputFormatError, match="line 2.*subject"):
            _parse(text)

    def test_extra_key_rejected(self):
        obj = json.loads(_line("m0"))
        obj["sender"] = "someone"
        with pytest.raises(InputFormatError, match="unexpected.*sender"):
            _parse(json.dumps(obj) + "\n")

    def test_non_string_value_rejected(self):
        obj = json.loads(_line("m0"))
        obj["subject"] = 7
        with pytest.raises(InputFormatError, match="subject must be a string"):
            _parse(json.dumps(obj) + "\n")

    def test_invalid_json_names_line(self):
        with pytest.raises(InputFormatError, match="line 1"):
            _parse("{not json\n")

    def test_bad_timestamp_rejected(self):
        with pytest.raises(InputFormatError, match="timestamp"):
            _parse(_line("m0", timestamp="yesterday") + "\n")

    @pytest.mark.parametrize("raw", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
    def test_timestamp_out_of_range_in_utc_rejected(self, raw):
        text = _line("m0") + "\n" + _line("m1", timestamp=raw) + "\n"
        with pytest.raises(InputFormatError, match=re.escape(f"line 2: bad timestamp '{raw}'")):
            _parse(text)

    def test_deeply_nested_line_named(self):
        text = _line("m0") + "\n" + "[" * 100000 + "]" * 100000 + "\n"
        with pytest.raises(InputFormatError, match="line 2: invalid JSON"):
            _parse(text)

    @pytest.mark.parametrize("bad_line", [1, 2, 300])
    def test_undecodable_line_named_with_the_file(self, tmp_path, bad_line):
        # 300 lines span several of the text layer's decoding chunks; the
        # bad line holds a Latin-1 byte where the others hold UTF-8.
        lines = [_line(f"m{i}").encode().replace(b"war", "w\u00e4r".encode()) for i in range(300)]
        lines[bad_line - 1] = _line("bad").encode().replace(b"war", b"w\xe4r")
        path = tmp_path / "messages.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        message = f"messages line {bad_line}: {path} is not valid UTF-8"
        with pytest.raises(InputFormatError, match=re.escape(message)):
            parse_messages(path)

    def test_duplicate_id_named(self):
        text = _line("m0") + "\n" + _line("m0") + "\n"
        with pytest.raises(InputFormatError, match="duplicate message_id: 'm0'"):
            _parse(text)

    def test_offset_timestamp_converted_to_utc(self):
        text = _line("m0", timestamp="2004-03-31T22:30:00-05:00") + "\n"
        threads = build_threads(_parse(text))
        assert threads == [_thread("t1", "war talk", "2004-04", count=1)]  # April in UTC


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
        threads = _fold(text)
        assert len(threads) == 1
        assert threads[0].subject == "Tax cuts"
        assert threads[0].message_count == 3
        assert threads[0].first_month == "2004-03"

    def test_empty_input(self):
        tally = _parse("")
        assert len(tally) == 0
        assert build_threads(tally) == []

    def test_earliest_message_wins_even_out_of_order(self):
        text = "\n".join(
            [
                _line("m0", timestamp="2004-03-10T10:00:00Z", subject="Re: Original"),
                _line("m1", timestamp="2004-02-20T10:00:00Z", subject="Original"),
            ]
        )
        threads = _fold(text)
        assert threads[0].subject == "Original"
        assert threads[0].first_month == "2004-02"

    def test_timestamp_tie_broken_by_input_order(self):
        text = "\n".join(
            [
                _line("m0", timestamp="2004-03-10T10:00:00Z", subject="First in file"),
                _line("m1", timestamp="2004-03-10T10:00:00Z", subject="Second in file"),
            ]
        )
        threads = _fold(text)
        assert threads[0].subject == "First in file"

    def test_two_threads_counted_separately(self):
        lines = [_line(f"a{i}", thread_id="ta") for i in range(7)]
        lines += [_line(f"b{i}", thread_id="tb") for i in range(3)]
        threads = _fold("\n".join(lines))
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
        threads = _fold(text)
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

    def test_thread_count_sums_to_thread_total(self, corpus_buckets, corpus_tally):
        kept = filter_threads(build_threads(corpus_tally), 3)
        assert sum(b.thread_count for b in corpus_buckets) == len(kept)

    def test_fixture_axis_is_66_contiguous_months(self, corpus_buckets):
        assert len(corpus_buckets) == 66
        assert corpus_buckets[0].month == "2000-01"
        assert corpus_buckets[-1].month == "2005-06"

    def test_all_counts_positive(self, corpus_buckets):
        for bucket in corpus_buckets:
            assert all(count >= 1 for count in bucket.token_counts.values())


class TestLoadAttitude:
    @pytest.fixture
    def load_text(self, tmp_path):
        """Load an attitude series from text written to a file."""

        def load(text):
            path = tmp_path / "approval.csv"
            path.write_text(text, encoding="utf-8")
            return load_attitude_series(path)

        return load

    def test_months_out_of_order_named(self, load_text):
        series = load_text("month,rate\n2004-01,50.0\n2004-02,51.5\n2004-03,52.0\n")
        assert list(series.months) == ["2004-01", "2004-02", "2004-03"]
        assert series.values == [50.0, 51.5, 52.0]
        with pytest.raises(InputFormatError, match="row 3: expected month 2004-03, got 2004-01"):
            load_text("month,rate\n2004-02,51.5\n2004-01,50.0\n2004-03,52.0\n")

    def test_fixture_covers_66_months(self, attitude):
        assert len(attitude.months) == 66
        assert all(0.0 <= v <= 100.0 for v in attitude.values)

    def test_gap_named(self, load_text):
        csv_text = "month,rate\n2004-01,50\n2004-03,52\n"
        with pytest.raises(InputFormatError, match="2004-02"):
            load_text(csv_text)

    def test_duplicate_named(self, load_text):
        csv_text = "month,rate\n2004-01,50\n2004-01,52\n"
        with pytest.raises(InputFormatError, match="row 3: expected month 2004-02, got 2004-01"):
            load_text(csv_text)

    def test_out_of_range_rate(self, load_text):
        with pytest.raises(InputFormatError, match="outside"):
            load_text("month,rate\n2004-01,101\n")

    @pytest.mark.parametrize(
        "cell, message",
        [("", "row 3: rate is missing"), ("nan", "row 3: not a finite number"),
         ("-0.5", "row 3: rate -0.5 outside"), ("150", "row 3: rate 150.0 outside")],
    )
    def test_every_rate_present_and_in_range(self, load_text, cell, message):
        with pytest.raises(InputFormatError, match=message):
            load_text(f"month,rate\n2004-01,0\n2004-02,{cell}\n2004-03,100\n")

    def test_series_reader_keeps_an_empty_rate_as_a_gap(self, tmp_path):
        # Only run requires every rate; any other read of a month,rate file
        # keeps an empty rate as a gap, and still checks the range.
        path = tmp_path / "approval.csv"
        path.write_text("month,rate\n2004-01,0\n2004-02,\n2004-03,100\n", encoding="utf-8")
        assert read_series_csv(path).values == [0.0, None, 100.0]
        path.write_text("month,rate\n2004-01,0\n2004-02,150\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="outside"):
            read_series_csv(path)

    def test_bad_header(self, load_text):
        with pytest.raises(InputFormatError, match="header"):
            load_text("month,approval\n2004-01,50\n")

    def test_no_rows(self, load_text):
        with pytest.raises(InputFormatError, match="no data rows"):
            load_text("month,rate\n")
