import gc
import importlib
import importlib.util
import io
import json
import pkgutil
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import moodcast
from moodcast import ingest
from moodcast.errors import InputFormatError
from moodcast.ingest import (
    MESSAGE_KEYS,
    MonthlyBucket,
    ThreadTally,
    _fold_messages,
    _line_rows,
    _parse_timestamp,
    build_threads,
    filter_threads,
    monthly_subject_buckets,
    parse_messages,
    strip_reply_markers,
)
from moodcast.lexicon import tokenize
from moodcast.months import MonthAxis, month_ord, ord_month
from moodcast.reports import load_attitude_series, read_series_csv

ROOT = Path(__file__).resolve().parents[1]


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


def _thread(subject, month, count=3):
    """A thread as ``build_threads`` gives it, whose earliest message was
    written at the start of ``month``, a YYYY-MM label, in UTC."""
    return count, datetime.fromisoformat(f"{month}-01T00:00:00+00:00"), subject


def _exact(threads):
    """Threads with each timestamp as its ISO text, which shows its offset."""
    return [(count, stamp.isoformat(), subject) for count, stamp, subject in threads]


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
        (counts[thread_id], timestamp, first.subject)
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
    return _exact(build_threads(_parse(text)))


def _two_pass(text):
    return _exact(_oracle_threads(_oracle_parse(text)))


class TestAgainstTwoPassOracle:
    @given(_messages)
    def test_same_threads_and_count(self, messages):
        text = _archive(messages)
        records = _oracle_parse(text)
        tally = _parse(text)
        assert len(tally) == len(records) == len(messages)
        assert _exact(build_threads(tally)) == _exact(_oracle_threads(records))

    @given(_messages.filter(bool), st.data())
    def test_same_outcome_with_a_corrupted_line(self, messages, data):
        lines = _archive(messages).splitlines()
        index = data.draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[index]) if lines[index].strip() else json.loads(_line("m0"))
        lines[index] = data.draw(st.sampled_from(_CORRUPTIONS))(obj)
        text = "\n".join(lines) + "\n"
        assert _outcome(_fold, text) == _outcome(_two_pass, text)


def _tally_outcome(tally):
    """All that a tally holds; a timestamp as its ISO text, which shows its offset."""
    stamps = [(thread, stamp.isoformat()) for thread, stamp in tally.stamps.items()]
    return stamps, list(tally.subjects.items()), list(tally.counts.items()), len(tally)


def _decoded_lines(raw: bytes, path):
    """The lines of ``raw`` as universal newlines split them, each decoded on its own.

    A line that is not UTF-8 raises when it is reached, so a bad line
    before it is named first.
    """
    for lineno, line in enumerate(re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", raw), start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"messages line {lineno}: {path} is not valid UTF-8 ({exc.reason})"
            ) from None
        body = text.rstrip("\r\n")
        yield body + "\n" if body != text else body


def _one_by_one(batches):
    """Each message of ``batches`` as a batch of its own, which the fold checks as a row."""
    for linenos, messages in batches:
        for lineno, message in zip(linenos, messages):
            yield (lineno,), [message]


def _outcomes_of_both_sources(raw: bytes, chunk_bytes: int):
    """``parse_messages`` and the per-line fold alone, on one file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "messages.jsonl"
        path.write_bytes(raw)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
            chunked = _outcome(lambda p: _tally_outcome(parse_messages(p)), path)

        def per_line(p):
            rows = _one_by_one(_line_rows(_decoded_lines(raw, p), 1, p))
            return _tally_outcome(_fold_messages(rows))

        return chunked, _outcome(per_line, path)


_M = [_line(f"m{i}", f"t{i % 2}") for i in range(4)]

# Lines that are blank to str.strip(); only the first four are JSON blanks.
_BLANKS = ["", "  ", "\t", " \t ", "\x0c", "\x85", "\u2028", "\x1c"]

# Lines that fail on their own or that try to shift the rows of a chunk:
# broken JSON, stray brackets, split and joined objects, non-objects.
_FRAGMENTS = [
    "{not json", '{"message_id": "m', "]", "[", "],[", "],0,[", "0],[0", "{}]", "[{}",
    '{"a":[[1', '2]]}', "[]", "[[]]", "{}", "null", "0", '"x"', "[" * 3000 + "]" * 3000,
    _M[0] + "," + _M[1], _M[0] + "],[" + _M[1], _M[0] + " x", "\ufeff" + _M[0],
    _M[0][:40], _M[0][40:], '{"message_id": ' + "1" * 4301 + "}",
]

_message_lines = st.builds(
    lambda i, thread, clock, zone, subject: _line(f"m{i}", thread, clock + zone, subject),
    st.integers(0, 60),  # ids repeat now and then: a duplicate message_id
    st.sampled_from(["t0", "t1", "t2"]),
    st.sampled_from(_CLOCKS),
    st.sampled_from(_ZONES + [" ", "+25:00"]),  # and, rarely, a bad timestamp
    st.sampled_from(_SUBJECTS),
)
_wrong_messages = st.sampled_from(
    [json.dumps({k: v for k, v in json.loads(_M[0]).items() if k != "group"}),
     json.dumps(json.loads(_M[0]) | {"sender": "x"}),
     json.dumps(json.loads(_M[0]) | {"subject": 7}),
     json.dumps(json.loads(_M[0]) | {"thread_id": ["t1"]}),
     _line("m99", timestamp="yesterday"), _line("m98", timestamp="0001-01-01T00:30:00+01:00")]
)
# Lines at the edge of the canonical layout that ``json.dumps`` writes: raw
# characters that need no escape (still canonical), then escapes, raw control
# characters and other layouts, which only ``json.loads`` reads.
_NEAR_CANONICAL = [
    lambda obj: json.dumps(obj | {"subject": "line\u2028separator"}, ensure_ascii=False),
    lambda obj: json.dumps(obj | {"subject": "del\x7f"}, ensure_ascii=False),
    lambda obj: json.dumps(obj | {"group": "caf\u00e9"}, ensure_ascii=False),
    lambda obj: json.dumps(obj | {"subject": 'a "quoted" word'}),
    lambda obj: json.dumps(obj | {"subject": "back\\slash"}),
    lambda obj: json.dumps(obj | {"subject": "caf\u00e9"}),  # written as caf\u00e9
    lambda obj: json.dumps(obj | {"subject": "@"}).replace("@", "\x01"),
    lambda obj: json.dumps(obj | {"subject": "@"}).replace("@", "\t"),
    lambda obj: json.dumps(dict(reversed(obj.items()))),
    lambda obj: json.dumps(obj, separators=(",", ":")),
    lambda obj: " " + json.dumps(obj),
    lambda obj: json.dumps(obj) + " ",
    lambda obj: "x" + json.dumps(obj),
    lambda obj: json.dumps(obj) + json.dumps(obj | {"message_id": "m99"}),
]
_near_canonical_lines = st.builds(
    lambda line, variant: variant(json.loads(line)),
    _message_lines, st.sampled_from(_NEAR_CANONICAL),
)
# Bytes that are not UTF-8, written as the "surrogateescape" handler decodes
# them: a Latin-1 byte, a lone continuation byte, a cut three-byte sequence
# and an encoded surrogate. Put into a message's subject, into a blank line
# and into broken JSON.
_BAD_BYTES = ["\udcff", "\udce4", "\udc80", "\udce2\udc82", "\udced\udca0\udc80"]
_undecodable_lines = st.builds(
    lambda line, bad, where: {
        "subject": line.replace('"subject": "', '"subject": "' + bad, 1),
        "blank": " " + bad,
        "json": "{not json" + bad,
        "end": line + bad,
    }[where],
    _message_lines, st.sampled_from(_BAD_BYTES), st.sampled_from(["subject", "blank", "json", "end"]),
)
_file_lines = st.lists(
    st.one_of(
        _message_lines, _message_lines, _message_lines, _near_canonical_lines,
        st.sampled_from(_BLANKS), st.sampled_from(_FRAGMENTS), _wrong_messages,
        _undecodable_lines,
    ),
    max_size=12,
)

# One object split between two of its members; the joined third line
# keeps the line and value counts equal.
_SPLIT = _M[0].index('"timestamp"')
_SPLIT_OBJECT = [_M[0][:_SPLIT], _M[0][_SPLIT:], _M[1] + "," + _M[2]]


class TestChunkedDecoding:
    """``parse_messages`` decodes chunks of lines; the per-line read is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        lines=_file_lines,
        ending=st.sampled_from(["\n", "\r\n", "\r"]),
        last_newline=st.booleans(),
        chunk_bytes=st.sampled_from([1, 200, 16 * 1024]),
    )
    # Stripped lines joined with "," pass every per-line shape check here:
    # line 1's subject string would swallow line 2 and a comma.
    @example(
        lines=[_M[0][:-2] + 'x}', '{y"}', _M[1] + "," + _M[2]],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(lines=_SPLIT_OBJECT, ending="\n", last_newline=True, chunk_bytes=16 * 1024)
    @example(lines=[_M[0] + "],[" + _M[1]], ending="\n", last_newline=True, chunk_bytes=16 * 1024)
    @example(lines=[_M[0] + "," + _M[1]], ending="\n", last_newline=True, chunk_bytes=16 * 1024)
    @example(
        lines=['{"a":[[1', "2]]}", _M[0] + "],[" + _M[1]],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(lines=["\ufeff" + _M[0], _M[1]], ending="\n", last_newline=True, chunk_bytes=16 * 1024)
    @example(lines=[_M[0], "", _M[1]], ending="\r\n", last_newline=True, chunk_bytes=16 * 1024)
    @example(lines=[_M[0], " ", _M[1]], ending="\r", last_newline=True, chunk_bytes=16 * 1024)
    @example(lines=[_M[0], _M[1]], ending="\n", last_newline=False, chunk_bytes=16 * 1024)
    # A first line that is canonical lets the chunk past the gate; a later
    # one that is not sends it to json.loads.
    @example(lines=[_M[0], "x" + _M[1]], ending="\n", last_newline=True, chunk_bytes=16 * 1024)
    @example(
        lines=[_M[0], _M[1].replace("war talk", "war\x01talk")],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(
        lines=[_M[0], json.dumps(json.loads(_M[1]), separators=(",", ":"))],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    # A bad JSON line names itself before a later byte that is not UTF-8,
    # in the same chunk, and that byte before a later bad line.
    @example(
        lines=[_M[0], "{not json", _M[1], _M[2].replace("war", "w\udcffr")],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(
        lines=[_M[0], _M[1].replace("war", "w\udce4r"), "[]"],
        ending="\r\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(lines=[_M[0], _M[1] + "\udce2\udc82"], ending="\n", last_newline=False, chunk_bytes=1)
    # The canonical pattern lets a value hold any character but '"': the
    # chunk's control check turns away a raw control character, and the
    # match count a value cut by a raw newline.
    @example(
        lines=[_M[0].replace("war talk", "war\x01talk"), _M[1]],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(
        lines=[_M[0], _M[1].replace("war talk", "war\ttalk"), _M[2]],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(
        lines=[_M[0], _M[1].replace("war talk", "war\ntalk"), _M[2]],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    # A batch that fails a column check is read row by row: an offset and a
    # naive timestamp, a duplicate id before a bad timestamp (the duplicate
    # is named), and an id repeated within the batch after another new id.
    @example(
        lines=[_M[0], _M[1], _line("m2", "t0", "2004-03-05T11:59:59+02:00", "offset"),
               _line("m3", "t1", "2004-03-05T09:00:00", "naive")],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(
        lines=[_M[0], _M[1], _line("m0", "t1"), _line("m9", timestamp="yesterday")],
        ending="\n", last_newline=True, chunk_bytes=16 * 1024,
    )
    @example(lines=[_M[0], _M[1], _M[1]], ending="\n", last_newline=True, chunk_bytes=16 * 1024)
    def test_same_tally_or_error_as_the_per_line_read(self, lines, ending, last_newline, chunk_bytes):
        text = ending.join(lines) + (ending if last_newline else "")
        raw = text.encode("utf-8", "surrogateescape")
        chunked, per_line = _outcomes_of_both_sources(raw, chunk_bytes)
        assert chunked == per_line

    def test_canonical_file_is_read_without_json_loads(self, tmp_path):
        path = tmp_path / "messages.jsonl"
        # Raw non-ASCII letters need no escape, so these lines stay canonical.
        lines = [_line(f"m{i}", f"t{i % 7}").replace("war", "w\u00e4r") for i in range(400)]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with mock.patch.object(ingest.json, "loads", side_effect=AssertionError("json.loads")):
            tally = parse_messages(path)
        assert _tally_outcome(tally) == _outcomes_of_both_sources(path.read_bytes(), 16 * 1024)[1]

    @pytest.mark.parametrize(
        "blank, subject, reads",
        [([], "war", (False, False)), ([], 'a "quoted" word', (True, False)),
         (["\x0c"], "war", (True, True))],
        ids=["findall", "json-loads", "per-line"],
    )
    def test_tally_maps_are_untracked_by_the_cycle_collector(self, tmp_path, blank, subject,
                                                              reads):
        # A dict that holds no object which can hold a reference is left
        # untracked, so no collection walks the tally however large it grows.
        # A form feed is blank to the per-line read but not to JSON, so its
        # chunk is read line by line.
        lines = blank + [_line(f"m{i}", f"t{i % 7}", subject=subject) for i in range(400)]
        path = tmp_path / "messages.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with mock.patch.object(ingest.json, "loads", wraps=json.loads) as loads, \
                mock.patch.object(ingest, "_line_rows", wraps=ingest._line_rows) as line_rows:
            tally = parse_messages(path)
        assert (loads.called, line_rows.called) == reads
        assert len(tally) == 400
        maps = [tally.stamps, tally.subjects, tally.counts]
        assert [len(m) for m in maps] == [7] * 3 and not any(map(gc.is_tracked, maps))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_valid_file_is_read_in_chunks_only(self, tmp_path, ending):
        path = tmp_path / "messages.jsonl"
        lines = [_line(f"m{i}", f"t{i % 7}") for i in range(400)]
        path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
        with mock.patch.object(ingest, "_line_rows", side_effect=AssertionError("re-read")):
            tally = parse_messages(path)
        assert len(tally) == 400
        assert _tally_outcome(tally) == _outcomes_of_both_sources(path.read_bytes(), 16 * 1024)[1]

    @pytest.mark.parametrize("bad", ["{not json", '"x"', "\udcff", _line("m9", timestamp="x")])
    def test_a_fold_error_is_met_before_a_later_bad_line_of_its_chunk(self, tmp_path, bad):
        # The form feed sends the chunk to the per-line read, which yields the
        # messages before its bad line, then raises.
        path = tmp_path / "messages.jsonl"
        lines = [_M[0], "\x0c", _M[1], _line("m0", "t1"), bad, _M[2]]
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(InputFormatError, match="^duplicate message_id: 'm0'$"):
            parse_messages(path)

    @pytest.mark.parametrize("zone", ["+02:00", "-05:30", "", "+00:00"])
    def test_a_chunk_of_valid_timestamps_is_parsed_once(self, tmp_path, zone):
        # Naive and offset timestamps that parse as a column are moved to UTC
        # from the column, not parsed again row by row.
        path = tmp_path / "messages.jsonl"
        lines = [_line(f"m{i}", f"t{i % 7}", f"2004-03-{1 + i % 28:02d}T23:30:00{zone}")
                 for i in range(400)]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with mock.patch.object(ingest, "_parse_timestamp",
                               side_effect=AssertionError("parsed again")):
            tally = parse_messages(path)
        assert len(tally) == 400
        assert _tally_outcome(tally) == _outcomes_of_both_sources(path.read_bytes(), 16 * 1024)[1]


def test_shipped_and_generated_archives_are_canonical(tmp_path):
    # The archives the canonical pattern is for: the shipped corpus and the
    # fixture generator's output, which the benchmark's archives copy.
    script = ROOT / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    fixtures.N_MONTHS = 30
    fixtures.write_messages(tmp_path / "messages.jsonl", np.random.default_rng(5))
    for path in (ROOT / "tests" / "data" / "messages.jsonl", tmp_path / "messages.jsonl"):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines and all(ingest._CANONICAL_LINE.fullmatch(line) for line in lines), path
        # The pattern leaves control characters to the chunk's check.
        assert type(ingest._decoded_rows(lines, 1)[0]) is range, path


def _regex_opcodes(node):
    if isinstance(node, re._parser.SubPattern):
        node = node.data
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _regex_opcodes(item)
    elif isinstance(node, re._constants._NamedIntConstant):
        yield node


def test_patterns_use_no_syntax_newer_than_python_3_10():
    # pyproject.toml allows Python 3.10, whose re module rejects possessive
    # repeats and atomic groups at compile time, that is, at import.
    newer = {re._constants.POSSESSIVE_REPEAT, re._constants.ATOMIC_GROUP}
    patterns = [
        (f"{info.name}.{name}", value)
        for info in pkgutil.iter_modules(moodcast.__path__, "moodcast.")
        for name, value in vars(importlib.import_module(info.name)).items()
        if isinstance(value, re.Pattern)
    ]
    assert "moodcast.ingest._CANONICAL_LINE" in dict(patterns)
    for name, pattern in patterns:
        tree = re._parser.parse(pattern.pattern, pattern.flags)
        assert not newer & set(_regex_opcodes(tree)), name


class TestChunkBoundaries:
    """Errors past the first chunk keep their exact line, or their id."""

    LINES = 1000

    @pytest.fixture
    def lines(self):
        lines = [_line(f"m{i}", f"t{i % 9}") for i in range(self.LINES)]
        assert len("\n".join(lines)) > 3 * ingest._CHUNK_BYTES + 3 * len(lines[0])
        return lines

    def parse(self, tmp_path, lines):
        path = tmp_path / "messages.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return parse_messages(path)

    @pytest.mark.parametrize(
        "lineno, text, message",
        [(700, "{not json", "messages line 700: invalid JSON (Expecting property name"),
         (701, _line("x", timestamp="yesterday"), "messages line 701: bad timestamp 'yesterday'"),
         (999, "[]", "messages line 999: expected a JSON object")],
    )
    def test_first_error_in_a_later_chunk_names_its_line(self, tmp_path, lines, lineno, text, message):
        lines[lineno - 1] = text
        lines[lineno] = "{also bad"  # a later bad line is not the one named
        with pytest.raises(InputFormatError, match=re.escape(message)):
            self.parse(tmp_path, lines)

    def test_bad_line_before_an_undecodable_later_block_is_named(self, tmp_path, lines):
        # A chunk decodes text past the first bad line; the bytes that do not
        # decode lie beyond the text layer's first 8 KiB block.
        lines[1] = "{not json"
        path = tmp_path / "messages.jsonl"
        raw = ("\n".join(lines) + "\n").encode("utf-8")
        path.write_bytes(raw[:12000] + b"\xff" + raw[12000:])
        with pytest.raises(InputFormatError, match=re.escape("messages line 2: invalid JSON")):
            parse_messages(path)

    @pytest.mark.parametrize(
        "last, message, line_reads",
        [(b"{not json", "messages line 1000: invalid JSON", 1),
         (_line("x").encode().replace(b"war", b"w\xffr"),
          "messages line 1000: {path} is not valid UTF-8 (invalid start byte)", 1),
         (_line("m5").encode(), "duplicate message_id: 'm5'", 0)],
        ids=["bad-json", "not-utf8", "duplicate-id"],
    )
    def test_fault_on_the_last_line_reads_the_file_once(self, tmp_path, lines, last, message,
                                                        line_reads):
        # Only the chunk that holds the fault is read line by line, from memory.
        path = tmp_path / "messages.jsonl"
        path.write_bytes("".join(line + "\n" for line in lines[:-1]).encode() + last + b"\n")
        with mock.patch.object(ingest, "open", wraps=open, create=True) as opened, \
                mock.patch.object(ingest, "_line_rows", wraps=ingest._line_rows) as line_rows:
            with pytest.raises(InputFormatError, match=re.escape(message.format(path=path))):
                parse_messages(path)
        assert opened.call_count == 1
        assert line_rows.call_count == line_reads
        for (chunk, first_lineno, _), _ in line_rows.call_args_list:
            assert 1 < first_lineno and first_lineno + len(chunk) - 1 == self.LINES

    def test_duplicate_id_across_chunks_is_caught(self, tmp_path, lines):
        lines[-1] = _line("m5", "t3")  # the copy of line 6, several chunks later
        with pytest.raises(InputFormatError, match=re.escape("duplicate message_id: 'm5'")):
            self.parse(tmp_path, lines)

    def test_every_line_counted_once(self, tmp_path, lines):
        tally = self.parse(tmp_path, lines)
        assert len(tally) == self.LINES
        assert sum(count for count, _, _ in build_threads(tally)) == self.LINES


def _reference_parse_timestamp(raw):
    """``_parse_timestamp`` before its ``fromisoformat`` fast path."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is timezone.utc:
        return moment
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def _timestamp_outcome(parse, raw):
    try:
        moment = parse(raw)
    except Exception as exc:  # the type is the outcome
        return type(exc)
    return moment, moment.tzinfo


_iso_timestamps = st.builds(
    lambda pad, day, sep, clock, fraction, zone, tail: (
        f"{pad}{day.isoformat()}{sep}{clock}{fraction}{zone}{tail}"
    ),
    st.sampled_from(["", " ", "\t", "\n"]),
    st.one_of(st.dates(), st.sampled_from([datetime(1, 1, 1).date(), datetime(9999, 12, 31).date()])),
    st.sampled_from(["T", " ", "t"]),
    st.sampled_from(["00:00", "00:30:00", "12:34:56", "23:59:59", "23:30", "24:00:00"]),
    st.sampled_from(["", ".5", ".123", ".123456", ".1234567", ",5"]),
    st.sampled_from(["", "Z", "z", "ZZ", "+00:00", "-00:00", "+0000", "+01:00", "-01:00", "+05:30",
                     "-11:59", "+23:59", "+24:00", "+00:00Z", "+01:00:30.5"]),
    st.sampled_from(["", " ", "\n", "\u3000"]),
)


class TestParseTimestamp:
    @settings(max_examples=300)
    @given(st.one_of(_iso_timestamps, st.text(max_size=30)))
    @example("0001-01-01T00:30:00+01:00")
    @example("0001-01-01T00:30:00-01:00")
    @example("9999-12-31T23:30:00-01:00")
    @example("9999-12-31T23:30:00+01:00")
    @example(" 2004-03-05T10:00:00z ")
    def test_matches_the_reference(self, raw):
        got = _timestamp_outcome(_parse_timestamp, raw)
        expected = _timestamp_outcome(_reference_parse_timestamp, raw)
        assert got == expected
        if isinstance(expected, tuple):
            assert got[1] is expected[1]


class TestParseMessages:
    def test_three_lines_three_records(self):
        text = "\n".join(_line(f"m{i}") for i in range(3)) + "\n"
        tally = _parse(text)
        assert len(tally) == 3
        assert [(subject, count) for count, _, subject in build_threads(tally)] == [("war talk", 3)]

    def test_fields_reproduced(self):
        tally = _parse(_line("m0") + "\n")
        assert len(tally) == 1
        assert _exact(build_threads(tally)) == [(1, "2004-03-05T10:00:00+00:00", "war talk")]
        # The thread keeps the instant 2004-03-05T10:00Z: a later message at
        # that instant leaves its subject, one a second earlier replaces it.
        same = _line("m1", timestamp="2004-03-05T11:00:00+01:00", subject="same instant")
        earlier = _line("m1", timestamp="2004-03-05T10:59:59+01:00", subject="a second earlier")
        for second, stamp, subject in ((same, "10:00:00", "war talk"),
                                       (earlier, "09:59:59", "a second earlier")):
            text = _line("m0") + "\n" + second + "\n"
            assert _exact(build_threads(_parse(text))) == [
                (2, f"2004-03-05T{stamp}+00:00", subject)
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

    def test_first_bad_line_named_whatever_its_fault(self, tmp_path):
        # Both faults lie in the text layer's first 8 KiB decoding block.
        lines = [_line(f"m{i}").encode() for i in range(5)]
        lines[1] = b"{not json"
        lines[3] = lines[3].replace(b"war", b"w\xffr")
        path = tmp_path / "messages.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(InputFormatError, match=re.escape("messages line 2: invalid JSON")):
            parse_messages(path)

    @pytest.mark.parametrize("first_subject", ["war", 'a "quoted" word'],
                             ids=["findall", "json-loads"])
    def test_undecodable_byte_in_an_otherwise_readable_chunk(self, tmp_path, first_subject):
        # Raw non-ASCII lines that the chunk's path reads as messages, and
        # the same with the byte 0xff in line 3; a quoted word needs an
        # escape, which sends the chunk to json.loads.
        lines = [_line(f"m{i}", subject=first_subject if i == 0 else "war") for i in range(5)]
        lines = [line.replace("war", "w\u00e4r").encode() for line in lines]
        path = tmp_path / "messages.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with mock.patch.object(ingest.json, "loads", wraps=json.loads) as loads:
            assert len(parse_messages(path)) == 5
        assert loads.called == (first_subject != "war")
        lines[2] = lines[2].replace("\u00e4".encode(), b"\xff")
        path.write_bytes(b"\n".join(lines) + b"\n")
        message = f"messages line 3: {path} is not valid UTF-8 (invalid start byte)"
        with pytest.raises(InputFormatError, match=re.escape(message)):
            parse_messages(path)

    def test_duplicate_id_named(self):
        text = _line("m0") + "\n" + _line("m0") + "\n"
        with pytest.raises(InputFormatError, match="duplicate message_id: 'm0'"):
            _parse(text)

    def test_offset_timestamp_converted_to_utc(self):
        text = _line("m0", timestamp="2004-03-31T22:30:00-05:00") + "\n"
        threads = build_threads(_parse(text))
        assert _exact(threads) == [(1, "2004-04-01T03:30:00+00:00", "war talk")]  # April in UTC


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

    @staticmethod
    def _loop(subject):
        # The former definition: strip one "re:" marker at a time, then leading space.
        marker = re.compile(r"\s*re\s*:", re.IGNORECASE)
        while (match := marker.match(subject)) is not None:
            subject = subject[match.end():]
        return subject.lstrip()

    # Pieces of a subject: markers in any case, separators, Unicode spaces and any text.
    _PIECES = st.sampled_from(["re", "RE", "rE", ":", " ", "\t", "\u3000", "\x85", "x"])

    @settings(max_examples=300)
    @given(st.lists(_PIECES | st.text(max_size=3), max_size=12).map("".join))
    def test_one_pattern_strips_as_the_loop_did(self, subject):
        assert strip_reply_markers(subject) == self._loop(subject)


class TestBuildThreads:
    def test_reply_chain_collapses_to_one_summary(self):
        subjects = ["Tax cuts", "Re: Tax cuts", "RE: Re: Tax cuts"]
        text = "\n".join(
            _line(f"m{i}", timestamp=f"2004-03-0{i + 1}T10:00:00Z", subject=s)
            for i, s in enumerate(subjects)
        )
        threads = build_threads(_parse(text))
        assert _exact(threads) == [(3, "2004-03-01T10:00:00+00:00", "Tax cuts")]
        assert monthly_subject_buckets(threads) == [
            MonthlyBucket("2004-03", {"tax": 1, "cuts": 1}, 1)
        ]

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
        assert threads[0][1:] == ("2004-02-20T10:00:00+00:00", "Original")

    def test_timestamp_tie_broken_by_input_order(self):
        text = "\n".join(
            [
                _line("m0", timestamp="2004-03-10T10:00:00Z", subject="First in file"),
                _line("m1", timestamp="2004-03-10T10:00:00Z", subject="Second in file"),
            ]
        )
        threads = _fold(text)
        assert threads[0][2] == "First in file"

    def test_two_threads_counted_separately(self):
        lines = [_line(f"a{i}", thread_id="ta", subject="a talk") for i in range(7)]
        lines += [_line(f"b{i}", thread_id="tb", subject="b talk") for i in range(3)]
        threads = _fold("\n".join(lines))
        counts = {subject: count for count, _, subject in threads}
        assert counts == {"a talk": 7, "b talk": 3}

    def test_output_order_is_first_appearance(self):
        text = "\n".join(
            [
                _line("m0", thread_id="tz", subject="z"),
                _line("m1", thread_id="ta", subject="a"),
                _line("m2", thread_id="tz", subject="z"),
            ]
        )
        threads = _fold(text)
        assert [subject for _, _, subject in threads] == ["z", "a"]

    def test_threads_are_untracked_by_the_cycle_collector(self, corpus_tally):
        # A collection untracks a plain tuple that holds no object which can
        # hold a reference, so later collections skip every thread; it never
        # untracks a named tuple.
        threads = build_threads(corpus_tally)
        gc.collect()
        assert threads and not any(map(gc.is_tracked, threads))

    @given(
        st.integers(2 * 12 + 1, 9998 * 12 + 9),  # a month ordinal in years 2-9998
        st.lists(
            st.tuples(
                st.integers(0, 2),  # months after the first one
                st.integers(-86400, 86400),  # seconds from that month's start, in UTC
                st.integers(-14 * 60, 14 * 60),  # the written offset, in minutes
                st.sampled_from(_SUBJECTS),
            ),
            max_size=8,
        ),
    )
    @example(month_ord("2004-01"), [(0, -1, 14 * 60, "war"), (0, 0, -14 * 60, "re: war")])
    @example(month_ord("9998-10"), [(2, 86400, -14 * 60, "war"), (0, -86400, 14 * 60, "love")])
    @example(month_ord("0002-02"), [(0, -86400, -14 * 60, "war"), (1, 0, 0, "")])
    def test_month_is_the_ordinal_of_the_utc_month(self, first, drawn):
        lines, labels, expected = [], [], []
        for i, (step, seconds, minutes, subject) in enumerate(drawn):
            year, month = divmod(first + step, 12)
            instant = datetime(year, month + 1, 1, tzinfo=timezone.utc) + timedelta(seconds=seconds)
            raw = instant.astimezone(timezone(timedelta(minutes=minutes))).isoformat()
            lines.append(_line(f"m{i}", f"t{i}", raw, subject) + "\n")
            labels.append(f"{instant.year:04d}-{instant.month:02d}")
            expected.append((1, instant.isoformat(), subject))
        tally = _parse("".join(lines))
        assert len(tally) == len(drawn)
        threads = build_threads(tally)
        assert _exact(threads) == expected
        canonical = (strip_reply_markers(subject) for _, _, subject in threads)
        assert monthly_subject_buckets(threads) == _label_buckets(zip(labels, canonical))


def _label_buckets(labelled):
    """The buckets of ``(YYYY-MM label, canonical subject)`` pairs, grouped by
    label as ``monthly_subject_buckets`` did when a thread's month was a label."""
    labelled = list(labelled)
    if not labelled:
        return []
    ordinals = [month_ord(m) for m in dict.fromkeys(m for m, _ in labelled)]
    first = min(ordinals)
    subjects = {m: [] for m in MonthAxis(first, max(ordinals) - first + 1)}
    for month, subject in labelled:
        subjects[month].append(subject)
    return [
        MonthlyBucket(m, dict(Counter(tokenize("\n".join(ss)))), len(ss))
        for m, ss in subjects.items()
    ]


def _reference_tail(tally, min_messages):
    """Buckets, thread count and kept-thread count as they were worked out
    when a thread was a ``(canonical subject, count, month)`` record: every
    subject stripped and every month read, then filtered, then grouped."""
    summaries = [
        (strip_reply_markers(subject), count, month_ord(f"{stamp.year:04d}-{stamp.month:02d}"))
        for stamp, subject, count in zip(
            tally.stamps.values(), tally.subjects.values(), tally.counts.values()
        )
    ]
    kept = [summary for summary in summaries if summary[1] >= min_messages]
    buckets = _label_buckets((ord_month(month), subject) for subject, _, month in kept)
    return buckets, len(summaries), len(kept)


def _drawn_tally(drawn):
    stamps, subjects, counts = {}, {}, {}
    for i, (month, seconds, markers, subject, count) in enumerate(drawn):
        year, mon = divmod(month, 12)
        start = datetime(year, mon + 1, 1, tzinfo=timezone.utc)
        stamps[f"t{i}"] = start + timedelta(seconds=seconds)
        subjects[f"t{i}"] = "".join(markers) + subject
        counts[f"t{i}"] = count
    return ThreadTally(stamps, subjects, counts, sum(counts.values()))


# Threads that start within a day of a year start (2004-01) or of a month
# start, with reply-marker chains before their subjects and message counts
# on both sides of the minimum.
_tallies = st.lists(
    st.tuples(
        st.sampled_from([month_ord(m) for m in ("2003-12", "2004-01", "2004-02", "2004-05")]),
        st.integers(-86400, 86400),  # seconds from that month's start, in UTC
        st.lists(st.sampled_from(["Re:", "re :", "RE: ", " ", "\t"]), max_size=3),
        st.sampled_from(["Tax cuts", "war now", "re", ": war", ""]),
        st.integers(1, 6),
    ),
    max_size=12,
).map(_drawn_tally)


class TestFilterThreads:
    def test_boundary_counts(self):
        threads = [_thread(f"s{i}", "2004-01", count=c) for i, c in enumerate([1, 2, 3, 19000])]
        kept = filter_threads(threads, 3)
        assert [count for count, _, _ in kept] == [3, 19000]

    def test_min_one_is_identity(self):
        threads = [_thread(f"s{i}", "2004-01", count=c) for i, c in enumerate([1, 5])]
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
        threads = [_thread(f"s{i}", "2004-01", count=c) for i, c in enumerate(counts)]
        lower = filter_threads(threads, min_messages)
        higher = filter_threads(threads, min_messages + 1)
        assert set(subject for _, _, subject in higher) <= set(subject for _, _, subject in lower)


class TestMonthlyBuckets:
    def test_counting_by_definition(self):
        threads = [
            _thread("war now", "2004-01"),
            _thread("war talk", "2004-01"),
        ]
        buckets = monthly_subject_buckets(threads)
        assert len(buckets) == 1
        assert buckets[0].month == "2004-01"
        assert buckets[0].token_counts == {"war": 2, "now": 1, "talk": 1}
        assert buckets[0].thread_count == 2

    def test_single_thread_single_month(self):
        buckets = monthly_subject_buckets([_thread("war", "2004-05")])
        assert [b.month for b in buckets] == ["2004-05"]

    def test_gap_month_present_with_zero_count(self):
        threads = [
            _thread("war", "2004-01"),
            _thread("love", "2004-03"),
        ]
        buckets = monthly_subject_buckets(threads)
        assert [b.month for b in buckets] == ["2004-01", "2004-02", "2004-03"]
        gap = buckets[1]
        assert gap.thread_count == 0
        assert gap.token_counts == {}

    def test_empty_input(self):
        assert monthly_subject_buckets([]) == []

    @settings(max_examples=200)
    @given(st.lists(
        st.tuples(st.sampled_from(["2004-01", "2004-02", "2004-04"]),
                  st.text(alphabet="aBΣσς'İ\u0307. \n", max_size=6)),
        max_size=12,
    ))
    # A capital sigma is final before a string end or a newline, not before a
    # letter; an apostrophe or a combining mark between them is skipped.
    @example([("2004-01", "AΣ"), ("2004-01", "a"), ("2004-01", "aΣ'"), ("2004-01", "\u0307b")])
    @example([("2004-01", "don'"), ("2004-01", "t İ"), ("2004-01", "İ'"), ("2004-01", "Σ")])
    def test_one_tokenize_call_per_month_counts_as_one_per_thread(self, drawn):
        threads = [_thread(subject, month) for month, subject in drawn]
        expected = {}  # month -> (token counts in first-seen order, thread count)
        for month, subject in drawn:
            counts, n = expected.get(month, (Counter(), 0))
            counts.update(tokenize(strip_reply_markers(subject)))
            expected[month] = (counts, n + 1)
        for bucket in monthly_subject_buckets(threads):
            counts, n = expected.pop(bucket.month, (Counter(), 0))
            assert list(bucket.token_counts.items()) == list(counts.items())
            assert bucket.thread_count == n
        assert not expected

    @settings(max_examples=200)
    @given(_tallies, st.integers(1, 5))
    def test_tail_matches_the_record_per_thread_reference(self, tally, min_messages):
        threads = build_threads(tally)
        kept = filter_threads(threads, min_messages)
        got = monthly_subject_buckets(kept), len(threads), len(kept)
        assert got == _reference_tail(tally, min_messages)

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
         ("-0.5", "row 3: rate '-0.5' outside [0, 100]"),
         ("150", "row 3: rate '150' outside [0, 100]")],
    )
    def test_every_rate_present_and_in_range(self, load_text, cell, message):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            load_text(f"month,rate\n2004-01,0\n2004-02,{cell}\n2004-03,100\n")

    def test_first_bad_row_named_whatever_its_fault(self, load_text):
        # A missing rate is found in the same pass as a rate out of range.
        with pytest.raises(InputFormatError, match="row 3: rate is missing"):
            load_text("month,rate\n2004-01,50\n2004-02,\n2004-03,150\n")

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
