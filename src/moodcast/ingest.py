"""Corpus ingestion.

Folds message archives (JSONL) into discussion threads in one pass, a
chunk of lines at a time: a chunk is read whole, as columns, or checked
line by line, and the first bad line is named whatever its fault. Then it
applies the minimum-thread-size spam filter and buckets canonical thread
subjects by calendar month. A thread is a plain tuple of the tally's
columns; the buckets are immutable records on a YYYY-MM month axis. The
attitude series is a table, read by ``moodcast.reports.load_attitude_series``.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from datetime import datetime, timezone
from itertools import repeat
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .errors import InputFormatError, json_problem
from .lexicon import tokenize
from .months import MonthAxis
from .records import Record
from .tables import quote_cell

MESSAGE_KEYS = ("message_id", "thread_id", "group", "timestamp", "subject")
_KEY_SET = frozenset(MESSAGE_KEYS)
_message_fields = itemgetter(*MESSAGE_KEYS)
_tzinfo = attrgetter("tzinfo")

# The four strings of a message that the fold reads: id, thread id, timestamp
# and subject; and a chunk's columns, the thread ids, UTC timestamps and
# subjects of its messages.
_Message = tuple[str, str, str, str]
_Columns = tuple[Sequence[str], Sequence[datetime], Sequence[str]]

# A thread: its message count, and its earliest message's UTC timestamp and
# raw subject; a plain tuple of such values is one the cycle collector untracks.
_Thread = tuple[int, datetime, str]

# A canonical message line: what ``json.dumps`` writes for a message with its
# keys in ``MESSAGE_KEYS`` order, when no value holds '"', '\\' or U+0000-U+001F.
# Such a value needs no escape, so by RFC 8259 section 7 each group is exactly
# the string that ``json.loads`` decodes from the line. A value here excludes
# only '"', which sre matches in its fast single-character loop; the chunk's
# backslash and ``_CONTROL_BYTES`` checks in ``_decoded_rows`` exclude the
# rest. The groups are the four values the fold reads, not ``group``.
_CANONICAL_LINE = re.compile(
    r"^\{" + ", ".join(f'"{key}": ' + ('"[^"]*"' if key == "group" else '"([^"]*)"')
                       for key in MESSAGE_KEYS) + r"\}\n",
    re.MULTILINE,
)
_CONTROL_BYTES = bytes(range(32)).replace(b"\n", b"")  # U+0000-U+001F but the newline

# A byte that is not UTF-8, as the "surrogateescape" error handler decodes it;
# ``findall`` and ``json.loads`` would both take it for a character.
_UNDECODABLE = re.compile(r"[\udc80-\udcff]")

# Leading reply markers ("re:" in any case, optional whitespace) and the space after them.
_REPLY_RE = re.compile(r"(?:\s*re\s*:)*\s*", re.IGNORECASE)

# ``readlines`` size hint for the whole lines that ``parse_messages`` reads
# per chunk; 16 KiB read faster than 64 KiB and 256 KiB.
_CHUNK_BYTES = 16 * 1024


class ThreadTally(Record):
    """What ``parse_messages`` returns: a message archive folded per thread.

    Read it through ``len()``, the message count, and ``build_threads``.
    The three maps, each keyed by thread id in first appearance order and
    filled a chunk at a time by ``parse_messages``, are this module's
    working layout: the UTC timestamp and raw subject of the thread's
    earliest message, and its message count. Their values hold no
    reference, so CPython leaves the maps untracked by the cycle collector.
    """

    __slots__ = ("stamps", "subjects", "counts", "message_count")

    def __init__(self, stamps: dict[str, datetime], subjects: dict[str, str],
                 counts: dict[str, int], message_count: int) -> None:
        super().__init__(stamps, subjects, counts, message_count)

    def __len__(self) -> int:
        return self.message_count


class MonthlyBucket(NamedTuple):
    """Token counts over canonical subjects of threads starting in a month."""

    month: str
    token_counts: dict[str, int]
    thread_count: int


def _iso_text(raw: str) -> str:
    """``raw`` stripped, with a trailing "Z" written as "+00:00", which
    ``fromisoformat`` reads before Python 3.11 too; an instant that parses
    as it stands parses to the same instant from this text."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return text


def _as_utc(moment: datetime) -> datetime:
    """A parsed instant in UTC; a naive one is taken as UTC."""
    if moment.tzinfo is timezone.utc:  # a zero offset parses to the UTC singleton
        return moment
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def _utc_moments(raws: Sequence[str]) -> Optional[list[datetime]]:
    """Each of ``raws`` read as an ISO-8601 instant in UTC, a naive one taken as UTC.

    None if a timestamp does not parse or does not fit in UTC. One
    ``fromisoformat`` pass reads the column, and a second reads it through
    ``_iso_text`` if it does not parse as it stands (before Python 3.11, if
    it holds a "Z"). Only a column with a naive or offset timestamp is then
    moved to UTC, one moment at a time. A row's timestamp is read as a
    column of one.
    """
    try:
        try:
            moments = list(map(datetime.fromisoformat, raws))
        except ValueError:
            moments = list(map(datetime.fromisoformat, map(_iso_text, raws)))
        if not all(map(is_, map(_tzinfo, moments), repeat(timezone.utc))):
            moments = list(map(_as_utc, moments))
    except (ValueError, OverflowError):
        return None
    return moments


def parse_messages(path: Union[str, Path]) -> ThreadTally:
    """Parse a message JSONL file and fold it into threads in one pass.

    Each non-blank line must be a JSON object with exactly the keys
    ``message_id, thread_id, group, timestamp, subject`` (all strings;
    timestamp ISO-8601). Rejects malformed lines with their line number and
    duplicate message ids by name. Only the message ids and one entry per
    thread are kept, never a record per message.

    The file is opened once and read a chunk of lines at a time. A chunk
    is read whole, as columns, by ``_chunk_columns``; one that it does not
    read is checked line by line, from memory, by ``_row_columns``, which
    raises the error of its first bad line, whatever its fault. Either way
    the chunk's columns are folded into the tally's three maps.
    """
    stamps: dict[str, datetime] = {}
    subjects: dict[str, str] = {}
    counts: dict[str, int] = {}
    seen: set[str] = set()
    lineno = 1  # of the chunk's first line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        while chunk := handle.readlines(_CHUNK_BYTES):
            columns = _chunk_columns(chunk, seen) or _row_columns(chunk, lineno, path, seen)
            lineno += len(chunk)
            for thread, moment, subject in zip(*columns):
                first = stamps.get(thread)
                if first is None:
                    stamps[thread] = moment
                    subjects[thread] = subject
                    counts[thread] = 1
                else:
                    counts[thread] += 1
                    if moment < first:  # strict: a tie keeps the earlier line
                        stamps[thread] = moment
                        subjects[thread] = subject
    return ThreadTally(stamps, subjects, counts, len(seen))


def _chunk_columns(chunk: list[str], seen: set[str]) -> Optional[_Columns]:
    """A chunk's columns, read whole; its ids join ``seen``.

    None, with ``seen`` as it was, if the chunk does not decode whole (see
    ``_decoded_rows``) or holds no message, if a timestamp does not parse as
    part of the column, or if an id was seen or repeats in the chunk.
    """
    messages = _decoded_rows(chunk)
    if not messages:
        return None
    ids, threads, raws, texts = zip(*messages)
    moments = _utc_moments(raws)
    if moments is None or not seen.isdisjoint(ids):
        return None
    size = len(seen) + len(ids)
    seen.update(ids)
    if len(seen) != size:
        seen.difference_update(ids)  # exact: ``seen`` held none of ``ids``; one repeats
        return None
    return threads, moments, texts


def _row_columns(chunk: list[str], lineno: int, path: Union[str, Path], seen: set[str]
                 ) -> _Columns:
    """The columns of a chunk whose first line is ``lineno``, each line checked on its own.

    The first bad line raises its error, whatever its fault: a byte that is
    not UTF-8, a line that is not a message, a bad timestamp or an id seen
    before. Lines that ``str.strip`` leaves empty are skipped. The ids of
    the lines read join ``seen``.
    """
    threads, moments, texts = [], [], []
    for lineno, line in enumerate(chunk, start=lineno):
        if _UNDECODABLE.search(line):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputFormatError(
                    f"messages line {lineno}: {path} is not valid UTF-8 ({exc.reason})"
                ) from None
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(f"messages line {lineno}: {json_problem(exc)}") from None
        message_id, thread, raw, text = _message(obj, lineno)
        moment = _utc_moments((raw,))
        if moment is None:
            raise InputFormatError(f"messages line {lineno}: bad timestamp {quote_cell(raw)}")
        if message_id in seen:
            raise InputFormatError(f"duplicate message_id: {quote_cell(message_id)}")
        seen.add(message_id)
        threads.append(thread)
        moments += moment
        texts.append(text)
    return threads, moments, texts


def _decoded_rows(chunk: list[str]) -> Optional[list[_Message]]:
    """The messages of a chunk, or None if it does not decode whole.

    A chunk that holds a byte that is not UTF-8 gives None before it is
    read. A chunk whose lines are all canonical (see ``_CANONICAL_LINE``) is
    read with one ``findall``. It is taken only if it holds no backslash and
    its first line matches, then only if it has as many matches as lines,
    and then only if one ``bytes.translate`` finds no control character but
    the newlines. Each match starts at a line start and ends with a newline,
    and no two overlap, so a match that took in a newline inside a value
    would leave fewer matches than lines. So every match is one whole line
    and the matches tile the chunk. A last line without a newline matches
    nothing, so its chunk falls short of the count.

    Any other chunk decodes as the rows of ``[[line 1],[line 2],...]``,
    each line keeping its own newline. Strict JSON puts no raw newline
    inside a string, so no string crosses a line; and once ``_message`` has
    accepted every element as a flat object of strings, the only brackets
    left are the ones added here, so row ``i`` is exactly line ``i``. A
    JSON-blank line is an empty row. A chunk that does not decode, that
    decodes to more or fewer rows than it has lines, or that holds a row
    other than a list of at most one message gives None.
    """
    text = "".join(chunk)
    if not text.isascii() and _UNDECODABLE.search(text):
        return None
    if "\\" not in text and _CANONICAL_LINE.match(text):
        messages = _CANONICAL_LINE.findall(text)
        if len(messages) == len(chunk):
            data = text.encode()
            if len(data.translate(None, _CONTROL_BYTES)) == len(data):
                return messages
    try:
        rows = json.loads("[[" + "],[".join(chunk) + "]]")
        if len(rows) != len(chunk):
            return None
        messages = []
        for row in rows:
            if type(row) is not list or len(row) > 1:
                return None
            if row:
                messages.append(_message(row[0]))
    except (ValueError, RecursionError):  # InputFormatError too
        return None
    return messages


def _message(obj: object, lineno: Optional[int] = None) -> _Message:
    """The four strings that the fold reads of a decoded line, which must be a
    message; the error names ``lineno``, when it is kept."""
    # Fast path for a well-formed message; the detailed check runs only on failure.
    if type(obj) is dict and obj.keys() == _KEY_SET:
        message_id, thread_id, group, raw, subject = _message_fields(obj)
        if (type(message_id) is str and type(thread_id) is str and type(group) is str
                and type(raw) is str and type(subject) is str):
            return message_id, thread_id, raw, subject
    raise InputFormatError(f"messages line {lineno}: {_message_problem(obj)}")


def _message_problem(obj) -> str:
    """The first thing wrong with a parsed line that is not a valid message."""
    if not isinstance(obj, dict):
        return "expected a JSON object"
    missing = [k for k in MESSAGE_KEYS if k not in obj]
    extra = [k for k in obj if k not in MESSAGE_KEYS]
    if missing or extra:
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        return ", ".join(detail)
    key = next(k for k in MESSAGE_KEYS if not isinstance(obj[k], str))
    return f"{key} must be a string"


def strip_reply_markers(subject: str) -> str:
    """Drop repeated leading "re:" markers (any case) and leading space."""
    return subject[_REPLY_RE.match(subject).end():]


def build_threads(tally: ThreadTally) -> list[_Thread]:
    """Each thread of ``tally`` as ``(message_count, first_timestamp, raw_subject)``,
    in first appearance order: the UTC timestamp and the subject of the thread's
    earliest message, timestamp ties broken by input order."""
    return list(zip(tally.counts.values(), tally.stamps.values(), tally.subjects.values()))


def check_min_messages(min_messages: int) -> None:
    """Reject a minimum thread size below one message."""
    if min_messages < 1:
        raise ValueError(f"min_messages must be >= 1, got {min_messages}")


def filter_threads(threads: list[_Thread], min_messages: int) -> list[_Thread]:
    """Keep threads with at least ``min_messages`` messages, order preserved."""
    check_min_messages(min_messages)
    return [thread for thread in threads if thread[0] >= min_messages]


def monthly_subject_buckets(threads: list[_Thread]) -> list[MonthlyBucket]:
    """Bucket canonical-subject tokens by the UTC month each thread starts in.

    A thread's canonical subject is its raw subject less its leading reply
    markers. The axis runs from the first month to the last; months with no
    threads appear with ``thread_count`` 0 and empty counts. Each thread
    adds its subject's tokens exactly once.
    """
    if not threads:
        return []
    subjects: defaultdict[int, list[str]] = defaultdict(list)  # by month ordinal
    for _, stamp, subject in threads:
        subjects[stamp.year * 12 + stamp.month - 1].append(strip_reply_markers(subject))
    first = min(subjects)
    months = MonthAxis(first, max(subjects) - first + 1)
    # One tokenize call per month: no token spans a newline, and lowercasing
    # treats one as a string end (it is neither cased nor case-ignorable).
    return [
        MonthlyBucket(
            month=m,
            token_counts=dict(Counter(tokenize("\n".join(subjects[ordinal])))),
            thread_count=len(subjects[ordinal]),
        )
        for ordinal, m in enumerate(months, start=first)
    ]
