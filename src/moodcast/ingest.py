"""Corpus ingestion.

Folds message archives (JSONL) into discussion threads in one pass,
applies the minimum-thread-size spam filter and buckets canonical thread
subjects by calendar month. All outputs are plain immutable records on a
YYYY-MM month axis. The attitude series is a table, read by
``moodcast.reports.load_attitude_series``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from datetime import datetime, timezone
from itertools import repeat
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

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
# and subject; and a batch, the line numbers of some messages and the messages.
_Message = tuple[str, str, str, str]
_Batch = tuple[Sequence[int], list[_Message]]

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
    filled a batch at a time by ``_fold_messages``, are this module's
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


class ThreadSummary(NamedTuple):
    """Per-thread rollup used by the monthly aggregation.

    ``subject`` is the canonical subject, the earliest message's subject less
    its leading reply markers; ``month`` is the ``month_ord`` of its UTC month.
    """

    subject: str
    message_count: int
    month: int


class MonthlyBucket(NamedTuple):
    """Token counts over canonical subjects of threads starting in a month."""

    month: str
    token_counts: dict[str, int]
    thread_count: int


def _parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
    try:  # most instants parse as they stand ("Z" too, from Python 3.11 on)
        moment = datetime.fromisoformat(raw)
    except ValueError:
        text = raw.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        moment = datetime.fromisoformat(text)
    return _as_utc(moment)


def _as_utc(moment: datetime) -> datetime:
    """A parsed instant in UTC; a naive one is taken as UTC."""
    if moment.tzinfo is timezone.utc:  # a zero offset parses to the UTC singleton
        return moment
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def _utc_moments(raws: Sequence[str]) -> Optional[list[datetime]]:
    """What ``_parse_timestamp`` gives for each of ``raws``, read as one column.

    None if a timestamp does not parse as it stands or does not fit in UTC.
    One ``fromisoformat`` pass reads the column; only a column with a naive
    or offset timestamp is then moved to UTC, one moment at a time.
    """
    try:
        moments = list(map(datetime.fromisoformat, raws))
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

    The file is opened once and read a chunk of lines at a time, and a
    chunk is folded as one batch, column by column. The first bad line is
    named, whatever its fault: a chunk that does not decode whole is read
    again line by line, from memory, and the messages before its first bad
    line are folded before that line's error is raised; a batch that fails a
    column check is checked again row by row.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return _fold_messages(_batches(handle, path))


def _line_rows(lines: Iterable[str], first_lineno: int, path: Union[str, Path]) -> Iterator[_Batch]:
    """The batch of the non-blank lines from ``first_lineno`` on, each read on its own.

    A line that is not a message raises only after the batch of the lines
    before it is yielded, so a fold error in an earlier line is met first.
    """
    linenos: list[int] = []
    messages: list[_Message] = []
    try:
        for lineno, line in enumerate(lines, start=first_lineno):
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
            messages.append(_message(lineno, obj))
            linenos.append(lineno)
    except InputFormatError:
        yield linenos, messages
        raise
    yield linenos, messages


def _batches(handle: TextIO, path: Union[str, Path]) -> Iterator[_Batch]:
    """The file's messages, one batch per chunk of lines.

    A chunk that ``_decoded_rows`` does not read whole is read by ``_line_rows``.
    """
    lineno = 1  # of the chunk's first line
    while chunk := handle.readlines(_CHUNK_BYTES):
        batch = _decoded_rows(chunk, lineno)
        yield from _line_rows(chunk, lineno, path) if batch is None else (batch,)
        lineno += len(chunk)


def _decoded_rows(chunk: list[str], lineno: int) -> Optional[_Batch]:
    """The batch of a chunk whose first line is ``lineno``, or None if it does not decode whole.

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
                return range(lineno, lineno + len(chunk)), messages
    try:
        rows = json.loads("[[" + "],[".join(chunk) + "]]")
        if len(rows) != len(chunk):
            return None
        linenos, messages = [], []
        for lineno, row in enumerate(rows, start=lineno):
            if type(row) is not list or len(row) > 1:
                return None
            if row:
                linenos.append(lineno)
                messages.append(_message(lineno, row[0]))
    except (ValueError, RecursionError):  # InputFormatError too
        return None
    return linenos, messages


def _message(lineno: int, obj: object) -> _Message:
    """The four strings that the fold reads of a decoded line, which must be a message."""
    # Fast path for a well-formed message; the detailed check runs only on failure.
    if type(obj) is dict and obj.keys() == _KEY_SET:
        message_id, thread_id, group, raw, subject = _message_fields(obj)
        if (type(message_id) is str and type(thread_id) is str and type(group) is str
                and type(raw) is str and type(subject) is str):
            return message_id, thread_id, raw, subject
    raise InputFormatError(f"messages line {lineno}: {_message_problem(obj)}")


def _fold_messages(batches: Iterable[_Batch]) -> ThreadTally:
    """Fold each batch of messages into its threads, column by column."""
    stamps: dict[str, datetime] = {}
    subjects: dict[str, str] = {}
    counts: dict[str, int] = {}
    seen: set[str] = set()
    for linenos, messages in batches:
        if not messages:
            continue
        threads, moments, texts = _columns(linenos, messages, seen)
        for thread, moment, subject in zip(threads, moments, texts):
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


def _columns(linenos: Sequence[int], messages: list[_Message], seen: set[str]
             ) -> tuple[tuple[str, ...], list[datetime], tuple[str, ...]]:
    """A batch's thread ids, UTC timestamps and subjects; its ids join ``seen``.

    A batch of more than one message is read as columns: ``_utc_moments``
    reads the timestamps and one set update adds the ids. If a timestamp
    does not parse, or an id was seen or repeats, ``seen`` is restored and
    the rows are checked one by one, so the first bad timestamp or duplicate
    id raises; timestamps that parsed as a column are not parsed again. A
    batch of one message is checked as a row straight away.
    """
    ids, threads, raws, texts = zip(*messages)
    moments = _utc_moments(raws) if len(raws) > 1 else None
    if moments is not None and seen.isdisjoint(ids):
        size = len(seen) + len(ids)
        seen.update(ids)
        if len(seen) == size:
            return threads, moments, texts
        seen.difference_update(ids)  # exact: ``seen`` held none of ``ids``; one repeats
    parsed, moments = moments or repeat(None), []
    for lineno, message_id, raw, moment in zip(linenos, ids, raws, parsed):
        if moment is None:
            try:
                moment = _parse_timestamp(raw)
            except (ValueError, OverflowError):
                raise InputFormatError(
                    f"messages line {lineno}: bad timestamp {quote_cell(raw)}"
                ) from None
        moments.append(moment)
        if message_id in seen:
            raise InputFormatError(f"duplicate message_id: {quote_cell(message_id)}")
        seen.add(message_id)
    return threads, moments, texts


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


def build_threads(tally: ThreadTally) -> list[ThreadSummary]:
    """One summary per thread, in first appearance order of thread ids.

    The canonical subject comes from the thread's earliest message
    (timestamp ties broken by input order); ``month`` is the ordinal of
    that message's calendar month, read from its stored UTC timestamp.
    """
    return [
        ThreadSummary(strip_reply_markers(subject), count, stamp.year * 12 + stamp.month - 1)
        for stamp, subject, count in zip(
            tally.stamps.values(), tally.subjects.values(), tally.counts.values()
        )
    ]


def check_min_messages(min_messages: int) -> None:
    """Reject a minimum thread size below one message."""
    if min_messages < 1:
        raise ValueError(f"min_messages must be >= 1, got {min_messages}")


def filter_threads(threads: list[ThreadSummary], min_messages: int) -> list[ThreadSummary]:
    """Keep threads with at least ``min_messages`` messages, order preserved."""
    check_min_messages(min_messages)
    return [t for t in threads if t.message_count >= min_messages]


def monthly_subject_buckets(threads: list[ThreadSummary]) -> list[MonthlyBucket]:
    """Bucket canonical-subject tokens by each thread's month.

    The axis runs from the smallest to the largest month ordinal, which
    ``MonthAxis`` checks; months with no threads appear with ``thread_count``
    0 and empty counts. Each thread adds its subject's tokens exactly once.
    """
    if not threads:
        return []
    first = min(t.month for t in threads)
    months = MonthAxis(first, max(t.month for t in threads) - first + 1)
    subjects: list[list[str]] = [[] for _ in months]
    for thread in threads:
        subjects[thread.month - first].append(thread.subject)
    # One tokenize call per month: no token spans a newline, and lowercasing
    # treats one as a string end (it is neither cased nor case-ignorable).
    return [
        MonthlyBucket(
            month=m,
            token_counts=dict(Counter(tokenize("\n".join(month_subjects)))),
            thread_count=len(month_subjects),
        )
        for m, month_subjects in zip(months, subjects)
    ]
