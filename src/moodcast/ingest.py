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
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO, Union

from .errors import InputFormatError, json_problem
from .lexicon import tokenize
from .months import MonthAxis
from .records import Record
from .tables import quote_cell

MESSAGE_KEYS = ("message_id", "thread_id", "group", "timestamp", "subject")
_KEY_SET = frozenset(MESSAGE_KEYS)
_message_fields = itemgetter(*MESSAGE_KEYS)

# A message's five strings, in ``MESSAGE_KEYS`` order, and messages by line number.
_Message = tuple[str, str, str, str, str]
_Rows = Iterable[tuple[int, _Message]]

# A canonical message line: what ``json.dumps`` writes for a message with its
# keys in ``MESSAGE_KEYS`` order, when no value holds '"', '\\' or U+0000-U+001F.
# Such a value needs no escape, so by RFC 8259 section 7 each group is exactly
# the string that ``json.loads`` decodes from the line. A match starts at a
# line start and holds one newline, its last character.
_CANONICAL_VALUE = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL_LINE = re.compile(
    r"^\{" + ", ".join(f'"{key}": {_CANONICAL_VALUE}' for key in MESSAGE_KEYS) + r"\}\n",
    re.MULTILINE,
)

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
    ``threads`` is this module's working layout, not an interface: each
    thread id, in first appearance order, maps to ``[timestamp, subject,
    message count]``, the UTC timestamp and raw subject of the thread's
    earliest message.
    """

    __slots__ = ("threads", "message_count")

    def __init__(self, threads: dict[str, list], message_count: int) -> None:
        super().__init__(threads, message_count)

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
    if moment.tzinfo is timezone.utc:  # a zero offset parses to the UTC singleton
        return moment
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def parse_messages(path: Union[str, Path]) -> ThreadTally:
    """Parse a message JSONL file and fold it into threads in one pass.

    Each non-blank line must be a JSON object with exactly the keys
    ``message_id, thread_id, group, timestamp, subject`` (all strings;
    timestamp ISO-8601). Rejects malformed lines with their line number and
    duplicate message ids by name. Only the message ids and one entry per
    thread are kept, never a record per message.

    The file is opened once and read a chunk of lines at a time. The first
    bad line is named, whatever its fault: a chunk that fails is read again
    line by line, from memory, before the fold reaches its first line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return _fold_messages(chain.from_iterable(_chunk_rows(handle, path)))


def _line_rows(lines: Iterable[str], first_lineno: int, path: Union[str, Path]) -> _Rows:
    """``(line number, message)`` for each non-blank line from ``first_lineno`` on, one by one."""
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
        yield lineno, _message(lineno, obj)


def _chunk_rows(handle: TextIO, path: Union[str, Path]) -> Iterator[_Rows]:
    """What ``_line_rows`` yields, one chunk of lines per batch.

    A chunk that ``_decoded_rows`` does not read whole is read by
    ``_line_rows``, lazily, so a fold error in an earlier line of it is
    still met first.
    """
    lineno = 1  # of the chunk's first line
    while chunk := handle.readlines(_CHUNK_BYTES):
        rows = _decoded_rows(chunk, lineno)
        yield _line_rows(chunk, lineno, path) if rows is None else rows
        lineno += len(chunk)


def _decoded_rows(chunk: list[str], lineno: int) -> Optional[_Rows]:
    """The messages of a chunk whose first line is ``lineno``, or None if not all are.

    A chunk that holds a byte that is not UTF-8 gives None before it is
    read. A chunk whose lines are all canonical (see ``_CANONICAL_LINE``) is
    read with one ``findall``. It is taken only if it holds no backslash and
    its first line matches, and then only if it has as many matches as
    lines. Each match is then a whole line: it starts at a line start and
    ends at that line's newline, and no two share a line, so every line is
    a match and the matches tile the chunk. A last line without a newline
    matches nothing, so its chunk falls short of the count.

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
            return zip(range(lineno, lineno + len(chunk)), messages)
    try:
        rows = json.loads("[[" + "],[".join(chunk) + "]]")
        if len(rows) != len(chunk):
            return None
        batch = []
        for lineno, row in enumerate(rows, start=lineno):
            if type(row) is not list or len(row) > 1:
                return None
            if row:
                batch.append((lineno, _message(lineno, row[0])))
    except (ValueError, RecursionError):  # InputFormatError too
        return None
    return batch


def _message(lineno: int, obj: object) -> _Message:
    """The five strings of a decoded line, which must be a message."""
    # Fast path for a well-formed message; the detailed check runs only on failure.
    if type(obj) is dict and obj.keys() == _KEY_SET:
        fields = _message_fields(obj)
        message_id, thread_id, group, raw, subject = fields
        if (type(message_id) is str and type(thread_id) is str and type(group) is str
                and type(raw) is str and type(subject) is str):
            return fields
    raise InputFormatError(f"messages line {lineno}: {_message_problem(obj)}")


def _fold_messages(rows: _Rows) -> ThreadTally:
    """Fold each message into its thread."""
    threads: dict[str, list] = {}
    seen_ids: set[str] = set()
    for lineno, (message_id, thread_id, _, raw, subject) in rows:
        try:
            timestamp = _parse_timestamp(raw)
        except (ValueError, OverflowError):
            raise InputFormatError(
                f"messages line {lineno}: bad timestamp {quote_cell(raw)}"
            ) from None
        if message_id in seen_ids:
            raise InputFormatError(f"duplicate message_id: {quote_cell(message_id)}")
        seen_ids.add(message_id)
        entry = threads.get(thread_id)
        if entry is None:
            threads[thread_id] = [timestamp, subject, 1]
        else:
            entry[2] += 1
            if timestamp < entry[0]:  # strict: a tie keeps the earlier line
                entry[0], entry[1] = timestamp, subject
    return ThreadTally(threads=threads, message_count=len(seen_ids))


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
        for stamp, subject, count in tally.threads.values()
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
