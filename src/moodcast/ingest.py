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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Union

from .errors import InputFormatError
from .lexicon import tokenize
from .months import MonthAxis, month_ord

MESSAGE_KEYS = ("message_id", "thread_id", "group", "timestamp", "subject")
_KEY_SET = frozenset(MESSAGE_KEYS)
_message_fields = itemgetter(*MESSAGE_KEYS)

# Repeated leading reply markers: "re:" in any case, optional whitespace.
_REPLY_RE = re.compile(r"\s*re\s*:", re.IGNORECASE)


@dataclass(frozen=True)
class ThreadTally:
    """What ``parse_messages`` returns: a message archive folded per thread.

    Read it through ``len()``, the message count, and ``build_threads``.
    ``threads`` is this module's working layout, not an interface: each
    thread id, in first appearance order, maps to ``[timestamp, subject,
    message count]``, the UTC timestamp and raw subject of the thread's
    earliest message.
    """

    threads: dict[str, list]
    message_count: int

    def __len__(self) -> int:
        return self.message_count


@dataclass(frozen=True)
class ThreadSummary:
    """Per-thread rollup used by the monthly aggregation.

    ``subject`` is the canonical subject: the earliest message's subject
    line with repeated leading reply markers stripped.
    """

    thread_id: str
    subject: str
    message_count: int
    first_month: str


@dataclass(frozen=True)
class MonthlyBucket:
    """Token counts over canonical subjects of threads starting in a month."""

    month: str
    token_counts: dict[str, int] = field(default_factory=dict)
    thread_count: int = 0


def _parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
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
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _fold_message_lines(handle)
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"messages line {_undecodable_line(path)}: {path} is not valid UTF-8 ({exc.reason})"
        ) from None


def _undecodable_line(path: Union[str, Path]) -> int:
    """Number of the first line of a file that is not valid UTF-8."""
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    raise AssertionError(f"{path} decodes as UTF-8")


def _fold_message_lines(lines: Iterable[str]) -> ThreadTally:
    threads: dict[str, list] = {}
    seen_ids: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"messages line {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise InputFormatError(f"messages line {lineno}: invalid JSON (nested too deeply)") from None
        # Fast path for a well-formed message; the detailed check runs only on failure.
        if type(obj) is not dict or obj.keys() != _KEY_SET:
            raise InputFormatError(f"messages line {lineno}: {_message_problem(obj)}")
        message_id, thread_id, group, raw, subject = _message_fields(obj)
        if not (type(message_id) is str and type(thread_id) is str and type(group) is str
                and type(raw) is str and type(subject) is str):
            raise InputFormatError(f"messages line {lineno}: {_message_problem(obj)}")
        try:
            timestamp = _parse_timestamp(raw)
        except (ValueError, OverflowError):
            raise InputFormatError(f"messages line {lineno}: bad timestamp {raw!r}") from None
        if message_id in seen_ids:
            raise InputFormatError(f"duplicate message_id: {message_id!r}")
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
    text = subject
    while True:
        match = _REPLY_RE.match(text)
        if match is None:
            break
        text = text[match.end():]
    return text.lstrip()


def build_threads(tally: ThreadTally) -> list[ThreadSummary]:
    """One summary per thread, in first appearance order of thread ids.

    The canonical subject comes from the thread's earliest message
    (timestamp ties broken by input order); ``first_month`` is that
    message's calendar month, read from its stored UTC timestamp.
    """
    return [
        ThreadSummary(
            thread_id=thread_id,
            subject=strip_reply_markers(subject),
            message_count=count,
            first_month=f"{timestamp.year:04d}-{timestamp.month:02d}",
        )
        for thread_id, (timestamp, subject, count) in tally.threads.items()
    ]


def check_min_messages(min_messages: int) -> None:
    """Reject a minimum thread size below one message."""
    if min_messages < 1:
        raise ValueError(f"min_messages must be >= 1, got {min_messages}")


def filter_threads(threads: list[ThreadSummary], min_messages: int = 3) -> list[ThreadSummary]:
    """Keep threads with at least ``min_messages`` messages, order preserved."""
    check_min_messages(min_messages)
    return [t for t in threads if t.message_count >= min_messages]


def monthly_subject_buckets(threads: list[ThreadSummary]) -> list[MonthlyBucket]:
    """Bucket canonical-subject tokens by thread first-month.

    The axis runs contiguously from the earliest to the latest first-month;
    months with no threads appear with ``thread_count`` 0 and empty counts.
    Each thread contributes its canonical subject's tokens exactly once.
    """
    if not threads:
        return []
    first = min(month_ord(t.first_month) for t in threads)
    months = MonthAxis(first, max(month_ord(t.first_month) for t in threads) - first + 1)
    counters: dict[str, Counter[str]] = {m: Counter() for m in months}
    thread_counts: dict[str, int] = {m: 0 for m in months}
    for thread in threads:
        counters[thread.first_month].update(tokenize(thread.subject))
        thread_counts[thread.first_month] += 1
    return [
        MonthlyBucket(
            month=m,
            token_counts=dict(counters[m]),
            thread_count=thread_counts[m],
        )
        for m in months
    ]


__all__ = [
    "MESSAGE_KEYS",
    "ThreadSummary",
    "MonthlyBucket",
    "parse_messages",
    "strip_reply_markers",
    "build_threads",
    "filter_threads",
    "monthly_subject_buckets",
]
