"""Corpus and attitude-series ingestion.

Folds message archives (JSONL) into discussion threads in one pass,
applies the minimum-thread-size spam filter, buckets canonical thread
subjects by calendar month, and loads the external monthly attitude series
(CSV). All outputs are plain immutable records on a YYYY-MM month axis.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterable, Union

from .analysis import NumericSeries
from .errors import InputFormatError
from .lexicon import tokenize
from .months import MonthAxis, check_month, month_of, month_ord

MESSAGE_KEYS = ("message_id", "thread_id", "group", "timestamp", "subject")
_KEY_SET = frozenset(MESSAGE_KEYS)

ATTITUDE_HEADER = ("month", "rate")

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
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def parse_messages(source: Union[str, Path, IO[str]]) -> ThreadTally:
    """Parse a message JSONL stream and fold it into threads in one pass.

    Each non-blank line must be a JSON object with exactly the keys
    ``message_id, thread_id, group, timestamp, subject`` (all strings;
    timestamp ISO-8601). Rejects malformed lines with their line number and
    duplicate message ids by name. Only the message ids and one entry per
    thread are kept, never a record per message.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _fold_message_lines(handle)
    return _fold_message_lines(source)


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
        if not (type(obj) is dict and obj.keys() == _KEY_SET
                and all(type(value) is str for value in obj.values())):
            raise InputFormatError(f"messages line {lineno}: {_message_problem(obj)}")
        raw = obj["timestamp"]
        try:
            timestamp = _parse_timestamp(raw)
        except (ValueError, OverflowError):
            raise InputFormatError(f"messages line {lineno}: bad timestamp {raw!r}") from None
        message_id = obj["message_id"]
        if message_id in seen_ids:
            raise InputFormatError(f"duplicate message_id: {message_id!r}")
        seen_ids.add(message_id)
        entry = threads.get(obj["thread_id"])
        if entry is None:
            threads[obj["thread_id"]] = [timestamp, obj["subject"], 1]
        else:
            entry[2] += 1
            if timestamp < entry[0]:  # strict: a tie keeps the earlier line
                entry[0], entry[1] = timestamp, obj["subject"]
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
    message's UTC calendar month.
    """
    return [
        ThreadSummary(
            thread_id=thread_id,
            subject=strip_reply_markers(subject),
            message_count=count,
            first_month=month_of(timestamp),
        )
        for thread_id, (timestamp, subject, count) in tally.threads.items()
    ]


def filter_threads(threads: list[ThreadSummary], min_messages: int = 3) -> list[ThreadSummary]:
    """Keep threads with at least ``min_messages`` messages, order preserved."""
    if min_messages < 1:
        raise ValueError(f"min_messages must be >= 1, got {min_messages}")
    return [t for t in threads if t.message_count >= min_messages]


def monthly_subject_buckets(
    threads: list[ThreadSummary],
    tokenizer: Callable[[str], list[str]] = tokenize,
) -> list[MonthlyBucket]:
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
        counters[thread.first_month].update(tokenizer(thread.subject))
        thread_counts[thread.first_month] += 1
    return [
        MonthlyBucket(
            month=m,
            token_counts=dict(counters[m]),
            thread_count=thread_counts[m],
        )
        for m in months
    ]


def load_attitude_series(source: Union[str, Path, IO[str]]) -> NumericSeries:
    """Load the attitude CSV (header ``month,rate``) as a sorted series.

    Months must form a contiguous range once sorted; rates must lie in
    [0, 100]. Gaps, duplicate months and out-of-range rates are rejected by
    month name.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _load_attitude_stream(handle)
    return _load_attitude_stream(source)


def _load_attitude_stream(stream: IO[str]) -> NumericSeries:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InputFormatError("attitude series: file has no header") from None
    if tuple(cell.strip() for cell in header) != ATTITUDE_HEADER:
        raise InputFormatError(
            f"attitude header must be {','.join(ATTITUDE_HEADER)!r}, got {','.join(header)!r}"
        )
    rows: dict[str, float] = {}
    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise InputFormatError(f"attitude row {rownum}: expected 2 fields, got {len(row)}")
        try:
            month = check_month(row[0].strip())
        except ValueError:
            raise InputFormatError(f"attitude row {rownum}: bad month {row[0]!r}") from None
        if month in rows:
            raise InputFormatError(f"attitude series: duplicate month {month}")
        try:
            rate = float(row[1])
        except ValueError:
            raise InputFormatError(f"attitude row {rownum}: rate is not a number: {row[1]!r}") from None
        if not 0.0 <= rate <= 100.0:
            raise InputFormatError(f"attitude series: rate {rate} outside [0, 100] at {month}")
        rows[month] = rate
    if not rows:
        raise InputFormatError("attitude series: no data rows")
    months = sorted(rows, key=month_ord)
    axis = MonthAxis(month_ord(months[0]), month_ord(months[-1]) - month_ord(months[0]) + 1)
    if len(axis) != len(months):  # distinct sorted months: a gap makes the axis longer
        gap = next(m for m in axis if m not in rows)
        raise InputFormatError(f"attitude series: missing month {gap}")
    return NumericSeries(months=axis, values=[rows[m] for m in months])


__all__ = [
    "MESSAGE_KEYS",
    "ATTITUDE_HEADER",
    "ThreadSummary",
    "MonthlyBucket",
    "parse_messages",
    "strip_reply_markers",
    "build_threads",
    "filter_threads",
    "monthly_subject_buckets",
    "load_attitude_series",
]
