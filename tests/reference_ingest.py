"""A reference read of a message archive, for the ingest tests.

``reference_parse`` reads the file as universal-newline lines, one at a
time, and folds each message into its thread as it goes. It shares with
``moodcast.ingest`` only the wording of its errors, so it checks that code
rather than repeating it.
"""

import json
from datetime import datetime, timezone

from moodcast.errors import InputFormatError, json_problem
from moodcast.ingest import _message_problem
from moodcast.tables import quote_cell

KEYS = {"message_id", "thread_id", "group", "timestamp", "subject"}


class ReferenceTally:
    """The maps and message count that ``moodcast.ingest.ThreadTally`` holds."""

    def __init__(self, stamps, subjects, counts, message_count):
        self.stamps, self.subjects, self.counts = stamps, subjects, counts
        self.message_count = message_count

    def __len__(self):
        return self.message_count


def reference_timestamp(raw):
    """``raw`` as a UTC instant, a naive one taken as UTC."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def reference_parse(path):
    """The file at ``path`` folded per thread, or the error of its first bad line."""
    stamps, subjects, counts, seen = {}, {}, {}, set()
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)  # at "\r\n", "\r" and "\n"
    for lineno, data in enumerate(lines, start=1):
        try:
            line = data.decode("utf-8")
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
        if not (isinstance(obj, dict) and obj.keys() == KEYS
                and all(isinstance(value, str) for value in obj.values())):
            raise InputFormatError(f"messages line {lineno}: {_message_problem(obj)}")
        try:
            moment = reference_timestamp(obj["timestamp"])
        except (ValueError, OverflowError):
            raise InputFormatError(
                f"messages line {lineno}: bad timestamp {quote_cell(obj['timestamp'])}"
            ) from None
        if obj["message_id"] in seen:
            raise InputFormatError(f"duplicate message_id: {quote_cell(obj['message_id'])}")
        seen.add(obj["message_id"])
        thread = obj["thread_id"]
        if thread not in stamps:
            stamps[thread], subjects[thread], counts[thread] = moment, obj["subject"], 0
        counts[thread] += 1
        if moment < stamps[thread]:  # strict: a tie keeps the earlier line
            stamps[thread], subjects[thread] = moment, obj["subject"]
    return ReferenceTally(stamps, subjects, counts, len(seen))
