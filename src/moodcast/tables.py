"""The CSV dialect of every table the package reads or writes.

A table is a UTF-8 file with one header row, comma-separated fields and
Unix newlines. Floats are written in their shortest round-trip form and a
missing value is an empty field. Readers skip blank rows, check each row's
width, month and numeric cells (a range by ``bounded_cell``), and every error
is an ``InputFormatError`` that names the file and, for a row, its number.

``write_file`` is the one function that puts text in a file, a table or any
other: the file lands whole or is left as it was.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import InputFormatError
from .months import MonthAxis, check_month, month_ord, ord_month

# Counts are weighted as floats, which hold every integer up to 2**53.
MAX_COUNT = 2**53

Rows = Iterator[tuple[int, list[str]]]
Table = tuple[tuple[str, ...], Rows]


def read_table(path: Union[str, Path]) -> Table:
    """Header and numbered non-blank rows of a table.

    Rows are checked for the header's width as they are consumed, so a
    caller checks the header first. The rows can be consumed once.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise InputFormatError(f"{path}: malformed CSV ({exc})") from None
    if not rows:
        raise InputFormatError(f"{path}: file has no header")
    width = len(rows[0])

    def numbered() -> Rows:
        for rownum, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != width:
                raise InputFormatError(
                    f"{path} row {rownum}: expected {width} fields, got {len(row)}"
                )
            yield rownum, row

    return tuple(rows[0]), numbered()


# The name of ``write_file``'s temporary file: ``<name>.<pid>.tmp``.
TEMPORARY_NAME = re.compile(r".+\.[0-9]+\.tmp")


def write_file(path: Union[str, Path], text: str) -> None:
    """Put ``text`` in ``path`` as UTF-8, whole or not at all.

    The text goes to ``<name>.<pid>.tmp`` (``<name>`` cut at a character to
    fit 255 bytes) beside the target's real path (a symlink is followed) and
    is renamed over it; on any exception the temporary file is removed, the
    target is as it was and an ``OSError`` names the target. A target that
    exists and is not a regular file, such as a FIFO or ``/dev/stdout``, is
    written in place, so a device node is never replaced.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    target = Path(os.path.realpath(path))
    tail = f".{os.getpid()}.tmp"
    name = os.fsencode(target.name)[:255 - len(tail)].decode("utf-8", "ignore")
    pending = target.with_name(name + tail)
    try:
        with open(pending, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(pending, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        pending.unlink(missing_ok=True)


def write_table(
    path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write a header and rows of formatted cells with ``write_file``: a cell
    that fails to format leaves the target as it was."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, text.getvalue())


def format_number(value: Optional[float]) -> str:
    """Shortest exact decimal form of a float; empty string for missing.
    A non-finite float is a ``ValueError``: no reader accepts one."""
    if value is None:
        return ""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot write a non-finite number: {value!r}")
    return repr(value)


def quote_cell(cell: str) -> str:
    """A cell as an error message quotes it: its first 40 characters and, if cut, its length."""
    return repr(cell) if len(cell) <= 40 else f"{cell[:40]!r}... ({len(cell)} characters)"


def month_cell(path: Union[str, Path], rownum: int, cell: str) -> str:
    try:
        return check_month(cell)
    except ValueError:
        raise InputFormatError(f"{path} row {rownum}: bad month {quote_cell(cell)}") from None


def parse_number(text: str, kind: type):
    """``kind(text)`` for ASCII, ungrouped digits: the number syntax of cells and
    flags. ``int`` and ``float`` alone also read other scripts' digits and ``_``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def number_cell(path: Union[str, Path], rownum: int, cell: str, kind: type = float):
    """One numeric cell; an empty float cell is a missing value.

    Anything that ``parse_number`` rejects, and any non-finite value, is an
    input format error. Integer cells are counts in [0, 2**53].
    """
    if kind is float and cell == "":
        return None
    try:
        value = parse_number(cell, kind)
    except ValueError:
        # ``int`` refuses more than 4,300 digits; a run of digits that long is a count too large.
        if not (kind is int and cell.isascii() and cell.isdigit()):
            quoted = quote_cell(cell)
            raise InputFormatError(f"{path} row {rownum}: not a number: {quoted}") from None
        value = math.inf
    if kind is int:
        if not 0 <= value <= MAX_COUNT:
            raise InputFormatError(
                f"{path} row {rownum}: count not in [0, 2**53]: {quote_cell(cell)}"
            )
    elif not math.isfinite(value):
        raise InputFormatError(f"{path} row {rownum}: not a finite number: {quote_cell(cell)}")
    return value


def bounded_cell(
    path: Union[str, Path], rownum: int, column: str, cell: str, low: float, high: float
) -> Optional[float]:
    """A float cell that is empty or in [low, high]; an error names the row and column."""
    value = number_cell(path, rownum, cell)
    if value is not None and not low <= value <= high:
        raise InputFormatError(
            f"{path} row {rownum}: {column} {quote_cell(cell)} outside [{low:g}, {high:g}]"
        )
    return value


def check_next_month(path: Union[str, Path], where: str, previous: str, month: str) -> None:
    """Require ``month``, read at ``where`` in ``path``, to be the month after ``previous``."""
    if month_ord(month) != month_ord(previous) + 1:
        raise InputFormatError(
            f"{path} {where}: expected month {ord_month(month_ord(previous) + 1)}, got {month} "
            "(months must be contiguous)"
        )


def monthly_rows(
    path: Union[str, Path], rows: Rows
) -> tuple[MonthAxis, list[tuple[int, str, list[str]]]]:
    """The month axis of the rows, and the rows with their months.

    Each row's first cell is its month; the months must be contiguous and
    increasing, and there must be at least one.
    """
    checked: list[tuple[int, str, list[str]]] = []
    for rownum, row in rows:
        month = month_cell(path, rownum, row[0])
        if checked:
            check_next_month(path, f"row {rownum}", checked[-1][1], month)
        checked.append((rownum, month, row))
    if not checked:
        raise InputFormatError(f"{path}: no data rows")
    return MonthAxis(month_ord(checked[0][1]), len(checked)), checked
