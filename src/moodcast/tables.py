"""The CSV dialect of every table the package reads or writes.

A table is a UTF-8 file with one header row, comma-separated fields and
Unix newlines. Floats are written in their shortest round-trip form and a
missing value is an empty field. Readers skip blank rows, check each row's
width, month and numeric cells, and every error is an ``InputFormatError``
that names the file and, for a row, its number.
"""

from __future__ import annotations

import csv
import math
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


def write_table(
    path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write a header and rows of formatted cells."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def format_number(value: Optional[float]) -> str:
    """Shortest exact decimal form of a float; empty string for missing."""
    if value is None:
        return ""
    return repr(float(value))


def month_cell(path: Union[str, Path], rownum: int, cell: str) -> str:
    try:
        return check_month(cell)
    except ValueError:
        raise InputFormatError(f"{path} row {rownum}: bad month {cell!r}") from None


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
        raise InputFormatError(f"{path} row {rownum}: not a number: {cell!r}") from None
    if kind is int:
        if not 0 <= value <= MAX_COUNT:
            raise InputFormatError(f"{path} row {rownum}: count not in [0, 2**53]: {cell!r}")
    elif not math.isfinite(value):
        raise InputFormatError(f"{path} row {rownum}: not a finite number: {cell!r}")
    return value


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
        if checked and month_ord(month) != month_ord(checked[-1][1]) + 1:
            expected = ord_month(month_ord(checked[-1][1]) + 1)
            raise InputFormatError(
                f"{path} row {rownum}: expected month {expected}, got {month} "
                "(months must be contiguous)"
            )
        checked.append((rownum, month, row))
    if not checked:
        raise InputFormatError(f"{path}: no data rows")
    return MonthAxis(month_ord(checked[0][1]), len(checked)), checked
