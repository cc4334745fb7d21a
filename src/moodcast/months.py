"""Calendar-month axis helpers.

Months are ``YYYY-MM`` strings, and a series keeps its months as a checked
``MonthAxis``; these helpers centralize validation, ordering and axis
arithmetic so every module agrees on what a contiguous month axis means.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence

from .records import Record

# ASCII digits only, and the whole string: ``\d`` would match other
# scripts' digits and ``$`` a trailing newline.
_MONTH_RE = re.compile(r"(\d{4})-(0[1-9]|1[0-2])", re.ASCII)


def check_month(month: str) -> str:
    """Validate a YYYY-MM string and return it unchanged."""
    if not isinstance(month, str) or not _MONTH_RE.fullmatch(month):
        raise ValueError(f"not a valid YYYY-MM month: {month!r}")
    return month


def month_ord(month: str) -> int:
    """Map YYYY-MM to a monotone integer (months since 0000-01)."""
    check_month(month)
    year, mon = month.split("-")
    return int(year) * 12 + int(mon) - 1


def ord_month(ordinal: int) -> str:
    """Inverse of :func:`month_ord`."""
    year, mon = divmod(ordinal, 12)
    return f"{year:04d}-{mon + 1:02d}"


class MonthAxis(Record, Sequence[str]):
    """``length`` consecutive months from the ordinal ``start`` (see :func:`month_ord`).

    A sequence of ``YYYY-MM`` strings whose equality, slices, ``len`` and
    ``index`` are arithmetic on the two numbers.
    """

    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int) -> None:
        if length < 0 or start < 0 or start + length > 10000 * 12:
            raise ValueError(f"month axis out of range: start {start}, length {length}")
        super().__init__(start if length else 0, length)  # every empty axis is the same axis

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[str]:
        return map(ord_month, range(self.start, self.start + self.length))

    def __getitem__(self, i):
        ords = range(self.start, self.start + self.length)[i]
        if isinstance(ords, int):
            return ord_month(ords)
        if ords.step != 1:
            raise ValueError("a month axis slice must have step 1")
        return MonthAxis(ords.start, len(ords))

    def index(self, month: str) -> int:  # type: ignore[override]
        i = month_ord(month) - self.start
        if not 0 <= i < self.length:
            raise ValueError(f"{month} is not on the month axis")
        return i


def check_contiguous(months: Sequence[str], what: str = "series") -> MonthAxis:
    """The axis of a non-empty, strictly increasing, gap-free month list."""
    if not months:
        raise ValueError(f"{what}: month axis is empty")
    ords = [month_ord(m) for m in months]
    for prev, cur, m in zip(ords, ords[1:], months[1:]):
        if cur != prev + 1:
            raise ValueError(
                f"{what}: month axis not contiguous near {m} "
                f"(expected {ord_month(prev + 1)})"
            )
    return MonthAxis(ords[0], len(ords))
