"""Affective word lexicon: loading, tokenization and lookup.

The lexicon maps single lowercase words to mean ratings on three 9-point
emotion scales (valence, arousal, dominance), in the style of published
affective-norms word lists. It is immutable after loading and safe to share
across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from .errors import InputFormatError
from .tables import number_cell, read_table

SCALE_MIN = 1.0
SCALE_MAX = 9.0

LEXICON_HEADER = ("word", "valence", "arousal", "dominance")

# Maximal runs of letters, with apostrophes allowed strictly inside a run
# ("don't" is one token, "'tis" drops the leading quote). Everything else
# separates tokens.
_TOKEN_RE = re.compile(r"[^\W\d_]+(?:'[^\W\d_]+)*")


@dataclass(frozen=True)
class LexiconEntry:
    """One word's mean score on each of the three 9-point scales."""

    word: str
    valence: float
    arousal: float
    dominance: float

    def score(self, dimension: str) -> float:
        """Score in one of ``valence``, ``arousal``, ``dominance``."""
        return getattr(self, dimension)


class Lexicon:
    """Immutable word -> :class:`LexiconEntry` map."""

    def __init__(self, entries: dict[str, LexiconEntry]):
        self._entries = dict(entries)

    @classmethod
    def from_entries(cls, entries: Iterable[LexiconEntry]) -> "Lexicon":
        by_word: dict[str, LexiconEntry] = {}
        for entry in entries:
            if entry.word in by_word:
                raise InputFormatError(f"duplicate lexicon word: {entry.word!r}")
            by_word[entry.word] = entry
        return cls(by_word)

    @property
    def entries(self) -> dict[str, LexiconEntry]:
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def lookup(self, token: str) -> Optional[LexiconEntry]:
        """Entry for ``token`` or None; absence is a normal outcome."""
        return self._entries.get(token)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens.

    Tokens are maximal runs of letters plus internal apostrophes; all other
    characters separate tokens. Order and duplicates are preserved, so the
    result is idempotent under re-joining with spaces.
    """
    return _TOKEN_RE.findall(text.lower())


def load_lexicon(path: Union[str, Path]) -> Lexicon:
    """Load a lexicon from CSV with header ``word,valence,arousal,dominance``.

    Words are normalized to lowercase. Rejects duplicate words, scores
    outside [1, 9], malformed rows and files with no data rows.

    Raises:
        InputFormatError: on any format violation, naming the file and row.
    """
    header, rows = read_table(path)
    if tuple(cell.strip() for cell in header) != LEXICON_HEADER:
        raise InputFormatError(
            f"{path}: lexicon header must be {','.join(LEXICON_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

    entries: dict[str, LexiconEntry] = {}
    for rownum, row in rows:
        word = row[0].strip().lower()
        if not word or any(ch.isspace() for ch in word):
            raise InputFormatError(f"{path} row {rownum}: invalid word {row[0]!r}")
        if word in entries:
            raise InputFormatError(f"{path} row {rownum}: duplicate word {word!r}")
        scores = [number_cell(path, rownum, cell) for cell in row[1:]]
        for name, cell, value in zip(LEXICON_HEADER[1:], row[1:], scores):
            if value is None or not SCALE_MIN <= value <= SCALE_MAX:
                raise InputFormatError(
                    f"{path} row {rownum}: {name} {cell!r} outside [{SCALE_MIN:g}, {SCALE_MAX:g}]"
                )
        entries[word] = LexiconEntry(word, *scores)

    if not entries:
        raise InputFormatError(f"{path}: no data rows")
    return Lexicon(entries)


__all__ = [
    "SCALE_MIN",
    "SCALE_MAX",
    "LEXICON_HEADER",
    "LexiconEntry",
    "Lexicon",
    "tokenize",
    "load_lexicon",
]
