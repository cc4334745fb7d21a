"""Affective word lexicon: loading, tokenization and lookup.

The lexicon maps single lowercase words to mean ratings on three 9-point
emotion scales (valence, arousal, dominance), in the style of published
affective-norms word lists. It is a read-only mapping, safe to share
across threads.
"""

from __future__ import annotations

import re
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

from .errors import InputFormatError
from .tables import bounded_cell, quote_cell, read_table

SCALE_MIN = 1.0
SCALE_MAX = 9.0

LEXICON_HEADER = ("word", "valence", "arousal", "dominance")

# Maximal runs of letters, with apostrophes allowed strictly inside a run
# ("don't" is one token, "'tis" drops the leading quote). Everything else
# separates tokens.
_TOKEN_RE = re.compile(r"[^\W\d_]+(?:'[^\W\d_]+)*")


class LexiconEntry(NamedTuple):
    """One word's mean score on each of the three 9-point scales; the lexicon's key is the word."""

    valence: float
    arousal: float
    dominance: float


# A loaded lexicon: word -> entry, read-only.
Lexicon = Mapping[str, LexiconEntry]


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens.

    Tokens are maximal runs of letters plus internal apostrophes; all other
    characters separate tokens. Order and duplicates are preserved, so the
    result is idempotent under re-joining with spaces.
    """
    return _TOKEN_RE.findall(text.lower())


def load_lexicon(path: Union[str, Path]) -> Lexicon:
    """Load a lexicon from CSV with header ``word,valence,arousal,dominance``.

    Words are normalized to lowercase and must each be one ``tokenize``
    token. Rejects other words, duplicate words, scores missing or outside
    [1, 9], malformed rows and files with no data rows.

    Raises:
        InputFormatError: on any format violation, naming the file and row.
    """
    header, rows = read_table(path)
    if tuple(cell.strip() for cell in header) != LEXICON_HEADER:
        raise InputFormatError(
            f"{path}: lexicon header must be {','.join(LEXICON_HEADER)!r}, "
            f"got {quote_cell(','.join(header))}"
        )

    entries: dict[str, LexiconEntry] = {}
    for rownum, row in rows:
        word = row[0].strip().lower()
        if tokenize(word) != [word]:  # a word no subject token could equal
            raise InputFormatError(f"{path} row {rownum}: invalid word {quote_cell(row[0])}")
        if word in entries:
            raise InputFormatError(f"{path} row {rownum}: duplicate word {quote_cell(word)}")
        scores = [
            bounded_cell(path, rownum, name, cell, SCALE_MIN, SCALE_MAX)
            for name, cell in zip(LEXICON_HEADER[1:], row[1:])
        ]
        if None in scores:
            missing = LEXICON_HEADER[1 + scores.index(None)]
            raise InputFormatError(f"{path} row {rownum}: {missing} is missing")
        entries[word] = LexiconEntry(*scores)

    if not entries:
        raise InputFormatError(f"{path}: no data rows")
    return MappingProxyType(entries)
