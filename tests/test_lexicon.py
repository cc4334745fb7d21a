import re

import pytest
from hypothesis import given, strategies as st

from moodcast.emotion import DIMENSIONS
from moodcast.errors import InputFormatError
from moodcast.lexicon import (
    LexiconEntry,
    load_lexicon,
    tokenize,
)

GOOD_CSV = """word,valence,arousal,dominance
war,2.08,7.49,6.38
love,8.72,6.44,6.93
Calm,7.8,2.4,6.4
"""


@pytest.fixture
def load_text(tmp_path):
    """Load a lexicon from text written to a file."""

    def load(text):
        path = tmp_path / "lexicon.csv"
        path.write_text(text, encoding="utf-8")
        return load_lexicon(path)

    return load


def test_load_lexicon_basic(load_text):
    lex = load_text(GOOD_CSV)
    assert len(lex) == 3
    assert "war" in lex
    assert "calm" in lex  # words are lowercased on load
    entry = lex.get("war")
    assert entry.valence == 2.08
    assert entry.arousal == 7.49
    assert entry.dominance == 6.38


def test_loaded_lexicon_is_read_only(load_text):
    lex = load_text(GOOD_CSV)
    with pytest.raises(TypeError):
        lex["peace"] = LexiconEntry(8.1, 3.2, 6.5)
    assert "peace" not in lex


def test_load_lexicon_from_fixture(lexicon):
    assert len(lexicon) == 30
    assert lexicon.get("love").valence == 8.72
    assert lexicon.get("absent") is None


def test_entry_score_by_dimension():
    # Scoring reads a dimension's score as the entry field of that name.
    entry = LexiconEntry(7.9, 5.4, 6.1)
    assert [getattr(entry, dim) for dim in DIMENSIONS] == [7.9, 5.4, 6.1]


def test_rejects_bad_header(load_text):
    with pytest.raises(InputFormatError, match="header"):
        load_text("word,v,a,d\nwar,2,7,6\n")


def test_rejects_score_out_of_range(load_text):
    bad = "word,valence,arousal,dominance\nwar,0.5,7.49,6.38\n"
    with pytest.raises(InputFormatError, match="row 2.*valence"):
        load_text(bad)


@pytest.mark.parametrize(
    "row, message",
    [("war,,7.49,6.38", "row 2: valence is missing"),
     ("war,2.08,7.49,", "row 2: dominance is missing"),
     ("war,2.08,9.5,6.38", "row 2: arousal '9.5' outside [1, 9]")],
)
def test_every_score_present_and_in_range(load_text, row, message):
    # The same wording as an attitude file's rates.
    with pytest.raises(InputFormatError, match=re.escape(message)):
        load_text(f"word,valence,arousal,dominance\n{row}\n")


def test_long_score_out_of_range_is_quoted_in_part(load_text):
    cell = "10." + "0" * 5000
    with pytest.raises(InputFormatError, match=re.escape(f"{cell[:40]!r}... (5003 characters)")):
        load_text(f"word,valence,arousal,dominance\nwar,{cell},7.49,6.38\n")


def test_rejects_non_numeric_score(load_text):
    bad = "word,valence,arousal,dominance\nwar,high,7.49,6.38\n"
    with pytest.raises(InputFormatError, match="not a number"):
        load_text(bad)


def test_rejects_duplicate_word(load_text):
    bad = GOOD_CSV + "WAR,3.0,3.0,3.0\n"
    with pytest.raises(InputFormatError, match="duplicate word 'war'"):
        load_text(bad)


def test_rejects_empty_word_and_whitespace_word(load_text):
    with pytest.raises(InputFormatError):
        load_text("word,valence,arousal,dominance\n,2,7,6\n")
    with pytest.raises(InputFormatError):
        load_text('word,valence,arousal,dominance\n"two words",2,7,6\n')


@pytest.mark.parametrize("word", ["self-esteem", "R2D2", "'tis", "tis'", "don''t", "x y"])
def test_rejects_a_word_that_is_not_one_token(load_text, word):
    # ``tokenize`` splits each of these, so no subject token could ever equal it.
    with pytest.raises(InputFormatError, match=re.escape(f"row 3: invalid word {word!r}")):
        load_text(f"word,valence,arousal,dominance\nwar,2,7,6\n{word},2,7,6\n")


def test_accepts_a_word_with_an_inner_apostrophe(load_text):
    assert list(load_text("word,valence,arousal,dominance\nDon't,2,7,6\n")) == ["don't"]


def test_rejects_no_data_rows(load_text):
    with pytest.raises(InputFormatError, match="no data rows"):
        load_text("word,valence,arousal,dominance\n")


def test_rejects_short_row(load_text):
    with pytest.raises(InputFormatError, match="row 2"):
        load_text("word,valence,arousal,dominance\nwar,2.08\n")


def test_tokenize_lowercases_and_splits():
    assert tokenize("War AND Peace!") == ["war", "and", "peace"]


def test_tokenize_drops_digits_and_punctuation():
    assert tokenize("vote 2004, re-elect; tax-cut") == [
        "vote",
        "re",
        "elect",
        "tax",
        "cut",
    ]


def test_tokenize_keeps_internal_apostrophes():
    assert tokenize("don't, the dog's 'quoted'") == ["don't", "the", "dog's", "quoted"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("1234 --- !!!") == []


@given(st.lists(st.sampled_from(["war", "love", "tax", "don't", "peace"]), max_size=8))
def test_tokenize_rejoin_idempotent(words):
    joined = " ".join(words)
    assert tokenize(joined) == words
