import pytest
from hypothesis import given, strategies as st

from moodcast.errors import InputFormatError
from moodcast.lexicon import (
    Lexicon,
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
    entry = lex.lookup("war")
    assert entry.valence == 2.08
    assert entry.arousal == 7.49
    assert entry.dominance == 6.38


def test_load_lexicon_from_fixture(lexicon):
    assert len(lexicon) == 30
    assert lexicon.lookup("love").valence == 8.72
    assert lexicon.lookup("absent") is None


def test_entry_score_by_dimension():
    entry = LexiconEntry("hope", 7.9, 5.4, 6.1)
    assert entry.score("valence") == 7.9
    assert entry.score("arousal") == 5.4
    assert entry.score("dominance") == 6.1


def test_rejects_bad_header(load_text):
    with pytest.raises(InputFormatError, match="header"):
        load_text("word,v,a,d\nwar,2,7,6\n")


def test_rejects_score_out_of_range(load_text):
    bad = "word,valence,arousal,dominance\nwar,0.5,7.49,6.38\n"
    with pytest.raises(InputFormatError, match="row 2.*valence"):
        load_text(bad)


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


def test_rejects_no_data_rows(load_text):
    with pytest.raises(InputFormatError, match="no data rows"):
        load_text("word,valence,arousal,dominance\n")


def test_rejects_short_row(load_text):
    with pytest.raises(InputFormatError, match="row 2"):
        load_text("word,valence,arousal,dominance\nwar,2.08\n")


def test_from_entries_rejects_duplicates():
    entry = LexiconEntry("war", 2.0, 7.0, 6.0)
    with pytest.raises(InputFormatError):
        Lexicon.from_entries([entry, entry])


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
