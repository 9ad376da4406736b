from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_tokenize
from support import make_entry
from trendgram.textprep import (ARTICLES, entry_sentences, remove_articles,
                                split_sentences, tokenize)


def test_split_at_sentence_boundary():
    assert split_sentences("to program. Comprehension of") == [
        "to program", "Comprehension of"]


def test_split_empty_text():
    assert split_sentences("") == []


def test_split_without_terminator():
    assert split_sentences("One two three") == ["One two three"]


def test_split_requires_whitespace_after_terminator():
    assert split_sentences("e.g.x stays whole") == ["e.g.x stays whole"]


def test_split_all_terminators():
    assert split_sentences("a. b! c? d; e: f") == ["a", "b", "c", "d", "e", "f"]


def test_split_keeps_single_token_fragments():
    assert split_sentences("Yes. No") == ["Yes", "No"]


def test_tokenize_casefolds_and_strips_punctuation():
    assert tokenize("Program Comprehension,") == ["program", "comprehension"]


def test_tokenize_keeps_internal_hyphens():
    assert tokenize("open-source systems") == ["open-source", "systems"]


def test_tokenize_symbol_heavy_text():
    assert tokenize("(e.g., C++)") == ["e", "g", "c"]


def test_tokenize_strips_edge_apostrophes_and_hyphens():
    assert tokenize("'quoted' -dash- don't") == ["quoted", "dash", "don't"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("-- ... ''") == []


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_tokenize_idempotent_on_joined_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


# Word characters, the characters a token may hold inside, and ones that
# casefold or classify unusually: combining marks, `İ` (which casefolds
# to `i` and a combining dot), fullwidth letters, digits, low line,
# apostrophe and hyphen, and punctuation.
_TOKEN_TEXT = st.text(alphabet=list("aZ9_'- .,;!()\t") + [
    "\u0301", "\u0308", "\u0130", "\u00df", "\u00e9", "\u0661", "\uff21", "\uff11",
    "\uff3f", "\uff07", "\uff0d", "\u2019", "\u2010"], max_size=40)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_TOKEN_TEXT, st.text(max_size=40)))
def test_tokenize_matches_the_strip_based_definition(text):
    assert tokenize(text) == naive_tokenize(text)


def test_remove_articles_basic():
    assert remove_articles(["the", "program"]) == ["program"]
    assert remove_articles([]) == []
    assert remove_articles(["an", "a", "the"]) == []


def test_remove_articles_preserves_order():
    assert remove_articles(["a", "x", "the", "y", "an", "z"]) == ["x", "y", "z"]


def test_entry_sentences_one_per_keyword():
    entry = make_entry(keywords=["program comprehension", "slicing"])
    keyword_sentences = [s for s in entry_sentences(entry) if s.origin == "keyword"]
    assert len(keyword_sentences) == 2
    assert keyword_sentences[0].tokens == ["program", "comprehension"]
    assert keyword_sentences[1].tokens == ["slicing"]


def test_entry_sentences_no_keywords():
    entry = make_entry(keywords=[])
    assert [s for s in entry_sentences(entry) if s.origin == "keyword"] == []


def test_entry_sentences_splits_title():
    entry = make_entry(title="A study. B study.")
    titles = [s for s in entry_sentences(entry) if s.origin == "title"]
    assert len(titles) == 2
    assert titles[0].tokens == ["study"]
    assert titles[1].tokens == ["b", "study"]


def test_entry_sentences_order_and_metadata():
    entry = make_entry(id="e:9", year=2008, title="T one",
                       abstract="First. Second.", keywords=["kw"])
    sentences = entry_sentences(entry)
    assert [s.origin for s in sentences] == ["title", "abstract", "abstract", "keyword"]
    assert all(s.entry_id == "e:9" and s.year == 2008 for s in sentences)


def test_entry_sentences_keywords_not_split():
    entry = make_entry(keywords=["one. two"])
    keyword_sentences = [s for s in entry_sentences(entry) if s.origin == "keyword"]
    assert keyword_sentences[0].tokens == ["one", "two"]
    assert len(keyword_sentences) == 1


def test_entry_sentences_count_at_least_keywords():
    entry = make_entry(title="", abstract="", keywords=["a b", "?", "c"])
    assert len(entry_sentences(entry)) >= 3


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_no_articles_survive_the_pipeline(text):
    entry = make_entry(title=text, abstract=text, keywords=[text])
    for sentence in entry_sentences(entry):
        assert not ARTICLES.intersection(sentence.tokens)
        assert all(sentence.tokens)
