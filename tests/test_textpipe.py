import datetime as dt
import random
import re
import string
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosent.textpipe import (
    MEANINGLESS_TOKENS,
    RawPost,
    is_english,
    parse_post,
    read_corpus,
    remove_stopwords,
    strip_artifacts,
    tokenize,
    write_corpus,
)

DAY = dt.date(2020, 2, 24)


def post(text, lang=None):
    return RawPost("p1", DAY, "Toronto", text, lang=lang)


# ---------------------------------------------------------------------------
# strip_artifacts


def test_strip_artifacts_examples():
    assert strip_artifacts("@bob see https://t.co/x #covid now") == "see covid now"
    assert strip_artifacts("no urls here") == "no urls here"
    assert strip_artifacts("##covid") == "covid"
    assert strip_artifacts("@user#tag yes") == "tag yes"


def test_strip_artifacts_removes_scheme_and_www():
    assert strip_artifacts("go to http://a.b/c please") == "go to please"
    assert strip_artifacts("go to www.example.com please") == "go to please"


def test_strip_artifacts_idempotent_on_random_text():
    rng = random.Random(0)
    alphabet = string.ascii_letters + " @#/:.!?"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        once = strip_artifacts(text)
        assert strip_artifacts(once) == once


def test_strip_artifacts_idempotent_on_examples():
    for text in [
        "@bob see https://t.co/x #covid now",
        "keep #tags @drop http://x.y",
        "a@b@c ###",
    ]:
        once = strip_artifacts(text)
        assert strip_artifacts(once) == once


@pytest.mark.parametrize("text, expected", [
    ("see http#s://x.com/a now", "see now"),
    ("www#.evil.com", ""),
    ("t.#co/abc", ""),
])
def test_strip_artifacts_drops_urls_joined_by_hash_removal(text, expected):
    assert strip_artifacts(text) == expected
    assert strip_artifacts(expected) == expected


@st.composite
def _artifact_texts(draw):
    """Words built around URL, handle and tag markers, with '#' dropped in anywhere."""
    words = []
    for _ in range(draw(st.integers(0, 5))):
        word = draw(st.sampled_from(["", "a", "@", "#"]))
        word += draw(st.sampled_from(["", "http://", "https://", "www.", "t.co/", "@", "#"]))
        word += draw(st.sampled_from(["", "x", "x.com/a", "é", "@u", "#t"]))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(word)))
            word = word[:i] + "#" + word[i:]
        words.append(word)
    return draw(st.sampled_from([" ", "  ", "\t"])).join(words)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_artifact_texts(), st.text(max_size=40)))
def test_strip_artifacts_idempotent_property(text):
    once = strip_artifacts(text)
    assert strip_artifacts(once) == once


# ---------------------------------------------------------------------------
# is_english


def test_language_tag_honored(wordlist):
    assert is_english(post("peu importe le texte", lang="en"), wordlist)
    assert not is_english(post("whatever the text", lang="fr"), wordlist)


def test_untagged_ratio_heuristic(wordlist):
    # all four tokens are in the bundled wordlist: ratio 1.0 >= 0.4
    assert is_english(post("the vaccine works well"), wordlist)
    assert not is_english(post("xq zvw qqq ppp lkj mnb"), wordlist)


def test_untagged_no_alphabetic_tokens_kept(wordlist):
    assert is_english(post("123 456 !!!"), wordlist)


def test_exact_threshold():
    words = frozenset({"alpha", "beta"})
    # 2 of 5 alphabetic tokens known: 0.4 >= 0.4 passes
    assert is_english(post("alpha beta zz yy xx"), words)
    # 1 of 5: 0.2 < 0.4 fails
    assert not is_english(post("alpha cc zz yy xx"), words)


# ---------------------------------------------------------------------------
# tokenize


def test_trailing_exclamations_counted():
    doc = tokenize("Good!!!")
    assert doc.surfaces() == ["Good"]
    assert doc.trailing_exclamations == 3
    assert not doc.trailing_double_question


def test_emoticon_preserved_as_token(vlex):
    doc = tokenize("ok :-)", vlex.symbol_tokens())
    assert doc.surfaces() == ["ok", ":-)"]
    assert doc.tokens[1].is_emoticon
    assert not doc.tokens[0].is_emoticon


def test_caps_flagging():
    doc = tokenize("GREAT news")
    assert [t.all_caps for t in doc.tokens] == [True, False]


def test_single_letter_word_not_all_caps():
    doc = tokenize("I like it")
    assert doc.tokens[0].all_caps is False


def test_double_question_detected():
    assert tokenize("really??").trailing_double_question
    assert not tokenize("really?").trailing_double_question
    assert not tokenize("really?? sure").trailing_double_question


def test_punctuation_and_meaningless_symbols_dropped():
    doc = tokenize("** SSS = $ & , ( ) ; - ~ word")
    assert doc.surfaces() == ["word"]


def test_interior_punctuation_kept():
    doc = tokenize("don't stop COVID-19 it's real-time")
    assert doc.surfaces() == ["don't", "stop", "COVID-19", "it's", "real-time"]


def test_no_empty_surfaces_and_count_bound(vlex):
    rng = random.Random(1)
    emoticons = vlex.symbol_tokens()
    pieces = ["Good!!!", ":-)", "BAD", "ok...", "#", "a,b", "??", "word"]
    for _ in range(200):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 10)))
        doc = tokenize(text, emoticons)
        assert all(t.surface for t in doc.tokens)
        assert len(doc.tokens) <= len(text.split()) + sum(
            1 for c in text.split() if c in emoticons
        )


# Reference tokenizer for the parity test: every token's normalized form goes
# through the lexicon's normalization rule on its own, instead of reusing the
# casefold the tokenizer's loop computes.

_ORACLE_STRIP_CHARS = string.punctuation + "…“”‘’«»¡¿"


def _oracle_normalize_token(token):
    return token.casefold() if any(ch.isalpha() for ch in token) else token


@dataclass(frozen=True)
class _OracleToken:
    surface: str
    normalized: str
    all_caps: bool
    is_emoticon: bool


def _oracle_tokenize(text, emoticons=frozenset()):
    excl = re.search(r"(!+)\s*$", text)
    n_excl = len(excl.group(1)) if excl else 0
    double_q = re.search(r"(\?{2,})\s*$", text) is not None
    tokens = []
    for chunk in text.split():
        if chunk in emoticons:
            tokens.append(_OracleToken(chunk, _oracle_normalize_token(chunk), False, True))
            continue
        stripped = chunk.strip(_ORACLE_STRIP_CHARS)
        if not stripped:
            continue
        if stripped in emoticons:
            tokens.append(_OracleToken(stripped, _oracle_normalize_token(stripped), False, True))
            continue
        if stripped.casefold() in MEANINGLESS_TOKENS:
            continue
        n_letters = sum(1 for c in stripped if c.isalpha())
        all_caps = n_letters >= 2 and stripped.isupper()
        tokens.append(_OracleToken(stripped, _oracle_normalize_token(stripped), all_caps, False))
    return tokens, n_excl, double_q


_WORD_PIECES = [
    "GOOD", "Good", "good", "LOL", "lol", "OK", "I", "sss", "SSS", "Sss", "123", "A1", "COVID-19",
    "don't", "straße", "STRASSE", "ﬁne", "İstanbul", "ΣΊΣΥΦΟΣ", "déjà", "ǅ", "Ⅻ", "ⓐⒶ", "\u0345",
    "Ａ", "μ", "—", "…", "(", ")", '"', ",", "!", "??", "#",
]
_EXTRA_EMOTICONS = frozenset({"XD", ":P", "Ⓧ_Ⓧ"})


@st.composite
def _tokenizer_texts(draw, emoticons):
    pieces = _WORD_PIECES + sorted(emoticons | _EXTRA_EMOTICONS) + ["xd", "ⓧ_ⓧ"]
    word = st.one_of(
        st.sampled_from(pieces),
        st.lists(st.sampled_from(pieces), min_size=2, max_size=3).map("".join),
        st.text(min_size=1, max_size=5),
    )
    words = draw(st.lists(word, max_size=12))
    tail = draw(st.sampled_from(["", "!", "!!!", " !!", "??", "???", "?", "?!", "!?? "]))
    return " ".join(words) + tail


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), which=st.sampled_from(["lexicon", "empty", "extra"]))
def test_tokenize_matches_reference_tokenizer(vlex, elex, data, which):
    emoticons = {
        "lexicon": vlex.symbol_tokens(),
        "empty": frozenset(),
        "extra": vlex.symbol_tokens() | _EXTRA_EMOTICONS,
    }[which]
    text = data.draw(_tokenizer_texts(emoticons))
    doc = tokenize(text, emoticons)
    want, n_excl, double_q = _oracle_tokenize(text, emoticons)
    assert [(t.surface, t.normalized, t.all_caps, t.is_emoticon) for t in doc.tokens] == [
        (t.surface, t.normalized, t.all_caps, t.is_emoticon) for t in want
    ]
    assert (doc.trailing_exclamations, doc.trailing_double_question) == (n_excl, double_q)
    for tok in doc.tokens:
        assert vlex.entries.get(tok.normalized) == vlex.lookup(tok.surface)
        assert elex.entries.get(tok.normalized) == elex.lookup(tok.surface)


# ---------------------------------------------------------------------------
# remove_stopwords


def test_remove_stopwords_examples(stopwords):
    doc = tokenize("I like masks")
    out = remove_stopwords(doc, stopwords)
    assert out.surfaces() == ["like", "masks"]

    assert remove_stopwords(tokenize(""), stopwords).tokens == ()

    doc = tokenize("during before")
    assert remove_stopwords(doc, stopwords).tokens == ()


def test_remove_stopwords_preserves_emphasis(stopwords):
    doc = tokenize("I am HAPPY!!!")
    out = remove_stopwords(doc, stopwords)
    assert out.trailing_exclamations == 3
    assert out.surfaces() == ["HAPPY"]


def test_emoticons_survive_stopword_removal(vlex, stopwords):
    doc = tokenize("it :-)", vlex.symbol_tokens())
    out = remove_stopwords(doc, stopwords)
    assert out.surfaces() == [":-)"]


# ---------------------------------------------------------------------------
# pipeline order: emphasis must be captured before punctuation removal


def test_pipeline_order_keeps_punctuation_intensity(stopwords):
    raw = "@bob this is GREAT!!! #covid"
    stripped = strip_artifacts(raw)
    doc = tokenize(stripped)
    doc = remove_stopwords(doc, stopwords)
    assert doc.trailing_exclamations == 0  # "!!!"" is not text-final after the tag word
    doc2 = remove_stopwords(tokenize(strip_artifacts("@bob this is GREAT!!!")), stopwords)
    assert doc2.trailing_exclamations == 3
    assert doc2.surfaces() == ["GREAT"]
    assert doc2.tokens[0].all_caps


# ---------------------------------------------------------------------------
# corpus I/O


def test_parse_post_ignores_unknown_fields():
    p = parse_post(
        {"id": "a", "date": "2020-03-01", "city": "X", "text": "hi", "junk": 1}
    )
    assert p.date == dt.date(2020, 3, 1)
    assert p.like_count == 0


def test_parse_post_rejects_bad_records():
    with pytest.raises(ValueError):
        parse_post({"id": "a", "date": "not-a-date", "city": "X", "text": "hi"})
    with pytest.raises(ValueError):
        parse_post({"id": "a", "date": "2020-03-01", "text": "hi"})
    with pytest.raises(ValueError):
        parse_post({"id": "a", "date": "2020-03-01", "city": "X", "text": "hi", "like_count": -1})


def test_corpus_roundtrip(tmp_path):
    posts = [
        RawPost("a", DAY, "Toronto", "hello there", 3, 1, 0, "en"),
        RawPost("b", DAY, "Montreal", "bonjour", 0, 0, 2, "fr"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(posts, path)
    reader = read_corpus(path)
    assert list(reader) == posts
    assert reader.posts_read == 2
    assert reader.malformed == 0


def test_read_corpus_malformed_handling(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id":"a","date":"2020-03-01","city":"X","text":"hi"}\nnot json\n')
    with pytest.raises(ValueError, match=r"corpus\.jsonl:2:"):
        list(read_corpus(path))
    reader = read_corpus(path, skip_malformed=True)
    posts = list(reader)
    assert len(posts) == 1
    assert reader.malformed == 1
