import datetime as dt
import json
import random
import re
import string
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosent import sentiment, textpipe
from echosent.sentiment import ScoringTable
from echosent.textpipe import (
    MEANINGLESS_TOKENS,
    RawPost,
    _strip_matches,
    corpus_line,
    english_entries,
    is_english,
    parse_day,
    parse_post,
    read_corpus,
    remove_stopwords,
    strip_artifacts,
    tokenize,
    trailing_emphasis,
    write_corpus,
)

DAY = dt.date(2020, 2, 24)


def post(text, lang=None):
    return RawPost("p1", DAY, "Toronto", text, lang=lang)


def keys(doc):
    return [t.normalized for t in doc.tokens]


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


# Text the patterns cannot touch: no '/', '@' or '#', and "www." filtered out
# below; URL-like pieces, punctuation and assorted whitespace kept.
_PLAIN_PIECES = ["http:", "https:", "t.co", "www", "ww.", "w.", "a", "É", "\\", ".", ":", "!", "?"]
_SPACES = [" ", "  ", "\t", "\n", "\u3000", "\x1c", "\x85", "\xa0"]


@st.composite
def _plain_texts(draw):
    piece = st.one_of(
        st.sampled_from(_PLAIN_PIECES + _SPACES),
        st.text(st.characters(blacklist_characters="/@#", blacklist_categories=("Cs",)),
                max_size=6),
    )
    return "".join(draw(st.lists(piece, max_size=12)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_plain_texts())
def test_strip_artifacts_fast_path_equals_the_patterns(text):
    while "www." in text:
        text = text.replace("www.", "www")
    assert not any(c in text for c in "/@#")
    assert strip_artifacts(text) == _strip_matches(text)


# ---------------------------------------------------------------------------
# corpus_line


@pytest.mark.parametrize("text", [
    "déjà vu — naïve café ☕ 東京",
    'she said "stay home" \\ again',
    "back\\slash\\\\ and \"quotes\" and \u2028 line sep \x00",
    "beyond the BMP 😷 \U0001F600",
])
def test_corpus_line_equals_json_dumps(text):
    post = RawPost("id \"1\" é", DAY, "Montréal", text, 1, 2, 3, "en")
    rec = {
        "id": post.id, "date": "2020-02-24", "city": post.city, "text": text,
        "like_count": 1, "reply_count": 2, "retweet_count": 3, "lang": "en",
    }
    line = corpus_line(post)
    assert line.encode("utf-8") == (json.dumps(rec, ensure_ascii=False) + "\n").encode("utf-8")


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
    assert keys(doc) == ["good"]
    assert doc.trailing_exclamations == 3
    assert not doc.trailing_double_question


def test_emoticon_preserved_as_token(vlex):
    doc = tokenize("ok :-)", vlex.symbol_tokens())
    assert keys(doc) == ["ok", ":-)"]


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
    assert keys(doc) == ["word"]


def test_interior_punctuation_kept():
    doc = tokenize("don't stop COVID-19 it's real-time")
    assert keys(doc) == ["don't", "stop", "covid-19", "it's", "real-time"]


def test_no_empty_surfaces_and_count_bound(vlex):
    rng = random.Random(1)
    emoticons = vlex.symbol_tokens()
    pieces = ["Good!!!", ":-)", "BAD", "ok...", "#", "a,b", "??", "word"]
    for _ in range(200):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 10)))
        doc = tokenize(text, emoticons)
        assert all(t.normalized for t in doc.tokens)
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
    normalized: str
    all_caps: bool


def _oracle_tokenize(text, emoticons=frozenset()):
    excl = re.search(r"(!+)\s*$", text)
    n_excl = len(excl.group(1)) if excl else 0
    double_q = re.search(r"(\?{2,})\s*$", text) is not None
    tokens = []
    for chunk in text.split():
        if chunk in emoticons:
            tokens.append(_OracleToken(_oracle_normalize_token(chunk), False))
            continue
        stripped = chunk.strip(_ORACLE_STRIP_CHARS)
        if not stripped:
            continue
        if stripped in emoticons:
            tokens.append(_OracleToken(_oracle_normalize_token(stripped), False))
            continue
        if stripped.casefold() in MEANINGLESS_TOKENS:
            continue
        n_letters = sum(1 for c in stripped if c.isalpha())
        all_caps = n_letters >= 2 and stripped.isupper()
        tokens.append(_OracleToken(_oracle_normalize_token(stripped), all_caps))
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
def test_tokenize_matches_reference_tokenizer(vlex, data, which):
    emoticons = {
        "lexicon": vlex.symbol_tokens(),
        "empty": frozenset(),
        "extra": vlex.symbol_tokens() | _EXTRA_EMOTICONS,
    }[which]
    text = data.draw(_tokenizer_texts(emoticons))
    doc = tokenize(text, emoticons)
    want, n_excl, double_q = _oracle_tokenize(text, emoticons)
    assert [(t.normalized, t.all_caps) for t in doc.tokens] == [
        (t.normalized, t.all_caps) for t in want
    ]
    assert (doc.trailing_exclamations, doc.trailing_double_question) == (n_excl, double_q)


_WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(st.sampled_from(["!", "?", "a", ".", *_WHITESPACE]), max_size=10))
def test_trailing_emphasis_equals_the_patterns(text):
    excl = re.search(r"(!+)\s*$", text)
    want = (len(excl.group(1)) if excl else 0, re.search(r"(\?{2,})\s*$", text) is not None)
    assert trailing_emphasis(text) == want


# ---------------------------------------------------------------------------
# the chunk table (sentiment.ScoringTable) against the per-post functions


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), lang=st.sampled_from([None, None, "en", "fr"]))
def test_chunk_table_gives_what_the_per_post_functions_give(
    vlex, stopwords, wordlist, data, lang
):
    emoticons = vlex.symbol_tokens()
    table = ScoringTable(vlex, None, stopwords, wordlist)
    for _ in range(3):
        text = data.draw(_tokenizer_texts(emoticons) | st.sampled_from(
            ["the vaccine works well here", "le confinement est difficile", ""]
        ))
        doc = tokenize(text, emoticons)
        scanned = [e for e in table.entries(text) if e.token is not None]
        assert tuple(e.token for e in scanned) == doc.tokens
        assert tuple(e.token for e in scanned if e.kept) == (
            remove_stopwords(doc, stopwords).tokens
        )
        post = RawPost("p", DAY, "X", text, lang=lang)
        entries = english_entries(post, table)
        assert (entries is not None) == is_english(post, wordlist)
        if entries is not None:
            assert entries == table.entries(text)


def test_chunk_table_is_emptied_at_its_bound(vlex, monkeypatch):
    monkeypatch.setattr(sentiment, "CHUNK_TABLE_SIZE", 4)
    emoticons = vlex.symbol_tokens()
    table = ScoringTable(vlex, None, frozenset())
    text = "one two three four five six seven :) SIX one"
    sizes = []
    for _ in range(3):
        tokens = tuple(e.token for e in table.entries(text) if e.token is not None)
        assert tokens == tokenize(text, emoticons).tokens
        sizes.append(len(table))
    assert 0 < max(sizes) <= 4


# ---------------------------------------------------------------------------
# remove_stopwords


def test_remove_stopwords_examples(stopwords):
    doc = tokenize("I like masks")
    out = remove_stopwords(doc, stopwords)
    assert keys(out) == ["like", "masks"]

    assert remove_stopwords(tokenize(""), stopwords).tokens == ()

    doc = tokenize("during before")
    assert remove_stopwords(doc, stopwords).tokens == ()


def test_remove_stopwords_preserves_emphasis(stopwords):
    doc = tokenize("I am HAPPY!!!")
    out = remove_stopwords(doc, stopwords)
    assert out.trailing_exclamations == 3
    assert keys(out) == ["happy"]


def test_emoticons_survive_stopword_removal(vlex, stopwords):
    doc = tokenize("it :-)", vlex.symbol_tokens())
    out = remove_stopwords(doc, stopwords)
    assert keys(out) == [":-)"]


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
    assert keys(doc2) == ["great"]
    assert doc2.tokens[0].all_caps


# ---------------------------------------------------------------------------
# corpus I/O


def test_parse_post_ignores_unknown_fields():
    p = parse_post(
        {"id": "a", "date": "2020-03-01", "city": "X", "text": "hi", "junk": 1}
    )
    assert p.date == dt.date(2020, 3, 1)
    assert p.like_count == 0


@pytest.mark.parametrize("fields, message", [
    (dict(city=""), "post city must be nonempty"),
    (dict(like_count=-1), "post like_count must be >= 0"),
    (dict(reply_count=-1), "post reply_count must be >= 0"),
    (dict(retweet_count=-2, like_count=-1), "post like_count must be >= 0"),
    (dict(retweet_count=-1), "post retweet_count must be >= 0"),
])
def test_parse_post_refuses_an_empty_city_and_negative_counts(tmp_path, fields, message):
    good = {"id": "a", "date": "2020-03-01", "city": "X", "text": "hi",
            "like_count": 1, "reply_count": 2, "retweet_count": 3, "lang": "en"}
    with pytest.raises(ValueError, match=f"^bad post record: {message}$"):
        parse_post({**good, **fields})
    # a reader that skips bad lines counts the line as malformed
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **fields}) + "\n")
    reader = read_corpus(path, skip_malformed=True)
    assert [p.id for p in reader] == ["a"]
    assert reader.malformed == 1


def test_raw_post_is_an_immutable_record_built_by_position_or_keyword():
    by_position = RawPost("p", DAY, "X", "hi", 1, 2, 3, "en")
    by_keyword = RawPost(text="hi", city="X", date=DAY, id="p", lang="en",
                         retweet_count=3, reply_count=2, like_count=1)
    assert by_position == by_keyword and type(by_keyword) is RawPost
    assert RawPost._fields == ("id", "date", "city", "text", "like_count", "reply_count",
                               "retweet_count", "lang")
    assert RawPost("p", DAY, "X", "hi") == ("p", DAY, "X", "hi", 0, 0, 0, None)
    assert by_keyword._replace(text="yo").text == "yo"
    with pytest.raises(AttributeError):
        by_position.city = "Y"
    with pytest.raises(AttributeError):
        by_position.extra = 1
    with pytest.raises(TypeError):
        RawPost("p", DAY, "X")


def test_parse_post_reads_the_timestamp_alias():
    p = parse_post({"id": "a", "timestamp": "2020-03-01", "city": "X", "text": "hi"})
    assert p.date == dt.date(2020, 3, 1)
    # date wins when both are given
    p = parse_post({"id": "a", "date": "2020-03-02", "timestamp": "2020-03-01", "city": "X",
                    "text": "hi"})
    assert p.date == dt.date(2020, 3, 2)


@pytest.mark.parametrize("day", [
    # ISO 8601 forms that Python 3.11's date.fromisoformat takes but 3.10's does not
    "20200301", "2020-W09-7", "2020-W097",
    "2020-3-1", " 2020-03-01", "2020-03-01T00:00", "２０２０-03-01",
])
def test_parse_day_takes_yyyy_mm_dd_only(day):
    with pytest.raises(ValueError, match=re.escape(repr(day))):
        parse_day(day)
    with pytest.raises(ValueError, match="bad post record"):
        parse_post({"id": "a", "date": day, "city": "X", "text": "hi"})
    assert parse_day("2020-03-01") == dt.date(2020, 3, 1)


def test_parse_day_memo_is_bounded():
    parse_day.cache_clear()
    for _ in range(3):
        assert parse_day("2020-03-01") == dt.date(2020, 3, 1)
    info = parse_day.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    assert info.maxsize is not None


@pytest.mark.parametrize("field, value", [
    ("city", None), ("city", ["Toronto"]), ("city", 5),
    ("text", None), ("text", 5), ("text", {"body": "hi"}),
    ("lang", 5), ("lang", True), ("lang", ["en"]),
    ("id", None), ("id", True), ("id", 1.5), ("id", [1]), ("id", {"n": 1}),
])
def test_parse_post_refuses_fields_of_another_json_type(field, value):
    good = {"id": "a", "date": "2020-03-01", "city": "X", "text": "hi", "lang": "en"}
    with pytest.raises(ValueError, match=f"bad post record: {field} "):
        parse_post({**good, field: value})


def test_parse_post_reads_an_integer_id_as_its_digits_and_a_null_lang_as_untagged():
    post = parse_post({"id": 1234567890123456789, "date": "2020-03-01", "city": "X",
                       "text": "hi", "lang": None})
    assert (post.id, post.lang) == ("1234567890123456789", None)


@pytest.mark.parametrize("obj", [3, "text", ["a"], None])
def test_parse_post_refuses_a_value_that_is_no_object(obj):
    with pytest.raises(ValueError, match="bad post record"):
        parse_post(obj)


@pytest.mark.parametrize("name", ["like_count", "reply_count", "retweet_count"])
@pytest.mark.parametrize("count", [3.7, 3.0, "3", True, None, [3]])
def test_parse_post_takes_only_integer_counts(name, count):
    with pytest.raises(ValueError, match=f"bad post record: {name} "):
        parse_post({"id": "a", "date": "2020-03-01", "city": "X", "text": "hi", name: count})
    assert getattr(parse_post({"id": "a", "date": "2020-03-01", "city": "X", "text": "hi",
                               name: 3}), name) == 3


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


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_a_corpus_line_that_is_no_utf8_is_malformed(tmp_path, newline):
    def line(pid, city):
        return b'{"id": "%s", "date": "2020-03-01", "city": "%s", "text": "hi"}' % (pid, city)
    path = tmp_path / "corpus.jsonl"
    # line 3 is Latin-1; lines 1 and 4 are UTF-8
    path.write_bytes(newline.join([line(b"a", "Montréal".encode()), b"",
                                   line(b"b", "Montréal".encode("latin-1")),
                                   line(b"c", "Québec".encode()), b""]))
    reader = read_corpus(path, skip_malformed=True)
    assert [(p.id, p.city) for p in reader] == [("a", "Montréal"), ("c", "Québec")]
    assert (reader.posts_read, reader.malformed) == (2, 1)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: 'utf-8' codec can't decode")):
        list(read_corpus(path))


def test_read_corpus_malformed_handling(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id":"a","date":"2020-03-01","city":"X","text":"hi"}\nnot json\n')
    with pytest.raises(ValueError, match=r"corpus\.jsonl:2:"):
        list(read_corpus(path))
    reader = read_corpus(path, skip_malformed=True)
    posts = list(reader)
    assert len(posts) == 1
    assert reader.malformed == 1
