import datetime as dt
import math
import random
import tempfile
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosent.lexicon import EMOTION_CATEGORIES, ValenceLexicon
from echosent import sentiment
from echosent.sentiment import (
    BOOSTERS,
    NEGATORS,
    ScoredPost,
    ScoringTable,
    SentimentScore,
    _is_negator,
    _token_valences,
    emotion_profile,
    polarity_proportions,
    read_scored_csv,
    score_entries,
    score_post,
    scored_row,
    write_scored_csv,
)
from echosent.textpipe import RawPost, remove_stopwords, tokenize
from oracle import compound_score


def doc(text, vlex=None):
    emoticons = vlex.symbol_tokens() if vlex is not None else frozenset()
    return tokenize(text, emoticons)


def word_valences(d, vlex):
    """Adjusted valences of the lexicon-matched tokens, in document order."""
    vals = _token_valences(d, vlex)
    return [v for v, tok in zip(vals, d.tokens) if tok.normalized in vlex.entries]


# ---------------------------------------------------------------------------
# adjusted valences of matched tokens


def test_negated_positive_word(vlex):
    vals = word_valences(doc("not good"), vlex)
    assert vals == pytest.approx([1.9 * -0.74])
    assert vals == pytest.approx([-1.406])


def test_plain_lookup(vlex):
    assert word_valences(doc("good"), vlex) == [1.9]


def test_unmatched_contributes_nothing(vlex):
    assert word_valences(doc("zzzzqq"), vlex) == []


def test_caps_boost_follows_sign(vlex):
    assert word_valences(doc("GOOD"), vlex) == pytest.approx([1.9 + 0.733])
    assert word_valences(doc("BAD"), vlex) == pytest.approx([-2.5 - 0.733])


def test_booster_within_lookback(vlex):
    assert word_valences(doc("very good"), vlex) == pytest.approx([1.9 + 0.293])
    assert word_valences(doc("very bad"), vlex) == pytest.approx([-2.5 - 0.293])
    # distance three still counts; the negation multiplies after boosting
    assert word_valences(doc("not really good"), vlex) == pytest.approx(
        [(1.9 + 0.293) * -0.74]
    )


def test_negator_outside_lookback_has_no_effect(vlex):
    vals = word_valences(doc("not a b c good"), vlex)
    assert vals == [1.9]


def test_nt_suffix_is_a_negator(vlex):
    assert word_valences(doc("don't like"), vlex) == pytest.approx([1.5 * -0.74])


def test_emoticons_carry_valence(vlex):
    assert word_valences(doc("ok :-)", vlex), vlex) == [1.3]


def two_walk_valences(d, lex):
    """Reference: one walk over the lookback window for boosters, another for negators."""
    out = []
    toks = d.tokens
    for i, tok in enumerate(toks):
        base = lex.entries.get(tok.normalized)
        if base is None:
            out.append(0.0)
            continue
        v = base
        s = math.copysign(1.0, base) if base else 0.0
        if tok.all_caps:
            v += sentiment.CAPS_BOOST * s
        window = toks[max(0, i - sentiment.LOOKBACK):i]
        for prev in window:
            inc = BOOSTERS.get(prev.normalized)
            if inc is not None:
                v += inc * s
        if any(_is_negator(prev.normalized) for prev in window):
            v *= sentiment.NEGATION_FACTOR
        out.append(v)
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words=st.lists(st.sampled_from(
    ["good", "BAD", "love", "very", "hardly", "not", "isn't", "the", ":)", "kinda"]
), max_size=12))
def test_one_window_walk_matches_separate_booster_and_negator_walks(vlex, words):
    d = doc(" ".join(words), vlex)
    assert _token_valences(d, vlex) == two_walk_valences(d, vlex)


# ---------------------------------------------------------------------------
# compound_score


def test_compound_zero_sum_is_zero():
    assert compound_score([], doc("nothing here")) == 0.0
    assert compound_score([1.0, -1.0], doc("mixed words")) == 0.0


def test_compound_direct_formula():
    assert compound_score([3.0], doc("x")) == pytest.approx(3.0 / math.sqrt(9 + 15), abs=1e-12)
    assert compound_score([3.0], doc("x")) == pytest.approx(0.6124, abs=1e-4)


def test_compound_asymptote():
    assert compound_score([1e9], doc("x")) == pytest.approx(1.0, abs=1e-6)
    # strictly below 1 wherever float64 can resolve the gap
    assert abs(compound_score([1e5], doc("x"))) < 1.0


def test_compound_punctuation_amplifier(vlex):
    d = doc("Good!!!")
    base = 1.9
    amplified = base + 0.292 * 3
    assert compound_score([base], d) == pytest.approx(
        amplified / math.sqrt(amplified**2 + 15)
    )
    # the cap: five bangs boost no more than three
    d5 = doc("Good!!!!!")
    assert compound_score([base], d5) == compound_score([base], d)


def test_compound_double_question(vlex):
    d = doc("good??")
    amplified = 1.9 + 0.18
    assert compound_score([1.9], d) == pytest.approx(
        amplified / math.sqrt(amplified**2 + 15)
    )
    assert compound_score([1.9], doc("good?")) == pytest.approx(
        1.9 / math.sqrt(1.9**2 + 15)
    )


def test_compound_amplifier_follows_sign():
    up = compound_score([2.0], doc("Bad!!!"))
    down = compound_score([-2.0], doc("Bad!!!"))
    assert down == pytest.approx(-up)


def test_compound_odd_and_increasing_and_bounded():
    rng = random.Random(7)
    plain = doc("no punctuation")
    values = sorted(rng.uniform(-20, 20) for _ in range(1000))
    compounds = [compound_score([s], plain) for s in values]
    for s, c in zip(values, compounds):
        assert abs(c) < 1.0
        assert compound_score([-s], plain) == pytest.approx(-c, abs=1e-12)
    assert compounds == sorted(compounds)


# ---------------------------------------------------------------------------
# polarity_proportions


def test_no_lexicon_hits_is_pure_neutral(vlex):
    s = polarity_proportions(doc("trajectory of coronavirus"), vlex)
    assert (s.negative, s.neutral, s.positive, s.compound) == (0.0, 1.0, 0.0, 0.0)


def test_empty_doc_scores_neutral(vlex):
    s = polarity_proportions(doc(""), vlex)
    assert (s.negative, s.neutral, s.positive, s.compound) == (0.0, 1.0, 0.0, 0.0)


def test_proportions_hand_case(vlex):
    # "good day" -> good 1.9 matched, "day" neutral
    s = polarity_proportions(doc("good day"), vlex)
    assert s.positive == pytest.approx(2.9 / 3.9)
    assert s.neutral == pytest.approx(1.0 / 3.9)
    assert s.negative == 0.0


def test_proportions_sum_to_one_property(vlex):
    rng = random.Random(11)
    vocab = ["good", "bad", "terrible", "great", "day", "virus", "not", "very",
             "LOVE", "zzz", "ok", "stocks"]
    for _ in range(300):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 12)))
        s = polarity_proportions(doc(text), vlex)
        assert abs(s.negative + s.neutral + s.positive - 1.0) <= 1e-6
        assert -1.0 <= s.compound <= 1.0


def test_negating_single_positive_flips_compound(vlex):
    assert polarity_proportions(doc("good"), vlex).compound > 0
    assert polarity_proportions(doc("not good"), vlex).compound < 0


def test_scored_records_are_immutable_and_built_by_position_or_keyword():
    sent = SentimentScore(0.25, 0.5, 0.25, -1.0)
    assert sent == SentimentScore(compound=-1.0, positive=0.25, neutral=0.5, negative=0.25)
    emo = (0.5,) + (0.0,) * 9
    day = dt.date(2020, 3, 1)
    post = ScoredPost("p", day, "Toronto", sent, emo, 1, 2, 3)
    assert post == ScoredPost(retweet_count=3, reply_count=2, like_count=1, emotions=emo,
                              sentiment=sent, city="Toronto", date=day, id="p")
    assert ScoredPost("p", day, "Toronto", sent, emo)[5:] == (0, 0, 0)
    for record in (sent, post):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1


# ---------------------------------------------------------------------------
# emotion_profile


def cat_index(name):
    return EMOTION_CATEGORIES.index(name)


def test_emotion_single_word(elex, stopwords):
    profile = emotion_profile(doc("abandon"), elex)
    for name in ("fear", "negative", "sadness"):
        assert profile[cat_index(name)] == 1.0
    assert sum(profile) == 3.0


def test_emotion_ratio(elex):
    text = "panic outbreak aaa bbb ccc ddd eee fff ggg hhh"
    profile = emotion_profile(doc(text), elex)
    assert profile[cat_index("fear")] == pytest.approx(0.2)


def test_emotion_no_hits(elex):
    profile = emotion_profile(doc("aaa bbb"), elex)
    assert profile == (0.0,) * 10


def test_emotion_empty_doc_degenerate(elex):
    profile = emotion_profile(doc(""), elex)
    assert profile == (0.0,) * 10


def test_emotion_components_bounded_but_sum_can_exceed_one(elex):
    profile = emotion_profile(doc("abandon accident"), elex)
    assert all(0.0 <= f <= 1.0 for f in profile)
    assert sum(profile) > 1.0


def test_emotion_counts_on_stopword_free_doc(elex, stopwords):
    full = doc("i abandon it")
    bare = remove_stopwords(full, stopwords)
    profile = emotion_profile(bare, elex)
    assert profile[cat_index("fear")] == 1.0


# ---------------------------------------------------------------------------
# scoring constants


def test_scoring_constants_are_the_published_values():
    assert sentiment.CAPS_BOOST == 0.733
    assert sentiment.EXCLAMATION_STEP == 0.292
    assert sentiment.QUESTION_BOOST == 0.18
    assert sentiment.NEGATION_FACTOR == -0.74
    assert sentiment.NORM_ALPHA == 15.0
    assert sentiment.LOOKBACK == 3
    assert set(BOOSTERS.values()) == {0.293, -0.293}
    assert _is_negator("not")
    assert _is_negator("couldn't")
    assert not _is_negator("knot")


# ---------------------------------------------------------------------------
# per-post cost: the emoticon inventory is built once per lexicon


class _CountingEntries(Mapping):
    """Lexicon entries that count how often they are iterated over."""

    def __init__(self, entries):
        self._entries = dict(entries)
        self.iterations = 0

    def __getitem__(self, key):
        return self._entries[key]

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        self.iterations += 1
        return iter(self._entries)


def test_scoring_does_not_rebuild_the_emoticon_inventory(vlex, elex, stopwords):
    assert vlex.symbol_tokens() is vlex.symbol_tokens()
    entries = _CountingEntries(vlex.entries)
    counted = ValenceLexicon(entries, vlex.source, vlex.checksum)
    assert counted.symbol_tokens() == vlex.symbol_tokens()
    built = entries.iterations
    for i in range(20):
        post = RawPost(f"p{i}", dt.date(2020, 3, 1), "Toronto", "so GOOD :-) not bad!!")
        assert score_post(post, ScoringTable(counted, elex, stopwords)) == score_post(
            post, ScoringTable(vlex, elex, stopwords))
    assert entries.iterations == built


# ---------------------------------------------------------------------------
# score_post through the command's chunk table


def reference_score(post, vlex, elex, stopwords):
    """tokenize -> polarity_proportions / remove_stopwords -> emotion_profile."""
    doc = tokenize(post.text, vlex.symbol_tokens())
    return ScoredPost(
        post.id, post.date, post.city,
        polarity_proportions(doc, vlex),
        emotion_profile(remove_stopwords(doc, stopwords), elex),
        post.like_count, post.reply_count, post.retweet_count,
    )


def with_zero_valences(vlex):
    """The lexicon plus words of valence 0.0 and -0.0, whose negation scores -0.0 and 0.0."""
    entries = MappingProxyType({**vlex.entries, "meh": 0.0, "nil": -0.0})
    return ValenceLexicon(entries, vlex.source, vlex.checksum)


@st.composite
def vocabulary_posts(draw, vlex, elex, stopwords):
    lexicon_words = sorted(w for w in vlex.entries if any(c.isalpha() for c in w))
    word = st.one_of(
        st.sampled_from(lexicon_words + ["meh", "nil"]),
        st.sampled_from(sorted(BOOSTERS)),
        st.sampled_from(sorted(NEGATORS) + ["isn't", "couldn't", "Don't"]),
        st.sampled_from(sorted(stopwords)),
        st.sampled_from(sorted(elex.entries)),
        st.sampled_from(sorted(vlex.symbol_tokens())),
        st.sampled_from(["covid", "sss", "...", "—", "I", "A1"]),
    )
    styled = st.tuples(
        word,
        st.sampled_from([str, str, str.upper, str.capitalize]),
        st.sampled_from(["", "", ",", ".", "!", "'", '"']),
    ).map(lambda t: t[1](t[0]) + t[2])
    words = draw(st.lists(styled, max_size=14))
    tail = draw(st.sampled_from(["", "", "!", "!!!!", " !!", "??", "?", "?!", "!??"]))
    return RawPost("p", dt.date(2020, 3, 1), "Toronto", " ".join(words) + tail, 1, 2, 3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), zeros=st.booleans())
def test_table_scoring_equals_the_reference_path(vlex, elex, stopwords, data, zeros):
    lex = with_zero_valences(vlex) if zeros else vlex
    table = ScoringTable(lex, elex, stopwords)
    for _ in range(3):
        post = data.draw(vocabulary_posts(lex, elex, stopwords))
        want = reference_score(post, lex, elex, stopwords)
        for got in (score_post(post, table),
                    score_post(post, ScoringTable(lex, elex, stopwords)),
                    score_entries(post, table.entries(post.text))):
            assert got == want
            assert scored_row(got) == scored_row(want)  # repr tells -0.0 from 0.0
            assert got.emotions == want.emotions


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), zeros=st.booleans())
def test_a_computed_score_keeps_the_ranges_read_scored_csv_checks(
        vlex, elex, stopwords, data, zeros):
    # SentimentScore does not check its fields: scoring must keep them valid
    lex = with_zero_valences(vlex) if zeros else vlex
    table = ScoringTable(lex, elex, stopwords)
    post = data.draw(vocabulary_posts(lex, elex, stopwords))
    scored = score_entries(post, table.entries(post.text))
    negative, neutral, positive, compound = scored.sentiment
    assert 0.0 <= negative <= 1.0 and 0.0 <= neutral <= 1.0 and 0.0 <= positive <= 1.0
    assert abs(negative + neutral + positive - 1.0) <= 1e-6
    assert -1.0 <= compound <= 1.0
    assert all(0.0 <= f <= 1.0 for f in scored.emotions)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_score_post_compound_is_the_oracle_compound_map(vlex, elex, stopwords, data):
    # most drawn posts end in "!", "?" or "??" runs, so the amplifier is checked too
    post = data.draw(vocabulary_posts(vlex, elex, stopwords))
    d = doc(post.text, vlex)
    got = score_post(post, ScoringTable(vlex, elex, stopwords)).sentiment.compound
    assert got == compound_score(_token_valences(d, vlex), d)


# Any Unicode text but lone surrogates, which UTF-8 cannot encode; commas,
# quotes and line breaks included.
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
UNIT = st.floats(0.0, 1.0)


@st.composite
def scored_posts(draw, pid):
    weights = draw(st.tuples(UNIT, UNIT, UNIT).filter(lambda w: sum(w) > 0))
    total = sum(weights)
    sentiment = SentimentScore(*(w / total for w in weights), draw(st.floats(-1.0, 1.0)))
    freqs = tuple(draw(st.lists(UNIT, min_size=10, max_size=10)))
    return ScoredPost(pid, draw(st.dates()), draw(CSV_TEXT), sentiment, freqs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), ids=st.lists(CSV_TEXT, max_size=5, unique=True))
def test_scored_csv_roundtrip_property(data, ids):
    # Engagement counts are not part of the format.
    posts = [data.draw(scored_posts(pid)) for pid in ids]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scored.csv"
        write_scored_csv(posts, path)
        back = read_scored_csv(path)
    assert back == posts
    for got, want in zip(back, posts):
        assert repr(got.sentiment) == repr(want.sentiment)
        assert list(map(repr, got.emotions)) == list(map(repr, want.emotions))


def one_scored_post(pid="p1"):
    return ScoredPost(pid, dt.date(2020, 3, 1), "Toronto",
                      SentimentScore(0.25, 0.5, 0.25, 0.125),
                      (0.5,) + (0.0,) * 9)


@pytest.mark.parametrize("row, message", [
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0", "expected 17 fields, got 6"),
    ("p2,2020-03-02,Toronto" + ",0.0" * 14 + ",999", "expected 17 fields, got 18"),
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0,abc" + ",0.0" * 10, "'abc'"),
    ("p2,2020-02-30,Toronto,0.0,1.0,0.0,0.0" + ",0.0" * 10, "'2020-02-30'"),
    # ISO 8601 forms that Python 3.11's date.fromisoformat takes but 3.10's does not
    ("p2,20200302,Toronto,0.0,1.0,0.0,0.0" + ",0.0" * 10, "'20200302'"),
    ("p2,2020-W10-1,Toronto,0.0,1.0,0.0,0.0" + ",0.0" * 10, "'2020-W10-1'"),
    ("p2,2020-03-02,Toronto,nan,1.0,0.0,0.0" + ",0.0" * 10,
     "polarity proportions must lie in [0, 1]"),
    ("p2,2020-03-02,Toronto,-0.5,1.5,0.0,0.0" + ",0.0" * 10,
     "polarity proportions must lie in [0, 1]"),
    # nan passes a sum check written as `> 1e-6`
    ("p2,2020-03-02,Toronto,0.5,0.5,nan,0.0" + ",0.0" * 10,
     "polarity proportions must lie in [0, 1]"),
    ("p2,2020-03-02,Toronto,0.5,0.2,0.5,0.0" + ",0.0" * 10,
     "polarity proportions must sum to 1"),
    ("p2,2020-03-02,Toronto,0.5,0.2,0.5,2.0" + ",0.0" * 10,
     "polarity proportions must sum to 1"),
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0,1.5" + ",0.0" * 10,
     "compound must lie in [-1, 1]"),
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0,-1.0000001" + ",0.0" * 10,
     "compound must lie in [-1, 1]"),
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0,nan" + ",0.0" * 10,
     "compound must lie in [-1, 1]"),
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0,0.0" + ",0.0" * 5 + ",nan" + ",0.0" * 4,
     "emotion frequencies must lie in [0, 1]"),
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0,0.0" + ",1.5" + ",0.0" * 9,
     "emotion frequencies must lie in [0, 1]"),
    ("p2,2020-03-02,Toronto,0.0,1.0,0.0,0.0" + ",0.0" * 9 + ",-0.25",
     "emotion frequencies must lie in [0, 1]"),
])
def test_read_scored_csv_names_path_and_line_of_a_malformed_row(tmp_path, row, message):
    path = tmp_path / "scored.csv"
    write_scored_csv([one_scored_post()], path)
    with path.open("a", encoding="utf-8", newline="") as fh:
        fh.write(row + "\r\n")
    with pytest.raises(ValueError) as err:
        read_scored_csv(path)
    assert str(err.value).startswith(f"{path}:3: ")
    assert message in str(err.value)


def test_a_repeated_scored_id_names_its_line(tmp_path):
    path = tmp_path / "scored.csv"
    write_scored_csv([one_scored_post("p1"), one_scored_post("p2"), one_scored_post("p1")], path)
    with pytest.raises(ValueError) as err:
        read_scored_csv(path)
    assert str(err.value) == f"{path}:4: scored post id 'p1' repeats"


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_scored_csv_skips_blank_lines_under_either_line_ending(tmp_path, newline):
    posts = [one_scored_post("p1"), one_scored_post("p2")]
    path = tmp_path / "scored.csv"
    write_scored_csv(posts, path)
    header, first, second = path.read_text(encoding="utf-8").splitlines()
    path.write_bytes(newline.join([header, "", first, "", "", second, ""]).encode())
    assert read_scored_csv(path) == posts
