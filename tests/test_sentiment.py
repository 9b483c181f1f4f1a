import datetime as dt
import math
import random
import tempfile
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosent.lexicon import EMOTION_CATEGORIES, ValenceLexicon
from echosent.sentiment import (
    DEFAULT_MODIFIERS,
    EmotionProfile,
    ModifierTables,
    ScoredPost,
    SentimentScore,
    _token_valences,
    compound_score,
    emotion_profile,
    polarity_proportions,
    read_scored_csv,
    score_post,
    write_scored_csv,
)
from echosent.textpipe import RawPost, remove_stopwords, tokenize


def doc(text, vlex=None):
    emoticons = vlex.symbol_tokens() if vlex is not None else frozenset()
    return tokenize(text, emoticons)


def word_valences(d, vlex):
    """Adjusted valences of the lexicon-matched tokens, in document order."""
    vals = _token_valences(d, vlex, DEFAULT_MODIFIERS)
    return [v for v, tok in zip(vals, d.tokens) if tok.surface in vlex]


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


def test_sentiment_score_validates():
    with pytest.raises(ValueError):
        SentimentScore(0.5, 0.2, 0.5, 0.0)
    with pytest.raises(ValueError):
        SentimentScore(0.0, 1.0, 0.0, 1.5)


# ---------------------------------------------------------------------------
# emotion_profile


def cat_index(name):
    return EMOTION_CATEGORIES.index(name)


def test_emotion_single_word(elex, stopwords):
    profile = emotion_profile(doc("abandon"), elex)
    assert profile.word_total == 1
    for name in ("fear", "negative", "sadness"):
        assert profile.counts[cat_index(name)] == 1
        assert profile.frequencies[cat_index(name)] == 1.0
    assert sum(profile.counts) == 3


def test_emotion_ratio(elex):
    text = "panic outbreak aaa bbb ccc ddd eee fff ggg hhh"
    profile = emotion_profile(doc(text), elex)
    assert profile.word_total == 10
    assert profile.frequencies[cat_index("fear")] == pytest.approx(0.2)


def test_emotion_no_hits(elex):
    profile = emotion_profile(doc("aaa bbb"), elex)
    assert profile.counts == (0,) * 10
    assert profile.frequencies == (0.0,) * 10
    assert not profile.degenerate


def test_emotion_empty_doc_degenerate(elex):
    profile = emotion_profile(doc(""), elex)
    assert profile.degenerate
    assert profile.word_total == 0
    assert profile.frequencies == (0.0,) * 10


def test_emotion_components_bounded_but_sum_can_exceed_one(elex):
    profile = emotion_profile(doc("abandon accident"), elex)
    assert all(0.0 <= f <= 1.0 for f in profile.frequencies)
    assert sum(profile.frequencies) > 1.0


def test_emotion_counts_on_stopword_free_doc(elex, stopwords):
    full = doc("i abandon it")
    bare = remove_stopwords(full, stopwords)
    profile = emotion_profile(bare, elex)
    assert profile.word_total == 1
    assert profile.frequencies[cat_index("fear")] == 1.0


# ---------------------------------------------------------------------------
# modifier tables


def test_modifier_table_validation():
    with pytest.raises(ValueError):
        ModifierTables(negation_factor=0.5)
    with pytest.raises(ValueError):
        ModifierTables(norm_alpha=0.0)
    assert DEFAULT_MODIFIERS.is_negator("not")
    assert DEFAULT_MODIFIERS.is_negator("couldn't")
    assert not DEFAULT_MODIFIERS.is_negator("knot")


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
        assert score_post(post, counted, elex, stopwords) == score_post(post, vlex, elex, stopwords)
    assert entries.iterations == built


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
    return ScoredPost(pid, draw(st.dates()), draw(CSV_TEXT), sentiment,
                      EmotionProfile((0,) * 10, freqs, 0, degenerate=True))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), ids=st.lists(CSV_TEXT, max_size=5, unique=True))
def test_scored_csv_roundtrip_property(data, ids):
    # Engagement counts and emotion counts are not part of the format.
    posts = [data.draw(scored_posts(pid)) for pid in ids]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scored.csv"
        write_scored_csv(posts, path)
        back = read_scored_csv(path)
    assert back == posts
    for got, want in zip(back, posts):
        assert repr(got.sentiment) == repr(want.sentiment)
        assert list(map(repr, got.emotions.frequencies)) == list(map(repr, want.emotions.frequencies))
