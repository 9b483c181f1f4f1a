"""Per-post polarity scoring and emotion frequency profiles.

Polarity follows the VADER-style rule family: per-word lexicon valences
adjusted for ALL-CAPS emphasis, booster words and negation within a
three-token lookback, a trailing-punctuation amplifier on the summed score,
and the bounded s/sqrt(s^2 + alpha) map for the compound value. The
constants below are the published constants of that rule family.

Emotion profiling counts category hits against the emotion lexicon on the
stopword-free token stream and reports per-category frequencies
(count / word total). No negation or emphasis adjustments apply on the
emotion side.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .lexicon import EMOTION_CATEGORIES, EmotionLexicon, ValenceLexicon
from .textpipe import CleanDoc, RawPost, remove_stopwords, strip_artifacts, tokenize

_INCR = 0.293
_DECR = -0.293

#: Degree adverbs and their valence increments (sign follows the target word).
BOOSTERS: Mapping[str, float] = {
    "absolutely": _INCR, "amazingly": _INCR, "awfully": _INCR,
    "completely": _INCR, "considerably": _INCR, "decidedly": _INCR,
    "deeply": _INCR, "enormously": _INCR, "entirely": _INCR,
    "especially": _INCR, "exceptionally": _INCR, "extremely": _INCR,
    "fabulously": _INCR, "fully": _INCR, "greatly": _INCR, "highly": _INCR,
    "hugely": _INCR, "incredibly": _INCR, "intensely": _INCR,
    "majorly": _INCR, "more": _INCR, "most": _INCR, "particularly": _INCR,
    "purely": _INCR, "quite": _INCR, "really": _INCR, "remarkably": _INCR,
    "so": _INCR, "substantially": _INCR, "thoroughly": _INCR,
    "totally": _INCR, "tremendously": _INCR, "unbelievably": _INCR,
    "unusually": _INCR, "utterly": _INCR, "very": _INCR, "pretty": _INCR,
    "almost": _DECR, "barely": _DECR, "hardly": _DECR, "kinda": _DECR,
    "less": _DECR, "little": _DECR, "marginally": _DECR,
    "occasionally": _DECR, "partly": _DECR, "scarcely": _DECR,
    "slightly": _DECR, "somewhat": _DECR, "sorta": _DECR,
}

NEGATORS: frozenset[str] = frozenset({
    "aint", "cannot", "cant", "darent", "didnt", "doesnt", "dont", "hadnt",
    "hasnt", "havent", "isnt", "mightnt", "mustnt", "neednt", "neither",
    "never", "no", "none", "nope", "nor", "not", "nothing", "nowhere",
    "oughtnt", "shant", "shouldnt", "wasnt", "werent", "wont", "wouldnt",
})


@dataclass(frozen=True)
class ModifierTables:
    """Negation/booster vocabulary and the scoring constants."""

    negators: frozenset[str] = NEGATORS
    boosters: Mapping[str, float] = field(default_factory=lambda: dict(BOOSTERS))
    caps_boost: float = 0.733
    exclamation_step: float = 0.292
    question_boost: float = 0.18
    negation_factor: float = -0.74
    norm_alpha: float = 15.0
    lookback: int = 3

    def __post_init__(self) -> None:
        if not (-1.0 < self.negation_factor < 0.0):
            raise ValueError("negation_factor must be in (-1, 0)")
        if self.norm_alpha <= 0:
            raise ValueError("norm_alpha must be positive")

    def is_negator(self, normalized: str) -> bool:
        return normalized in self.negators or normalized.endswith("n't")


DEFAULT_MODIFIERS = ModifierTables()


@dataclass(frozen=True)
class SentimentScore:
    negative: float
    neutral: float
    positive: float
    compound: float

    def __post_init__(self) -> None:
        if abs(self.negative + self.neutral + self.positive - 1.0) > 1e-6:
            raise ValueError("polarity proportions must sum to 1")
        if not (-1.0 <= self.compound <= 1.0):
            raise ValueError("compound must lie in [-1, 1]")


@dataclass(frozen=True)
class EmotionProfile:
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]
    word_total: int
    degenerate: bool = False


def _sign(x: float) -> float:
    return math.copysign(1.0, x) if x else 0.0


def _token_valences(doc: CleanDoc, lex: ValenceLexicon, mods: ModifierTables) -> list[float]:
    """Adjusted valence per token; 0.0 for tokens without a lexicon entry."""
    out: list[float] = []
    toks = doc.tokens
    for i, tok in enumerate(toks):
        base = lex.entries.get(tok.normalized)
        if base is None:
            out.append(0.0)
            continue
        v = base
        s = _sign(base)
        if tok.all_caps:
            v += mods.caps_boost * s
        window = toks[max(0, i - mods.lookback):i]
        for prev in window:
            inc = mods.boosters.get(prev.normalized)
            if inc is not None:
                v += inc * s
        if any(mods.is_negator(prev.normalized) for prev in window):
            v *= mods.negation_factor
        out.append(v)
    return out


def compound_score(
    valences: Sequence[float], doc: CleanDoc, mods: ModifierTables = DEFAULT_MODIFIERS
) -> float:
    """Bounded summary score: punctuation-amplified sum mapped through s/sqrt(s^2+a)."""
    s = float(sum(valences))
    amp = mods.exclamation_step * min(doc.trailing_exclamations, 3)
    if doc.trailing_double_question:
        amp += mods.question_boost
    s += amp * _sign(s)
    return s / math.sqrt(s * s + mods.norm_alpha)


def polarity_proportions(
    doc: CleanDoc, lex: ValenceLexicon, mods: ModifierTables = DEFAULT_MODIFIERS
) -> SentimentScore:
    """Negative/neutral/positive proportions plus the compound score.

    Positive tokens contribute their adjusted valence plus one, negative
    tokens their adjusted valence minus one, and zero-valence (matched or
    unmatched) tokens one neutral count; the three sums are normalized to
    proportions. An empty document scores (0, 1, 0) with compound 0.
    """
    vals = _token_valences(doc, lex, mods)
    if not vals:
        return SentimentScore(0.0, 1.0, 0.0, 0.0)
    pos_sum = sum(v + 1.0 for v in vals if v > 0)
    neg_sum = sum(v - 1.0 for v in vals if v < 0)
    neu_count = sum(1 for v in vals if v == 0)
    total = pos_sum + abs(neg_sum) + neu_count
    return SentimentScore(
        negative=abs(neg_sum) / total,
        neutral=neu_count / total,
        positive=pos_sum / total,
        compound=compound_score(vals, doc, mods),
    )


def emotion_profile(doc: CleanDoc, lex: EmotionLexicon) -> EmotionProfile:
    """Per-category hit counts and frequencies on a stopword-free document."""
    n = len(doc.tokens)
    counts = [0] * len(EMOTION_CATEGORIES)
    for tok in doc.tokens:
        emotions = lex.entries.get(tok.normalized)
        if not emotions:
            continue
        for j, cat in enumerate(EMOTION_CATEGORIES):
            if cat in emotions:
                counts[j] += 1
    if n == 0:
        return EmotionProfile(tuple(counts), (0.0,) * len(counts), 0, degenerate=True)
    return EmotionProfile(tuple(counts), tuple(c / n for c in counts), n)


# ---------------------------------------------------------------------------
# Scored posts and their CSV form.

SCORED_COLUMNS = (
    "id",
    "date",
    "city",
    "negative",
    "neutral",
    "positive",
    "compound",
) + tuple(f"emo_{c}" for c in EMOTION_CATEGORIES)


@dataclass(frozen=True)
class ScoredPost:
    id: str
    date: dt.date
    city: str
    sentiment: SentimentScore
    emotions: EmotionProfile
    like_count: int = 0
    reply_count: int = 0
    retweet_count: int = 0


def score_post(
    post: RawPost,
    valence_lex: ValenceLexicon,
    emotion_lex: EmotionLexicon,
    stopwords: frozenset[str],
    mods: ModifierTables = DEFAULT_MODIFIERS,
) -> ScoredPost:
    """Run one already-English post through tokenize -> score -> profile.

    Polarity is computed on the full token stream (negators must survive);
    the emotion profile uses the stopword-free stream.
    """
    doc = tokenize(strip_artifacts(post.text), valence_lex.symbol_tokens(), post.id)
    sent = polarity_proportions(doc, valence_lex, mods)
    emo = emotion_profile(remove_stopwords(doc, stopwords), emotion_lex)
    return ScoredPost(
        id=post.id,
        date=post.date,
        city=post.city,
        sentiment=sent,
        emotions=emo,
        like_count=post.like_count,
        reply_count=post.reply_count,
        retweet_count=post.retweet_count,
    )


def write_scored_csv(posts: Iterable[ScoredPost], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORED_COLUMNS)
        for p in posts:
            s = p.sentiment
            writer.writerow(
                [p.id, p.date.isoformat(), p.city]
                + [repr(x) for x in (s.negative, s.neutral, s.positive, s.compound)]
                + [repr(f) for f in p.emotions.frequencies]
            )


def read_scored_csv(path: str | Path) -> list[ScoredPost]:
    """Read scored rows; engagement counts are not part of this format.

    Post ids must be unique: a repeated id raises ``ValueError`` naming it.
    """
    out: list[ScoredPost] = []
    seen: set[str] = set()
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != SCORED_COLUMNS:
            raise ValueError(f"{path}: unexpected scored CSV header")
        for row in reader:
            if row["id"] in seen:
                raise ValueError(f"{path}: scored post id {row['id']!r} repeats")
            seen.add(row["id"])
            freqs = tuple(float(row[f"emo_{c}"]) for c in EMOTION_CATEGORIES)
            out.append(
                ScoredPost(
                    id=row["id"],
                    date=dt.date.fromisoformat(row["date"]),
                    city=row["city"],
                    sentiment=SentimentScore(
                        float(row["negative"]),
                        float(row["neutral"]),
                        float(row["positive"]),
                        float(row["compound"]),
                    ),
                    emotions=EmotionProfile((0,) * 10, freqs, 0, degenerate=True),
                )
            )
    return out
