"""Per-post polarity scoring and emotion frequency profiles.

Polarity follows the VADER-style rule family: per-word lexicon valences
adjusted for ALL-CAPS emphasis, booster words and negation within a
three-token lookback, a trailing-punctuation amplifier on the summed score,
and the bounded s/sqrt(s^2 + alpha) map for the compound value. The rules
are fixed: their constants (``CAPS_BOOST``, ``EXCLAMATION_STEP``,
``QUESTION_BOOST``, ``NEGATION_FACTOR``, ``NORM_ALPHA``, ``LOOKBACK`` and the
±0.293 steps of ``BOOSTERS``) and the ``NEGATORS`` vocabulary are the
published ones (Hutto & Gilbert, "VADER", ICWSM 2014).

Emotion profiling counts category hits against the emotion lexicon on the
stopword-free token stream and reports the ten per-category frequencies
(hits / token count), all 0.0 for a post with no stopword-free token. No
negation or emphasis adjustments apply on the emotion side.

Both rule sets are token-local apart from the lookback window, so each
token's part can be looked up once and kept. ``clean``, ``score`` and
``pipeline`` each build one ``ScoringTable``, the package's one memo from a
raw whitespace chunk to its ``ScoredChunk``: the chunk's token, language
class and rule-3 flag (``textpipe``'s per-chunk rules), then its token's
role (valence after the ALL-CAPS adjustment, sign, booster increment,
negator flag, emotion categories), found by key lookups in the lexicons.
The table holds at most ``CHUNK_TABLE_SIZE`` entries (about 5 MB when full)
and is emptied when full; nothing outlives the command run.
``score_entries`` scores a post from the entries of its chunks:
``pipeline`` passes the entries its language filter looked up, and
``score_post(post, chunks)`` (the ``score`` command) looks them up itself.
``polarity_proportions`` and ``emotion_profile`` score a ``tokenize``
document. Both run through the same core (``_adjusted_valences``,
``_proportions``, ``_profile``), so they agree bit for bit.

``SentimentScore`` and ``ScoredPost`` are plain immutable records
(``NamedTuple``). ``read_scored_csv``, where scored rows arrive from a file,
checks every field of each row; a score the program computes keeps the
ranges by construction, and a property test holds it to them.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path
from types import MappingProxyType
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .lexicon import EMOTION_CATEGORIES, EmotionLexicon, ValenceLexicon
from .textpipe import (
    CleanDoc, RawPost, Token, chunk_token, language_class, parse_day, trailing_emphasis,
)
# Re-exported: the benchmark tracer (bench/spans.py) wraps them under these names.
from .textpipe import remove_stopwords, strip_artifacts, tokenize  # noqa: F401

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

#: Added to an ALL-CAPS word's valence, in the direction of its sign.
CAPS_BOOST = 0.733
#: Amplifier per trailing "!", for at most three of them.
EXCLAMATION_STEP = 0.292
#: Amplifier for a trailing "??".
QUESTION_BOOST = 0.18
#: Multiplies a valence with a negator in its lookback window.
NEGATION_FACTOR = -0.74
#: The alpha of the compound map s / sqrt(s^2 + alpha).
NORM_ALPHA = 15.0
#: How many preceding tokens boosters and negators reach.
LOOKBACK = 3


def _is_negator(normalized: str) -> bool:
    return normalized in NEGATORS or normalized.endswith("n't")


class SentimentScore(NamedTuple):
    """Polarity proportions in [0, 1], which sum to 1, and a compound score in [-1, 1].

    ``read_scored_csv`` refuses a row that breaks these rules; the scores the
    program computes keep them by construction.
    """

    negative: float
    neutral: float
    positive: float
    compound: float


def _sign(x: float) -> float:
    return math.copysign(1.0, x) if x else 0.0


class TokenRole(NamedTuple):
    """What polarity and emotion scoring need of one token."""

    #: Lexicon valence after the ALL-CAPS adjustment; ``None`` when unlisted.
    valence: float | None
    #: Sign of the lexicon valence (0.0 for a zero or missing valence).
    sign: float
    #: Booster increment; ``None`` for a non-booster.
    boost: float | None
    negator: bool
    #: Positions in ``EMOTION_CATEGORIES`` of the token's emotions.
    emotions: tuple[int, ...]


_NO_EMOTIONS: Mapping[str, tuple[int, ...]] = MappingProxyType({})


def _role_fields(
    tok: Token,
    valences: Mapping[str, float],
    emotions: Mapping[str, tuple[int, ...]],
) -> tuple[float | None, float, float | None, bool, tuple[int, ...]]:
    """A token's ``TokenRole`` fields, found by key lookups in the lexicons and ``BOOSTERS``."""
    key = tok.normalized
    base = valences.get(key)
    s = _sign(base) if base is not None else 0.0
    v = base
    if base is not None and tok.all_caps:
        v += CAPS_BOOST * s
    return v, s, BOOSTERS.get(key), _is_negator(key), emotions.get(key, ())


def _adjusted_valences(roles: Sequence[TokenRole | ScoredChunk]) -> list[float]:
    """Adjusted valence per token; 0.0 for tokens without a lexicon entry.

    The ALL-CAPS adjustment is in ``TokenRole.valence``; boosters in the
    lookback window are added in window order, then negation applies.
    """
    out: list[float] = []
    for i, role in enumerate(roles):
        v = role.valence
        if v is None:
            out.append(0.0)
            continue
        s = role.sign
        # one walk over the lookback window finds boosters and any negator
        negated = False
        for prev in roles[max(0, i - LOOKBACK):i]:
            inc = prev.boost
            if inc is not None:
                v += inc * s
            if not negated:
                negated = prev.negator
        if negated:
            v *= NEGATION_FACTOR
        out.append(v)
    return out


def _token_valences(doc: CleanDoc, lex: ValenceLexicon) -> list[float]:
    """Adjusted valence per token of ``doc``; 0.0 for tokens without a lexicon entry."""
    entries = lex.entries
    roles = [TokenRole(*_role_fields(t, entries, _NO_EMOTIONS)) for t in doc.tokens]
    return _adjusted_valences(roles)


def _compound(
    valences: Sequence[float], trailing_exclamations: int, trailing_double_question: bool
) -> float:
    """Bounded summary score: punctuation-amplified sum mapped through s/sqrt(s^2+a)."""
    s = float(sum(valences))
    amp = EXCLAMATION_STEP * min(trailing_exclamations, 3)
    if trailing_double_question:
        amp += QUESTION_BOOST
    s += amp * _sign(s)
    return s / math.sqrt(s * s + NORM_ALPHA)


def _proportions(
    vals: list[float], trailing_exclamations: int, trailing_double_question: bool
) -> SentimentScore:
    if not vals:
        return SentimentScore(0.0, 1.0, 0.0, 0.0)
    pos_sum = sum([v + 1.0 for v in vals if v > 0])
    neg_sum = sum([v - 1.0 for v in vals if v < 0])
    neu_count = vals.count(0)
    total = pos_sum + abs(neg_sum) + neu_count
    return SentimentScore(
        abs(neg_sum) / total,
        neu_count / total,
        pos_sum / total,
        _compound(vals, trailing_exclamations, trailing_double_question),
    )


def polarity_proportions(doc: CleanDoc, lex: ValenceLexicon) -> SentimentScore:
    """Negative/neutral/positive proportions plus the compound score.

    Positive tokens contribute their adjusted valence plus one, negative
    tokens their adjusted valence minus one, and zero-valence (matched or
    unmatched) tokens one neutral count; the three sums are normalized to
    proportions. An empty document scores (0, 1, 0) with compound 0.
    """
    vals = _token_valences(doc, lex)
    return _proportions(vals, doc.trailing_exclamations, doc.trailing_double_question)


def _profile(token_emotions: Sequence[tuple[int, ...]]) -> tuple[float, ...]:
    """Per-category frequencies from each token's category positions; all 0.0 for no tokens."""
    n = len(token_emotions)
    counts = [0] * len(EMOTION_CATEGORIES)
    for indices in token_emotions:
        for j in indices:
            counts[j] += 1
    return tuple([c / n for c in counts]) if n else (0.0,) * len(counts)


def emotion_profile(doc: CleanDoc, lex: EmotionLexicon) -> tuple[float, ...]:
    """Per-category frequencies (hits / token count) on a stopword-free document."""
    indices = lex.category_indices()
    return _profile([indices.get(tok.normalized, ()) for tok in doc.tokens])


class ScoredChunk(NamedTuple):
    """What the text layers derive from one whitespace chunk: its token,
    language class and rule-3 flag, then its token's ``TokenRole`` fields."""

    token: Token | None
    #: ``textpipe.language_class`` of the chunk.
    language: int
    #: Whether the chunk survives rule 3: it has a token and the token is no stopword.
    kept: bool
    valence: float | None
    sign: float
    boost: float | None
    negator: bool
    emotions: tuple[int, ...]


#: The role fields of a chunk without a token.
_NO_ROLE = TokenRole(None, 0.0, None, False, ())

#: Entries a ``ScoringTable`` holds before it is emptied.
CHUNK_TABLE_SIZE = 1 << 14


class ScoringTable:
    """One command's memo from raw whitespace chunk to its ``ScoredChunk``.

    Every per-chunk rule (tokenizing, the language class, the stopword test,
    the token's role) depends on the chunk alone, given the lexicons, the
    wordlist and the stopwords, so a post's entries equal what ``tokenize``,
    ``is_english`` and ``remove_stopwords`` derive from it. ``wordlist`` is
    needed only where the table serves ``is_english``; with no
    ``emotion_lex`` no token has emotions. Build one per command run: the
    table keeps no state beyond it. It holds at most ``CHUNK_TABLE_SIZE``
    entries and is emptied when full, which bounds its memory on corpora
    whose vocabulary keeps growing; an emptied table rebuilds the same
    entries, so outputs do not depend on when it was emptied.
    """

    def __init__(
        self,
        valence_lex: ValenceLexicon,
        emotion_lex: EmotionLexicon | None,
        stopwords: Container[str],
        wordlist: Container[str] = frozenset(),
    ) -> None:
        self._emoticons = valence_lex.symbol_tokens()
        self._wordlist = wordlist
        self._stopwords = stopwords
        self._valences = valence_lex.entries
        self._emotions = _NO_EMOTIONS if emotion_lex is None else emotion_lex.category_indices()
        self._entries: dict[str, ScoredChunk] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _add(self, chunk: str) -> ScoredChunk:
        """Build and store the entry of a chunk the table does not hold."""
        if len(self._entries) >= CHUNK_TABLE_SIZE:
            self._entries.clear()
        token = chunk_token(chunk, self._emoticons)
        head = (token, language_class(chunk, self._wordlist),
                token is not None and token.normalized not in self._stopwords)
        role = _NO_ROLE if token is None else _role_fields(token, self._valences, self._emotions)
        entry = self._entries[chunk] = ScoredChunk._make(head + role)
        return entry

    def entries(self, text: str) -> list[ScoredChunk]:
        """The entry of each whitespace chunk of ``text``, in order."""
        chunks = text.split()
        entries = self._entries
        try:
            return list(map(entries.__getitem__, chunks))
        except KeyError:
            get = entries.get
            return [get(c) or self._add(c) for c in chunks]


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


class ScoredPost(NamedTuple):
    id: str
    date: dt.date
    city: str
    sentiment: SentimentScore
    #: The ``emo_*`` frequencies, in ``EMOTION_CATEGORIES`` order.
    emotions: tuple[float, ...]
    like_count: int = 0
    reply_count: int = 0
    retweet_count: int = 0


def score_post(post: RawPost, chunks: ScoringTable) -> ScoredPost:
    """Score one already-English post: polarity and its emotion profile.

    ``post.text`` must already be artifact-stripped. Its chunks are looked
    up in ``chunks``, whose lexicons and stopwords score it, and scored by
    ``score_entries``.
    """
    return score_entries(post, chunks.entries(post.text))


def score_entries(post: RawPost, entries: Sequence[ScoredChunk]) -> ScoredPost:
    """Score a post from the ``ScoringTable`` entries of its whitespace chunks, in order.

    The entries with a token are scored exactly as ``polarity_proportions``
    scores ``tokenize``'s document and ``emotion_profile`` its stopword-free
    form: polarity on the full token stream (negators must survive),
    emotions on the stopword-free one (the entries ``kept`` by rule 3).
    """
    tokens = [e for e in entries if e.token is not None]
    sent = _proportions(_adjusted_valences(tokens), *trailing_emphasis(post.text))
    emo = _profile([e.emotions for e in entries if e.kept])
    return ScoredPost(
        post.id, post.date, post.city, sent, emo,
        post.like_count, post.reply_count, post.retweet_count,
    )


def scored_row(p: ScoredPost) -> list[str]:
    """One scored post as its CSV fields, in ``SCORED_COLUMNS`` order."""
    s = p.sentiment
    return [
        p.id, p.date.isoformat(), p.city,
        repr(s.negative), repr(s.neutral), repr(s.positive), repr(s.compound),
        *map(repr, p.emotions),
    ]


def write_scored_csv(posts: Iterable[ScoredPost], path: str | Path) -> None:
    """Write scored posts as CSV rows, each as soon as ``posts`` yields it."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORED_COLUMNS)
        writer.writerows(map(scored_row, posts))


def read_scored_csv(path: str | Path) -> list[ScoredPost]:
    """Read scored rows; engagement counts are not part of this format.

    Every row must have one field per column of ``SCORED_COLUMNS``, a
    YYYY-MM-DD date, float scores in the ranges ``SentimentScore`` gives,
    ``emo_*`` frequencies in [0, 1] (none of them ``nan``) and an id no
    earlier row has, or ``ValueError`` names the file and line; blank lines
    are skipped. Dates are read by the memoized ``parse_day``.
    """
    width = len(SCORED_COLUMNS)
    out: list[ScoredPost] = []
    seen: set[str] = set()
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != SCORED_COLUMNS:
            raise ValueError(f"{path}: unexpected scored CSV header")
        for row in reader:
            try:
                if len(row) != width:
                    if not row:
                        continue
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                pid, city = row[0], row[2]
                if pid in seen:
                    raise ValueError(f"scored post id {pid!r} repeats")
                seen.add(pid)
                day = parse_day(row[1])
                scores = tuple(map(float, row[3:]))
                sentiment = SentimentScore(*scores[:4])
                negative, neutral, positive, compound = sentiment
                # every comparison is written so that a nan fails it
                if not (0.0 <= negative <= 1.0 and 0.0 <= neutral <= 1.0
                        and 0.0 <= positive <= 1.0):
                    raise ValueError("polarity proportions must lie in [0, 1]")
                if not abs(negative + neutral + positive - 1.0) <= 1e-6:
                    raise ValueError("polarity proportions must sum to 1")
                if not -1.0 <= compound <= 1.0:
                    raise ValueError("compound must lie in [-1, 1]")
                emotions = scores[4:]
                # min and max can step over a nan; the sum cannot
                if not (0.0 <= min(emotions) and max(emotions) <= 1.0) or math.isnan(sum(emotions)):
                    raise ValueError("emotion frequencies must lie in [0, 1]")
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            out.append(ScoredPost(pid, day, city, sentiment, emotions))
    return out
