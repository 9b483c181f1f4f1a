"""Post cleaning and emphasis-preserving tokenization.

The cleaning order is fixed: ``strip_artifacts`` -> ``is_english`` filter ->
``tokenize`` -> ``remove_stopwords``. Emphasis features (ALL-CAPS flags,
trailing "!" runs, trailing "??" and emoticons) are captured by ``tokenize``
before punctuation is dropped, so scoring downstream can still apply them.

Corpus files are JSON lines, one post per line with fields ``id``, ``date``
("YYYY-MM-DD"), ``city``, ``text``, optional ``like_count``, ``reply_count``,
``retweet_count`` and ``lang``; unknown fields are ignored. ``read_corpus``
parses them lazily, one post per iteration step, and ``write_corpus`` writes
posts as it draws them, so a corpus streams through without being held.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .lexicon import normalize_token

log = logging.getLogger(__name__)

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+|\bt\.co/\S+)")
_HANDLE_RE = re.compile(r"@[\w.]*")
_TRAILING_EXCL_RE = re.compile(r"(!+)\s*$")
_TRAILING_QQ_RE = re.compile(r"(\?{2,})\s*$")

_STRIP_CHARS = string.punctuation + "…“”‘’«»¡¿"
#: Letter-run spam markers dropped alongside punctuation (e.g. "SSS").
MEANINGLESS_TOKENS = frozenset({"sss"})

#: Fraction of alphabetic tokens that must be known English words for an
#: untagged post to pass the language filter.
ENGLISH_RATIO = 0.40


@dataclass(frozen=True)
class RawPost:
    id: str
    date: dt.date
    city: str
    text: str
    like_count: int = 0
    reply_count: int = 0
    retweet_count: int = 0
    lang: str | None = None

    def __post_init__(self) -> None:
        if not self.city:
            raise ValueError("post city must be nonempty")
        for name in ("like_count", "reply_count", "retweet_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"post {name} must be >= 0")


class Token(NamedTuple):
    surface: str
    normalized: str
    all_caps: bool
    is_emoticon: bool


@dataclass(frozen=True)
class CleanDoc:
    tokens: tuple[Token, ...]
    trailing_exclamations: int
    trailing_double_question: bool
    source_id: str = ""

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


def strip_artifacts(text: str) -> str:
    """Remove URLs, @-handles and '#' symbols (the tag word is kept).

    Idempotent: URLs are matched again after '#' removal, because dropping a
    '#' can join a URL back together ("http#s://x", "t.#co/x").
    """
    text = _URL_RE.sub(" ", text)
    text = _HANDLE_RE.sub(" ", text)
    if "#" in text:
        text = _URL_RE.sub(" ", text.replace("#", ""))
    return " ".join(text.split())


def is_english(post: RawPost, wordlist: Iterable[str]) -> bool:
    """Language filter: honor the post's tag, else a wordlist ratio heuristic.

    ``post.text`` must already be artifact-stripped. Untagged posts pass when
    at least 40% of their alphabetic tokens appear in the reference
    wordlist; posts with no alphabetic tokens are kept.
    """
    if post.lang is not None:
        return post.lang == "en"
    words = set(wordlist) if not isinstance(wordlist, (set, frozenset)) else wordlist
    alpha = [chunk.strip(_STRIP_CHARS).casefold() for chunk in post.text.split()]
    alpha = [a for a in alpha if a.isalpha()]
    if not alpha:
        return True
    hits = sum(1 for a in alpha if a in words)
    return hits / len(alpha) >= ENGLISH_RATIO


def tokenize(text: str, emoticons: frozenset[str] = frozenset(), source_id: str = "") -> CleanDoc:
    """Split artifact-stripped text into emphasis-annotated tokens.

    Emoticon chunks are matched against ``emoticons`` before punctuation is
    stripped; the length of a text-final "!" run and the presence of a
    text-final "??"-or-longer run are recorded on the document; remaining
    punctuation and spam markers are dropped. Stopwords are retained here
    (removal is a separate, later step). ``Token.normalized`` is the
    lexicon key, ``lexicon.normalize_token`` of the surface.
    """
    excl = _TRAILING_EXCL_RE.search(text)
    n_excl = len(excl.group(1)) if excl else 0
    double_q = _TRAILING_QQ_RE.search(text) is not None

    tokens: list[Token] = []
    for chunk in text.split():
        if chunk in emoticons:
            tokens.append(Token(chunk, normalize_token(chunk), False, True))
            continue
        stripped = chunk.strip(_STRIP_CHARS)
        if not stripped:
            continue
        if stripped in emoticons:
            tokens.append(Token(stripped, normalize_token(stripped), False, True))
            continue
        folded = stripped.casefold()
        if folded in MEANINGLESS_TOKENS:
            continue
        # casefold changes an ASCII string only through its letters; other
        # changed strings may be letter-free symbols ("Ⅻ"), kept verbatim
        if folded != stripped and not stripped.isascii() and not any(
            c.isalpha() for c in stripped
        ):
            folded = stripped
        all_caps = stripped.isupper() and sum(1 for c in stripped if c.isalpha()) >= 2
        tokens.append(Token(stripped, folded, all_caps, False))
    return CleanDoc(tuple(tokens), n_excl, double_q, source_id)


def remove_stopwords(doc: CleanDoc, stoplist: Iterable[str]) -> CleanDoc:
    """Drop tokens whose normalized form is in the stoplist; emphasis is kept."""
    stops = set(stoplist) if not isinstance(stoplist, (set, frozenset)) else stoplist
    kept = tuple(t for t in doc.tokens if t.normalized not in stops)
    return CleanDoc(kept, doc.trailing_exclamations, doc.trailing_double_question, doc.source_id)


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One word per line, case-folded."""
    with Path(path).open(encoding="utf-8") as fh:
        return frozenset(line.strip().casefold() for line in fh if line.strip())


def parse_post(obj: dict) -> RawPost:
    """Build a RawPost from a decoded JSON object, ignoring unknown fields.

    The day field is ``date`` ("YYYY-MM-DD"); ``timestamp`` is accepted as an
    alias.
    """
    try:
        date = dt.date.fromisoformat(str(obj.get("date", obj.get("timestamp"))))
        return RawPost(
            id=str(obj["id"]),
            date=date,
            city=str(obj["city"]),
            text=str(obj["text"]),
            like_count=int(obj.get("like_count", 0)),
            reply_count=int(obj.get("reply_count", 0)),
            retweet_count=int(obj.get("retweet_count", 0)),
            lang=obj.get("lang"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad post record: {exc}") from exc


class CorpusReader:
    """The posts of a JSON-lines corpus, parsed lazily in file order.

    Iterate it once. ``posts_read`` counts the posts yielded so far and
    ``malformed`` the lines skipped so far; with ``skip_malformed`` false the
    first bad line raises ``ValueError`` with file/line context instead.
    """

    def __init__(self, path: str | Path, skip_malformed: bool = False) -> None:
        self.path = path
        self.skip_malformed = skip_malformed
        self.posts_read = 0
        self.malformed = 0
        # opened now, so a missing file fails before any output is written
        self._fh = Path(path).open(encoding="utf-8")

    def __iter__(self) -> Iterator[RawPost]:
        with self._fh as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    post = parse_post(json.loads(line))
                except (json.JSONDecodeError, ValueError) as exc:
                    if not self.skip_malformed:
                        raise ValueError(f"{self.path}:{lineno}: {exc}") from exc
                    self.malformed += 1
                    log.warning("%s:%d: skipping malformed line", self.path, lineno)
                    continue
                self.posts_read += 1
                yield post


def read_corpus(path: str | Path, skip_malformed: bool = False) -> CorpusReader:
    """Open a JSON-lines corpus for one lazy pass over its posts."""
    return CorpusReader(path, skip_malformed)


def corpus_line(p: RawPost) -> str:
    """One post as a corpus JSON line, newline included."""
    rec = {
        "id": p.id,
        "date": p.date.isoformat(),
        "city": p.city,
        "text": p.text,
        "like_count": p.like_count,
        "reply_count": p.reply_count,
        "retweet_count": p.retweet_count,
    }
    if p.lang is not None:
        rec["lang"] = p.lang
    return json.dumps(rec, ensure_ascii=False) + "\n"


def write_corpus(posts: Iterable[RawPost], path: str | Path) -> None:
    """Write posts as JSON lines, each as soon as ``posts`` yields it."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(corpus_line, posts))
