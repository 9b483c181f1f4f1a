"""Post cleaning and emphasis-preserving tokenization.

The cleaning order is fixed: ``strip_artifacts`` -> ``is_english`` filter ->
``tokenize`` -> ``remove_stopwords``. Emphasis features (ALL-CAPS flags,
trailing "!" runs, trailing "??" and emoticons) are captured by ``tokenize``
before punctuation is dropped, so scoring downstream can still apply them.

The per-chunk rules live in ``chunk_token`` (tokenizing) and
``language_class`` (the language filter). ``sentiment.ScoringTable``
memoizes them for one command run, along with each chunk's rule-3 flag
and scoring role, so a repeated chunk costs one dict lookup; ``clean``,
``score`` and ``pipeline`` each build one. Its ``entries(post.text)`` splits
a post's text and looks its chunks up once (``english_entries``); that one
entry list serves the language filter, scoring and the rule-3 count.
``is_english``, ``tokenize`` and ``remove_stopwords`` derive the same from
the text alone; the tests hold the table to them.

Corpus files are JSON lines in UTF-8, one object per line: ``id`` (string
or integer), ``date`` ("YYYY-MM-DD"), ``city`` (a nonempty string), ``text``
and optional ``lang`` (strings), optional ``like_count``, ``reply_count``,
``retweet_count`` (JSON integers >= 0). A line ends at "\\n" (or "\\r\\n").
``RawPost`` is a plain immutable record: ``parse_post``, where a corpus line
arrives, checks every field, and a post the program derives from a checked
one keeps it valid. ``read_corpus`` parses a corpus lazily, one post per
iteration step, and ``write_corpus`` writes posts as it draws them, so a
corpus streams through without being held.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import functools
import json
import logging
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Container, Iterable, Iterator, NamedTuple

from .lexicon import normalize_token, skip_byte_order_mark, word_lines

if TYPE_CHECKING:
    from .sentiment import ScoredChunk, ScoringTable

log = logging.getLogger(__name__)

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+|\bt\.co/\S+)")
_HANDLE_RE = re.compile(r"@[\w.]*")
#: The encoder of every corpus line; ``json.dumps(obj, ensure_ascii=False)``
#: would build a new one per line. It keeps no state between calls.
_JSON = json.JSONEncoder(ensure_ascii=False)

_STRIP_CHARS = string.punctuation + "…“”‘’«»¡¿"
#: Letter-run spam markers dropped alongside punctuation (e.g. "SSS").
MEANINGLESS_TOKENS = frozenset({"sss"})

#: Fraction of alphabetic tokens that must be known English words for an
#: untagged post to pass the language filter.
ENGLISH_RATIO = 0.40

#: Language-filter classes of a whitespace chunk (see ``language_class``).
NOT_ALPHA, KNOWN_WORD, UNKNOWN_WORD = 0, 1, 2


class RawPost(NamedTuple):
    """One corpus post; ``parse_post`` refuses an empty city and negative counts."""

    id: str
    date: dt.date
    city: str
    text: str
    like_count: int = 0
    reply_count: int = 0
    retweet_count: int = 0
    lang: str | None = None


class Token(NamedTuple):
    #: The lexicon key, in ``lexicon.normalize_token`` form.
    normalized: str
    all_caps: bool


@dataclass(frozen=True)
class CleanDoc:
    tokens: tuple[Token, ...]
    trailing_exclamations: int
    trailing_double_question: bool


def strip_artifacts(text: str) -> str:
    """Remove URLs, @-handles and '#' symbols (the tag word is kept).

    Idempotent: URLs are matched again after '#' removal, because dropping a
    '#' can join a URL back together ("http#s://x", "t.#co/x"). Text without
    '/', '@', '#' or "www." holds nothing to remove (every URL form needs '/'
    or "www.", every handle '@'), so only its whitespace is normalized.
    """
    if "/" not in text and "@" not in text and "#" not in text and "www." not in text:
        return " ".join(text.split())
    return _strip_matches(text)


def _strip_matches(text: str) -> str:
    """``strip_artifacts`` by its patterns alone, without the fast path."""
    text = _URL_RE.sub(" ", text)
    text = _HANDLE_RE.sub(" ", text)
    if "#" in text:
        text = _URL_RE.sub(" ", text.replace("#", ""))
    return " ".join(text.split())


def language_class(chunk: str, words: Container[str]) -> int:
    """The language filter's class of one whitespace chunk.

    ``NOT_ALPHA`` unless the chunk, punctuation-stripped and case-folded, is
    all letters; then ``KNOWN_WORD`` or ``UNKNOWN_WORD`` by ``words``.
    """
    word = chunk.strip(_STRIP_CHARS).casefold()
    if not word.isalpha():
        return NOT_ALPHA
    return KNOWN_WORD if word in words else UNKNOWN_WORD


def is_english(post: RawPost, wordlist: Iterable[str]) -> bool:
    """Language filter: honor the post's tag, else a wordlist ratio heuristic.

    ``post.text`` must already be artifact-stripped. Untagged posts pass when
    at least 40% of their alphabetic tokens appear in the reference
    wordlist; posts with no alphabetic tokens are kept. ``english_entries``
    applies the same filter through a ``sentiment.ScoringTable``.
    """
    if post.lang is not None:
        return post.lang == "en"
    words = set(wordlist) if not isinstance(wordlist, (set, frozenset)) else wordlist
    return _mostly_known([language_class(chunk, words) for chunk in post.text.split()])


def _mostly_known(classes: list[int]) -> bool:
    """The wordlist ratio rule of ``is_english`` over the language classes of a post's chunks."""
    n_alpha = len(classes) - classes.count(NOT_ALPHA)
    if not n_alpha:
        return True
    return classes.count(KNOWN_WORD) / n_alpha >= ENGLISH_RATIO


def chunk_token(chunk: str, emoticons: Container[str] = frozenset()) -> Token | None:
    """The token of one whitespace chunk, or ``None`` when the chunk is dropped.

    An emoticon chunk, whole or punctuation-stripped, is one token, never
    ALL-CAPS; otherwise punctuation is stripped, and empty chunks and spam
    markers are dropped. A token's key is ``normalize_token(stripped)``.
    """
    if chunk in emoticons:
        return Token(normalize_token(chunk), False)
    stripped = chunk.strip(_STRIP_CHARS)
    if not stripped:
        return None
    key = normalize_token(stripped)
    if stripped in emoticons:
        return Token(key, False)
    if key in MEANINGLESS_TOKENS:
        return None
    all_caps = stripped.isupper() and sum(1 for c in stripped if c.isalpha()) >= 2
    return Token(key, all_caps)


def trailing_emphasis(text: str) -> tuple[int, bool]:
    """The length of the text-final "!" run and whether the text ends in "??".

    Trailing whitespace is ignored.
    """
    tail = text.rstrip()
    return len(tail) - len(tail.rstrip("!")), tail.endswith("??")


def tokenize(text: str, emoticons: frozenset[str] = frozenset()) -> CleanDoc:
    """Split artifact-stripped text into emphasis-annotated tokens.

    Each whitespace chunk becomes ``chunk_token(chunk, emoticons)``, so
    emoticons are matched before punctuation is stripped, and remaining
    punctuation and spam markers are dropped. The length of a text-final "!"
    run and the presence of a text-final "??"-or-longer run are recorded on
    the document. Stopwords are retained here (removal is a separate, later
    step).
    """
    n_excl, double_q = trailing_emphasis(text)
    tokens = [tok for chunk in text.split() if (tok := chunk_token(chunk, emoticons)) is not None]
    return CleanDoc(tuple(tokens), n_excl, double_q)


def remove_stopwords(doc: CleanDoc, stoplist: Iterable[str]) -> CleanDoc:
    """Drop tokens whose normalized form is in the stoplist; emphasis is kept."""
    stops = set(stoplist) if not isinstance(stoplist, (set, frozenset)) else stoplist
    kept = tuple(t for t in doc.tokens if t.normalized not in stops)
    return CleanDoc(kept, doc.trailing_exclamations, doc.trailing_double_question)


def english_entries(post: RawPost, chunks: ScoringTable) -> list[ScoredChunk] | None:
    """The entries of the post's whitespace chunks, or ``None`` when it is not English.

    ``is_english`` by one lookup of the post's chunks in ``chunks``, a table
    over the reference wordlist; ``post.text`` must already be
    artifact-stripped. A post tagged other than "en" is not looked up. The
    entries with a token are ``tokenize``'s tokens, in order.
    """
    lang = post.lang
    if lang is not None and lang != "en":
        return None
    entries = chunks.entries(post.text)
    if lang is None and not _mostly_known([e.language for e in entries]):
        return None
    return entries


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One word per line, case-folded; the file is read as a lexicon is (see ``lexicon``)."""
    path = Path(path)
    with word_lines(path, path.read_bytes()) as lines:
        return frozenset(line.strip().casefold() for line in lines) - {""}


_DAY_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@functools.lru_cache(maxsize=4096)  # a file names far fewer days than lines
def parse_day(text: str) -> dt.date:
    """The day of a "YYYY-MM-DD" string, the one date form a command reads.

    Others raise ``ValueError("bad date '…', expected YYYY-MM-DD")``, though
    ``dt.date.fromisoformat`` takes "20200224" and "2020-W09-1" from Python
    3.11 on. Memoized.
    """
    if _DAY_RE.fullmatch(text):
        with contextlib.suppress(ValueError):  # a month or day out of range
            return dt.date.fromisoformat(text)
    raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")


_COUNTS = ("like_count", "reply_count", "retweet_count")


def parse_post(obj: dict) -> RawPost:
    """Build a RawPost from a decoded JSON object, ignoring unknown fields.

    The day field is ``date`` ("YYYY-MM-DD"); ``timestamp`` is accepted as an
    alias. Each field must have the JSON type and range the module docstring
    gives it: 3.7, "3", true and -1 are no count, and null and "" are no
    city. A value that is no object raises too.
    """
    try:
        date = parse_day(str(obj.get("date", obj.get("timestamp"))))
        pid, city, text, lang = obj["id"], obj["city"], obj["text"], obj.get("lang")
        if type(pid) is int:  # tweet dumps carry integer ids (a bool's type is not int)
            pid = str(pid)
        for name, value in (("id", pid), ("city", city), ("text", text),
                            ("lang", "" if lang is None else lang)):
            if type(value) is not str:
                raise ValueError(f"{name} {value!r} is no string")
        if not city:
            raise ValueError("post city must be nonempty")
        counts = [obj.get(name, 0) for name in _COUNTS]
        for name, count in zip(_COUNTS, counts):
            if type(count) is not int:  # bool is a subclass of int
                raise ValueError(f"{name} {count!r} is no integer")
            if count < 0:
                raise ValueError(f"post {name} must be >= 0")
        return RawPost(pid, date, city, text, *counts, lang)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad post record: {exc}") from exc


class CorpusReader:
    """The posts of a JSON-lines corpus, parsed lazily in file order.

    Iterate it once. ``posts_read`` counts the posts yielded so far and
    ``malformed`` the lines skipped so far; with ``skip_malformed`` false the
    first bad line raises ``ValueError`` with file/line context instead. A
    line that is no UTF-8 is bad, a lone "\\r" ends no line, and a leading
    byte-order mark is skipped (``lexicon.skip_byte_order_mark``).
    """

    def __init__(self, path: str | Path, skip_malformed: bool = False) -> None:
        self.path = path
        self.skip_malformed = skip_malformed
        self.posts_read = 0
        self.malformed = 0
        # opened now, so a missing file fails before any output is written
        self._fh = skip_byte_order_mark(Path(path).open("rb"))

    def __iter__(self) -> Iterator[RawPost]:
        with self._fh as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    # decoded line by line, so a byte that is no UTF-8 spoils one line
                    line = raw.decode()
                    if not line.strip():
                        continue
                    post = parse_post(json.loads(line))
                except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
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
    return _JSON.encode(rec) + "\n"


def write_corpus(posts: Iterable[RawPost], path: str | Path) -> None:
    """Write posts as JSON lines, each as soon as ``posts`` yields it."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(corpus_line, posts))
