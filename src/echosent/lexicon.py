"""Immutable valence and emotion lexicon stores.

File formats (UTF-8, tab separated, one record per line; a leading byte-order
mark is skipped, blank lines are skipped, and a line ends at "\\n", "\\r\\n"
or "\\r" as in a text-mode file):

* valence lexicon: ``token<TAB>score`` with optional extra columns that are
  ignored, score a real number in [-4, 4].
* emotion lexicon: ``token<TAB>emotion<TAB>flag`` triples with flag 0 or 1;
  a token's emotion set is the categories flagged 1.

A bad record, or a line that is no UTF-8, raises ``ValueError`` naming the
file and line; ``textpipe.load_wordlist`` reads word lists the same way. A
store's ``checksum`` is the sha256 of the bytes it was parsed from, and its
``entries`` are keyed by ``normalize_token``: tokens containing letters are
case-folded; pure-symbol tokens (emoticons such as ":-)") are kept
verbatim. Look a token up as ``entries.get(normalize_token(token))``.
"""

from __future__ import annotations

import codecs
import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

log = logging.getLogger(__name__)

#: The ten emotion categories, in the column order used by scored output.
EMOTION_CATEGORIES = (
    "anticipation",
    "positive",
    "negative",
    "sadness",
    "disgust",
    "joy",
    "anger",
    "surprise",
    "fear",
    "trust",
)

VALENCE_MIN = -4.0
VALENCE_MAX = 4.0


def normalize_token(token: str) -> str:
    """Case-fold tokens that contain letters; pure-symbol tokens are kept verbatim."""
    return token.casefold() if any(ch.isalpha() for ch in token) else token


@dataclass(frozen=True)
class ValenceLexicon:
    """Token -> signed valence store with provenance."""

    entries: Mapping[str, float]
    source: str
    checksum: str
    _symbols: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Built once per lexicon: scoring asks for it on every post.
        symbols = frozenset(t for t in self.entries if not any(c.isalpha() for c in t))
        object.__setattr__(self, "_symbols", symbols)

    def symbol_tokens(self) -> frozenset[str]:
        """Tokens with no letters (emoticons); the tokenizer's emoticon inventory."""
        return self._symbols


@dataclass(frozen=True)
class EmotionLexicon:
    """Token -> emotion-category set store with provenance."""

    entries: Mapping[str, frozenset[str]]
    source: str
    checksum: str
    _indices: Mapping[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Built once per lexicon: emotion profiling asks for it on every post.
        indices = {
            tok: tuple(j for j, cat in enumerate(EMOTION_CATEGORIES) if cat in emotions)
            for tok, emotions in self.entries.items()
        }
        object.__setattr__(self, "_indices", MappingProxyType(indices))

    def category_indices(self) -> Mapping[str, tuple[int, ...]]:
        """Token -> positions in ``EMOTION_CATEGORIES`` of its emotions, in that order."""
        return self._indices


def _lines(path: Path, data: bytes) -> Iterator[tuple[int, str]]:
    """The number and text of each nonblank line of a word file's bytes.

    A leading UTF-8 byte-order mark is skipped. Lines end at "\\n", "\\r\\n"
    or "\\r", as in a text-mode file, and are decoded one by one, so a line
    that is no UTF-8 raises ``ValueError`` naming the file and that line.
    """
    for lineno, raw in enumerate(data.removeprefix(codecs.BOM_UTF8).splitlines(), 1):
        try:
            line = raw.decode()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if line.strip():
            yield lineno, line


def _read_records(path: Path, parse: Callable[[list[str]], object]) -> tuple[list, str]:
    """``(normalize_token(token), value)`` of each nonblank line whose tab-split
    fields (the token first) ``parse`` to a value other than ``None``, and the
    file's sha256."""
    data = path.read_bytes()
    records = []
    for lineno, line in _lines(path, data):
        try:
            fields = line.split("\t")
            token = fields[0].strip()
            if not token:
                raise ValueError("empty token")
            value = parse(fields)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if value is not None:
            records.append((normalize_token(token), value))
    return records, hashlib.sha256(data).hexdigest()


def _valence(fields: list[str]) -> float:
    if len(fields) < 2:
        raise ValueError("expected at least 2 tab-separated fields")
    try:
        valence = float(fields[1])
    except ValueError:
        raise ValueError(f"non-numeric valence {fields[1]!r}") from None
    if not VALENCE_MIN <= valence <= VALENCE_MAX:  # nan fails it too
        raise ValueError(f"valence {valence} outside [-4, 4]")
    return valence


def _flagged_emotion(fields: list[str]) -> str | None:
    if len(fields) != 3:
        raise ValueError("expected word<TAB>emotion<TAB>flag")
    _, emotion, flag = fields
    if emotion not in EMOTION_CATEGORIES:
        raise ValueError(f"unknown emotion label {emotion!r}")
    if flag not in ("0", "1"):
        raise ValueError(f"malformed flag {flag!r}")
    return emotion if flag == "1" else None


def load_valence_lexicon(path: str | Path) -> ValenceLexicon:
    """Parse a tab-separated valence lexicon file.

    Duplicate tokens resolve last-wins with a logged warning count. Raises
    ``ValueError`` for records with fewer than two fields, non-numeric or
    out-of-range valences, or empty tokens.
    """
    records, checksum = _read_records(Path(path), _valence)
    entries = dict(records)
    if duplicates := len(records) - len(entries):
        log.warning("%s: %d duplicate token rows (last occurrence wins)", path, duplicates)
    return ValenceLexicon(MappingProxyType(entries), str(path), checksum)


def load_emotion_lexicon(path: str | Path) -> EmotionLexicon:
    """Parse a word/emotion/flag triple file; a token maps to its flag-1 categories."""
    records, checksum = _read_records(Path(path), _flagged_emotion)
    sets: dict[str, set[str]] = {}
    for key, emotion in records:
        sets.setdefault(key, set()).add(emotion)
    frozen = {tok: frozenset(emos) for tok, emos in sets.items()}
    return EmotionLexicon(MappingProxyType(frozen), str(path), checksum)
