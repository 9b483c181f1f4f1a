"""Immutable valence and emotion lexicon stores.

File formats (UTF-8, tab separated, one record per line):

* valence lexicon: ``token<TAB>score`` with optional extra columns that are
  ignored, score a real number in [-4, 4].
* emotion lexicon: ``token<TAB>emotion<TAB>flag`` triples with flag 0 or 1;
  a token's emotion set is the categories flagged 1.

Lookups are total: a missing token yields ``None``, never an error. Tokens
containing letters are case-folded; pure-symbol tokens (emoticons such as
":-)") are matched verbatim.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def lookup(self, token: str) -> float | None:
        return self.entries.get(normalize_token(token))

    def __contains__(self, token: str) -> bool:
        return normalize_token(token) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

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

    def lookup(self, token: str) -> frozenset[str] | None:
        return self.entries.get(normalize_token(token))

    def __contains__(self, token: str) -> bool:
        return normalize_token(token) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def category_indices(self) -> Mapping[str, tuple[int, ...]]:
        """Token -> positions in ``EMOTION_CATEGORIES`` of its emotions, in that order."""
        return self._indices


def load_valence_lexicon(path: str | Path) -> ValenceLexicon:
    """Parse a tab-separated valence lexicon file.

    Duplicate tokens resolve last-wins with a logged warning count. Raises
    ``ValueError`` for records with fewer than two fields, non-numeric or
    out-of-range valences, or empty tokens.
    """
    path = Path(path)
    entries: dict[str, float] = {}
    duplicates = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least 2 tab-separated fields")
            token = fields[0].strip()
            if not token:
                raise ValueError(f"{path}:{lineno}: empty token")
            try:
                valence = float(fields[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric valence {fields[1]!r}") from None
            if not (VALENCE_MIN <= valence <= VALENCE_MAX) or valence != valence:
                raise ValueError(f"{path}:{lineno}: valence {valence} outside [-4, 4]")
            key = normalize_token(token)
            if key in entries:
                duplicates += 1
            entries[key] = valence
    if duplicates:
        log.warning("%s: %d duplicate token rows (last occurrence wins)", path, duplicates)
    return ValenceLexicon(MappingProxyType(entries), str(path), _sha256(path))


def load_emotion_lexicon(path: str | Path) -> EmotionLexicon:
    """Parse a word/emotion/flag triple file; a token maps to its flag-1 categories."""
    path = Path(path)
    sets: dict[str, set[str]] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected word<TAB>emotion<TAB>flag")
            token, emotion, flag = fields
            token = token.strip()
            if not token:
                raise ValueError(f"{path}:{lineno}: empty token")
            if emotion not in EMOTION_CATEGORIES:
                raise ValueError(f"{path}:{lineno}: unknown emotion label {emotion!r}")
            if flag not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: malformed flag {flag!r}")
            if flag == "1":
                sets.setdefault(normalize_token(token), set()).add(emotion)
    frozen = {tok: frozenset(emos) for tok, emos in sets.items()}
    return EmotionLexicon(MappingProxyType(frozen), str(path), _sha256(path))
