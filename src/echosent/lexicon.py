"""Immutable valence and emotion lexicon stores, and the reading of input files.

``decoded_lines`` reads every input file but the corpus, whose reader skips a
byte-order mark by the same rule. Lexicon file formats (tab separated, one
record per line; blank lines are skipped, and "\\r" ends a line too):

* valence lexicon: ``token<TAB>score`` with optional extra columns that are
  ignored, score a real number in [-4, 4].
* emotion lexicon: ``token<TAB>emotion<TAB>flag`` triples with flag 0 or 1;
  a token's emotion set is the categories flagged 1.

A bad record raises ``ValueError`` naming the file and line;
``textpipe.load_wordlist`` reads word lists the same way. A store's
``checksum`` is the sha256 of the bytes it was parsed from, and its
``entries`` are keyed by ``normalize_token``: tokens containing letters are
case-folded; pure-symbol tokens (emoticons such as ":-)") are kept
verbatim. Look a token up as ``entries.get(normalize_token(token))``.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import hashlib
import io
import logging
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Callable, Iterator, Mapping

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


def skip_byte_order_mark(fh: BinaryIO) -> BinaryIO:
    """``fh``, a binary stream at its start, past a leading UTF-8 byte-order mark."""
    fh.seek(3 if fh.read(3) == codecs.BOM_UTF8 else 0)
    return fh


@contextlib.contextmanager
def decoded_lines(path: str | Path, fh: BinaryIO) -> Iterator[Iterator[str]]:
    """One pass over the lines of ``fh``, file ``path`` opened in binary, past a
    byte-order mark: each decoded as UTF-8 and ending at "\\n", kept. A bad
    byte, a row the ``csv`` module cannot parse or any ``ValueError`` raised in
    the ``with`` block is raised again naming the file and the line last read,
    counted only then from the bytes read, so a line costs no Python work."""
    try:
        yield map(bytes.decode, skip_byte_order_mark(fh))
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        end = fh.tell()
        fh.seek(0)
        lineno = fh.read(end)[:-1].count(b"\n") + 1
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def word_lines(path: Path, data: bytes) -> contextlib.AbstractContextManager[Iterator[str]]:
    """``decoded_lines`` of a word file's bytes, where "\\r" also ends a line."""
    return decoded_lines(path, io.BytesIO(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")))


def _read_records(path: Path, parse: Callable[[list[str]], object]) -> tuple[list, str]:
    """``(normalize_token(token), value)`` of each nonblank line whose tab-split
    fields (the token first) ``parse`` to a value other than ``None``, and the
    file's sha256."""
    data = path.read_bytes()
    records = []
    with word_lines(path, data) as lines:
        for line in lines:
            if not line.strip():
                continue
            fields = line.removesuffix("\n").split("\t")
            token = fields[0].strip()
            if not token:
                raise ValueError("empty token")
            value = parse(fields)
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
