"""Deterministic benchmark inputs, made only from a seed, the bundled data,
``random`` and ``echosent.synth``.

The same seed and size always give byte-identical files and identical
arrays; a different seed gives different ones. The program under test only
ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from echosent import ccm, synth
from echosent.lexicon import load_emotion_lexicon, load_valence_lexicon
from echosent.sentiment import BOOSTERS, NEGATORS
from echosent.textpipe import load_wordlist

DATA = files("echosent") / "data"
EPOCH = dt.date(2020, 2, 24)
KEYWORD = "lockdown"


@dataclass(frozen=True)
class CorpusSize:
    posts: int
    cities: int
    days: int


@dataclass(frozen=True)
class Vocabulary:
    wordlist: tuple[str, ...]
    valence_words: tuple[str, ...]
    emoticons: tuple[str, ...]
    emotion_words: tuple[str, ...]
    stopwords: tuple[str, ...]
    modifiers: tuple[str, ...]


def load_vocabulary() -> Vocabulary:
    """Word pools drawn from the package's bundled wordlist and lexicons."""
    vlex = load_valence_lexicon(str(DATA / "vader_lexicon.txt"))
    elex = load_emotion_lexicon(str(DATA / "nrc_emotion_lexicon.txt"))
    return Vocabulary(
        wordlist=tuple(sorted(load_wordlist(str(DATA / "wordlist_en.txt")))),
        valence_words=tuple(sorted(t for t in vlex.entries if t.isalpha())),
        emoticons=tuple(sorted(vlex.symbol_tokens())),
        emotion_words=tuple(sorted(elex.entries)),
        stopwords=tuple(sorted(load_wordlist(str(DATA / "stopwords_en.txt")))),
        modifiers=tuple(sorted(set(NEGATORS) | set(BOOSTERS))),
    )


def _word(rng: random.Random, vocab: Vocabulary) -> str:
    r = rng.random()
    if r < 0.42:
        w = rng.choice(vocab.wordlist)
    elif r < 0.60:
        w = rng.choice(vocab.valence_words)
    elif r < 0.72:
        w = rng.choice(vocab.emotion_words)
    elif r < 0.88:
        w = rng.choice(vocab.stopwords)
    elif r < 0.95:
        w = rng.choice(vocab.modifiers)
    else:
        return rng.choice(vocab.emoticons)
    return w.upper() if rng.random() < 0.06 else w


def _foreign_word(rng: random.Random) -> str:
    return "".join(rng.choice("bcdfgjkqvwxz") + rng.choice("aeiouy") for _ in range(rng.randint(2, 4)))


def _post_text(rng: random.Random, vocab: Vocabulary, foreign: bool) -> str:
    n = rng.randint(5, 25)
    words = [_foreign_word(rng) if foreign else _word(rng, vocab) for _ in range(n)]
    if rng.random() < 0.12:
        words.insert(rng.randrange(len(words) + 1), KEYWORD)
    if rng.random() < 0.10:
        i = rng.randrange(len(words))
        words[i] = "#" + words[i]
    if rng.random() < 0.15:
        words.insert(rng.randrange(len(words) + 1), f"@user{rng.randrange(1000)}")
    if rng.random() < 0.10:
        words.append(f"https://t.co/{rng.randrange(16**6):06x}")
    text = " ".join(words)
    ending = rng.random()
    if ending < 0.10:
        text += "!" * rng.randint(1, 4)
    elif ending < 0.15:
        text += "??"
    return text


def corpus_records(seed: int, size: CorpusSize, vocab: Vocabulary) -> list[dict]:
    """Raw posts: tagged, untagged and non-``en`` posts, artifacts and emphasis mixed in."""
    rng = random.Random(f"corpus:{seed}:{size.posts}:{size.cities}:{size.days}")
    cities = [f"city{i:03d}" for i in range(size.cities)]
    out = []
    for i in range(size.posts):
        lang_draw = rng.random()
        foreign = lang_draw >= 0.95
        rec = {
            "id": f"p{i:06d}",
            "date": (EPOCH + dt.timedelta(days=rng.randrange(size.days))).isoformat(),
            "city": cities[i] if i < len(cities) else rng.choice(cities),
            "text": _post_text(rng, vocab, foreign),
            "like_count": rng.randrange(50),
            "reply_count": rng.randrange(10),
            "retweet_count": rng.randrange(20),
        }
        if lang_draw < 0.45:
            rec["lang"] = "en"
        elif 0.90 <= lang_draw < 0.95:
            rec["lang"] = rng.choice(("fr", "es", "de"))
        out.append(rec)
    return out


def write_corpus_file(records: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def write_periods_file(seed: int, size: CorpusSize, path: Path) -> None:
    """Three default periods over the corpus range, and own periods for a few cities."""
    rng = random.Random(f"periods:{seed}")
    end = EPOCH + dt.timedelta(days=size.days - 1)

    def periods(a: int, b: int) -> list[str]:
        cut1 = EPOCH + dt.timedelta(days=a)
        cut2 = EPOCH + dt.timedelta(days=b)
        return [
            f"period1 = {EPOCH}/{cut1}",
            f"period2 = {cut1 + dt.timedelta(days=1)}/{cut2}",
            f"period3 = {cut2 + dt.timedelta(days=1)}/{end}",
        ]

    third = size.days // 3
    lines = ["[DEFAULT]"] + periods(third, 2 * third)
    for i in sorted(rng.sample(range(size.cities), min(3, size.cities))):
        a = rng.randrange(1, size.days // 2)
        lines += ["", f"[city{i:03d}]"] + periods(a, rng.randrange(a + 1, size.days - 1))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Pair:
    kind: str            # "x->y", "y->x" or "null"
    x: np.ndarray
    y: np.ndarray
    reservoir_seed: int


def _coupled(rng: random.Random, length: int) -> tuple[np.ndarray, np.ndarray]:
    """A coupled logistic pair where x drives y; draws again if a trajectory escapes."""
    while True:
        cfg = synth.CoupledMapConfig(
            length=length, seed=rng.randrange(2**31), coupling_yx=0.1, growth_y=3.82
        )
        try:
            return synth.gen_coupled_logistic(cfg)
        except ValueError:
            continue


def pair_pool(seed: int, count: int, lengths: tuple[int, int]) -> list[Pair]:
    """Half x->y coupled logistic pairs, a quarter y->x, a quarter AR(1) nulls.

    Every third pair has the longer length. The mix is the same for every
    seed and every prefix of the pool, so the median call falls among the
    short pairs and the 90th percentile among the long ones, whatever the
    number of calls a run makes.
    """
    rng = random.Random(f"pairs:{seed}")
    out = []
    for i in range(count):
        length = lengths[i % 3 == 2]
        kind = ("x->y", "x->y", "y->x", "null")[i % 4]
        if kind == "null":
            x = synth.gen_ar1(0.5, length, rng.randrange(2**31))
            y = synth.gen_ar1(0.5, length, rng.randrange(2**31))
        else:
            x, y = _coupled(rng, length)
            if kind == "y->x":
                x, y = y, x
        out.append(Pair(kind, x, y, rng.randrange(1000)))
    return out


def coupled_panel(seed: int, units: int, length: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """A panel of coupled logistic units (x drives y), keyed by unit name."""
    rng = random.Random(f"panel:{seed}")
    return {f"unit{u:02d}": _coupled(rng, length) for u in range(units)}


def grid_configs(seed: int, sizes: tuple[int, ...] | None = None) -> tuple[list, list]:
    """The quick grid, and the default-grid slice with spectral_radius, leak and
    sparsity fixed at 0.5, 0.5 and 0.1 (all sizes, input scales and ridges)."""
    washout = ccm.DEFAULT_CCM_PARAMS["washout"]
    quick = ccm.make_quick_grid(seed, washout)
    default_slice = [
        c for c in ccm.make_default_grid(seed, washout)
        if c.spectral_radius == 0.5 and c.leak == 0.5 and c.sparsity == 0.1
    ]
    if sizes is not None:
        quick = [c for c in quick if c.size in sizes]
        default_slice = [c for c in default_slice if c.size in sizes]
    return quick, default_slice
