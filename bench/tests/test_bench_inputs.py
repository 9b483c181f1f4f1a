"""Benchmark inputs are a pure function of the seed."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402

SIZE = inputs.CorpusSize(posts=300, cities=6, days=30)


def _files(seed: int, where: Path) -> tuple[bytes, bytes]:
    where.mkdir()
    records = inputs.corpus_records(seed, SIZE, inputs.load_vocabulary())
    inputs.write_corpus_file(records, where / "raw.jsonl")
    inputs.write_periods_file(seed, SIZE, where / "periods.ini")
    return (where / "raw.jsonl").read_bytes(), (where / "periods.ini").read_bytes()


def _arrays(seed: int) -> list[np.ndarray]:
    pairs = inputs.pair_pool(seed, 4, (120, 200))
    panel = inputs.coupled_panel(seed, 3, 90)
    return [a for p in pairs for a in (p.x, p.y)] + [a for xy in panel.values() for a in xy]


def test_same_seed_gives_identical_inputs(tmp_path):
    assert _files(7, tmp_path / "a") == _files(7, tmp_path / "b")
    first, second = _arrays(7), _arrays(7)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert [p.kind for p in inputs.pair_pool(7, 8, (120, 150))] == ["x->y", "x->y", "y->x", "null"] * 2


def test_another_seed_gives_different_inputs(tmp_path):
    corpus_a, periods_a = _files(7, tmp_path / "a")
    corpus_b, periods_b = _files(8, tmp_path / "b")
    assert corpus_a != corpus_b
    assert periods_a != periods_b
    assert not any(np.array_equal(a, b) for a, b in zip(_arrays(7), _arrays(8)))


def test_corpus_mixes_the_cases_the_cleaner_handles():
    records = inputs.corpus_records(3, inputs.CorpusSize(2000, 20, 230), inputs.load_vocabulary())
    texts = [r["text"] for r in records]
    langs = [r.get("lang") for r in records]
    assert any("https://" in t for t in texts) and any("@user" in t for t in texts)
    assert any(t.endswith("!!!") for t in texts) and any(t.endswith("??") for t in texts)
    assert any(w.isupper() and len(w) > 1 for t in texts for w in t.split())
    assert {"en", None} <= set(langs) and set(langs) - {"en", None}
    assert {r["city"] for r in records} == {f"city{i:03d}" for i in range(20)}
