"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the PASS
lines inline). Synthetic lengths and growth rates below are fixture choices;
tolerances are fixed.
"""

import itertools
import json
import math
import random

import numpy as np
import pytest

from echosent.ccm import (
    LagGrid,
    align_window,
    analyze_pair,
    classify_peaks,
    cross_map_curve,
    default_ccm_config,
    loo_cv_grid_search,
    make_default_grid,
    make_quick_grid,
    pearson,
)
from echosent.cli import main
from echosent.esn import ReservoirConfig, build_reservoir, nrmse, run_states, train_readout
from echosent.sentiment import compound_score, score_post
from echosent.synth import CoupledMapConfig, gen_ar1, gen_coupled_logistic
from echosent.textpipe import read_corpus, tokenize


def ok(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {label}")


TABLE_GOLDENS = {
    ":-)": 1.3, "lmao": 2.0, "lol": 2.9, "abducted": -2.3, "abduction": -2.8,
    "agrees": 1.5, "alarm": -1.4, "alarmed": -1.4, "alarmist": -1.1,
    "amaze": 2.5, "amort": -2.1,
}


def test_c01_lexicon_goldens(vlex):
    for token, value in TABLE_GOLDENS.items():
        assert vlex.lookup(token) == value, token
    assert len(TABLE_GOLDENS) == 11
    ok(1, "all 11 lexicon golden rows round-trip exactly")


def test_c02_scored_tweet_goldens(vlex, elex, stopwords, fixtures_dir):
    posts = list(read_corpus(f"{fixtures_dir}/toronto_feb24.jsonl"))
    expected = [
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.721, 0.279, 0.7351),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.769, 0.231, 0.5574),
    ]
    exact_rows = {0, 1, 3}
    for i, (post, exp) in enumerate(zip(posts, expected)):
        s = score_post(post, vlex, elex, stopwords).sentiment
        got = (s.negative, s.neutral, s.positive, s.compound)
        if i in exact_rows:
            assert got == exp, f"row {i + 1} must be exactly (0,1,0,0)"
        else:
            for g, e in zip(got, exp):
                assert abs(g - e) <= 0.05, f"row {i + 1}: {got} vs {exp}"
    ok(2, "five-tweet scoring goldens within +/-0.05, neutral rows exact")


def test_c03_compound_normalization():
    plain = tokenize("plain text")
    rng = random.Random(123)
    values = sorted(rng.uniform(-30.0, 30.0) for _ in range(1000))
    compounds = [compound_score([s], plain) for s in values]
    for s, c in zip(values, compounds):
        assert abs(c) < 1.0
        assert compound_score([-s], plain) == pytest.approx(-c, abs=1e-12)
    assert all(a < b for a, b in zip(compounds, compounds[1:]))
    assert compound_score([3.0], plain) == pytest.approx(0.6124, abs=1e-4)
    ok(3, "compound map odd, strictly increasing, bounded; 3.0 -> 0.6124")


def test_c04_pearson_oracle():
    def oracle(a, b):
        n = len(a)
        ma = math.fsum(a) / n
        mb = math.fsum(b) / n
        cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
        va = math.fsum((x - ma) ** 2 for x in a)
        vb = math.fsum((y - mb) ** 2 for y in b)
        return cov / math.sqrt(va * vb)

    rng = random.Random(321)
    for _ in range(1000):
        n = rng.randrange(2, 60)
        a = [rng.gauss(0, 1) for _ in range(n)]
        b = [rng.gauss(0, 1) for _ in range(n)]
        assert pearson(a, b) == pytest.approx(oracle(a, b), abs=1e-12)
    base = [float(v) for v in range(1, 8)]
    assert pearson(base, base) == pytest.approx(1.0, abs=1e-15)
    assert pearson(base, [-v for v in base]) == pytest.approx(-1.0, abs=1e-15)
    ok(4, "pearson matches independent two-pass formula on 1000 pairs")


def test_c05_window_alignment_exhaustive():
    T = 234
    for lag in range(-30, 31):
        s_in, s_out = align_window(T, lag)
        h = lag if lag >= 0 else 0
        assert s_in.stop - s_in.start == T - abs(lag)
        assert s_out.stop - s_out.start == T - abs(lag)
        assert s_in.start + 1 == 1 + abs(lag) - h
        assert s_in.stop == T - h
        assert s_out.start == s_in.start + lag and s_out.stop == s_in.stop + lag
    ok(5, "window alignment exact for T=234 over all lags in [-30, 30]")


def test_c06_ridge_readout_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        states = rng.standard_normal((200, 20))
        targets = rng.standard_normal(200)
        ridge = 10 ** rng.uniform(-3, 3)
        w = train_readout(states, targets, ridge)
        aug = np.vstack([states, math.sqrt(ridge) * np.eye(20)])
        rhs = np.concatenate([targets, np.zeros(20)])
        oracle, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        assert w == pytest.approx(oracle, abs=1e-8)
    w = train_readout(rng.standard_normal((200, 20)), rng.standard_normal(200), 1e12)
    assert np.linalg.norm(w) <= 1e-6
    ok(6, "ridge readout matches brute-force least squares; huge ridge shrinks to zero")


def test_c07_echo_state_fading_memory():
    for radius in (0.1, 0.5, 0.9):
        for leak in (0.5, 0.9):
            cfg = ReservoirConfig(
                size=100, spectral_radius=radius, leak=leak, input_scale=0.5,
                sparsity=0.1, ridge=1.0, seed=1, washout=0,
            )
            reservoir = build_reservoir(cfg)
            for seed in range(10):
                rng = np.random.default_rng(1000 + seed)
                x = rng.standard_normal(500)
                a = run_states(reservoir, cfg, x, initial_state=rng.uniform(-1, 1, 100))
                b = run_states(reservoir, cfg, x, initial_state=rng.uniform(-1, 1, 100))
                assert np.linalg.norm(a[-1] - b[-1]) < 1e-6, (radius, leak, seed)
    ok(7, "fading memory: initial-state distance < 1e-6 after 500 steps")


def test_c08_nrmse():
    obs = np.array([1.0, 2.0, 3.0])
    assert nrmse(obs, obs) == 0.0
    assert nrmse(np.array([2.0, 2.0]), np.array([1.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        nrmse(np.array([1.0, -1.0]), np.array([1.0, -1.0]))
    ok(8, "NRMSE: zero on exact, hand case 1.0, zero-mean guard raises")


def test_c09_causal_direction_recovery():
    cfg = default_ccm_config(7)
    grid = LagGrid(-30, 30)
    correct = reversed_count = 0
    for seed in range(50):
        x, y = gen_coupled_logistic(
            CoupledMapConfig(length=500, seed=1000 + seed, coupling_yx=0.1,
                             coupling_xy=0.0, delay=0, growth_y=3.82)
        )
        _, _, verdict = analyze_pair(x, y, cfg, grid=grid)
        correct += verdict.classification == "X_causes_Y"
        reversed_count += verdict.classification == "Y_causes_X"
    assert correct >= 40, f"only {correct}/50 runs recovered the true direction"
    assert reversed_count <= 5, f"{reversed_count}/50 runs reversed the direction"

    offsets = []
    for seed in range(30):
        peaks = {}
        for delay in (0, 3):
            x, y = gen_coupled_logistic(
                CoupledMapConfig(length=500, seed=3000 + seed, coupling_yx=0.1,
                                 delay=delay, growth_y=3.82)
            )
            peaks[delay] = cross_map_curve(y, x, cfg, grid, "y->x").peak_lag
        offsets.append(peaks[0] - peaks[3])
    med = float(np.median(offsets))
    assert 2.0 <= med <= 4.0, f"median peak-lag offset {med} not within 3 +/- 1"
    ok(9, f"direction recovery {correct}/50, reversed {reversed_count}/50, "
          f"delay-3 median offset {med}")


def test_c10_null_control():
    cfg = default_ccm_config(7)
    grid = LagGrid(-30, 30)
    confident = 0
    for seed in range(100):
        x = gen_ar1(0.5, 1000, 50_000 + seed)
        y = gen_ar1(0.5, 1000, 90_000 + seed)
        _, _, verdict = analyze_pair(x, y, cfg, grid=grid)
        if verdict.classification != "inconclusive" and not verdict.weak:
            confident += 1
    assert confident <= 20, f"{confident}/100 null pairs produced confident verdicts"
    ok(10, f"null control: {confident}/100 confident verdicts (<= 20 allowed)")


def test_c11_classification_truth_table():
    lag_of = {-1: -9, 0: 0, 1: 9}
    expected = {
        (1, -1): "X_causes_Y",
        (-1, 1): "Y_causes_X",
        (-1, -1): "bidirectional",
        (0, 0): "instantaneous_bidirectional",
        (1, 1): "delayed_coupling",
        (1, 0): "inconclusive",
        (0, 1): "inconclusive",
        (0, -1): "inconclusive",
        (-1, 0): "inconclusive",
    }
    for sx, sy in itertools.product((-1, 0, 1), repeat=2):
        v = classify_peaks(lag_of[sx], lag_of[sy], 0.5, 0.5)
        assert v.classification == expected[(sx, sy)], (sx, sy)
    assert classify_peaks(8, -5, 0.4, 0.5).classification == "X_causes_Y"
    assert classify_peaks(0, 0, 0.5, 0.5).classification == "instantaneous_bidirectional"
    weak = classify_peaks(8, -5, 0.006, 0.169)
    assert weak.weak and weak.classification == "X_causes_Y"
    ok(11, "classification truth table exhaustive, quoted cases included")


def test_c12_loo_cv_determinism_and_grid():
    grid = make_default_grid(seed=0)
    combos = {
        (c.spectral_radius, c.leak, c.size, c.sparsity, c.ridge, c.input_scale)
        for c in grid
    }
    assert (0.1, 0.5, 150, 0.1, 0.1, 0.9) in combos
    assert (0.1, 0.9, 250, 0.7, 100.0, 0.9) in combos

    panel = {}
    for unit in range(8):
        x, y = gen_coupled_logistic(
            CoupledMapConfig(length=250, seed=400 + unit, coupling_yx=0.3)
        )
        panel[f"unit{unit:02d}"] = (x, y)
    configs = make_quick_grid(seed=2)
    report = loo_cv_grid_search(panel, configs)
    shuffled = dict(reversed(list(panel.items())))
    again = loo_cv_grid_search(shuffled, configs)
    assert report.winner_index == again.winner_index
    assert report.scores == again.scores
    assert report.cells == again.cells
    ok(12, "published configs selectable; winner invariant to unit order")


def test_c13_end_to_end_reproducibility(tmp_path, fixtures_dir):
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["pipeline", "--in", f"{fixtures_dir}/toronto_feb24.jsonl",
                     "--out-dir", str(out_dir), "--seed", "5"]) == 0
        ccm_dir = tmp_path / f"ccm_{name}"
        synth_csv = tmp_path / f"synth_{name}.csv"
        assert main(["synth", "--mode", "coupled", "--coupling-yx", "0.3",
                     "--length", "300", "--seed", "5", "--out", str(synth_csv)]) == 0
        assert main(["ccm", "--series", str(synth_csv), "--city", "unit00",
                     "--input-feature", "x", "--target-feature", "y",
                     "--out-dir", str(ccm_dir), "--seed", "5"]) == 0
        outputs.append({
            "cleaned": (out_dir / "cleaned.jsonl").read_bytes(),
            "scored": (out_dir / "scored.csv").read_bytes(),
            "series": (out_dir / "series.csv").read_bytes(),
            "synth": synth_csv.read_bytes(),
            "curves": (ccm_dir / "ccm_curves.csv").read_bytes(),
            "verdict": (ccm_dir / "ccm_verdict.json").read_bytes(),
        })
    assert outputs[0] == outputs[1]
    json.loads(outputs[0]["verdict"])  # valid JSON
    ok(13, "identical settings give byte-identical outputs across runs")
