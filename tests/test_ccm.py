import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosent.ccm import (
    CLASSIFICATIONS,
    LagGrid,
    align_window,
    analyze_pair,
    classify,
    classify_peaks,
    cross_map_curve,
    default_ccm_config,
    loo_cv_grid_search,
    make_default_grid,
    make_quick_grid,
    pearson,
)
from echosent.esn import (
    ReservoirConfig,
    build_reservoir,
    nrmse,
    run_states,
    solve_ridge,
    train_readout,
    zscore,
)
from echosent import esn
from echosent.synth import CoupledMapConfig, gen_ar1, gen_coupled_logistic


def small_cfg(**kw):
    base = dict(
        size=30, spectral_radius=0.5, leak=0.5, input_scale=0.5,
        sparsity=0.3, ridge=1.0, seed=11, washout=5,
    )
    base.update(kw)
    return ReservoirConfig(**base)


# ---------------------------------------------------------------------------
# align_window


def test_align_window_positive_lag():
    s_in, s_out = align_window(100, 5)
    # one-based: t in [1, 95], outputs t+5 in [6, 100]
    assert (s_in.start + 1, s_in.stop) == (1, 95)
    assert (s_out.start + 1, s_out.stop) == (6, 100)


def test_align_window_negative_lag():
    s_in, s_out = align_window(100, -3)
    assert (s_in.start + 1, s_in.stop) == (4, 100)
    assert (s_out.start + 1, s_out.stop) == (1, 97)


def test_align_window_zero_lag():
    s_in, s_out = align_window(100, 0)
    assert (s_in.start, s_in.stop) == (0, 100)
    assert (s_out.start, s_out.stop) == (0, 100)


def test_align_window_exhaustive_lengths_and_bounds():
    T = 234
    for lag in range(-30, 31):
        s_in, s_out = align_window(T, lag)
        assert s_in.stop - s_in.start == T - abs(lag)
        assert s_out.stop - s_out.start == T - abs(lag)
        # direct substitution into the one-based summation limits
        h = lag if lag >= 0 else 0
        assert s_in.start + 1 == 1 + abs(lag) - h
        assert s_in.stop == T - h
        # pairing: target index = input index + lag
        assert s_out.start == s_in.start + lag
        assert s_out.stop == s_in.stop + lag


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), length=st.integers(1, 5000))
def test_align_window_random_lengths_and_lags(data, length):
    lag = data.draw(st.integers(-length - 3, length + 3))
    if abs(lag) >= length:
        with pytest.raises(ValueError):
            align_window(length, lag)
        return
    s_in, s_out = align_window(length, lag)
    h = max(lag, 0)
    assert (s_in.start + 1, s_in.stop) == (1 + abs(lag) - h, length - h)
    idx = np.arange(length)
    assert len(idx[s_in]) == len(idx[s_out]) == length - abs(lag)
    assert np.array_equal(idx[s_in] + lag, idx[s_out])


def test_align_window_lag_too_large():
    with pytest.raises(ValueError):
        align_window(10, 10)
    with pytest.raises(ValueError):
        align_window(10, -10)


def test_lag_grid_validation():
    with pytest.raises(ValueError):
        LagGrid(0, 10)
    with pytest.raises(ValueError):
        LagGrid(-10, 0)
    assert LagGrid(-2, 2).values() == (-2, -1, 0, 1, 2)


# ---------------------------------------------------------------------------
# pearson


def oracle_pearson(a, b):
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = math.fsum((x - ma) ** 2 for x in a)
    vb = math.fsum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def test_pearson_identical_and_negated():
    a = np.array([1.0, 2.0, 5.0, 3.0])
    assert pearson(a, a) == pytest.approx(1.0, abs=1e-15)
    assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_case():
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-4)
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(3 / math.sqrt(2 * (14 / 3)))


def test_pearson_matches_independent_formula():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randrange(2, 40)
        a = [rng.uniform(-5, 5) for _ in range(n)]
        b = [rng.uniform(-5, 5) for _ in range(n)]
        if len(set(a)) == 1 or len(set(b)) == 1:
            continue
        assert pearson(a, b) == pytest.approx(oracle_pearson(a, b), abs=1e-12)


def test_pearson_constant_series_rejected():
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# classification


def test_classify_truth_table_exhaustive():
    lag_of = {-1: -7, 0: 0, 1: 7}
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
        verdict = classify_peaks(lag_of[sx], lag_of[sy], 0.5, 0.5)
        assert verdict.classification == expected[(sx, sy)]
        assert not verdict.weak


def test_classify_published_unidirectional_case():
    verdict = classify_peaks(8, -5, 0.4, 0.5)
    assert verdict.classification == "X_causes_Y"


def test_classify_instantaneous_case():
    verdict = classify_peaks(0, 0, 0.6, 0.7)
    assert verdict.classification == "instantaneous_bidirectional"


def test_classify_weak_note():
    verdict = classify_peaks(8, -5, 0.006, 0.169)
    assert verdict.classification == "X_causes_Y"
    assert verdict.weak
    assert "weak" in verdict.note
    strong = classify_peaks(8, -5, 0.006, 0.3)
    assert not strong.weak


def test_classifications_enumeration():
    assert set(CLASSIFICATIONS) == {
        "X_causes_Y", "Y_causes_X", "bidirectional",
        "instantaneous_bidirectional", "delayed_coupling", "inconclusive",
    }


# ---------------------------------------------------------------------------
# cross_map_curve


def test_self_mapping_sanity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(300)
    curve = cross_map_curve(x, x, small_cfg(size=50, ridge=0.01), LagGrid(-5, 5))
    rho0 = dict(zip(curve.lags, curve.rhos))[0]
    assert rho0 >= 0.99


def test_short_windows_skipped_with_warning(caplog):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(38)
    with caplog.at_level("WARNING"):
        curve = cross_map_curve(x, x, small_cfg(washout=0), LagGrid(-30, 30))
    assert len(curve.skipped) > 0
    assert all(t - abs(lag) < 10 for t, lag in [(38, s) for s in curve.skipped])
    assert set(curve.lags).isdisjoint(curve.skipped)
    assert any("skipped" in rec.message for rec in caplog.records)


def test_curve_deterministic_given_seed():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(200)
    y = rng.standard_normal(200)
    a = cross_map_curve(x, y, small_cfg(), LagGrid(-10, 10))
    b = cross_map_curve(x, y, small_cfg(), LagGrid(-10, 10))
    assert a == b


def test_coupled_logistic_informative_direction_strong():
    # X drives Y with strong one-way coupling: mapping X from Y is skillful
    cfg = default_ccm_config(7)
    x, y = gen_coupled_logistic(
        CoupledMapConfig(length=500, seed=105, coupling_yx=0.3)
    )
    curve_yx = cross_map_curve(y, x, cfg, LagGrid(-30, 30), "y->x")
    assert abs(curve_yx.peak_rho) >= 0.5


def test_white_noise_pair_stays_flat():
    cfg = default_ccm_config(7)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(234)
        y = rng.standard_normal(234)
        curve = cross_map_curve(x, y, cfg, LagGrid(-30, 30))
        assert max(abs(r) for r in curve.rhos) < 0.3


def test_peak_tie_breaks_toward_small_then_negative_lag():
    # cooked curve via direct construction of the tie-break ordering
    lags = (-2, -1, 0, 1, 2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100)
    curve = cross_map_curve(x, x, small_cfg(ridge=0.1), LagGrid(-2, 2))
    # self-map gives a unique max at 0; now verify the ordering rule directly
    order = sorted(
        range(len(lags)),
        key=lambda i: (-[0.5, 0.9, 0.9, 0.9, 0.2][i], abs(lags[i]), lags[i]),
    )
    assert lags[order[0]] == 0  # smallest |lag| among the tied maxima
    order2 = sorted(
        range(len(lags)),
        key=lambda i: (-[0.5, 0.9, 0.2, 0.9, 0.2][i], abs(lags[i]), lags[i]),
    )
    assert lags[order2[0]] == -1  # negative wins the +/-1 tie
    assert curve.peak_lag == 0


def test_analyze_pair_labels_directions():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(150)
    y = rng.standard_normal(150)
    cxy, cyx, verdict = analyze_pair(x, y, small_cfg(), grid=LagGrid(-5, 5))
    assert cxy.direction == "x->y"
    assert cyx.direction == "y->x"
    assert verdict.classification in CLASSIFICATIONS


def direct_curve(x, y, cfg, grid, min_window):
    """Reference lag scan: one Gram and one ridge solve per lag."""
    states = run_states(build_reservoir(cfg), cfg, zscore(x))
    t_len = len(x)
    lags, rhos, skipped = [], [], []
    for lag in grid.values():
        if abs(lag) >= t_len:
            skipped.append(lag)
            continue
        s_in, s_out = align_window(t_len, lag)
        shift = max(s_in.start, cfg.washout) - s_in.start
        u = states[s_in.start + shift:s_in.stop]
        obs = y[s_out.start + shift:s_out.stop]
        if len(u) < min_window or np.std(obs) == 0.0:
            skipped.append(lag)
            continue
        yz = (obs - np.mean(obs)) / np.std(obs)
        pred = u @ solve_ridge(u.T @ u, u.T @ yz, cfg.ridge)
        try:
            rhos.append(pearson(pred, yz))
        except ValueError:
            skipped.append(lag)
            continue
        lags.append(lag)
    if not lags:
        return None
    best = min(range(len(lags)), key=lambda i: (-rhos[i], abs(lags[i]), lags[i]))
    return lags, rhos, lags[best], skipped


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    t_len=st.integers(12, 60),
    lo=st.integers(-30, -1),
    hi=st.integers(1, 30),
    washout=st.integers(0, 20),
    min_window=st.integers(2, 12),
    size=st.integers(3, 25),
    ridge=st.floats(0.1, 10.0),
    flat=st.integers(0, 30),
    seed=st.integers(0, 2**16),
)
def test_lag_scan_matches_direct_per_lag_fits(
    t_len, lo, hi, washout, min_window, size, ridge, flat, seed
):
    # washout is drawn both below and at or above |lo|, so the negative-lag
    # windows sometimes differ and sometimes coincide; a constant target tail
    # and short series make the skip rules fire.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(t_len)
    y = rng.standard_normal(t_len)
    y[max(t_len - flat, 0):] = 0.5
    cfg = small_cfg(size=size, ridge=ridge, washout=washout, seed=seed, sparsity=1.0)
    grid = LagGrid(lo, hi)
    expected = direct_curve(x, y, cfg, grid, min_window)
    if expected is None:
        with pytest.raises(ValueError, match="no usable lag"):
            cross_map_curve(x, y, cfg, grid, min_window=min_window)
        return
    lags, rhos, peak_lag, skipped = expected
    curve = cross_map_curve(x, y, cfg, grid, min_window=min_window)
    assert curve.lags == tuple(lags)
    assert curve.skipped == tuple(skipped)
    assert curve.peak_lag == peak_lag
    assert np.max(np.abs(np.subtract(curve.rhos, rhos))) <= 1e-12


def _default_size_pair(kind, t_len):
    if kind == "logistic":
        return gen_coupled_logistic(CoupledMapConfig(length=t_len, seed=t_len, coupling_yx=0.3))
    return gen_ar1(0.5, t_len, t_len), gen_ar1(0.5, t_len, t_len + 1)


@pytest.mark.parametrize("washout", [30, 0])
@pytest.mark.parametrize("kind", ["logistic", "ar1"])
@pytest.mark.parametrize("t_len", [500, 1000])
def test_default_config_scan_matches_direct_per_lag_fits(t_len, kind, washout):
    # The bench-sized scan: N=100 and lags -30..30. With washout 0 the
    # negative-lag windows also lose head rows.
    x, y = _default_size_pair(kind, t_len)
    cfg = dataclasses.replace(default_ccm_config(3), washout=washout)
    grid = LagGrid(-30, 30)
    lags, rhos, peak_lag, skipped = direct_curve(x, y, cfg, grid, 10)
    curve = cross_map_curve(x, y, cfg, grid)
    assert curve.lags == tuple(lags)
    assert curve.skipped == tuple(skipped)
    assert curve.peak_lag == peak_lag
    assert np.max(np.abs(np.subtract(curve.rhos, rhos))) <= 1e-12


def test_skipped_lags_stay_in_grid_order_across_skip_kinds(caplog):
    # The first 20 inputs z-score to exactly 0, so states stay 0 there and any
    # window inside them predicts a constant. With washout 0 and T=40, lag L>0
    # trains on rows [0, 40-L): lags 20..25 give degenerate predictions, the
    # target is constant on [26, 40) so lags 26..30 have a constant target
    # window, and lags 31..35 have windows shorter than 10.
    x = np.concatenate([np.zeros(20), np.tile([1.0, -1.0], 10)])
    y = np.random.default_rng(12).standard_normal(40)
    y[26:] = 2.0
    with caplog.at_level("WARNING"):
        curve = cross_map_curve(x, y, small_cfg(washout=0), LagGrid(-3, 35))
    assert curve.skipped == tuple(range(20, 36))
    assert curve.lags == tuple(range(-3, 20))
    messages = " ".join(rec.getMessage() for rec in caplog.records)
    for reason in ("degenerate prediction", "constant target window", "window 9 < 10"):
        assert reason in messages


def test_ridge_zero_on_rank_deficient_window_raises():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(120)
    y = rng.standard_normal(120)
    cfg = small_cfg(ridge=0.0, washout=10)
    states = run_states(build_reservoir(cfg), cfg, zscore(x))
    states[:, 3] = 0.0  # one unit never moves: every window's Gram is singular
    with pytest.raises(ValueError, match="normal equations are singular"):
        cross_map_curve(x, y, cfg, LagGrid(-12, 12), states=states)


@pytest.mark.parametrize("washout, live_rows", [(12, slice(117, 120)), (0, slice(0, 3))])
def test_ridge_zero_singular_only_on_shorter_windows_raises(washout, live_rows):
    # Unit 3 moves only in the union window's last (or first) three rows, so
    # the union's system is positive definite at ridge 0 while every window
    # that drops those rows (lags >= 3, or <= -3 when washout is 0) is not.
    rng = np.random.default_rng(14)
    x = rng.standard_normal(120)
    y = rng.standard_normal(120)
    cfg = small_cfg(ridge=0.0, washout=washout)
    states = run_states(build_reservoir(cfg), cfg, zscore(x))
    live = states[live_rows, 3].copy()
    states[:, 3] = 0.0
    states[live_rows, 3] = live
    union = states[washout:]
    np.linalg.cholesky(union.T @ union)
    with pytest.raises(ValueError, match=r"normal equations are singular \(ridge=0\.0\)"):
        cross_map_curve(x, y, cfg, LagGrid(-12, 12), states=states)


def test_ridge_zero_window_with_fewer_rows_than_units_raises():
    # 20 rows for 14 units: the union's system is positive definite at ridge
    # 0, but lags 7 and 8 train on 13 and 12 rows. The union is so badly
    # conditioned that the Woodbury system's eigenvalues are rounding noise
    # well above sqrt(eps); only the row count tells.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    cfg = small_cfg(size=14, ridge=0.0, washout=0)
    states = run_states(build_reservoir(cfg), cfg, zscore(x))
    np.linalg.cholesky(states.T @ states)
    with pytest.raises(ValueError, match=r"normal equations are singular \(ridge=0\.0\)"):
        cross_map_curve(x, y, cfg, LagGrid(-5, 8))


@pytest.mark.parametrize("copies", [1, 8])
def test_ridge_zero_collinear_units_on_shorter_windows_raise(copies):
    # Units 3, 4, ... copy unit 2 except in the union's last ``copies`` rows:
    # windows of lags >= copies lose that many ranks while every unit still
    # moves in them, so only the Woodbury system shows the loss. With one
    # copy its Cholesky pivot is rounding noise of either sign.
    rng = np.random.default_rng(14)
    x = rng.standard_normal(120)
    y = rng.standard_normal(120)
    cfg = small_cfg(ridge=0.0, washout=15)
    states = run_states(build_reservoir(cfg), cfg, zscore(x))
    units = slice(3, 3 + copies)
    live = states[-copies:, units].copy()
    states[:, units] = states[:, [2]]
    states[-copies:, units] = live
    union = states[15:]
    np.linalg.cholesky(union.T @ union)
    with pytest.raises(ValueError, match=r"normal equations are singular \(ridge=0\.0\)"):
        cross_map_curve(x, y, cfg, LagGrid(-15, 15), states=states)


# ---------------------------------------------------------------------------
# leave-one-out grid search


def make_panel(n_units=4, length=140, seed=0, lag=2):
    panel = {}
    rng = np.random.default_rng(seed)
    for u in range(n_units):
        x = rng.standard_normal(length + lag).cumsum() * 0.1 + 5.0
        x = x[:length]
        y = np.roll(x, lag) + 0.01 * rng.standard_normal(length) + 1.0
        panel[f"unit{u:02d}"] = (x, y)
    return panel


def test_published_configs_are_selectable_cells():
    grid = make_default_grid(seed=0)
    combos = {
        (c.spectral_radius, c.leak, c.size, c.sparsity, c.ridge, c.input_scale)
        for c in grid
    }
    assert (0.1, 0.5, 150, 0.1, 0.1, 0.9) in combos
    assert (0.1, 0.9, 250, 0.7, 100.0, 0.9) in combos
    assert len(grid) == 3 * 3 * 3 * 3 * 4 * 3


def test_single_cell_grid_wins_trivially():
    panel = make_panel(3)
    cfg = small_cfg()
    report = loo_cv_grid_search(panel, [cfg])
    assert report.winner == cfg
    assert report.winner_index == 0
    assert len(report.cells) == 3


def test_grid_search_needs_two_units():
    with pytest.raises(ValueError):
        loo_cv_grid_search({"one": (np.ones(50), np.ones(50))}, [small_cfg()])


def test_learnable_target_beats_grid_median():
    panel = make_panel(4)
    configs = [
        small_cfg(size=40, ridge=0.01, leak=1.0, spectral_radius=0.3),
        small_cfg(size=10, ridge=100.0),
        small_cfg(size=10, ridge=1000.0, leak=0.1),
        small_cfg(size=40, ridge=10000.0, spectral_radius=0.9),
    ]
    report = loo_cv_grid_search(panel, configs)
    values = sorted(report.scores.values())
    median = values[len(values) // 2]
    assert report.scores[report.winner_index] < median


def test_unit_order_does_not_change_winner_or_scores():
    panel = make_panel(5, seed=3)
    configs = make_quick_grid(seed=1)[:6]
    base = loo_cv_grid_search(panel, configs)
    shuffled = dict(reversed(list(panel.items())))
    again = loo_cv_grid_search(shuffled, configs)
    assert again.winner_index == base.winner_index
    assert again.scores == base.scores
    assert again.cells == base.cells


def naive_fold_nrmse(panel, cfg):
    """Per held-out unit: NRMSE of a readout trained on the vstacked states
    of the other units, one-column state runs, z-scored targets."""
    units = sorted(panel)
    reservoir = build_reservoir(cfg)
    out = {}
    for held in units:
        train_states, train_targets = [], []
        for unit in units:
            x, y = panel[unit]
            xz = (x - x.mean()) / x.std()
            states = run_states(reservoir, cfg, xz)[cfg.washout:]
            if unit == held:
                held_states, held_y = states, y[cfg.washout:]
            else:
                train_states.append(states)
                train_targets.append(y[cfg.washout:])
        u = np.vstack(train_states)
        t = np.concatenate(train_targets)
        mu, sd = t.mean(), t.std()
        w = train_readout(u, (t - mu) / sd, cfg.ridge)
        out[held] = nrmse(held_states @ w * sd + mu, held_y)
    return out


def test_gram_assembly_matches_naive_training():
    # pooled-Gram fold solution equals vstack + train_readout, for equal
    # lengths (one state block) and for unequal ones (one block per length)
    cfg = small_cfg(size=20, washout=4)
    long_unit = make_panel(1, length=95, seed=10)["unit00"]
    for panel in (
        make_panel(3, length=80, seed=9),
        {**make_panel(2, length=80, seed=9), "unit02": long_unit},
    ):
        report = loo_cv_grid_search(panel, [cfg])
        expected = naive_fold_nrmse(panel, cfg)
        assert len(report.cells) == len(panel)
        for cell in report.cells:
            assert cell.nrmse == pytest.approx(expected[cell.unit], rel=1e-10)


def test_grid_search_draws_once_per_size_sparsity_seed(monkeypatch):
    calls = []
    real = esn.spectral_radius

    def counting(matrix):
        calls.append(matrix.shape[0])
        return real(matrix)

    monkeypatch.setattr(esn, "spectral_radius", counting)
    panel = make_panel(3, length=60, seed=2)
    configs = (
        make_quick_grid(seed=0, washout=5)
        + make_quick_grid(seed=1, washout=5)[::3]
        + [c for c in make_default_grid(seed=0, washout=5)
           if c.size == 50 and c.leak == 0.5 and c.ridge == 10.0]
    )
    report = loo_cv_grid_search(panel, configs)
    draws = {(c.size, c.sparsity, c.seed) for c in configs}
    assert len(draws) == 6  # sizes 50/150 at seeds 0/1, plus sparsity 0.4/0.7
    assert len(calls) == len(draws)
    assert len(report.scores) + len(report.invalid) == len(configs)


def test_near_constant_offset_target_is_not_marked_constant():
    # Targets 1e8 + N(0, 1): a one-pass pooled variance cancels to <= 0 here.
    rng = np.random.default_rng(21)
    panel = {}
    for u in range(4):
        x = rng.standard_normal(120).cumsum() * 0.1 + 5.0
        panel[f"unit{u}"] = (x, 1e8 + rng.standard_normal(120))
    report = loo_cv_grid_search(panel, make_quick_grid(seed=0, washout=10))
    assert not report.invalid
    assert len(report.scores) == 16
    assert all(0 < c.nrmse < 1e-7 for c in report.cells)


def test_constant_pool_is_detected_exactly():
    x = np.linspace(1.0, 2.0, 60)
    varying = 3.0 + np.sin(np.arange(60.0))
    cfg = small_cfg(washout=0)
    # held out "c": the pool of "a" and "b" is one repeated value
    same = {"a": (x, np.full(60, 5.0)), "b": (x + 1, np.full(60, 5.0)), "c": (x, varying)}
    with pytest.raises(ValueError, match="every config was invalid"):
        loo_cv_grid_search(same, [cfg])
    # two different constants pool into a non-constant target
    differ = {**same, "b": (x + 1, np.full(60, 6.0))}
    report = loo_cv_grid_search(differ, [cfg])
    assert not report.invalid
    assert [c.unit for c in report.cells] == ["a", "b", "c"]


def test_configs_differing_only_in_washout_are_scored_apart():
    panel = make_panel(3, length=80, seed=5)
    short, long = small_cfg(washout=0), small_cfg(washout=20)
    together = loo_cv_grid_search(panel, [short, long])
    for i, cfg in enumerate((short, long)):
        alone = loo_cv_grid_search(panel, [cfg])
        assert together.scores[i] == alone.scores[0]


def test_invalid_fold_excludes_config():
    # too few pooled rows for the reservoir size: singular at ridge 0, fine above
    panel = make_panel(3, length=30, seed=4)
    singular = small_cfg(size=60, ridge=0.0, washout=4)
    regular = small_cfg(size=60, ridge=0.1, washout=4)
    report = loo_cv_grid_search(panel, [singular, regular])
    assert 0 in report.invalid
    assert 1 in report.scores
    assert report.winner_index == 1


def test_grid_config_failing_in_the_solve_stage_is_invalid_with_the_ridge(monkeypatch):
    # the 10-unit ridge-0 config passes the Cholesky probe, then its solve fails
    real_solve = np.linalg.solve

    def solve(a, b):
        if a.shape[0] == 10:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(esn.np.linalg, "solve", solve)
    report = loo_cv_grid_search(make_panel(3), [small_cfg(size=10, ridge=0.0), small_cfg(size=12)])
    assert "readout normal equations are singular (ridge=0.0)" in report.invalid[0]
    assert report.winner_index == 1


def test_all_invalid_raises():
    length = 60
    x = np.linspace(0, 1, length)
    panel = {"a": (x, np.zeros(length)), "b": (x, np.zeros(length))}
    with pytest.raises(ValueError, match="invalid"):
        loo_cv_grid_search(panel, [small_cfg()])


def logistic_panel(shift, keep_positive=()):
    """Four coupled-logistic units with targets moved by ``shift``, except ``keep_positive``."""
    panel = {}
    for u in range(4):
        x, y = gen_coupled_logistic(CoupledMapConfig(length=150, seed=40 + u, coupling_yx=0.3))
        name = f"unit{u:02d}"
        panel[name] = (x, y if name in keep_positive else y + shift)
    return panel


def test_negative_mean_target_picks_lowest_error_config():
    # NRMSE divides by |mean|: with targets shifted below zero the scores stay
    # non-negative error magnitudes, so min() picks the best fit, not the worst.
    washout = 10
    configs = make_quick_grid(seed=0, washout=washout)
    plain_panel = logistic_panel(0.0)
    shifted_panel = logistic_panel(-1.2)
    plain = loo_cv_grid_search(plain_panel, configs)
    shifted = loo_cv_grid_search(shifted_panel, configs)
    assert all(np.mean(y) < 0 for _, y in shifted_panel.values())
    # The fit is shift-equivariant, so each fold's RMSE is unchanged and only
    # the normalizer moves from |mean| to |mean - 1.2|.
    for a, b in zip(plain.cells, shifted.cells):
        assert (a.config_index, a.unit) == (b.config_index, b.unit)
        mean = float(np.mean(plain_panel[a.unit][1][washout:]))
        assert b.nrmse * abs(mean - 1.2) == pytest.approx(a.nrmse * abs(mean), rel=1e-8)
    assert all(s >= 0 for s in shifted.scores.values())
    assert shifted.scores[shifted.winner_index] == min(shifted.scores.values())
    assert shifted.scores[shifted.winner_index] < max(shifted.scores.values())

    # one fold whose held-out target mean has the opposite sign
    mixed_panel = logistic_panel(-1.2, keep_positive=("unit00",))
    assert np.mean(mixed_panel["unit00"][1]) > 0 > np.mean(mixed_panel["unit01"][1])
    mixed = loo_cv_grid_search(mixed_panel, configs)
    assert not mixed.invalid
    assert all(c.nrmse >= 0 for c in mixed.cells)
    assert mixed.scores[mixed.winner_index] == min(mixed.scores.values())


def test_analyze_pair_matches_independent_curves():
    x, y = gen_coupled_logistic(CoupledMapConfig(length=300, seed=8, coupling_yx=0.2))
    cfg = small_cfg()
    grid = LagGrid(-8, 8)
    cxy, cyx, _ = analyze_pair(x, y, cfg, grid=grid)
    ref_xy = cross_map_curve(x, y, cfg, grid, "x->y")
    ref_yx = cross_map_curve(y, x, cfg, grid, "y->x")
    for got, ref in ((cxy, ref_xy), (cyx, ref_yx)):
        assert got.rhos == ref.rhos
        assert got.lags == ref.lags
        assert (got.peak_lag, got.peak_rho) == (ref.peak_lag, ref.peak_rho)
