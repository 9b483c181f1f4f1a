import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from echosent import esn
from echosent.esn import (
    Reservoir,
    ReservoirConfig,
    SingularSystemError,
    build_reservoir,
    draw_reservoir,
    nrmse,
    run_states,
    solve_ridge,
    spectral_radius,
)
from oracle import train_readout


def cfg(**kw):
    base = dict(
        size=20, spectral_radius=0.5, leak=0.5, input_scale=0.5,
        sparsity=0.5, ridge=1e-8, seed=42, washout=0,
    )
    base.update(kw)
    return ReservoirConfig(**base)


# ---------------------------------------------------------------------------
# spectral radius and reservoir construction


def test_spectral_radius_handles_complex_pair():
    theta = 1.1
    m = 0.9 * np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert spectral_radius(m) == pytest.approx(0.9, abs=1e-8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    sparsity=st.floats(0.05, 1.0),
    target=st.floats(0.01, 0.99),
)
def test_achieved_radius_matches_rescaled_matrix(size, seed, sparsity, target):
    c = cfg(size=size, seed=seed, sparsity=sparsity, spectral_radius=target)
    try:
        res = build_reservoir(c)
    except ValueError:
        assume(False)  # degenerate draw (zero spectral radius)
    assert abs(spectral_radius(res.matrix) - target) <= 1e-12


def test_build_reservoir_published_direction1_values():
    c = cfg(size=150, spectral_radius=0.1, sparsity=0.1, leak=0.5, input_scale=0.9)
    res = build_reservoir(c)
    assert spectral_radius(res.matrix) == pytest.approx(0.1, abs=1e-6)
    assert res.matrix.shape == (150, 150)
    assert res.input_weights.shape == (150,)


def test_build_reservoir_nonzero_fraction_tracks_sparsity():
    res = build_reservoir(cfg(size=100, sparsity=0.1))
    frac = np.count_nonzero(res.matrix) / res.matrix.size
    assert frac == pytest.approx(0.1, abs=0.02)


def test_build_reservoir_degenerate_zero_matrix():
    with pytest.raises(ValueError, match="degenerate"):
        build_reservoir(cfg(sparsity=1e-12))


def test_build_reservoir_deterministic():
    a = build_reservoir(cfg())
    b = build_reservoir(cfg())
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.input_weights, b.input_weights)


def frozen_build_reservoir(cfg):
    """The one-step draw-and-rescale code that ``build_reservoir`` replaced,
    kept as the oracle for byte-identical reservoirs."""
    n = cfg.size
    rng = np.random.default_rng(cfg.seed)
    gates = rng.random((n, n)) < cfg.sparsity
    draws = rng.uniform(-1.0, 1.0, (n, n))
    raw = np.where(gates, draws, 0.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(raw))))
    scale = cfg.spectral_radius / rho
    matrix = raw * scale
    in_gates = rng.random(n) < cfg.sparsity
    in_draws = rng.uniform(-1.0, 1.0, n)
    input_weights = cfg.input_scale * np.where(in_gates, in_draws, 0.0)
    return matrix, input_weights


@pytest.mark.parametrize("size", [1, 7, 50, 101, 250])
@pytest.mark.parametrize("sparsity", [0.1, 0.4, 1.0])
def test_build_reservoir_matches_frozen_draw(size, sparsity):
    for seed, radius, input_scale in ((0, 0.1, 0.3), (7, 0.5, 0.6), (123, 0.9, 0.9)):
        c = cfg(size=size, sparsity=sparsity, seed=seed, spectral_radius=radius,
                input_scale=input_scale)
        try:
            matrix, input_weights = frozen_build_reservoir(c)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="degenerate"):
                build_reservoir(c)
            continue
        res = build_reservoir(c)
        assert res.matrix.tobytes() == matrix.tobytes()
        assert res.input_weights.tobytes() == input_weights.tobytes()
        raw = draw_reservoir(size, sparsity, seed)
        assert raw.radius == spectral_radius(raw.matrix)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(spectral_radius=1.0)
    with pytest.raises(ValueError):
        cfg(leak=0.0)
    with pytest.raises(ValueError):
        cfg(sparsity=0.0)
    with pytest.raises(ValueError):
        cfg(ridge=-1.0)
    with pytest.raises(ValueError):
        cfg(input_scale=0.0)


# ---------------------------------------------------------------------------
# state evolution


def test_zero_input_zero_states():
    c = cfg()
    states = run_states(build_reservoir(c), c, np.zeros(10))
    assert np.all(states == 0.0)


def test_leak_one_is_pure_candidate():
    c = cfg(leak=1.0)
    res = build_reservoir(c)
    x = np.random.default_rng(1).standard_normal(5)
    states = run_states(res, c, x)
    u = np.zeros(c.size)
    for t in range(5):
        u = np.tanh(res.matrix @ u + res.input_weights * x[t])
        assert np.allclose(states[t], u, atol=0, rtol=0)


def test_two_unit_hand_recursion():
    matrix = np.array([[0.2, -0.1], [0.05, 0.3]])
    w_in = np.array([0.7, -0.4])
    res = Reservoir(matrix, w_in)
    c = cfg(size=2, leak=0.6)
    x = [0.5, -1.0, 0.25]
    states = run_states(res, c, np.array(x))
    u = [0.0, 0.0]
    for t, xt in enumerate(x):
        cand0 = math.tanh(0.2 * u[0] + -0.1 * u[1] + 0.7 * xt)
        cand1 = math.tanh(0.05 * u[0] + 0.3 * u[1] + -0.4 * xt)
        u = [0.4 * u[0] + 0.6 * cand0, 0.4 * u[1] + 0.6 * cand1]
        assert states[t, 0] == pytest.approx(u[0], abs=1e-12)
        assert states[t, 1] == pytest.approx(u[1], abs=1e-12)


def test_states_bounded_by_one():
    for leak in (0.3, 1.0):
        c = cfg(leak=leak, spectral_radius=0.9)
        states = run_states(
            build_reservoir(c), c, np.random.default_rng(2).standard_normal(200) * 5
        )
        assert np.max(np.abs(states)) <= 1.0


def test_non_finite_input_rejected():
    c = cfg()
    with pytest.raises(ValueError):
        run_states(build_reservoir(c), c, np.array([1.0, np.nan]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 60),
    t_len=st.integers(0, 80),
    seed=st.integers(0, 2**16),
    with_initial=st.booleans(),
)
def test_block_columns_equal_one_column_runs(size, t_len, seed, with_initial):
    c = cfg(size=size, seed=seed, sparsity=1.0, leak=0.7)
    res = build_reservoir(c)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t_len, 8)) * 2.0
    u0 = rng.uniform(-1, 1, size) if with_initial else None
    single = [run_states(res, c, x[:, k], initial_state=u0) for k in range(8)]
    for k in range(8):
        assert single[k].shape == (t_len, size)
    for width in (1, 2, 8):
        for perm in (list(range(width)), list(rng.permutation(8)[:width])[::-1]):
            block = run_states(res, c, x[:, perm], initial_state=u0)
            assert block.shape == (width, t_len, size)
            for j, k in enumerate(perm):
                assert np.array_equal(block[j], single[k])
                assert block[j].flags.c_contiguous


def test_block_rejects_bad_shapes():
    c = cfg()
    res = build_reservoir(c)
    with pytest.raises(ValueError, match="non-finite"):
        run_states(res, c, np.array([[1.0, 0.0], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match=r"\(T,\) or \(T, B\)"):
        run_states(res, c, np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="initial state"):
        run_states(res, c, np.zeros((3, 2)), initial_state=np.zeros((2, c.size)))


def test_fading_memory_single_case():
    c = cfg(size=50, spectral_radius=0.5, leak=0.5)
    res = build_reservoir(c)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(500)
    a = run_states(res, c, x, initial_state=rng.uniform(-1, 1, 50))
    b = run_states(res, c, x, initial_state=rng.uniform(-1, 1, 50))
    assert np.linalg.norm(a[-1] - b[-1]) < 1e-6


# ---------------------------------------------------------------------------
# readout training


def test_huge_ridge_shrinks_weights():
    rng = np.random.default_rng(7)
    states = rng.standard_normal((100, 10))
    targets = rng.standard_normal(100)
    w = train_readout(states, targets, ridge=1e12)
    assert np.linalg.norm(w) <= 1e-6


def test_exact_interpolation_with_zero_ridge():
    rng = np.random.default_rng(8)
    states = rng.standard_normal((60, 8))
    w_true = rng.standard_normal(8)
    targets = states @ w_true + 2.0  # nonzero mean for the NRMSE guard
    # absorb the offset into a constant state column
    states_aug = np.hstack([states, np.ones((60, 1))])
    w = train_readout(states_aug, targets, ridge=0.0)
    assert nrmse(states_aug @ w, targets) <= 1e-8


def test_two_by_two_hand_solve():
    states = np.array([[1.0, 0.0], [1.0, 1.0]])
    targets = np.array([1.0, 2.0])
    ridge = 0.5
    # normal equations: (U^T U + 0.5 I) w = U^T y, solved by hand
    g = states.T @ states + ridge * np.eye(2)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    expected = inv @ (states.T @ targets)
    w = train_readout(states, targets, ridge=ridge)
    assert w == pytest.approx(expected, abs=1e-10)


def test_singular_zero_ridge_raises():
    states = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(ValueError, match="ridge"):
        train_readout(states, np.array([1.0, 2.0, 3.0]), ridge=0.0)


def test_solve_stage_failure_at_ridge_zero_names_the_ridge(monkeypatch):
    # A rank-deficient system can pass the Cholesky probe on a rounding-positive
    # pivot and then fail inside the LU solve; that failure must carry the hint too.
    def singular_solve(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(esn.np.linalg, "solve", singular_solve)
    gram = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(SingularSystemError, match=r"ridge=0\.0"):
        solve_ridge(gram, np.array([1.0, 1.0]), 0.0)


def test_closed_form_matches_bruteforce_normal_equations():
    rng = np.random.default_rng(9)
    for _ in range(5):
        states = rng.standard_normal((200, 20))
        targets = rng.standard_normal(200)
        ridge = 10 ** rng.uniform(-3, 2)
        w = train_readout(states, targets, ridge=ridge)
        # brute force: augmented least squares [U; sqrt(ridge) I] w ~ [y; 0]
        aug = np.vstack([states, math.sqrt(ridge) * np.eye(20)])
        rhs = np.concatenate([targets, np.zeros(20)])
        oracle, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        assert w == pytest.approx(oracle, abs=1e-8)


def test_washout_drops_leading_rows():
    rng = np.random.default_rng(10)
    states = rng.standard_normal((50, 4))
    targets = rng.standard_normal(50)
    w_cut = train_readout(states, targets, ridge=0.1, washout=10)
    w_manual = train_readout(states[10:], targets[10:], ridge=0.1)
    assert np.array_equal(w_cut, w_manual)


# ---------------------------------------------------------------------------
# NRMSE


def test_nrmse_perfect_prediction_is_zero():
    obs = np.array([1.0, 2.0, 3.0])
    assert nrmse(obs, obs) == 0.0


def test_nrmse_hand_case():
    assert nrmse(np.array([2.0, 2.0]), np.array([1.0, 1.0])) == 1.0


def test_nrmse_negative_mean_divides_by_magnitude():
    assert nrmse(np.array([-2.0, -2.0]), np.array([-1.0, -1.0])) == 1.0


def test_nrmse_zero_mean_rejected():
    with pytest.raises(ValueError, match="zero-mean"):
        nrmse(np.array([1.0, 2.0]), np.array([-1.0, 1.0]))


def test_nrmse_shape_checks():
    with pytest.raises(ValueError):
        nrmse(np.array([1.0]), np.array([1.0, 2.0]))


def test_solve_ridge_columns_match_single_solves():
    rng = np.random.default_rng(31)
    u = rng.standard_normal((60, 15))
    gram = u.T @ u
    rhs = u.T @ rng.standard_normal((60, 4))
    block = solve_ridge(gram, rhs, 0.5)
    assert block.shape == (15, 4)
    for k in range(4):
        assert np.max(np.abs(block[:, k] - solve_ridge(gram, rhs[:, k], 0.5))) <= 1e-12
    singular = u[:, :5].T @ u[:, :5]
    singular[:, 2] = singular[2, :] = 0.0
    for b in (rhs[:5], rhs[:5, 0]):
        with pytest.raises(ValueError, match="normal equations are singular"):
            solve_ridge(singular, b, 0.0)


# ---------------------------------------------------------------------------
# Cholesky probe bound


def probed_solve(gram, rhs, ridge):
    """Reference: the Cholesky probe on every call, then the LU solve of
    ``gram + ridge * I``."""
    regularized = gram + ridge * np.eye(gram.shape[0])
    try:
        np.linalg.cholesky(regularized)
        return np.linalg.solve(regularized, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(ridge) from None


def duplicated_states(seed, rows=50, size=6):
    """Tanh-range states whose last unit copies the first: a singular Gram."""
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, size))
    u[:, -1] = u[:, 0]
    return u


@pytest.mark.parametrize("seed", range(20))
def test_rank_deficient_gram_at_or_below_the_bound_runs_the_probe(probes, seed):
    u = duplicated_states(seed)
    gram = u.T @ u
    rhs = u.T @ np.random.default_rng(seed + 100).standard_normal(len(u))
    bound = esn.ridge_rounding_bound(len(u), gram.shape[0], float(np.trace(gram)))
    assert 0.0 < bound < 1e-9
    for ridge in (0.0, 1e-300, bound / 2, bound):
        try:
            expected = probed_solve(gram, rhs, ridge)
        except SingularSystemError:
            expected = None
        probes.clear()
        if expected is None:
            with pytest.raises(SingularSystemError):
                solve_ridge(gram, rhs, ridge, rows=len(u))
        else:
            assert solve_ridge(gram, rhs, ridge, rows=len(u)).tobytes() == expected.tobytes()
        assert probes == [gram.shape]


@pytest.mark.parametrize("ridge", [1e-6, 0.1, 1.0, 10.0, 100.0])
def test_ridge_above_the_bound_skips_the_probe_with_the_same_bits(probes, ridge):
    rng = np.random.default_rng(5)
    for rows, size in ((40, 10), (200, 60), (30, 50)):
        u = np.tanh(rng.standard_normal((rows, size)))
        u[:, -1] = u[:, 0]
        gram = u.T @ u
        gram[1, 2] = gram[2, 1] = -0.0  # adding ridge * I turns it into +0.0
        rhs = u.T @ rng.standard_normal((rows, 3))
        assert ridge > esn.ridge_rounding_bound(rows, size, float(np.trace(gram)))
        for b in (rhs, rhs[:, 0]):
            direct = np.linalg.solve(gram + ridge * np.eye(size), b)
            probes.clear()
            assert solve_ridge(gram, b, ridge, rows=rows).tobytes() == direct.tobytes()
            assert probes == []


def test_solve_ridge_probes_without_a_row_count(probes):
    u = duplicated_states(0)
    solve_ridge(u.T @ u, u.T @ np.ones(len(u)), 10.0)
    assert probes == [(6, 6)]


def test_ridge_bound_falls_back_to_the_probe_beyond_its_range():
    assert esn.ridge_rounding_bound(10**13, 10**4, 1.0) == math.inf
    assert esn.ridge_rounding_bound(100, 10, 0.0) == 0.0
    assert math.isnan(esn.ridge_rounding_bound(100, 10, math.nan))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    units=st.integers(2, 6),
    rows=st.integers(1, 40),
    size=st.integers(1, 40),
    rank=st.integers(1, 3),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    seed=st.integers(0, 2**16),
    factor=st.floats(1.0, 4.0, exclude_min=True),
)
def test_fold_gram_passes_the_probe_wherever_the_bound_skips_it(
    units, rows, size, rank, scale, seed, factor
):
    # A difference of low-rank Grams, totals minus one unit as in the grid's
    # folds: just above the bound the regularized system is positive definite.
    rng = np.random.default_rng(seed)
    blocks = [
        scale * np.tanh(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, size)))
        for _ in range(units)
    ]
    grams = [b.T @ b for b in blocks]
    total = sum(grams)
    fold = total - grams[0]
    ridge = factor * esn.ridge_rounding_bound(units * rows, size, float(np.trace(total)))
    np.linalg.cholesky(fold + ridge * np.eye(size))
