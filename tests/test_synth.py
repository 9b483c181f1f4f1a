import numpy as np
import pytest

from echosent.ccm import LagGrid, analyze_pair, default_ccm_config
from echosent.synth import CoupledMapConfig, gen_ar1, gen_coupled_logistic


def test_config_validation():
    with pytest.raises(ValueError):
        CoupledMapConfig(length=100, seed=0, growth_x=3.4)
    with pytest.raises(ValueError):
        CoupledMapConfig(length=100, seed=0, growth_y=4.0)
    with pytest.raises(ValueError):
        CoupledMapConfig(length=100, seed=0, coupling_xy=-0.1)
    with pytest.raises(ValueError):
        CoupledMapConfig(length=100, seed=0, delay=-1)
    with pytest.raises(ValueError):
        CoupledMapConfig(length=0, seed=0)


def test_trajectories_stay_in_unit_interval():
    x, y = gen_coupled_logistic(CoupledMapConfig(length=2000, seed=1, coupling_yx=0.2))
    assert len(x) == len(y) == 2000
    assert np.all((x > 0) & (x < 1))
    assert np.all((y > 0) & (y < 1))


def test_divergent_parameters_raise_with_step():
    with pytest.raises(ValueError, match="step"):
        gen_coupled_logistic(
            CoupledMapConfig(length=200, seed=0, growth_y=3.99, coupling_yx=0.5)
        )


def test_generation_deterministic():
    cfg = CoupledMapConfig(length=300, seed=9, coupling_yx=0.1)
    x1, y1 = gen_coupled_logistic(cfg)
    x2, y2 = gen_coupled_logistic(cfg)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)


def test_observation_noise_added_after_generation():
    base = CoupledMapConfig(length=300, seed=9, coupling_yx=0.1)
    noisy = CoupledMapConfig(length=300, seed=9, coupling_yx=0.1, noise_sd=0.05)
    x0, _ = gen_coupled_logistic(base)
    x1, _ = gen_coupled_logistic(noisy)
    assert not np.array_equal(x0, x1)
    assert np.std(x1 - x0) == pytest.approx(0.05, abs=0.01)


def test_uncoupled_pair_is_two_independent_maps():
    x, y = gen_coupled_logistic(CoupledMapConfig(length=1000, seed=3))
    # x follows its own logistic recursion exactly when coupling_xy == 0
    r = 3.8
    assert x[1:] == pytest.approx(x[:-1] * (r - r * x[:-1]), abs=1e-12)


def test_ground_truth_direction_recovered_single_seed():
    cfg = default_ccm_config(7)
    x, y = gen_coupled_logistic(
        CoupledMapConfig(length=500, seed=1000, coupling_yx=0.1, growth_y=3.82)
    )
    _, _, verdict = analyze_pair(x, y, cfg, grid=LagGrid(-30, 30))
    assert verdict.classification == "X_causes_Y"


def test_uncoupled_rarely_yields_confident_verdicts():
    # 40-seed slice of the null property (the AR(1) control runs at full
    # scale in the acceptance suite)
    cfg = default_ccm_config(7)
    bad = 0
    for s in range(40):
        x, y = gen_coupled_logistic(CoupledMapConfig(length=500, seed=7000 + s))
        _, _, v = analyze_pair(x, y, cfg, grid=LagGrid(-30, 30))
        if v.classification != "inconclusive" and not v.weak:
            bad += 1
    assert bad <= 8  # 20% of 40


def test_coupling_strength_monotonicity():
    cfg = default_ccm_config(7)
    means = []
    for coupling in (0.05, 0.1, 0.2):
        vals = []
        for s in range(20):
            x, y = gen_coupled_logistic(
                CoupledMapConfig(length=500, seed=4000 + s, coupling_yx=coupling)
            )
            curve = analyze_pair(x, y, cfg, grid=LagGrid(-10, 10))[1]
            vals.append(abs(curve.peak_rho))
        means.append(float(np.mean(vals)))
    assert means[0] <= means[1] <= means[2]


# ---------------------------------------------------------------------------
# AR(1)


def test_ar1_phi_zero_is_white_noise():
    x = gen_ar1(0.0, 1000, 5)
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1) <= 0.1


def test_ar1_lag_one_autocorrelation_matches_phi():
    x = gen_ar1(0.9, 1000, 6)
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r1 == pytest.approx(0.9, abs=0.05)


def test_ar1_deterministic_and_validated():
    assert np.array_equal(gen_ar1(0.5, 100, 7), gen_ar1(0.5, 100, 7))
    with pytest.raises(ValueError):
        gen_ar1(1.0, 100, 7)
    with pytest.raises(ValueError):
        gen_ar1(0.5, 0, 7)


# ---------------------------------------------------------------------------
# Oracle: the recurrences stepped one numpy float64 scalar at a time. The
# generators run them over plain Python floats, which perform the same IEEE
# operations in the same order, so every output must match bit for bit.


def reference_coupled_logistic(cfg: CoupledMapConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    total = cfg.transient + cfg.length
    x = np.empty(total)
    y = np.empty(total)
    x[0] = rng.uniform(0.2, 0.8)
    y[0] = rng.uniform(0.2, 0.8)
    for t in range(total - 1):
        xd = x[max(t - cfg.delay, 0)]
        yd = y[max(t - cfg.delay, 0)]
        x[t + 1] = x[t] * (cfg.growth_x - cfg.growth_x * x[t] - cfg.coupling_xy * yd)
        y[t + 1] = y[t] * (cfg.growth_y - cfg.growth_y * y[t] - cfg.coupling_yx * xd)
        if not (0.0 < x[t + 1] < 1.0 and 0.0 < y[t + 1] < 1.0):
            raise ValueError(f"trajectory left (0, 1) at step {t + 1}; weaken the coupling")
    x = x[cfg.transient:]
    y = y[cfg.transient:]
    if cfg.noise_sd > 0:
        x = x + rng.normal(0.0, cfg.noise_sd, cfg.length)
        y = y + rng.normal(0.0, cfg.noise_sd, cfg.length)
    return x, y


def reference_ar1(phi: float, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(length)
    out = np.empty(length)
    out[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, length):
        out[t] = phi * out[t - 1] + eps[t]
    return out


def outcome(generate, *args):
    """The arrays a generator returns, or the message of the ValueError it raises."""
    try:
        return generate(*args)
    except ValueError as exc:
        return str(exc)


def assert_identical(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("noise_sd", [0.0, 0.05])
@pytest.mark.parametrize("length", [1, 2, 300])
@pytest.mark.parametrize("transient", [0, 100])
@pytest.mark.parametrize("delay", [0, 1, 3, 7])
def test_coupled_maps_match_the_scalar_oracle_bit_for_bit(delay, transient, length, noise_sd):
    # two-way coupling, so the delay reaches both updates
    for seed in range(4):
        cfg = CoupledMapConfig(length=length, seed=seed, coupling_xy=0.05, coupling_yx=0.1,
                               growth_y=3.82, delay=delay, noise_sd=noise_sd,
                               transient=transient)
        assert_identical(gen_coupled_logistic(cfg), reference_coupled_logistic(cfg))


@pytest.mark.parametrize("delay", [0, 1, 3, 7])
def test_escaping_maps_raise_the_oracle_message(delay):
    escapes = 0
    for seed in range(20):
        cfg = CoupledMapConfig(length=300, seed=seed, growth_y=3.99, coupling_yx=0.5,
                               coupling_xy=0.3, delay=delay)
        want = outcome(reference_coupled_logistic, cfg)
        assert_identical(outcome(gen_coupled_logistic, cfg), want)
        escapes += isinstance(want, str)
    assert escapes >= 10


@pytest.mark.parametrize("length", [1, 2, 300])
@pytest.mark.parametrize("phi", [0.0, -0.3, 0.95])
def test_ar1_matches_the_scalar_oracle_bit_for_bit(phi, length):
    for seed in range(4):
        assert_identical((gen_ar1(phi, length, seed),), (reference_ar1(phi, length, seed),))
