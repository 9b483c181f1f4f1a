"""Leaky echo state network: reservoir construction, state evolution,
ridge-regularized readout training and NRMSE.

The recurrent weights are random and fixed; only the linear readout is
trained. State update with leak rate psi:

    candidate_t = tanh(A u_{t-1} + w_in * x_t)
    u_t         = (1 - psi) u_{t-1} + psi * candidate_t

The recurrent matrix is generated sparse-uniform and rescaled so its
spectral radius hits the configured target; a target below 1 is the
fading-memory (echo state) necessary condition. Callers z-score inputs and
targets with ``zscore`` before driving the reservoir.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReservoirConfig:
    size: int
    spectral_radius: float
    leak: float
    input_scale: float
    sparsity: float
    ridge: float
    seed: int
    washout: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if not (0.0 < self.spectral_radius < 1.0):
            raise ValueError("spectral_radius must be in (0, 1)")
        if not (0.0 < self.leak <= 1.0):
            raise ValueError("leak must be in (0, 1]")
        if self.input_scale <= 0:
            raise ValueError("input_scale must be positive")
        if not (0.0 < self.sparsity <= 1.0):
            raise ValueError("sparsity must be in (0, 1]")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.washout < 0:
            raise ValueError("washout must be >= 0")


@dataclass(eq=False)
class Reservoir:
    matrix: np.ndarray          # (N, N) recurrent weights, rescaled
    input_weights: np.ndarray   # (N,)
    achieved_radius: float


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a (generally nonsymmetric) matrix.

    Uses a full dense eigensolve, so complex-conjugate dominant pairs are
    handled exactly.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def build_reservoir(cfg: ReservoirConfig) -> Reservoir:
    """Draw sparse-uniform recurrent/input weights and rescale to the target radius.

    Entries are Bernoulli(sparsity) gates times Uniform[-1, 1] draws, fully
    determined by the seed; the recurrent matrix is rescaled by
    target / rho(raw), so the achieved radius is rho(raw) times that scale
    (rho(cA) = c rho(A)) without a second eigensolve. An all-zero raw matrix
    cannot be rescaled and raises.
    """
    n = cfg.size
    rng = np.random.default_rng(cfg.seed)
    gates = rng.random((n, n)) < cfg.sparsity
    draws = rng.uniform(-1.0, 1.0, (n, n))
    raw = np.where(gates, draws, 0.0)
    rho = spectral_radius(raw)
    if rho <= 0.0:
        raise ValueError("degenerate reservoir (zero spectral radius); reseed or raise sparsity")
    scale = cfg.spectral_radius / rho
    matrix = raw * scale
    in_gates = rng.random(n) < cfg.sparsity
    in_draws = rng.uniform(-1.0, 1.0, n)
    input_weights = cfg.input_scale * np.where(in_gates, in_draws, 0.0)
    if not np.any(input_weights):
        log.warning("all input weights are zero (sparsity=%g); reservoir sees no input", cfg.sparsity)
    return Reservoir(matrix, input_weights, rho * scale)


def run_states(
    reservoir: Reservoir,
    cfg: ReservoirConfig,
    inputs: np.ndarray,
    initial_state: np.ndarray | None = None,
) -> np.ndarray:
    """Drive the reservoir with a (normalized) input sequence; returns (T, N) states."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    n = reservoir.matrix.shape[0]
    u = np.zeros(n) if initial_state is None else np.asarray(initial_state, dtype=float).copy()
    if u.shape != (n,):
        raise ValueError("initial state has wrong shape")
    leak = cfg.leak
    states = np.empty((len(x), n))
    for t in range(len(x)):
        candidate = np.tanh(reservoir.matrix @ u + reservoir.input_weights * x[t])
        u = (1.0 - leak) * u + leak * candidate
        states[t] = u
    return states


def train_readout(
    states: np.ndarray, targets: np.ndarray, ridge: float, washout: int = 0
) -> np.ndarray:
    """Closed-form ridge solution of the readout weights on post-washout states.

    Solves (U^T U + ridge I) w = U^T y with U the (rows = time) state matrix;
    see ``solve_ridge``.
    """
    u = np.asarray(states, dtype=float)
    y = np.asarray(targets, dtype=float)
    if u.ndim != 2 or y.ndim != 1 or len(u) != len(y):
        raise ValueError("states must be (T, N) and targets (T,) of equal length")
    u = u[washout:]
    y = y[washout:]
    n = u.shape[1]
    if len(u) < n:
        log.warning("only %d post-washout samples for %d reservoir units", len(u), n)
    return solve_ridge(u.T @ u, u.T @ y, ridge)


def solve_ridge(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve the ridge normal equations (gram + ridge I) w = rhs.

    ``gram`` is the unregularized state Gram matrix. ``rhs`` is (N,) or
    (N, K); the K columns are right-hand sides solved with one factorization.
    Raises if the regularized system is not positive definite, which can only
    happen with ridge 0.
    """
    regularized = gram + ridge * np.eye(gram.shape[0])
    try:
        np.linalg.cholesky(regularized)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"readout normal equations are singular (ridge={ridge}); use ridge > 0"
        ) from None
    return np.linalg.solve(regularized, rhs)


def nrmse(predictions: np.ndarray, observations: np.ndarray) -> float:
    """Root-mean-squared error divided by the absolute observation mean.

    The observation mean is the normalizer, so it must be bounded away from
    zero; z-scoring the target is disallowed for this metric. Its absolute
    value keeps the score non-negative, so lower is better whatever the
    target's sign.
    """
    pred = np.asarray(predictions, dtype=float)
    obs = np.asarray(observations, dtype=float)
    if pred.shape != obs.shape or pred.ndim != 1 or len(pred) == 0:
        raise ValueError("predictions and observations must be equal-length 1-D arrays")
    mean = float(np.mean(obs))
    if abs(mean) < 1e-9:
        raise ValueError(
            "NRMSE undefined for (near-)zero-mean series; "
            "z-scoring the target is disallowed for this metric"
        )
    return float(np.sqrt(np.mean((pred - obs) ** 2)) / abs(mean))


def _scale_stats(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    sd = float(np.std(values))
    return mean, sd if sd > 0 else 1.0


def zscore(values: np.ndarray) -> np.ndarray:
    """Values shifted to zero mean and divided by their sd (1 for a constant series)."""
    v = np.asarray(values, dtype=float)
    mean, sd = _scale_stats(v)
    return (v - mean) / sd
