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


@dataclass(eq=False)
class RawReservoir:
    """One unscaled random draw: everything a reservoir needs that depends
    only on (size, sparsity, seed)."""

    matrix: np.ndarray          # (N, N) sparse-uniform recurrent draw
    radius: float               # spectral radius of ``matrix``
    input_weights: np.ndarray   # (N,) sparse-uniform input draw


def draw_reservoir(size: int, sparsity: float, seed: int) -> RawReservoir:
    """Draw the sparse-uniform recurrent and input weights of one seed.

    Entries are Bernoulli(sparsity) gates times Uniform[-1, 1] draws, fully
    determined by the seed; the one eigensolve of a reservoir happens here.
    An all-zero recurrent draw cannot be rescaled and raises.
    """
    rng = np.random.default_rng(seed)
    gates = rng.random((size, size)) < sparsity
    draws = rng.uniform(-1.0, 1.0, (size, size))
    raw = np.where(gates, draws, 0.0)
    rho = spectral_radius(raw)
    if rho <= 0.0:
        raise ValueError("degenerate reservoir (zero spectral radius); reseed or raise sparsity")
    in_gates = rng.random(size) < sparsity
    in_draws = rng.uniform(-1.0, 1.0, size)
    input_weights = np.where(in_gates, in_draws, 0.0)
    if not np.any(input_weights):
        log.warning("all input weights are zero (sparsity=%g); reservoir sees no input", sparsity)
    return RawReservoir(raw, rho, input_weights)


def scale_reservoir(raw: RawReservoir, cfg: ReservoirConfig) -> Reservoir:
    """Rescale a draw to the configured spectral radius and input scale.

    The recurrent matrix is multiplied by target / rho(raw), so the achieved
    radius is rho(raw) times that scale (rho(cA) = c rho(A)) without a second
    eigensolve. The draw must come from ``draw_reservoir(cfg.size,
    cfg.sparsity, cfg.seed)``.
    """
    scale = cfg.spectral_radius / raw.radius
    return Reservoir(raw.matrix * scale, cfg.input_scale * raw.input_weights, raw.radius * scale)


def build_reservoir(cfg: ReservoirConfig) -> Reservoir:
    """The reservoir of one config: its seed's draw, rescaled."""
    return scale_reservoir(draw_reservoir(cfg.size, cfg.sparsity, cfg.seed), cfg)


def run_states(
    reservoir: Reservoir,
    cfg: ReservoirConfig,
    inputs: np.ndarray,
    initial_state: np.ndarray | None = None,
) -> np.ndarray:
    """Drive the reservoir with (normalized) inputs.

    A (T,) sequence gives (T, N) states. A (T, B) block holds B independent
    sequences, driven together with one stacked matrix product per step, and
    gives (B, T, N) states: unit-major, so each column's states are one
    contiguous (T, N) slab. A (N,) ``initial_state`` starts every column;
    the default is zero.

    Each column gets its own matrix-vector product with the same operands
    as a one-column run, so a column's states do not depend on the block
    width or on the column's position in the block.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("inputs must be (T,) or (T, B)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    block = x[:, None] if x.ndim == 1 else x
    n = reservoir.matrix.shape[0]
    u = np.zeros(n) if initial_state is None else np.asarray(initial_state, dtype=float)
    if u.shape != (n,):
        raise ValueError("initial state has wrong shape")
    t_len, width = block.shape
    leak = cfg.leak
    # Each step's row of ``states`` holds the input drive w_in * x_t until
    # the step overwrites it with the new state.
    states = np.multiply.outer(block.T, reservoir.input_weights)
    prev = np.broadcast_to(u, (width, n))
    candidate = np.empty((width, n))
    for t in range(t_len):
        cur = states[:, t]
        np.matmul(reservoir.matrix, prev[:, :, None], out=candidate[:, :, None])
        candidate += cur
        np.tanh(candidate, out=candidate)
        np.multiply(prev, 1.0 - leak, out=cur)
        candidate *= leak
        cur += candidate
        prev = cur
    return states[0] if x.ndim == 1 else states


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


class SingularSystemError(ValueError):
    """The regularized readout normal equations are not positive definite."""

    def __init__(self, ridge: float) -> None:
        super().__init__(f"readout normal equations are singular (ridge={ridge}); use ridge > 0")


def solve_ridge(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve the ridge normal equations (gram + ridge I) w = rhs.

    ``gram`` is the unregularized state Gram matrix. ``rhs`` is (N,) or
    (N, K); the K columns are right-hand sides solved with one factorization.
    Raises ``SingularSystemError`` if the regularized system is not positive
    definite, which can only happen with ridge 0: when the Cholesky probe
    fails, and when a rank-deficient system passes the probe on a rounding
    pivot and the solve then fails.
    """
    regularized = gram + ridge * np.eye(gram.shape[0])
    try:
        np.linalg.cholesky(regularized)
        return np.linalg.solve(regularized, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(ridge) from None


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
