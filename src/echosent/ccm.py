"""Lag-scanned cross mapping with reservoir models.

For a candidate lag, a readout is trained to predict the target series
shifted by that lag from the reservoir states of the input series; the
Pearson correlation between predictions and observations, traced over a lag
grid, gives a correlation curve per direction. Peak lag signs classify the
coupling: recovering a cause from its effect peaks at a negative lag, so a
pair whose input->target curve peaks at a positive lag while the reverse
curve peaks at a negative lag indicates the input series is the cause.

Hyperparameters are picked by leave-one-unit-out cross validation over a
config grid, scored by mean held-out NRMSE.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .esn import (
    Reservoir,
    ReservoirConfig,
    SingularSystemError,
    build_reservoir,
    draw_reservoir,
    nrmse,
    run_states,
    scale_reservoir,
    solve_ridge,
    zscore,
)

log = logging.getLogger(__name__)

CLASSIFICATIONS = (
    "X_causes_Y",
    "Y_causes_X",
    "bidirectional",
    "instantaneous_bidirectional",
    "delayed_coupling",
    "inconclusive",
)

WEAK_THRESHOLD = 0.2
MIN_WINDOW = 10

#: Reservoir defaults for cross-mapping runs; moderate memory plus enough
#: ridge to keep noise-pair correlation curves flat.
DEFAULT_CCM_PARAMS = dict(
    size=100,
    spectral_radius=0.5,
    leak=0.5,
    input_scale=0.5,
    sparsity=0.1,
    ridge=10.0,
    washout=30,
)


def default_ccm_config(seed: int = 0) -> "ReservoirConfig":
    return ReservoirConfig(seed=seed, **DEFAULT_CCM_PARAMS)


@dataclass(frozen=True)
class LagGrid:
    lo: int = -30
    hi: int = 30

    def __post_init__(self) -> None:
        if not (self.lo < 0 < self.hi):
            raise ValueError("lag grid must straddle zero (lo < 0 < hi)")

    def values(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))


def align_window(length: int, lag: int) -> tuple[slice, slice]:
    """Index ranges pairing input time t with target time t + lag.

    Returns ``(input_slice, target_slice)`` of equal length ``length -
    abs(lag)``. In one-based terms the input range is
    ``[1 + |lag| - h, length - h]`` with ``h = max(lag, 0)``.
    """
    if abs(lag) >= length:
        raise ValueError(f"|lag|={abs(lag)} must be smaller than the series length {length}")
    if lag >= 0:
        return slice(0, length - lag), slice(lag, length)
    k = -lag
    return slice(k, length), slice(0, length - k)


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Standard sample Pearson correlation."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length 1-D arrays of length >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("constant series")
    return float((xc @ yc) / math.sqrt(sx * sy))


@dataclass(frozen=True)
class LagCorrelationCurve:
    """Correlation over the lag grid for one mapping direction.

    ``direction`` names the input series first ("x->y" maps reservoir states
    of x to y). Peak ties break toward the smallest |lag|, then toward the
    negative lag.
    """

    direction: str
    lags: tuple[int, ...]
    rhos: tuple[float, ...]
    peak_lag: int
    peak_rho: float
    skipped: tuple[int, ...] = ()


def cross_map_curve(
    inputs: np.ndarray,
    targets: np.ndarray,
    cfg: ReservoirConfig,
    grid: LagGrid = LagGrid(),
    direction: str = "x->y",
    min_window: int = MIN_WINDOW,
    states: np.ndarray | None = None,
) -> LagCorrelationCurve:
    """Trace the prediction correlation of a ridge readout over the lag grid.

    Reservoir states are computed once from the z-scored input series,
    unless the caller passes them as ``states``. Per lag, the readout is
    ridge-trained on the aligned window (the first ``cfg.washout`` state rows
    of the series are excluded) and evaluated in place. Lags with |lag| not
    below the series length are skipped; so are lags whose window is shorter
    than ``min_window``, whose target window is constant or whose prediction
    is constant on its window, each with a warning. ``skipped`` lists them in
    grid order.

    Cost: one Gram over the union of the training windows and one ridge
    factorization, solved for every lag's target at once. A window is the
    union minus its first or its last few rows (never both), and on each side
    every window drops a leading block of one row set H. Per side, one small
    Cholesky factor of ``I - H A^-1 H^T`` (A: the union's regularized Gram)
    then gives every window's Woodbury correction. One product predicts every
    lag, and Pearson runs over all lags at once. At ridge 0, a window whose
    system is singular raises ``SingularSystemError``, as its direct fit
    would.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("input and target series must be equal-length 1-D arrays")
    t_len = len(x)
    if states is None:
        states = run_states(build_reservoir(cfg), cfg, zscore(x))

    # Plan: apply the skip rules. Each usable lag gets its training window
    # [a, b) and one row of ``targets_z``: its z-scored target on [a, b),
    # zero elsewhere.
    skipped: set[int] = set()
    plan: list[tuple[int, int, int]] = []
    lag_values = grid.values()
    targets_z = np.zeros((len(lag_values), t_len))
    for lag in lag_values:
        if abs(lag) >= t_len:
            skipped.add(lag)
            continue
        s_in, _ = align_window(t_len, lag)
        a = max(s_in.start, cfg.washout)
        b = s_in.stop
        width = max(b - a, 0)
        if width < min_window:
            log.warning("%s: lag %d skipped (window %d < %d)", direction, lag, width, min_window)
            skipped.add(lag)
            continue
        obs = y[a + lag:b + lag]
        centred = obs - obs.sum() / width
        squares = float(centred @ centred)
        if squares == 0.0:
            log.warning("%s: lag %d skipped (constant target window)", direction, lag)
            skipped.add(lag)
            continue
        np.divide(centred, math.sqrt(squares / width), out=targets_z[len(plan), a:b])
        plan.append((lag, a, b))
    if not plan:
        raise ValueError("no usable lag in the grid (series too short?)")

    # Solve. Lags >= 0 start at the washout and lags <= 0 end at the series
    # end, so every window starts at the union's start lo or ends at its end
    # hi: it drops either its first or its last union rows, never both. Each
    # side's rows are ordered so that a window drops a leading block of them;
    # ``drops`` counts that block per lag.
    lo = min(a for _, a, _ in plan)
    hi = max(b for _, _, b in plan)
    head_max = max(a for _, a, _ in plan)
    tail_min = min(b for _, _, b in plan)
    starts = np.array([a - lo for _, a, _ in plan])
    stops = np.array([b - lo for _, _, b in plan])
    union = states[lo:hi]
    targets_z = targets_z[:len(plan), lo:hi]
    if cfg.ridge == 0.0:
        # Each side's shortest window lies inside all its others. Fewer rows
        # than units, or a unit that never moves there, make it singular;
        # checked exactly here, as the Woodbury system below shows it only
        # up to rounding.
        for a, b in ((head_max, hi), (lo, tail_min)):
            if b - a < states.shape[1] or not states[a:b].any(axis=0).all():
                raise SingularSystemError(cfg.ridge)
    sides = [(states[lo:head_max], starts), (states[tail_min:hi][::-1], hi - lo - stops)]
    dropped = np.concatenate([rows for rows, _ in sides])
    rhs = np.concatenate([dropped, targets_z @ union]).T
    solved = solve_ridge(union.T @ union, rhs, cfg.ridge)
    gains = np.split(solved[:, :len(dropped)], [len(sides[0][0])], axis=1)  # A^-1 H^T per side
    union_weights = solved[:, len(dropped):]
    weights = union_weights.copy()
    for (rows, drops), gain in zip(sides, gains):
        if not len(rows):
            continue
        # Woodbury: (A - H_D^T H_D)^-1 = A^-1 + A^-1 H_D^T (I - C_DD)^-1 H_D A^-1
        # with C = H A^-1 H^T. The Cholesky factor of a leading block of
        # I - C is the leading block of its factor, and the full block is the
        # system of the side's shortest window, so one probe checks them all.
        # At ridge 0 the smallest eigenvalue of I - C is the least share of a
        # state direction's union energy that this window keeps. An exactly
        # singular window leaves only rounding noise of either sign there, so
        # a share below sqrt(eps) counts as singular.
        system = np.eye(len(rows)) - rows @ gain
        if cfg.ridge == 0.0 and np.linalg.eigvalsh(system)[0] < math.sqrt(np.finfo(float).eps):
            raise SingularSystemError(cfg.ridge)
        try:
            chol = np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            raise SingularSystemError(cfg.ridge) from None
        block = np.arange(len(rows))[:, None] < drops
        fix = np.where(block, rows @ union_weights, 0.0)
        fix = np.where(block, np.linalg.solve(chol, fix), 0.0)
        fix = np.where(block, np.linalg.solve(chol.T, fix), 0.0)
        weights += gain @ fix

    # Score: one product predicts every lag on the whole union; Pearson runs
    # per row over its window. A prediction that is constant on its window
    # (every value equal to its first) is degenerate.
    preds = weights.T @ union.T
    offsets = np.arange(hi - lo)
    inside = (offsets >= starts[:, None]) & (offsets < stops[:, None])
    n = stops - starts
    preds -= preds[np.arange(len(plan)), starts][:, None]
    preds *= inside
    flat = ~preds.any(axis=1)
    preds -= (preds.sum(axis=1) / n)[:, None]
    preds *= inside
    # Both sides are centred already (the targets' mean is rounding noise),
    # so the covariance needs no second centring of the targets.
    var_y = np.einsum("ij,ij->i", targets_z, targets_z) - targets_z.sum(axis=1) ** 2 / n
    var_p = np.einsum("ij,ij->i", preds, preds)
    cov = np.einsum("ij,ij->i", preds, targets_z)
    lags: list[int] = []
    rhos: list[float] = []
    for (lag, _, _), degenerate, c, vp, vy in zip(
        plan, flat.tolist(), cov.tolist(), var_p.tolist(), var_y.tolist()
    ):
        if degenerate:
            log.warning("%s: lag %d skipped (degenerate prediction)", direction, lag)
            skipped.add(lag)
            continue
        lags.append(lag)
        rhos.append(c / math.sqrt(vp * vy))
    if not lags:
        raise ValueError("no usable lag in the grid (series too short?)")
    order = sorted(range(len(lags)), key=lambda i: (-rhos[i], abs(lags[i]), lags[i]))
    best = order[0]
    return LagCorrelationCurve(
        direction, tuple(lags), tuple(rhos), lags[best], rhos[best], tuple(sorted(skipped))
    )


@dataclass(frozen=True)
class CausalVerdict:
    classification: str
    peak_lag_xy: int
    peak_rho_xy: float
    peak_lag_yx: int
    peak_rho_yx: float
    weak: bool
    note: str = ""


def classify_peaks(
    peak_lag_xy: int,
    peak_lag_yx: int,
    peak_rho_xy: float,
    peak_rho_yx: float,
    weak_threshold: float = WEAK_THRESHOLD,
) -> CausalVerdict:
    """Classification from the two peak lags' signs.

    (x->y positive, y->x negative) reads as "X causes Y" and mirrored for the
    reverse; both negative is bidirectional coupling, both exactly zero is
    instantaneous bidirectional, both positive indicates delay-dominated
    coupling, and any remaining zero/nonzero mix is inconclusive. Peaks that
    are both below the weak threshold in magnitude keep their class but carry
    a weak-relationship note.
    """
    sx = (peak_lag_xy > 0) - (peak_lag_xy < 0)
    sy = (peak_lag_yx > 0) - (peak_lag_yx < 0)
    if sx > 0 and sy < 0:
        label = "X_causes_Y"
    elif sx < 0 and sy > 0:
        label = "Y_causes_X"
    elif sx < 0 and sy < 0:
        label = "bidirectional"
    elif sx == 0 and sy == 0:
        label = "instantaneous_bidirectional"
    elif sx > 0 and sy > 0:
        label = "delayed_coupling"
    else:
        label = "inconclusive"
    weak = max(abs(peak_rho_xy), abs(peak_rho_yx)) < weak_threshold
    note = "weak relationship (both peak correlations below 0.2)" if weak else ""
    return CausalVerdict(
        label, peak_lag_xy, peak_rho_xy, peak_lag_yx, peak_rho_yx, weak, note
    )


def classify(curve_xy: LagCorrelationCurve, curve_yx: LagCorrelationCurve) -> CausalVerdict:
    return classify_peaks(
        curve_xy.peak_lag, curve_yx.peak_lag, curve_xy.peak_rho, curve_yx.peak_rho
    )


def analyze_pair(
    x: np.ndarray,
    y: np.ndarray,
    cfg: ReservoirConfig,
    grid: LagGrid = LagGrid(),
    min_window: int = MIN_WINDOW,
) -> tuple[LagCorrelationCurve, LagCorrelationCurve, CausalVerdict]:
    """Run both mapping directions through one reservoir and classify the pair.

    The two z-scored series are driven as one two-column state block; each
    column's states equal those of a one-column run.
    """
    if np.shape(x) != np.shape(y) or np.ndim(x) != 1:
        raise ValueError("input and target series must be equal-length 1-D arrays")
    block = run_states(build_reservoir(cfg), cfg, np.column_stack([zscore(x), zscore(y)]))
    curve_xy = cross_map_curve(x, y, cfg, grid, "x->y", min_window, states=block[0])
    curve_yx = cross_map_curve(y, x, cfg, grid, "y->x", min_window, states=block[1])
    return curve_xy, curve_yx, classify(curve_xy, curve_yx)


# ---------------------------------------------------------------------------
# Leave-one-unit-out cross-validated grid search.

@dataclass(frozen=True)
class CvCell:
    config_index: int
    unit: str
    nrmse: float


@dataclass(frozen=True)
class CvReport:
    configs: tuple[ReservoirConfig, ...]
    cells: tuple[CvCell, ...]
    scores: Mapping[int, float]
    invalid: Mapping[int, str]
    winner_index: int

    @property
    def winner(self) -> ReservoirConfig:
        return self.configs[self.winner_index]


def _reservoir_key(cfg: ReservoirConfig) -> tuple:
    """Everything but ridge: configs with one key share their states.

    The draw's (size, sparsity, seed) leads, so sorting by key puts all
    rescalings of one draw next to each other.
    """
    return (cfg.size, cfg.sparsity, cfg.seed, cfg.spectral_radius, cfg.input_scale,
            cfg.leak, cfg.washout)


def _loo_folds(
    reservoir: Reservoir,
    group: Sequence[ReservoirConfig],
    blocks: Sequence[tuple[list[str], np.ndarray]],
    targets: Mapping[str, np.ndarray],
) -> tuple[list[list[float]], list[str]]:
    """Held-out NRMSE per unit for configs that differ only in ridge.

    ``blocks`` holds, per series length, its units and their z-scored inputs
    as one (T, B) block. Returns per config its fold scores in sorted unit
    order and its invalidity reason ("" if every fold succeeded); a config
    stops at its first failing fold.
    """
    base = group[0]
    states: dict[str, np.ndarray] = {}
    for members, block in blocks:
        unit_states = run_states(reservoir, base, block)
        for k, unit in enumerate(members):
            states[unit] = unit_states[k, base.washout:]
    units = sorted(states)
    ys = {u: targets[u][base.washout:] for u in units}
    grams = {u: states[u].T @ states[u] for u in units}
    xtys = {u: states[u].T @ ys[u] for u in units}
    colsums = {u: states[u].sum(axis=0) for u in units}
    gram_all = sum(grams.values())
    xty_all = sum(xtys.values())
    colsum_all = sum(colsums.values())
    n_all = sum(len(ys[u]) for u in units)
    ysum_all = sum(float(ys[u].sum()) for u in units)
    # A pool is constant exactly when every value equals the first, i.e.
    # when its units' minima and maxima are all one value.
    ends = {u: {float(ys[u].min()), float(ys[u].max())} if len(ys[u]) else set() for u in units}

    fold_scores: list[list[float]] = [[] for _ in group]
    reasons = [""] * len(group)
    # Held-out units outside, configs inside: a fold's pooled gram and
    # right-hand side (totals minus the held unit) do not depend on ridge, so
    # each is built once per fold.
    for held in units:
        live = [k for k in range(len(group)) if not reasons[k]]
        if not live:
            break
        if len(set().union(*(ends[u] for u in units if u != held))) <= 1:
            for k in live:
                reasons[k] = f"fold {held}: constant pooled training target"
            continue
        mu = (ysum_all - float(ys[held].sum())) / (n_all - len(ys[held]))
        gram = gram_all - grams[held]
        rhs = (xty_all - xtys[held]) - mu * (colsum_all - colsums[held])
        for k in live:
            try:
                w = solve_ridge(gram, rhs, group[k].ridge)
                fold_scores[k].append(nrmse(states[held] @ w + mu, ys[held]))
            except ValueError as exc:
                reasons[k] = f"fold {held}: {exc}"
    return fold_scores, reasons


def loo_cv_grid_search(
    panel: Mapping[str, tuple[np.ndarray, np.ndarray]],
    configs: Sequence[ReservoirConfig],
) -> CvReport:
    """Score each config by mean NRMSE over leave-one-unit-out folds.

    Each fold trains the readout on the pooled post-washout states of the
    other units (inputs z-scored per unit, targets centred on their pooled
    training mean; the reservoir state resets at unit boundaries) and
    evaluates raw-scale NRMSE on the held-out unit. A fold that fails (for
    example a constant or zero-mean target) invalidates the whole config.
    Units are processed in sorted order, so unit ordering cannot change the
    winner; score ties break toward smaller reservoirs, then smaller ridge.

    Cost: one draw (one eigensolve) per distinct (size, sparsity, seed), one
    state block per reservoir key and unit length, and per fold one Cholesky
    probe and solve per config.
    """
    units = sorted(panel)
    if len(units) < 2:
        raise ValueError("leave-one-out needs at least 2 units")
    if not configs:
        raise ValueError("empty config grid")
    for unit in units:
        x, y = panel[unit]
        if np.asarray(x).shape != np.asarray(y).shape:
            raise ValueError(f"unit {unit!r}: input/target length mismatch")

    # Units of one length run as one block of z-scored input columns.
    by_length: dict[int, list[str]] = {}
    for unit in units:
        by_length.setdefault(len(panel[unit][0]), []).append(unit)
    blocks = [
        (members, np.column_stack([zscore(panel[u][0]) for u in members]))
        for members in by_length.values()
    ]
    targets = {u: np.asarray(panel[u][1], dtype=float) for u in units}

    cells: list[CvCell] = []
    scores: dict[int, float] = {}
    invalid: dict[int, str] = {}

    by_key = sorted(range(len(configs)), key=lambda i: (_reservoir_key(configs[i]), i))
    for draw_key, same_draw in itertools.groupby(by_key, lambda i: _reservoir_key(configs[i])[:3]):
        raw = draw_reservoir(*draw_key)
        for _, same_key in itertools.groupby(same_draw, lambda i: _reservoir_key(configs[i])):
            group = list(same_key)
            fold_scores, reasons = _loo_folds(
                scale_reservoir(raw, configs[group[0]]), [configs[ci] for ci in group],
                blocks, targets,
            )
            for ci, folds, reason in zip(group, fold_scores, reasons):
                if reason:
                    invalid[ci] = reason
                    log.warning("config %d invalid: %s", ci, reason)
                else:
                    scores[ci] = float(np.mean(folds))
                    cells.extend(CvCell(ci, held, value) for held, value in zip(units, folds))

    if not scores:
        raise ValueError("every config was invalid")
    winner = min(
        scores,
        key=lambda i: (scores[i], configs[i].size, configs[i].ridge, i),
    )
    cells.sort(key=lambda c: (c.config_index, c.unit))
    return CvReport(tuple(configs), tuple(cells), scores, invalid, winner)


# ---------------------------------------------------------------------------
# Config grids. The default grid spans the published tuning space.

_DEFAULT_AXES = {
    "spectral_radius": (0.1, 0.5, 0.9),
    "leak": (0.1, 0.5, 0.9),
    "size": (50, 150, 250),
    "sparsity": (0.1, 0.4, 0.7),
    "ridge": (0.1, 1.0, 10.0, 100.0),
    "input_scale": (0.3, 0.6, 0.9),
}

_QUICK_AXES = {
    "spectral_radius": (0.1, 0.5),
    "leak": (0.5, 0.9),
    "size": (50, 150),
    "sparsity": (0.1,),
    "ridge": (0.1, 10.0),
    "input_scale": (0.9,),
}


def _grid_from_axes(axes: Mapping[str, tuple], seed: int, washout: int) -> list[ReservoirConfig]:
    names = list(axes)
    out = []
    for combo in itertools.product(*(axes[n] for n in names)):
        kwargs = dict(zip(names, combo))
        out.append(ReservoirConfig(seed=seed, washout=washout, **kwargs))
    return out


def make_default_grid(seed: int = 0, washout: int = 0) -> list[ReservoirConfig]:
    return _grid_from_axes(_DEFAULT_AXES, seed, washout)


def make_quick_grid(seed: int = 0, washout: int = 0) -> list[ReservoirConfig]:
    return _grid_from_axes(_QUICK_AXES, seed, washout)
