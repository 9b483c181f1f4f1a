"""Synthetic coupled systems with known causal direction.

Coupled logistic maps are the standard cross-mapping testbed: chaotic,
bounded in (0, 1), with tunable one- or two-way coupling and an optional
interaction delay. Independent AR(1) pairs serve as the null control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoupledMapConfig:
    """Two logistic maps, each optionally driven by the other's delayed state.

    ``coupling_yx`` feeds x into y's update (x drives y), ``coupling_xy``
    the reverse. With exactly one coupling nonzero the ground-truth causal
    direction is known by construction.
    """

    length: int
    seed: int
    growth_x: float = 3.8
    growth_y: float = 3.5
    coupling_xy: float = 0.0
    coupling_yx: float = 0.0
    delay: int = 0
    noise_sd: float = 0.0
    transient: int = 100

    def __post_init__(self) -> None:
        for name in ("growth_x", "growth_y"):
            r = getattr(self, name)
            if not (3.5 <= r < 4.0):
                raise ValueError(f"{name} must lie in [3.5, 4.0)")
        if self.coupling_xy < 0 or self.coupling_yx < 0:
            raise ValueError("couplings must be nonnegative")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        if self.length < 1:
            raise ValueError("length must be positive")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")


def gen_coupled_logistic(cfg: CoupledMapConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate the coupled pair; the first ``transient`` steps are discarded.

    Update rule: x' = x (r_x - r_x x - c_xy y_delayed) and symmetrically for
    y. A step leaving (0, 1) raises with the offending step index. Optional
    observation noise is added after generation.
    """
    rng = np.random.default_rng(cfg.seed)
    gx, gy = cfg.growth_x, cfg.growth_y
    cxy, cyx = cfg.coupling_xy, cfg.coupling_yx
    x = rng.uniform(0.2, 0.8)
    y = rng.uniform(0.2, 0.8)
    # Plain floats run the same IEEE operations as numpy scalars, so the
    # bits match at a fraction of the per-step cost. Each list is allocated
    # once and filled in place (a growing list fragments the heap); its
    # first ``delay`` entries pad the start, so xs[t] holds step
    # max(t - delay, 0), the delayed state of step t.
    d = cfg.delay
    xs = [x] * (d + cfg.transient + cfg.length)
    ys = [y] * len(xs)
    for t in range(cfg.transient + cfg.length - 1):
        xd, yd = xs[t], ys[t]
        x, y = x * (gx - gx * x - cxy * yd), y * (gy - gy * y - cyx * xd)
        if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
            raise ValueError(f"trajectory left (0, 1) at step {t + 1}; weaken the coupling")
        xs[t + d + 1], ys[t + d + 1] = x, y
    x = np.array(xs[d + cfg.transient:])
    y = np.array(ys[d + cfg.transient:])
    if cfg.noise_sd > 0:
        x = x + rng.normal(0.0, cfg.noise_sd, cfg.length)
        y = y + rng.normal(0.0, cfg.noise_sd, cfg.length)
    return x, y


def gen_ar1(phi: float, length: int, seed: int) -> np.ndarray:
    """Stationary AR(1) with unit-variance innovations."""
    if not (-1.0 < phi < 1.0):
        raise ValueError("phi must lie in (-1, 1)")
    if length < 1:
        raise ValueError("length must be positive")
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(length).tolist()
    out[0] = out[0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, length):
        out[t] = phi * out[t - 1] + out[t]
    return np.array(out)
