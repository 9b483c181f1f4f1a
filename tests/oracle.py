"""Reference implementations that the tests hold the package to.

The package calls none of them. ``train_readout`` fits one readout
directly, where the lag scan and the grid search solve many at once;
``compound_score`` applies the compound map to a valence list, which scoring
reaches only through ``score_post``; ``fsum_pearson`` is the two-pass
Pearson correlation with exactly rounded sums.
"""

import math

import numpy as np

from echosent.esn import solve_ridge
from echosent.sentiment import EXCLAMATION_STEP, NORM_ALPHA, QUESTION_BOOST


def train_readout(states, targets, ridge, washout=0):
    """Closed-form ridge solution of the readout weights on post-washout states.

    Solves (U^T U + ridge I) w = U^T y with U the (rows = time) state matrix
    by ``esn.solve_ridge``.
    """
    u = np.asarray(states, dtype=float)[washout:]
    y = np.asarray(targets, dtype=float)[washout:]
    return solve_ridge(u.T @ u, u.T @ y, ridge, rows=len(u))


def compound_score(valences, doc):
    """Bounded summary score: punctuation-amplified sum mapped through s/sqrt(s^2+a)."""
    s = float(sum(valences))
    amp = EXCLAMATION_STEP * min(doc.trailing_exclamations, 3)
    if doc.trailing_double_question:
        amp += QUESTION_BOOST
    s += amp * (math.copysign(1.0, s) if s else 0.0)
    return s / math.sqrt(s * s + NORM_ALPHA)


def fsum_pearson(a, b):
    """Sample Pearson correlation by two passes of ``math.fsum``."""
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = math.fsum((x - ma) ** 2 for x in a)
    vb = math.fsum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)
