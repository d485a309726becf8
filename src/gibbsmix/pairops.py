"""Exact-conservation arithmetic for two-coordinate Gibbs moves.

Both samplers in this package redistribute a conserved pair total s between
two coordinates as

    new_i = lam * alpha + beta,    new_j = (1 - lam) * alpha + beta,

with alpha + 2*beta = s (simplex moves: alpha = s, beta = 0). Evaluating both
formulas independently lets the float pair sum drift by an ulp per move. We
instead evaluate whichever share is the larger one (lam >= 1/2 picks the i
side) and obtain the other by subtraction from s. The computed share lies in
[s/2, s], so by Sterbenz's lemma the subtraction is exact and the pair sum is
bit-identical to s after every move. Rounding is monotone, so the computed
share also stays within [0, s] and the update remains monotone in lam.

``split_pair_float`` is the scalar twin of ``split_pair``: the same operations
in the same order on Python floats, so both give identical IEEE results.
``flat_pair_index`` is the indexing shared by the batch move kernels, and
``stacked_draws`` doubles the draws of two chains that share them, so that a
stacked [X; Y] batch moves in one kernel call.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation

__all__ = ["flat_pair_index", "split_pair", "split_pair_float", "stacked_draws"]


def split_pair(total, alpha, beta, lam):
    """Split ``total`` into (lam*alpha + beta, (1-lam)*alpha + beta).

    Vectorized over numpy arrays (scalars come back as 0-d arrays). The two
    returned shares sum to ``total`` exactly, entrywise.
    """
    total = np.asarray(total, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    hi = lam >= 0.5
    share = np.where(hi, lam, 1.0 - lam) * alpha + beta
    rest = total - share
    a = np.where(hi, share, rest)
    b = np.where(hi, rest, share)
    return a, b


def split_pair_float(total: float, alpha: float, beta: float, lam: float):
    """``split_pair`` for one move on Python floats, without numpy's per-call
    overhead."""
    hi = lam >= 0.5
    share = (lam if hi else 1.0 - lam) * alpha + beta
    rest = total - share
    return (share, rest) if hi else (rest, share)


def flat_pair_index(batch: np.ndarray, a, b, rows=None):
    """(flat view of ``batch``, flat index of (rows[k], a[k]), of (rows[k],
    b[k])) for a (B, n) batch; rows defaults to every row.

    The batch must be C-contiguous: only then is ``reshape(-1)`` a view, and
    writes through the flat index land in the batch itself.
    """
    if not batch.flags.c_contiguous:
        raise InvariantViolation("batch-layout", "the batch must be C-contiguous")
    n = batch.shape[1]
    base = np.arange(0, batch.shape[0] * n, n) if rows is None else np.asarray(rows) * n
    return batch.reshape(-1), base + a, base + b


def stacked_draws(*draws: np.ndarray) -> tuple:
    """Each per-replica draw array repeated, for the two halves of a stacked
    [X; Y] batch whose chains share every draw."""
    return tuple(np.concatenate((v, v)) for v in draws)
