"""The unoriented pair split: the reference that the oriented moves
(``pairops.orient`` then the kernels' ``pairops.put_pair``) reproduce bit
for bit, on arrays and on Python floats; and the levelling rule, one step at
a time."""

import numpy as np


def split_pair(total, alpha, beta, lam):
    """Split ``total`` into (lam*alpha + beta, (1-lam)*alpha + beta): the
    larger share is computed, the other is the rest of the total. Vectorized
    over numpy arrays (scalars come back as 0-d arrays)."""
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
    """``split_pair`` on Python floats, with the operations of ``orient``
    and ``put_pair`` in the same order. Returns (new_i, new_j)."""
    share = max(lam, 1.0 - lam) * alpha + beta
    rest = total - share
    return (share, rest) if lam >= 0.5 else (rest, share)


def pair_alpha_beta_float(ci: float, cj: float):
    """``matrices.pair_alpha_beta`` for one pair on Python floats, with the
    same operations in the same order."""
    s = ci + cj
    return s, min(s, 4.0 - s), max(0.0, s - 2.0)


def rule_levels(a, b, n: int, s0: int, s1: int, barriers=None):
    """The (s1 - s0, B) levels of steps [s0, s1) of the (B, T) draws, one
    row and one step at a time: a step's level is 1 + the highest level on
    the coordinates it reads, and it writes its level on each of them. A
    move reads its pair (a[r, s], b[r, s]); a step flagged in ``barriers``
    reads every coordinate of its row."""
    out = np.zeros((s1 - s0, len(a)), dtype=np.int64)
    for r in range(len(a)):
        last = [0] * n
        for s in range(s0, s1):
            reads = range(n) if barriers is not None and barriers[r, s] else (a[r, s], b[r, s])
            level = 1 + max(last[c] for c in reads)
            out[s - s0, r] = level
            for c in reads:
                last[c] = level
    return out
