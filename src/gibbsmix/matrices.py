"""Gibbs sampler on narrow matrices: nonnegative n x 2 matrices with row sums
2 and column sums n.

Only the first column c is stored; the second column is the derived view
2 - c[i]. A move picks an ordered pair (i, j) and lam uniform on [0, 1] and
resamples (c[i], c[j]) uniformly on the segment of constant pair sum inside
the box [0, 2]^2. Writing s = c[i] + c[j] and delta = 2 - s, the update is

    c'[i] = lam * (2 - |delta|) + max(0, -delta),    c'[j] = s - c'[i],

which matches the two sign-case displays (delta >= 0: c'[i] = lam * (2 -
delta); delta < 0: c'[i] = 2 lam - (1 - lam) delta) and is affine and
increasing in lam in both. The uniform distribution on the polytope is
stationary. The module also holds the chain's record for the coupling
experiments (``matrix_chain``) and its own experiments: the contraction
identity, the per-step L2 contraction and the coupon-collector lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DominationViolated, InvariantViolation, RejectionBudgetExceeded
from .pairops import Chain, advance, flat_view, put_pair
from .seeding import draw_pairs, predraw, replica_rng, skip_draws
from .simplex import step_batch

__all__ = [
    "MatrixState",
    "MContractionPoint",
    "MContractionReport",
    "MonotoneReport",
    "CouponReport",
    "mstep_batch",
    "msample_stationary",
    "msample_stationary_batch",
    "matrix_chain",
    "identity_residual_batch",
    "mcontraction_experiment",
    "monotone_couple_run",
    "coupon_collector_experiment",
    "pair_alpha_beta",
]

# msample_stationary gives up after this many rejected draws
_REJECTION_BUDGET = 10**6
# the rejection sampler's blocks of attempts take at most this many bytes
# (one attempt at least)
_REJECTION_BLOCK_BYTES = 1 << 20
# monotone_couple_run tolerates a domination gap down to minus this
_DOMINATION_TOL = 1e-12
# mcontraction_experiment measures the one-step ratio at this many times
_CHECKPOINTS = 10
# identity_residual_batch's (rows, n, n) temporaries take at most this many
# bytes each
_RESIDUAL_TILE_BYTES = 1 << 20


def _check_columns(c: np.ndarray) -> None:
    """The polytope's invariants on the last axis of c, one row or a stack of
    rows: entries in [0, 2] and each row's total n within 1e-9."""
    if c.size == 0:
        return
    lo, hi = c.min(), c.max()
    if lo < 0.0 or hi > 2.0:
        raise InvariantViolation("entry-range", f"entries span [{lo:.3e}, {hi:.3e}]")
    # max |total - n| from the extreme totals, with one temporary of the
    # rows' count
    total = c.sum(axis=-1)
    drift = float(max(total.max() - c.shape[-1], c.shape[-1] - total.min()))
    if drift > 1e-9:
        raise InvariantViolation("column-sum", f"total deviates by {drift:.3e}")


@dataclass(eq=False)
class MatrixState:
    """First column of the matrix: entries in [0, 2], total n (within 1e-9)."""

    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.ndim != 1 or self.c.size < 2:
            raise InvariantViolation("shape", "state must be a vector of length >= 2")
        _check_columns(self.c)

    @property
    def n(self) -> int:
        return self.c.size


def pair_alpha_beta(ci, cj):
    """Affine move coefficients for a pair with values (ci, cj).

    The update is new_i = lam * alpha + beta with alpha = 2 - |delta| and
    beta = max(0, -delta); both are computed exactly from s = ci + cj as
    alpha = min(s, 4 - s), beta = max(0, s - 2).
    """
    s = np.asarray(ci, dtype=float) + np.asarray(cj, dtype=float)
    alpha = np.minimum(s, 4.0 - s)
    beta = np.maximum(0.0, s - 2.0)
    return s, alpha, beta


def mstep_batch(flat: np.ndarray, p: np.ndarray, q: np.ndarray, lam: np.ndarray) -> None:
    """In-place lockstep move on the flat view of a C-contiguous (B, n)
    batch: each oriented move (``pairops.orient``) sets flat[p[k]] to
    lam[k] alpha + beta and flat[q[k]] to the rest of the pair total.
    The pair total, alpha and beta are ``pair_alpha_beta``'s, computed in
    place: the total on p's gather, alpha on q's."""
    alpha = flat.take(q)
    s = flat.take(p)
    s += alpha
    np.subtract(4.0, s, out=alpha)
    np.minimum(s, alpha, out=alpha)
    beta = np.subtract(s, 2.0)
    np.maximum(0.0, beta, out=beta)
    put_pair(flat, p, q, lam, s, alpha, beta)


def msample_stationary(n: int, rng: np.random.Generator) -> MatrixState:
    """Uniform sample from the polytope by rejection.

    Draw the first n-1 entries independently uniform on [0, 2]; the last
    entry is forced by the column sum and the draw is accepted iff it lands
    in [0, 2]. The projection onto the free coordinates is measure
    preserving, so accepted draws are exactly uniform. Acceptance decays like
    1/sqrt(n).
    """
    return MatrixState(_accepted(n, rng, 1)[0])


def _accepted(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """The first ``size`` accepted draws of the rejection loop, which draws
    one attempt ``uniform(0, 2, n)`` after another and accepts it when its
    last entry, reset to n minus the others' sum, lies in [0, 2]; unchecked,
    as a (size, n) stack.

    The attempts are drawn in blocks, K at once as ``uniform(0, 2, (K, n))``
    (the same doubles in the same order): K is about sqrt(n) attempts per
    sample still wanted (acceptance is about 1.4 / sqrt(n)), at most
    _REJECTION_BLOCK_BYTES, and never past the budget. The attempts after
    the last one kept are moved back over (``seeding.skip_draws``, n
    doubles each), so the stream ends where the loop leaves it, whatever K
    is. Raises RejectionBudgetExceeded when one sample's run of rejected
    attempts reaches _REJECTION_BUDGET, with the stream past those attempts.
    """
    if n < 3:
        raise InvariantViolation("size", "need n >= 3")
    out = np.empty((size, n))
    root = math.sqrt(n)
    cap = max(1, _REJECTION_BLOCK_BYTES // (8 * n))
    done = run = 0
    while done < size:
        want = size - done
        k = min(cap, _REJECTION_BUDGET - run, math.ceil(want * root))
        block = rng.uniform(0.0, 2.0, (k, n))
        forced = block[:, -1]
        np.subtract(n, block[:, :-1].sum(axis=1), out=forced)
        hits = ((forced >= 0.0) & (forced <= 2.0)).nonzero()[0][:want]
        out[done:done + len(hits)] = block[hits]
        done += len(hits)
        # the last attempt kept, counted in this block (-1 - run: none)
        last = int(hits[-1]) if len(hits) else -1 - run
        used = last + 1 if len(hits) == want else k
        run = used - 1 - last
        if used < k:
            skip_draws(rng, -(k - used) * n)
        if run == _REJECTION_BUDGET:
            raise RejectionBudgetExceeded(
                f"no acceptance in {_REJECTION_BUDGET} attempts at n = {n}"
            )
    return out


def msample_stationary_batch(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Stack of ``size`` independent stationary samples from one stream: the
    draws of ``size`` ``msample_stationary`` calls (``_accepted``), with the
    state checks made once over the stack rather than once per sample."""
    out = _accepted(n, rng, size)
    _check_columns(out)
    return out


def matrix_chain(n: int) -> Chain:
    """The chain on n rows as a ``Chain``: its first column starts pushed to
    the boundary corner, and its margin is min(c, 2 - c).

    Recipes: the simplex horizons with the n log n scaling,
    T1 = ceil(1.5 n (log(8n) + 60)) and T2 = ceil(4.5 n log n); the
    connection tail reads eps, with threshold (1/2 + 2 eps) n log n and bound
    2 n^-eps; largeness reads k (default 1), with threshold n^(-5.5 - k) and
    target 1 - 2 n^-k.
    """
    start = np.zeros(n)
    start[: n // 2] = 2.0
    if n % 2:
        start[n // 2] = 1.0
    start.setflags(write=False)

    def connect_tail(epsilon):
        if epsilon is None:
            return None, None
        return (0.5 + 2.0 * epsilon) * n * math.log(n), 2.0 * n ** (-epsilon)

    def largeness(k):
        k = 1.0 if k is None else k
        return float(n) ** (-5.5 - k), 1.0 - 2.0 * float(n) ** (-k)

    return Chain(
        kind="matrix", n=n, kernel=mstep_batch,
        stationary=lambda rng, size: msample_stationary_batch(n, rng, size), start=start,
        group=None, gens=None, margin=lambda v: np.minimum(v, 2.0 - v),
        coeffs=pair_alpha_beta,
        horizons=lambda: (math.ceil(1.5 * n * (math.log(8 * n) + 60.0)),
                          math.ceil(4.5 * n * math.log(n))),
        connect_tail=connect_tail, largeness=largeness,
    )


def identity_residual_batch(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Vectorized |lhs - rhs| over a (B, n) batch of state pairs, in row
    tiles whose (rows, n, n) squares take at most _RESIDUAL_TILE_BYTES (one
    row at least), so the (B,) result is the only array of the batch's
    length made here; each row's sums do not depend on the tiling."""
    n = cx.shape[1]
    out = np.empty(cx.shape[0])
    step = max(1, _RESIDUAL_TILE_BYTES // (8 * n * n))
    for lo in range(0, len(out), step):
        d = cx[lo:lo + step] - cy[lo:lo + step]
        sq = (d[:, :, None] + d[:, None, :]) ** 2
        lhs = sq.sum(axis=(1, 2)) - np.einsum("bii->b", sq)
        np.abs(lhs - (n - 2) * 2.0 * (d**2).sum(axis=1), out=out[lo:lo + step])
    return out


@dataclass
class MContractionPoint:
    t: int
    mean_sq_before: float
    mean_sq_after: float
    ratio: float | None          # None where mean_sq_before == 0
    se: float | None             # delta-method se of the ratio; None with it or with one replica
    bound: float                 # 1 - 2/(3n)


@dataclass
class MContractionReport:
    points: list
    identical_start_replicas: int
    ok: bool | None              # ratio <= bound + 4 se wherever both exist; None if nowhere


def mcontraction_experiment(
    n: int,
    T: int,
    replicas: int,
    seed: int,
) -> MContractionReport:
    """Per-step L2 contraction of a proportionally coupled pair of chains.

    Both chains start at independent stationary samples and share every
    (i, j, lam) draw. At each of up to ten checkpoint times t, evenly spaced
    over [0, T - 1], the ratio
    E||X_{t+1} - Y_{t+1}||^2 / E||X_t - Y_t||^2 is estimated over replicas
    and compared against 1 - 2/(3n). Where every replica's X and Y are equal
    at t (mean_sq_before == 0) the ratio is undefined: the point has ratio
    and se None. With one replica the se is undefined and None. ``ok`` is
    taken over the points with both, and is None when there are none.

    Per-replica draw order (``seeding.predraw``): X, Y starts, then the moves.
    """
    rngs = [replica_rng(seed, r) for r in range(replicas)]
    starts, moves = predraw(matrix_chain(n), rngs, T, "contract-matrix", before=2)
    # x and y share every draw: two batches, each moved per level
    x, y = starts

    identical = int(np.sum(np.all(x == y, axis=1)))
    bound = 1.0 - 2.0 / (3.0 * n)
    mark = sorted(set(np.linspace(0, T - 1, _CHECKPOINTS, dtype=int).tolist())) if T else []
    # each checkpoint t is observed at t and at t + 1
    observed = advance(mstep_batch, (x, y), *moves, [u for t in mark for u in (t, t + 1)])
    points = []
    for t in mark:
        next(observed)
        before = ((x - y) ** 2).sum(axis=1)
        next(observed)
        after = ((x - y) ** 2).sum(axis=1)
        mb, ma = float(before.mean()), float(after.mean())
        ratio = se = None
        if mb > 0.0:
            ratio = ma / mb
        if mb > 0.0 and replicas > 1:
            # delta method on the ratio of correlated means
            cov = np.cov(after, before)
            var = (
                cov[0, 0] / mb**2
                + cov[1, 1] * ma**2 / mb**4
                - 2.0 * cov[0, 1] * ma / mb**3
            ) / replicas
            se = math.sqrt(max(var, 0.0))
        points.append(
            MContractionPoint(
                t=t, mean_sq_before=mb, mean_sq_after=ma, ratio=ratio, se=se, bound=bound
            )
        )
    judged = [p.ratio <= p.bound + 4.0 * p.se for p in points if p.se is not None]
    ok = all(judged) if judged else None
    return MContractionReport(points=points, identical_start_replicas=identical, ok=ok)


@dataclass
class MonotoneReport:
    n: int
    steps: int                   # per replica
    replicas: int
    min_domination_gap: float    # min over replicas, t, i of c[i] - s[i]
    min_entry_matrix: float
    max_entry_matrix: float
    min_entry_simplex: float


def monotone_couple_run(n: int, T: int, replicas: int, seed: int) -> MonotoneReport:
    """Shared-randomness coupling of the matrix chain with a simplex chain on
    the complete generating set; the matrix first column dominates the
    simplex entrywise.

    Each replica's simplex chain starts at s = c / n, so domination holds at
    t = 0; each shared (i, j, lam) move preserves it. Raises
    DominationViolated, naming a replica, if the gap ever drops below
    -1e-12. Also tracks entry extremes of both chains (the
    distance-from-boundary diagnostic). The moves run in dependency levels
    through ``pairops.advance`` on c, with a kernel that makes one
    ``mstep_batch`` call on c and one ``step_batch`` call on s with the same
    oriented moves, then folds only the moved entries into the extremes. A
    row's level holds at most n / 2 moves, so a long run is best split into
    replicas.

    Per-replica draw order (``seeding.predraw``): stationary start, then the moves.
    """
    rngs = [replica_rng(seed, r) for r in range(replicas)]
    (c,), (a, b, lam) = predraw(matrix_chain(n), rngs, T, "monotone", before=1)
    s = c / n
    gap = (c - s).min(axis=1)
    min_c, max_c, min_s = c.min(axis=1), c.max(axis=1), s.min(axis=1)
    fs = flat_view(s)

    def move(fc, p, q, pl):
        mstep_batch(fc, p, q, pl)
        step_batch(fs, p, q, pl)
        r, cp, cq, sp, sq = p // n, fc[p], fc[q], fs[p], fs[q]
        np.minimum.at(gap, r, np.minimum(cp - sp, cq - sq))
        np.minimum.at(min_c, r, np.minimum(cp, cq))
        np.maximum.at(max_c, r, np.maximum(cp, cq))
        np.minimum.at(min_s, r, np.minimum(sp, sq))

    for _ in advance(move, (c,), a, b, lam, [T]):
        pass
    bad = np.flatnonzero(gap < -_DOMINATION_TOL)
    if bad.size:
        raise DominationViolated(f"gap {gap[bad[0]]:.3e} in replica {bad[0]}")
    return MonotoneReport(
        n=n,
        steps=T,
        replicas=replicas,
        min_domination_gap=float(gap.min()),
        min_entry_matrix=float(min_c.min()),
        max_entry_matrix=float(max_c.max()),
        min_entry_simplex=float(min_s.min()),
    )


@dataclass
class CouponReport:
    T: int
    miss_frequency: float
    target: float                # 1 - exp(-exp(c))
    abs_error: float


def coupon_collector_experiment(n: int, c: float, replicas: int, seed: int) -> CouponReport:
    """Fraction of runs in which some coordinate is never touched by a pair
    update within T = floor(n (log n - c) / 2) steps, against the classical
    limit 1 - exp(-exp(c)).

    Per-replica draw order: the pair arrays of seeding.draw_pairs.
    """
    T = max(0, math.floor(0.5 * n * (math.log(n) - c)))
    misses = 0
    for b in range(replicas):
        rng = replica_rng(seed, b)
        if T == 0:
            misses += 1
            continue
        i, j = draw_pairs(rng, T, n)
        seen = np.zeros(n, dtype=bool)
        seen[i] = True
        seen[j] = True
        misses += not seen.all()
    target = 1.0 - math.exp(-math.exp(c))
    freq = misses / replicas
    return CouponReport(T=T, miss_frequency=freq, target=target, abs_error=abs(freq - target))
