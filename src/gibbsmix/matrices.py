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
stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DominationViolated, InvariantViolation, RejectionBudgetExceeded
from .pairops import advance, flat_pair_index, pair_coeffs, split_pair, split_pair_float
from .seeding import draw_moves, empty_moves, replica_rng

__all__ = [
    "MatrixState",
    "PairGap",
    "IdentityReport",
    "MContractionPoint",
    "MContractionReport",
    "MonotoneReport",
    "mstep",
    "mstep_batch",
    "pair_gap",
    "msample_stationary",
    "msample_stationary_batch",
    "contraction_identity_check",
    "identity_residual_batch",
    "mcontraction_experiment",
    "monotone_couple_run",
    "pair_alpha_beta",
]

_REJECTION_BUDGET = 10**6


@dataclass(eq=False)
class MatrixState:
    """First column of the matrix: entries in [0, 2], total n (within 1e-9)."""

    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.ndim != 1 or self.c.size < 2:
            raise InvariantViolation("shape", "state must be a vector of length >= 2")
        if self.c.min() < 0.0 or self.c.max() > 2.0:
            raise InvariantViolation(
                "entry-range", f"entries span [{self.c.min():.3e}, {self.c.max():.3e}]"
            )
        drift = abs(float(self.c.sum()) - self.c.size)
        if drift > 1e-9:
            raise InvariantViolation("column-sum", f"total deviates by {drift:.3e}")

    @property
    def n(self) -> int:
        return self.c.size

    def second_column(self) -> np.ndarray:
        return 2.0 - self.c


@dataclass
class PairGap:
    """delta = 2 - c[i] - c[j] for a chosen pair; always in [-2, 2]."""

    delta: float

    def __post_init__(self):
        if not -2.0 <= self.delta <= 2.0:
            raise InvariantViolation("pair-gap-range", f"delta = {self.delta!r}")


def pair_gap(state: MatrixState, i: int, j: int) -> PairGap:
    return PairGap(delta=float(2.0 - state.c[i] - state.c[j]))


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


def mstep(state: MatrixState, i: int, j: int, lam: float) -> MatrixState:
    """Apply one move; only c[i], c[j] change and their sum is exact."""
    if i == j:
        raise InvariantViolation("pair-distinct", "i and j must differ")
    if not 0.0 <= lam <= 1.0:
        raise InvariantViolation("lambda-range", f"lam = {lam!r}")
    c = state.c.copy()
    s, alpha, beta = pair_alpha_beta(c[i], c[j])
    ni, nj = split_pair(s, alpha, beta, lam)
    c[i] = ni
    c[j] = nj
    return MatrixState(c)


def mstep_batch(c: np.ndarray, i: np.ndarray, j: np.ndarray, lam: np.ndarray,
                rows: np.ndarray | None = None) -> None:
    """In-place lockstep move on a C-contiguous (B, n) batch; row rows[k]
    (default: every row) updates pair (i[k], j[k]). Flat-index gathers and
    scatters on c.reshape(-1)."""
    flat, ii, jj = flat_pair_index(c, i, j, rows)
    s, alpha, beta = pair_alpha_beta(flat[ii], flat[jj])
    ni, nj = split_pair(s, alpha, beta, lam)
    flat[ii] = ni
    flat[jj] = nj


def msample_stationary(
    n: int, rng: np.random.Generator, budget: int = _REJECTION_BUDGET
) -> MatrixState:
    """Uniform sample from the polytope by rejection.

    Draw the first n-1 entries independently uniform on [0, 2]; the last
    entry is forced by the column sum and the draw is accepted iff it lands
    in [0, 2]. The projection onto the free coordinates is measure
    preserving, so accepted draws are exactly uniform. Acceptance decays like
    1/sqrt(n).
    """
    if n < 3:
        raise InvariantViolation("size", "need n >= 3")
    for _ in range(budget):
        c = rng.uniform(0.0, 2.0, n)
        c[-1] = n - c[:-1].sum()
        if 0.0 <= c[-1] <= 2.0:
            return MatrixState(c)
    raise RejectionBudgetExceeded(f"no acceptance in {budget} attempts at n = {n}")


def msample_stationary_batch(
    n: int, rng: np.random.Generator, size: int, budget: int = _REJECTION_BUDGET
) -> np.ndarray:
    """Stack of ``size`` independent stationary samples from one stream."""
    out = np.empty((size, n))
    for k in range(size):
        out[k] = msample_stationary(n, rng, budget).c
    return out


@dataclass
class IdentityReport:
    lhs: float                   # sum over ordered pairs of (delta - eps)^2
    rhs: float                   # (n - 2) * both-columns squared difference
    abs_difference: float


def contraction_identity_check(x: MatrixState, y: MatrixState) -> IdentityReport:
    """Brute-force both sides of the pair-gap difference identity."""
    n = x.n
    lhs = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            delta = 2.0 - x.c[i] - x.c[j]
            eps = 2.0 - y.c[i] - y.c[j]
            lhs += (delta - eps) ** 2
    diff = x.c - y.c
    rhs = (n - 2) * 2.0 * float(diff @ diff)
    return IdentityReport(lhs=lhs, rhs=rhs, abs_difference=abs(lhs - rhs))


def identity_residual_batch(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Vectorized |lhs - rhs| over a (B, n) batch of state pairs."""
    d = cx - cy
    pair = d[:, :, None] + d[:, None, :]
    sq = pair**2
    diag = np.einsum("bii->b", sq)
    lhs = sq.sum(axis=(1, 2)) - diag
    rhs = (cx.shape[1] - 2) * 2.0 * (d**2).sum(axis=1)
    return np.abs(lhs - rhs)


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
    n: int
    replicas: int
    points: list
    identical_start_replicas: int
    ok: bool | None              # ratio <= bound + 4 se wherever both exist; None if nowhere


def mcontraction_experiment(
    n: int,
    T: int,
    replicas: int,
    seed: int,
    checkpoints: int = 10,
) -> MContractionReport:
    """Per-step L2 contraction of a proportionally coupled pair of chains.

    Both chains start at independent stationary samples and share every
    (i, j, lam) draw. At each checkpoint time t the ratio
    E||X_{t+1} - Y_{t+1}||^2 / E||X_t - Y_t||^2 is estimated over replicas
    and compared against 1 - 2/(3n). Where every replica's X and Y are equal
    at t (mean_sq_before == 0) the ratio is undefined: the point has ratio
    and se None. With one replica the se is undefined and None. ``ok`` is
    taken over the points with both, and is None when there are none.

    Per-replica draw order: X start, Y start, pair arrays, lam array.
    """
    # x and y are the halves of one stacked batch
    i_draw, j_draw, lam_draw = empty_moves(replicas, T, n)
    xy = np.empty((2 * replicas, n))
    x, y = xy[:replicas], xy[replicas:]
    for b in range(replicas):
        rng = replica_rng(seed, b)
        x[b] = msample_stationary(n, rng).c
        y[b] = msample_stationary(n, rng).c
        i_draw[b], j_draw[b], lam_draw[b] = draw_moves(rng, T, n)

    identical = int(np.sum(np.all(x == y, axis=1)))
    bound = 1.0 - 2.0 / (3.0 * n)
    mark = sorted(set(np.linspace(0, T - 1, checkpoints, dtype=int).tolist())) if T else []
    points = []
    done = 0
    for t in mark:
        advance(mstep_batch, xy, i_draw, j_draw, lam_draw, done, t)
        before = ((x - y) ** 2).sum(axis=1)
        advance(mstep_batch, xy, i_draw, j_draw, lam_draw, t, t + 1)
        done = t + 1
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
    return MContractionReport(
        n=n, replicas=replicas, points=points, identical_start_replicas=identical, ok=ok
    )


@dataclass
class MonotoneReport:
    n: int
    steps: int
    min_domination_gap: float    # min over t, i of c[i] - s[i]
    min_entry_matrix: float
    max_entry_matrix: float
    min_entry_simplex: float


def monotone_couple_run(
    n: int,
    T: int,
    seed: int,
    tol: float = 1e-12,
    chunk: int = 100_000,
) -> MonotoneReport:
    """Shared-randomness coupling of the matrix chain with a simplex chain on
    the complete generating set; the matrix first column dominates the
    simplex entrywise.

    The simplex chain starts at s = c / n, so domination holds at t = 0; each
    shared (i, j, lam) move preserves it. Raises DominationViolated if the
    gap ever drops below -tol. Also tracks entry extremes of both chains (the
    distance-from-boundary diagnostic).
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    c = msample_stationary(n, rng).c.tolist()
    s = [v / n for v in c]
    min_gap = min(ci - si for ci, si in zip(c, s))
    min_c = min(c)
    max_c = max(c)
    min_s = min(s)
    done = 0
    while done < T:
        b = min(chunk, T - done)
        i_arr, j_arr, lam_arr = draw_moves(rng, b, n)
        for k, (i, j, lam) in enumerate(zip(i_arr.tolist(), j_arr.tolist(), lam_arr.tolist())):
            ci, cj = split_pair_float(*pair_coeffs("matrix", c[i], c[j]), lam)
            stot = s[i] + s[j]
            si, sj = split_pair_float(stot, stot, 0.0, lam)
            c[i] = ci
            c[j] = cj
            s[i] = si
            s[j] = sj
            gap = ci - si
            gj = cj - sj
            if gj < gap:
                gap = gj
            if gap < min_gap:
                min_gap = gap
                if min_gap < -tol:
                    raise DominationViolated(
                        f"gap {min_gap:.3e} at step {done + k} (pair {i},{j})"
                    )
            lo = ci if ci < cj else cj
            hi = ci if ci > cj else cj
            if lo < min_c:
                min_c = lo
            if hi > max_c:
                max_c = hi
            slo = si if si < sj else sj
            if slo < min_s:
                min_s = slo
        done += b
    return MonotoneReport(
        n=n,
        steps=T,
        min_domination_gap=min_gap,
        min_entry_matrix=min_c,
        max_entry_matrix=max_c,
        min_entry_simplex=min_s,
    )
