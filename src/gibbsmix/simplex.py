"""Gibbs sampler on the probability simplex over a finite group.

States are mass vectors X on the group with nonnegative entries summing
to 1. A move picks a group element g, a generator r, and lam uniform on
[0, 1], then redistributes the mass of the Cayley-edge pair (g, g*r):

    X'[g] = lam * (X[g] + X[g*r]),    X'[g*r] = (1 - lam) * (X[g] + X[g*r]).

The uniform distribution on the simplex is stationary. This module also
provides the chain's record for the coupling experiments (``simplex_chain``),
the stationary sampler, the cross-correlation diagnostic for a pair
of coupled chains (the S vector), its exact one-step targets (from the
recursion's terms in ``kernels.s_recursion_terms``) and a Monte Carlo check
of them, the L2 contraction experiment of the proportional coupling, and
the eigenvector-statistic lower-bound experiment driven by the edge-walk
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError, DegenerateEigenvector, InvariantViolation
from .pairops import Chain, advance, pair_moves, put_pair
from .seeding import check_draw_memory, draw_moves, predraw, replica_rng

if TYPE_CHECKING:
    from .groups import GeneratorSet, GroupTable
    from .kernels import TransitionKernel

__all__ = [
    "SimplexState",
    "SVector",
    "SRecursionReport",
    "ContractionPoint",
    "ContractionReport",
    "LowerBoundPoint",
    "LowerBoundReport",
    "step_batch",
    "sample_stationary",
    "base_gap",
    "simplex_chain",
    "s_vector",
    "s_recursion_targets",
    "check_s_recursion",
    "contraction_experiment",
    "lower_bound_init",
    "lower_bound_experiment",
]

_SUM_TOL = 1e-12
# lower_bound_experiment records <X_t, v> at every this many steps
_CHECKPOINT_STRIDE = 4
# check_s_recursion draws its moves in chunks of this many (part of its draw
# order)
_S_RECURSION_CHUNK = 50_000
# bytes of the (rows, n, n) gather of D[g r] that check_s_recursion einsums at
# once; a tile holds at least one row
_S_RECURSION_TILE_BYTES = 4 << 20


@dataclass(eq=False)
class SimplexState:
    """Mass vector on the group: entries >= 0, total exactly 1 (within 1e-12)."""

    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2:
            raise InvariantViolation("shape", "state must be a vector of length >= 2")
        if self.x.min() < 0.0:
            raise InvariantViolation("nonnegative", f"min entry {self.x.min():.3e}")
        drift = abs(float(self.x.sum()) - 1.0)
        if drift > _SUM_TOL:
            raise InvariantViolation("unit-sum", f"total deviates by {drift:.3e}")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(eq=False)
class SVector:
    """Cross-correlation vector of a coupled pair: s[h] = sum_g D[g] * D[g*h]
    with D = x - y. Indexed by group element h; s[identity] = ||x - y||_2^2."""

    s: np.ndarray
    identity: int = 0

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        sid = float(self.s[self.identity])
        if sid < -1e-12:
            raise InvariantViolation("s-id-nonnegative", f"s[id] = {sid:.3e}")
        if float(np.abs(self.s).max(initial=0.0)) > sid + 1e-10:
            raise InvariantViolation(
                "s-cauchy-schwarz", f"max |s| = {np.abs(self.s).max():.3e} > s[id] = {sid:.3e}"
            )
        if abs(float(self.s.sum())) > 1e-10:
            raise InvariantViolation("s-zero-sum", f"sum = {self.s.sum():.3e}")


def step_batch(flat: np.ndarray, p: np.ndarray, q: np.ndarray, lam: np.ndarray) -> None:
    """In-place lockstep move on the flat view of a C-contiguous (B, n)
    batch: each oriented move (``pairops.orient``) sets flat[p[k]] to
    lam[k] times the pair total and flat[q[k]] to the rest. The share is
    lam total + 0.0, which turns a -0.0 share of a zero total into +0.0."""
    total = flat.take(p)
    total += flat.take(q)
    put_pair(flat, p, q, lam, total, total, 0.0)


def sample_stationary(n: int, rng: np.random.Generator) -> SimplexState:
    """Uniform point on the simplex: normalized unit-rate exponentials."""
    e = rng.exponential(1.0, n)
    return SimplexState(e / e.sum())


def base_gap(group: GroupTable, gens: GeneratorSet) -> float:
    """gamma_hat: the spectral gap of the base pair walk."""
    from .kernels import base_walk_kernel, spectral_summary

    return spectral_summary(base_walk_kernel(group, gens)).gap


def _pair_coeffs(xi, xj):
    """(total, alpha, beta) of pair moves, on arrays."""
    total = xi + xj
    return total, total, np.zeros_like(total)


def simplex_chain(group: GroupTable, gens: GeneratorSet) -> Chain:
    """The chain on the Cayley graph of (group, gens) as a ``Chain``: it
    starts at the point mass on the identity, and its margin is the entries.

    Recipes, with gamma_hat = ``base_gap``: T1 = ceil((8 / gamma_hat)
    (log(4n) + 62)) drives the L2 gap below the subset-coupling tolerance
    and T2 = ceil(48 log n / gamma_hat) connects the schedule with
    probability 1 - O(n^-3); the connection tail reads C, with threshold
    8 (C + 3) log n / gamma_hat and bound 2 n^-C; largeness reads d as its
    threshold and has no target.
    """
    n = group.n
    start = np.zeros(n)
    start[group.identity] = 1.0
    start.setflags(write=False)

    def stationary(rng, size):
        rows = np.empty((size, n))
        for row in rows:
            row[:] = sample_stationary(n, rng).x
        return rows

    def horizons():
        gamma_hat = base_gap(group, gens)
        return (math.ceil((8.0 / gamma_hat) * (math.log(4 * n) + 62.0)),
                math.ceil(8.0 * 6.0 * math.log(n) / gamma_hat))

    def connect_tail(C):
        if C is None:
            return None, None
        return 8.0 * (C + 3.0) * math.log(n) / base_gap(group, gens), 2.0 * n ** (-C)

    return Chain(
        kind="simplex", n=n, kernel=step_batch,
        stationary=stationary, start=start,
        group=group, gens=gens, margin=lambda v: v, coeffs=_pair_coeffs,
        horizons=horizons, connect_tail=connect_tail, largeness=lambda d: (d, None),
    )


def s_vector(x: SimplexState, y: SimplexState, group: GroupTable) -> SVector:
    d = x.x - y.x
    # d[group.mul] has entry [g, h] = d[g*h]
    s = d @ d[group.mul]
    return SVector(s=s, identity=group.identity)


def s_recursion_targets(s: np.ndarray, group: GroupTable, gens: GeneratorSet) -> np.ndarray:
    """Exact conditional expectation of the next S vector under one
    proportionally coupled move (g, r, lam all uniform): the terms of
    ``kernels.s_recursion_terms`` applied to s in order, each term's entries
    summed left to right from its first."""
    from .kernels import s_recursion_terms

    s = np.asarray(s, dtype=float)
    (_, own, (h,)), *rest = s_recursion_terms(group, gens)
    out = own * s[h]
    for rows, coef, ws in rest:
        out[rows] += coef * reduce(add, [s[w] for w in ws])
    return out


@dataclass
class SRecursionReport:
    targets: np.ndarray
    estimates: np.ndarray
    se: Optional[np.ndarray]                  # None with one sample
    deviation_se: Optional[np.ndarray]        # |estimate - target| in se units; None with se
    max_abs_deviation: float
    max_deviation_se: Optional[float]         # worst entry of deviation_se; None with it
    mean_lambda: float
    samples: int


def check_s_recursion(
    x: SimplexState,
    y: SimplexState,
    group: GroupTable,
    gens: GeneratorSet,
    samples: int = 10**6,
    seed: int = 0,
) -> SRecursionReport:
    """Monte Carlo estimate of E[S'] after one proportionally coupled move,
    against the closed-form targets.

    Each entry's deviation is also given in units of its standard error: 0
    where the se is 0 or the deviation lies within 8 (m + 1) eps s[id], a
    bound on the rounding of the closed-form target (at most 4m + 2 terms
    whose magnitudes sum to at most 2 s[id]). A standard error needs two
    samples: with one, se, deviation_se and max_deviation_se are None.

    The difference vector D = x - y evolves autonomously under proportional
    coupling (D'[g] = lam * (D[g] + D[gr]) etc.), so the simulation runs on D
    directly, with moves from replica 0's stream of ``seed``. Before anything
    is computed, ``check_draw_memory`` compares the bytes the check holds at
    once with the memory available.
    """
    n = group.n
    mul = group.mul
    chunk_rows = min(_S_RECURSION_CHUNK, samples)
    tile = max(1, min(chunk_rows, _S_RECURSION_TILE_BYTES // (8 * n * n)))
    # one chunk's difference vectors and moves (at most 80 bytes a move: its
    # draws and oriented flat indices), a tile's gather with its partial sums
    # and squares, and the recursion's terms (48 bytes per row of a
    # generator's term while they are built)
    check_draw_memory(chunk_rows * (8 * n + 80) + 8 * n * (tile * n + 2 * tile + 2)
                      + 48 * (gens.m + 1) * n,
                      f"s-recursion in chunks of {chunk_rows} moves at n = {n}")
    d0 = x.x - y.x
    s0 = s_vector(x, y, group).s
    targets = s_recursion_targets(s0, group, gens)

    rng = replica_rng(seed, 0)
    acc = np.zeros(n)
    acc_sq = np.zeros(n)
    lam_acc = 0.0
    done = 0
    # one chunk's moved difference vectors, reused by every chunk
    chunk = np.empty((chunk_rows, n))
    while done < samples:
        b = min(_S_RECURSION_CHUNK, samples - done)
        a, partner, lam = draw_moves(rng, b, n, group, gens)
        d = chunk[:b]
        d[:] = d0
        step_batch(*pair_moves(d, a, partner, lam))
        # row 0 holds the chunk's sums over its rows so far, and the next
        # tile's S' rows and squares follow it: numpy sums axis 0 row by
        # row, so the chunk's sums are those of one (b, n) sum, which is
        # then added to acc once
        sprime, sq = np.empty((2, min(tile, b) + 1, n))
        for r0 in range(0, b, tile):
            k = min(tile, b - r0)
            np.einsum("bg,bgh->bh", d[r0:r0 + k], d[r0:r0 + k, mul], out=sprime[1:k + 1])
            np.square(sprime[1:k + 1], out=sq[1:k + 1])
            first = 1 if r0 == 0 else 0
            sprime[0] = sprime[first:k + 1].sum(axis=0)
            sq[0] = sq[first:k + 1].sum(axis=0)
        acc += sprime[0]
        acc_sq += sq[0]
        lam_acc += lam.sum()
        done += b

    est = acc / samples
    dev = np.abs(est - targets)
    rounding = 8.0 * (gens.m + 1) * np.finfo(float).eps * s0[group.identity]
    se = units = None
    if samples > 1:
        var = np.maximum(acc_sq / samples - est**2, 0.0)
        se = np.sqrt(var / samples)
        units = np.where(dev <= rounding, 0.0, dev / np.where(se > 0.0, se, np.inf))
    return SRecursionReport(
        targets=targets,
        estimates=est,
        se=se,
        deviation_se=units,
        max_abs_deviation=float(dev.max()),
        max_deviation_se=None if units is None else float(units.max()),
        mean_lambda=lam_acc / samples,
        samples=samples,
    )


@dataclass
class ContractionPoint:
    t: int
    mean_sq_l2_gap: float
    se: Optional[float]          # None with one replica
    bound: float                 # 4 n exp(-floor(t gamma_hat / 8))


@dataclass
class ContractionReport:
    gamma_hat: float             # base-walk gap
    points: list
    sq_gaps: np.ndarray          # (checkpoints, replicas): ||X_t - Y_t||^2


def contraction_experiment(
    group: GroupTable,
    gens: GeneratorSet,
    T: Optional[int],
    replicas: int,
    seed: int,
) -> ContractionReport:
    """L2 contraction of a proportionally coupled pair: X starts at the
    point mass on the identity, Y stationary, and both share every draw.

    At every positive multiple t <= T of ceil(8 / gamma_hat) (T defaults to
    ten of them) the mean of ||X_t - Y_t||^2 over the replicas is set against
    4 n exp(-floor(t gamma_hat / 8)); a T below the first multiple is a
    ConfigError. With one replica each point's se is None.

    Per-replica draw order (``seeding.predraw``): Y start, then the moves.
    """
    n = group.n
    gamma_hat = base_gap(group, gens)
    stride = math.ceil(8.0 / gamma_hat)
    T = 10 * stride if T is None else T
    marks = list(range(stride, T + 1, stride))
    if not marks:
        raise ConfigError("T too small: no checkpoint is a multiple of ceil(8/gamma_hat)")
    chain = simplex_chain(group, gens)
    rngs = [replica_rng(seed, r) for r in range(replicas)]
    (Y,), moves = predraw(chain, rngs, T, "contract-simplex", before=1)
    # X and Y share every draw: two batches, each moved per level
    X = np.broadcast_to(chain.start, Y.shape).copy()

    points = []
    sq_gaps = np.empty((len(marks), replicas))
    # the lambdas past the last checkpoint's chunk are skipped, never drawn
    for k, t in enumerate(advance(step_batch, (X, Y), *moves, marks)):
        sq = ((X - Y) ** 2).sum(axis=1)
        sq_gaps[k] = sq
        se = float(sq.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else None
        bound = 4.0 * n * math.exp(-math.floor(t * gamma_hat / 8.0))
        points.append(ContractionPoint(t=t, mean_sq_l2_gap=float(sq.mean()), se=se, bound=bound))
    return ContractionReport(gamma_hat=gamma_hat, points=points, sq_gaps=sq_gaps)


def lower_bound_init(kernel: TransitionKernel):
    """Second eigenvector of the edge walk plus the matching worst start.

    Returns (v, mu): v is a unit eigenvector for the second-largest
    eigenvalue, signed so its nonnegative part carries at least half the
    squared norm; mu is the normalized positive part of v, a simplex point
    concentrated where v is positive.
    """
    from .kernels import symmetrization

    sym, d = symmetrization(kernel)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    v = vecs[:, order[1]] / d
    v = v / np.linalg.norm(v)
    if float(np.sum(v[v >= 0.0] ** 2)) < 0.5:
        v = -v
    pos = np.where(v > 0.0, v, 0.0)
    total = float(pos.sum())
    if total < 1e-12:
        raise DegenerateEigenvector("positive part of the second eigenvector is null")
    return v, SimplexState(pos / total)


@dataclass
class LowerBoundPoint:
    t: int
    mean_inner: float
    se: Optional[float]          # None with one replica
    exact: float                 # (1 - gamma)^t * <X_0, v>
    tail_empirical: float        # fraction of replicas with <X_t, v> > d
    tail_stationary: float       # same event under the uniform stationary law
    tv_lower_bound: float        # max(0, tail_empirical - tail_stationary)


@dataclass
class LowerBoundReport:
    points: list
    gamma: float
    T: int
    d: float
    slope: Optional[float]       # None when fewer than two means are positive
    slope_target: Optional[float]  # log(1 - gamma); None when gamma = 1
    slope_rel_error: Optional[float]
    stationary_second_moment: float
    stationary_bound: float      # 2 / n^2


def lower_bound_experiment(
    group: GroupTable,
    gens: GeneratorSet,
    T: Optional[int] = None,
    d: Optional[float] = None,
    replicas: int = 10_000,
    seed: int = 0,
) -> LowerBoundReport:
    """Track the eigenvector statistic <X_t, v> of the chain started at the
    worst initial point mu.

    Its expectation decays exactly like (1 - gamma)^t * <X_0, v> where gamma
    is the edge-walk gap, because the one-step conditional expectation of the
    chain is the edge-walk kernel. The report compares the Monte Carlo means
    with that curve, fits the log-slope on the positive means (slope and its
    relative error are None when fewer than two are), and contrasts the tail
    frequency P[<X_t, v> > d] with its stationary counterpart (the implied
    total variation lower bound). A gap of 1 (the 2-element group) decays in
    one step and has no log-slope: the target, slope and relative error are
    then None. With one replica each point's se is None. T defaults to
    max(8, ceil(1.5 / gamma)).

    Per-replica draw order (``seeding.predraw``): moves, then a stationary row.
    """
    from .kernels import edge_walk_kernel, spectral_summary

    n = group.n
    kernel = edge_walk_kernel(group, gens)
    v, mu = lower_bound_init(kernel)
    gamma = spectral_summary(kernel).gap
    T = max(8, math.ceil(1.5 / gamma)) if T is None else T
    inner0 = float(mu.x @ v)
    if d is None:
        d = inner0 / 2.0

    chain = simplex_chain(group, gens)
    rngs = [replica_rng(seed, r) for r in range(replicas)]
    _, (a, b, lam) = predraw(chain, rngs, T, "lowerbound-simplex")
    x = np.broadcast_to(mu.x, (replicas, n)).copy()
    # each checkpoint keeps its scalars (t, mean, se, tail frequency)
    marked = []
    for t in advance(step_batch, (x,), a, b, lam, range(0, T + 1, _CHECKPOINT_STRIDE)):
        inner = x @ v
        se = float(inner.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else None
        marked.append((t, float(inner.mean()), se, float(np.mean(inner > d))))
    # each replica's stationary row follows its lambda array
    stat_inner = np.concatenate([chain.stationary(rng, 1) for rng in rngs]) @ v
    tail_stat = float(np.mean(stat_inner > d))
    m2_stat = float(np.mean(stat_inner**2))
    points = [
        LowerBoundPoint(
            t=t,
            mean_inner=mean,
            se=se,
            exact=(1.0 - gamma) ** t * inner0,
            tail_empirical=tail,
            tail_stationary=tail_stat,
            tv_lower_bound=max(0.0, tail - tail_stat),
        )
        for t, mean, se, tail in marked
    ]

    # a Monte Carlo mean below its noise can be <= 0 and has no logarithm
    fit = [p for p in points if p.mean_inner > 0.0]
    target = math.log(1.0 - gamma) if gamma < 1.0 else None
    slope = rel_error = None
    if len(fit) >= 2 and target is not None:
        ts = np.array([p.t for p in fit], dtype=float)
        logs = np.log(np.array([p.mean_inner for p in fit]))
        slope = float(np.polyfit(ts, logs, 1)[0])
        rel_error = abs(slope - target) / abs(target)
    return LowerBoundReport(
        points=points,
        gamma=gamma,
        T=T,
        d=float(d),
        slope=slope,
        slope_target=target,
        slope_rel_error=rel_error,
        stationary_second_moment=m2_stat,
        stationary_bound=2.0 / n**2,
    )
