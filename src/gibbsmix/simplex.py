"""Gibbs sampler on the probability simplex over a finite group.

States are mass vectors X on the group with nonnegative entries summing
to 1. A move picks a group element g, a generator r, and lam uniform on
[0, 1], then redistributes the mass of the Cayley-edge pair (g, g*r):

    X'[g] = lam * (X[g] + X[g*r]),    X'[g*r] = (1 - lam) * (X[g] + X[g*r]).

The uniform distribution on the simplex is stationary. This module also
provides the stationary sampler, the cross-correlation diagnostic for a pair
of coupled chains (the S vector), a Monte Carlo check of its exact one-step
recursion, and the eigenvector-statistic lower-bound experiment driven by the
edge-walk kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateEigenvector, InvariantViolation
from .groups import GeneratorSet, GroupTable
from .kernels import TransitionKernel, edge_walk_kernel, spectral_summary
from .pairops import advance, flat_pair_index, split_pair
from .seeding import draw_moves, empty_moves, replica_rng

__all__ = [
    "SimplexState",
    "MoveDraw",
    "SVector",
    "SRecursionReport",
    "LowerBoundPoint",
    "LowerBoundReport",
    "step",
    "step_batch",
    "sample_stationary",
    "sample_stationary_batch",
    "s_vector",
    "s_recursion_targets",
    "check_s_recursion",
    "lower_bound_init",
    "lower_bound_experiment",
    "replica_rng",
]

_SUM_TOL = 1e-12


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


@dataclass
class MoveDraw:
    """One update draw: element g, generator r (element index), lam in [0, 1]."""

    g: int
    r: int
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise InvariantViolation("lambda-range", f"lam = {self.lam!r}")


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


def step(state: SimplexState, draw: MoveDraw, group: GroupTable) -> SimplexState:
    """Apply one move; only the pair (g, g*r) changes and its sum is exact."""
    a = int(draw.g)
    b = int(group.mul[a, draw.r])
    if a == b:
        raise InvariantViolation("pair-distinct", "generator fixed the element (r = id?)")
    x = state.x.copy()
    total = x[a] + x[b]
    na, nb = split_pair(total, total, 0.0, draw.lam)
    x[a] = na
    x[b] = nb
    return SimplexState(x)


def step_batch(x: np.ndarray, a: np.ndarray, b: np.ndarray, lam: np.ndarray,
               rows: np.ndarray | None = None) -> None:
    """In-place lockstep move on a C-contiguous (B, n) batch; row rows[k]
    (default: every row) updates pair (a[k], b[k]). Flat-index gathers and
    scatters on x.reshape(-1)."""
    flat, ia, ib = flat_pair_index(x, a, b, rows)
    total = flat[ia] + flat[ib]
    na, nb = split_pair(total, total, 0.0, lam)
    flat[ia] = na
    flat[ib] = nb


def sample_stationary(n: int, rng: np.random.Generator) -> SimplexState:
    """Uniform point on the simplex: normalized unit-rate exponentials."""
    e = rng.exponential(1.0, n)
    return SimplexState(e / e.sum())


def sample_stationary_batch(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    e = rng.exponential(1.0, (size, n))
    return e / e.sum(axis=1, keepdims=True)


def s_vector(x: SimplexState, y: SimplexState, group: GroupTable) -> SVector:
    d = x.x - y.x
    # d[group.mul] has entry [g, h] = d[g*h]
    s = d @ d[group.mul]
    return SVector(s=s, identity=group.identity)


def s_recursion_targets(s: np.ndarray, group: GroupTable, gens: GeneratorSet) -> np.ndarray:
    """Exact conditional expectation of the next S vector under one
    proportionally coupled move (g, r, lam all uniform).

    Three cases: the identity entry, generator entries (with a separate
    branch for involution generators, whose h*h term is absorbed into the
    identity coefficient), and all remaining entries.
    """
    n, m = group.n, gens.m
    mul, inv, e = group.mul, group.inv, group.identity
    s = np.asarray(s, dtype=float)
    gset = set(gens.elements)
    out = np.empty(n)
    for h in range(n):
        if h == e:
            out[h] = (1.0 - 2.0 / (3 * n)) * s[e] + (4.0 / (3 * m * n)) * sum(
                s[r] for r in gens.elements
            )
            continue
        hi = int(inv[h])
        if h in gset:
            acc = (1.0 - 2.0 / n + 2.0 / (3 * m * n)) * s[h] + (2.0 / (3 * m * n)) * s[e]
            if hi != h:
                acc += (2.0 / (m * n)) * s[mul[h, h]]
                skip = (h, hi)
            else:
                skip = (h,)
            for r in gens.elements:
                if r in skip:
                    continue
                ri = int(inv[r])
                acc += (1.0 / (2 * m * n)) * (
                    s[mul[r, h]] + s[mul[r, hi]] + s[mul[ri, h]] + s[mul[ri, hi]]
                )
            out[h] = acc
        else:
            acc = (1.0 - 2.0 / n) * s[h]
            for r in gens.elements:
                ri = int(inv[r])
                acc += (1.0 / (2 * m * n)) * (
                    s[mul[r, h]] + s[mul[r, hi]] + s[mul[ri, h]] + s[mul[ri, hi]]
                )
            out[h] = acc
    return out


@dataclass
class SRecursionReport:
    targets: np.ndarray
    estimates: np.ndarray
    se: np.ndarray
    max_abs_deviation: float
    max_deviation_se: float       # worst entry, in standard-error units
    mean_lambda: float
    mean_lambda_sq: float
    samples: int


def check_s_recursion(
    x: SimplexState,
    y: SimplexState,
    group: GroupTable,
    gens: GeneratorSet,
    samples: int = 10**6,
    seed: int = 0,
    chunk: int = 50_000,
) -> SRecursionReport:
    """Monte Carlo estimate of E[S'] after one proportionally coupled move,
    against the closed-form targets.

    The difference vector D = x - y evolves autonomously under proportional
    coupling (D'[g] = lam * (D[g] + D[gr]) etc.), so the simulation runs on D
    directly.
    """
    n = group.n
    mul = group.mul
    d0 = x.x - y.x
    s0 = s_vector(x, y, group).s
    targets = s_recursion_targets(s0, group, gens)

    rng = np.random.default_rng(seed)
    acc = np.zeros(n)
    acc_sq = np.zeros(n)
    lam_acc = 0.0
    lam_sq_acc = 0.0
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        rows = np.arange(b)
        a, partner, lam = draw_moves(rng, b, n, group, gens)
        d = np.broadcast_to(d0, (b, n)).copy()
        total = d[rows, a] + d[rows, partner]
        d[rows, a] = lam * total
        d[rows, partner] = (1.0 - lam) * total
        sprime = np.einsum("bg,bgh->bh", d, d[:, mul])
        acc += sprime.sum(axis=0)
        acc_sq += (sprime**2).sum(axis=0)
        lam_acc += lam.sum()
        lam_sq_acc += (lam**2).sum()
        done += b

    est = acc / samples
    var = np.maximum(acc_sq / samples - est**2, 0.0)
    se = np.sqrt(var / samples)
    dev = np.abs(est - targets)
    with np.errstate(divide="ignore", invalid="ignore"):
        units = np.where(dev == 0.0, 0.0, dev / np.where(se > 0.0, se, np.inf))
    return SRecursionReport(
        targets=targets,
        estimates=est,
        se=se,
        max_abs_deviation=float(dev.max()),
        max_deviation_se=float(units.max()),
        mean_lambda=lam_acc / samples,
        mean_lambda_sq=lam_sq_acc / samples,
        samples=samples,
    )


def lower_bound_init(kernel: TransitionKernel):
    """Second eigenvector of the edge walk plus the matching worst start.

    Returns (v, mu): v is a unit eigenvector for the second-largest
    eigenvalue, signed so its nonnegative part carries at least half the
    squared norm; mu is the normalized positive part of v, a simplex point
    concentrated where v is positive.
    """
    d = np.sqrt(kernel.pi)
    sym = (d[:, None] * kernel.p) / d[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
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
    inner0: float
    d: float
    slope: Optional[float]       # None when fewer than two means are positive
    slope_target: Optional[float]  # log(1 - gamma); None when gamma = 1
    slope_rel_error: Optional[float]
    stationary_second_moment: float
    stationary_bound: float      # 2 / n^2
    replicas: int


def lower_bound_experiment(
    group: GroupTable,
    gens: GeneratorSet,
    T: int,
    d: Optional[float] = None,
    replicas: int = 10_000,
    seed: int = 0,
    checkpoint_stride: int = 4,
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
    then None. With one replica each point's se is None.
    """
    n = group.n
    kernel = edge_walk_kernel(group, gens)
    v, mu = lower_bound_init(kernel)
    gamma = spectral_summary(kernel).gap
    inner0 = float(mu.x @ v)
    if d is None:
        d = inner0 / 2.0

    # Per-replica streams; draw order per replica: pair arrays, lam array,
    # then one stationary sample for the tail comparison.
    a_draw, b_draw, lam_draw = empty_moves(replicas, T, n)
    stationary = np.empty((replicas, n))
    for b in range(replicas):
        rng = replica_rng(seed, b)
        a_draw[b], b_draw[b], lam_draw[b] = draw_moves(rng, T, n, group, gens)
        stationary[b] = sample_stationary(n, rng).x

    checkpoints = list(range(0, T + 1, checkpoint_stride))
    x = np.broadcast_to(mu.x, (replicas, n)).copy()
    stat_inner = stationary @ v
    tail_stat = float(np.mean(stat_inner > d))
    m2_stat = float(np.mean(stat_inner**2))

    points = []

    def record(t: int) -> None:
        inner = x @ v
        mean = float(inner.mean())
        se = float(inner.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else None
        tail = float(np.mean(inner > d))
        points.append(
            LowerBoundPoint(
                t=t,
                mean_inner=mean,
                se=se,
                exact=(1.0 - gamma) ** t * inner0,
                tail_empirical=tail,
                tail_stationary=tail_stat,
                tv_lower_bound=max(0.0, tail - tail_stat),
            )
        )

    record(0)
    # the steps after the last checkpoint are drawn but never observed
    for t0, t in zip(checkpoints, checkpoints[1:]):
        advance(step_batch, x, a_draw, b_draw, lam_draw, t0, t)
        record(t)

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
        inner0=inner0,
        d=float(d),
        slope=slope,
        slope_target=target,
        slope_rel_error=rel_error,
        stationary_second_moment=m2_stat,
        stationary_bound=2.0 / n**2,
        replicas=replicas,
    )
