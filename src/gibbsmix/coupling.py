"""Coupling machinery for the two Gibbs samplers.

Three layers:

* proportional coupling: both chains share every (pair, lam) draw; the L2
  difference contracts in expectation.
* subset coupling: at one update of the pair (i, j) with i inside a block S
  and j outside it, the two lambdas are drawn jointly so that the block
  weights w(X', S) and w(Y', S) coincide with high probability, while each
  lambda stays exactly uniform (a remainder density absorbs the failure
  branch).
* the two-phase non-Markovian coupling: phase 1 runs proportional steps;
  the phase-2 update coordinates are drawn up front, their suffix graph
  defines a backward partition process whose merge times are "marked", and
  the replay applies subset couplings exactly at marked times. If every
  subset coupling succeeds and the schedule connects, the chains meet.

The partition process over a schedule on times [T1, T): P_t is the set of
connected components of the edges {(i(s), j(s)) : s >= t}; it refines as t
grows, P_T is all singletons, and each marked time merges exactly two blocks
(S1 the smaller, ties broken toward the block containing the smallest
coordinate). tau is the backward distance T - t* to the first time t* at
which a single block forms.

The module also runs the experiments behind the coupling's lemmas, for both
chains: the connection-time tails of random schedules and the boundary
margins ("largeness") that keep subset couplings non-degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneratePairMass, InvariantViolation
from .groups import GeneratorSet, GroupTable
from .kernels import base_walk_kernel, spectral_summary
from .matrices import msample_stationary, mstep_batch
from .pairops import advance, pair_coeffs, pair_levels, split_pair_float, stacked_draws
from .seeding import draw_moves, draw_pairs, empty_moves, replica_rng
from .simplex import sample_stationary, step_batch

__all__ = [
    "SUBSET_FAILED",
    "NOT_CONNECTED",
    "LARGENESS_VIOLATED",
    "MergeRecord",
    "PartitionProcess",
    "CouplingOutcome",
    "CouplingTrace",
    "CouplingRunResult",
    "ConnectReport",
    "LargenessReport",
    "ClosenessReport",
    "build_partition_process",
    "subset_couple_arrays",
    "run_nonmarkovian_coupling",
    "connectedness_experiment",
    "largeness_experiment",
    "closeness_check",
    "default_start",
]

SUBSET_FAILED = "SubsetFailed"
NOT_CONNECTED = "NotConnected"
LARGENESS_VIOLATED = "LargenessViolated"

_W_TOL = 1e-12
_FINAL_GAP_TOL = 1e-8
_PAIR_MASS_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# schedules and partition processes


@dataclass
class MergeRecord:
    """At time t the blocks s1 and s2 of P_{t+1} (sorted tuples) merge into
    one block of P_t; |s1| <= |s2|, ties broken so s1 contains the smallest
    coordinate. (i, j) is the edge updated at t, with i in s1 and j in s2."""

    t: int
    s1: tuple
    s2: tuple
    i: int
    j: int


@dataclass(eq=False)
class PartitionProcess:
    n: int
    merges: list                  # MergeRecord, descending t
    tau: float                    # T - (first single-block time), or inf
    connected: bool

    def partition_at(self, t: int) -> list:
        """Blocks of P_t (components of the suffix edges {s >= t}), each a
        sorted tuple, sorted by smallest member: the singletons with every
        merge at a time >= t applied."""
        blocks = {k: (k,) for k in range(self.n)}
        for rec in self.merges:
            if rec.t < t:
                break
            # s1 and s2 are blocks of P_{rec.t + 1}, keyed by their minima
            del blocks[rec.s1[0]], blocks[rec.s2[0]]
            merged = tuple(sorted(rec.s1 + rec.s2))
            blocks[merged[0]] = merged
        return sorted(blocks.values())


def build_partition_process(left, right, n: int, t0: int = 0) -> PartitionProcess:
    """Backward scan over the schedule whose edge at time t0 + s is
    (left[s], right[s]), two 1-D integer arrays with left != right, on block
    labels: owner[k] is the label of k's block and blocks[label] its sorted
    members. A merge relabels the members of S1, the block with the smaller
    (size, first member), and records the edge oriented from S1 to S2; the
    scan stops after n - 1 merges, since no merge can follow."""
    if len(left) == 0:
        raise InvariantViolation("schedule-empty", "schedule must be nonempty")
    owner = list(range(n))
    blocks = [(k,) for k in range(n)]
    merges = []
    lefts, rights = left.tolist(), right.tolist()
    for idx in range(len(lefts) - 1, -1, -1):
        i, j = lefts[idx], rights[idx]
        if owner[i] == owner[j]:
            continue
        s1, s2 = blocks[owner[i]], blocks[owner[j]]
        if (len(s2), s2[0]) < (len(s1), s1[0]):
            s1, s2, i, j = s2, s1, j, i
        merges.append(MergeRecord(t=t0 + idx, s1=s1, s2=s2, i=i, j=j))
        label = owner[s2[0]]
        for k in s1:
            owner[k] = label
        blocks[label] = tuple(sorted(s1 + s2))
        if len(merges) == n - 1:
            break
    connected = len(merges) == n - 1
    tau = float(t0 + len(lefts) - merges[-1].t) if connected else math.inf
    return PartitionProcess(n=n, merges=merges, tau=tau, connected=connected)


# ---------------------------------------------------------------------------
# the subset-coupled move


def _remainder_sample(lo: float, hi: float, q: float, rng: np.random.Generator) -> float:
    """Inversion sample from the density proportional to 1 - q*1[lo, hi] on
    [0, 1] (the two-piece remainder left after the success branch)."""
    z_total = 1.0 - q * (hi - lo)
    if z_total <= 0.0:
        raise InvariantViolation("remainder-mass", f"nonpositive remainder {z_total:.3e}")
    u = rng.random() * z_total
    if u < lo:
        return u
    u -= lo
    mid = (hi - lo) * (1.0 - q)
    if u < mid:
        return hi if q >= 1.0 else lo + u / (1.0 - q)
    return hi + (u - mid)


def subset_couple_arrays(
    kind: str,
    x: np.ndarray,
    y: np.ndarray,
    subset: np.ndarray,
    i: int,
    j: int,
    rng: np.random.Generator,
    lam_first: Optional[float] = None,
):
    """One subset-coupled update of the pair (i, j), in place; i lies in the
    block ``subset``, j outside it.

    The chain whose pair move has the larger lambda coefficient draws its
    lambda uniformly first (``lam_first`` if supplied); the other lambda is
    computed from the weight-matching relation. If the computed value leaves
    [0, 1] the step fails and that lambda is drawn from the remainder
    density instead, keeping both marginals exactly uniform.

    Returns (succeeded, lam_x, lam_y). On success the block weights agree
    within 1e-12 (asserted).
    """
    xi, xj = float(x[i]), float(x[j])
    yi, yj = float(y[i]), float(y[j])
    sx, ax, bx = pair_coeffs(kind, xi, xj)
    sy, ay, by = pair_coeffs(kind, yi, yj)
    if ax <= _PAIR_MASS_FLOOR or ay <= _PAIR_MASS_FLOOR:
        raise DegeneratePairMass(f"pair mass {min(ax, ay):.3e} at pair ({i}, {j})")

    others = subset[subset != i]
    c = (by - bx) + float(y[others].sum() - x[others].sum())

    if ay > ax:
        first = "y"
    elif ax > ay:
        first = "x"
    elif kind == "matrix" and sx > 2.0 and sy < 2.0:
        # pair-gap tie with delta_x < 0 < delta_y (delta = 2 - pair total):
        # the x side draws first
        first = "x"
    else:
        first = "y"

    u = float(rng.random()) if lam_first is None else float(lam_first)
    if first == "y":
        lam_y = u
        z = (ay * lam_y + c) / ax
        lo_img, hi_img = c / ax, (ay + c) / ax
        q = ax / ay
    else:
        lam_x = u
        z = (ax * lam_x - c) / ay
        lo_img, hi_img = -c / ay, (ax - c) / ay
        q = ay / ax

    succeeded = 0.0 <= z <= 1.0
    if succeeded:
        other_lam = z
    else:
        lo = min(max(lo_img, 0.0), 1.0)
        hi = min(max(hi_img, 0.0), 1.0)
        other_lam = _remainder_sample(lo, hi, q, rng)
    if first == "y":
        lam_x = other_lam
    else:
        lam_y = other_lam

    x[i], x[j] = split_pair_float(sx, ax, bx, lam_x)
    y[i], y[j] = split_pair_float(sy, ay, by, lam_y)

    if succeeded:
        wx = float(x[subset].sum())
        wy = float(y[subset].sum())
        if abs(wx - wy) > _W_TOL:
            raise InvariantViolation(
                "subset-w-equality", f"|w(X,S) - w(Y,S)| = {abs(wx - wy):.3e}"
            )
    return succeeded, lam_x, lam_y


# ---------------------------------------------------------------------------
# the two-phase non-Markovian coupling


def _chain_size(kind: str, group, gens, n) -> int:
    """n of the chain an experiment names: the simplex chain on a group and
    its generators, or the matrix chain on n rows."""
    if kind == "simplex" and group is not None and gens is not None:
        return group.n
    if kind == "matrix" and n is not None:
        return n
    raise InvariantViolation(
        "arguments", f"chain kind {kind!r} needs group and gens (simplex) or n (matrix)"
    )


@dataclass
class CouplingOutcome:
    replica: int
    coupled: bool
    failure_kind: Optional[str]
    first_failure_time: Optional[int]
    tau_connect: Optional[int]
    max_final_gap: float


@dataclass(eq=False)
class CouplingTrace:
    t0: int                      # start of phase 2
    xs: np.ndarray               # (T2 + 1, n) states entering each replay time
    ys: np.ndarray
    partition: PartitionProcess
    subset_success: list
    first_failure_time: Optional[int]


@dataclass
class CouplingRunResult:
    outcomes: list
    traces: Optional[list] = None


def default_start(kind: str, n: int, identity: int = 0) -> np.ndarray:
    """Worst-case deterministic start: simplex mass concentrated at the
    identity; matrix first column pushed to the boundary corner."""
    if kind == "simplex":
        x = np.zeros(n)
        x[identity] = 1.0
        return x
    c = np.zeros(n)
    c[: n // 2] = 2.0
    if n % 2:
        c[n // 2] = 1.0
    return c


def run_nonmarkovian_coupling(
    kind: str,
    *,
    group: Optional[GroupTable] = None,
    gens: Optional[GeneratorSet] = None,
    n: Optional[int] = None,
    T1: int,
    T2: int,
    replicas: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
    keep_trace: bool = False,
) -> CouplingRunResult:
    """Two-phase coupling for every replica; failures are recorded in the
    outcomes, never raised.

    Per replica: Y starts stationary, X at ``x0`` (default: default_start).
    Phase 1 applies T1 proportional steps. Every draw of a replica's
    (T1 + T2)-step schedule is made up front, the partition process of the
    suffix graph of its phase-2 coordinates is built, and the T2 phase-2
    steps are replayed with a subset coupling at each marked time — the
    updated coordinate lying in the smaller merged block S1 takes the role
    i, as the scan recorded it (``MergeRecord.i``) — and proportional
    coupling elsewhere.

    Nothing is observed during phase 1 or before the earliest marked time
    over the replicas (without ``keep_trace``), so those moves are applied
    in dependency levels (``pairops.advance``), one kernel call on the stacked
    [X; Y] batch per level; each move reads the values it would read in a
    per-step loop, so the result is that loop's, bit for bit. From the
    earliest marked time on, the replay steps one time at a time.

    Per-replica draw order: stationary start; phase-1 element/pair array,
    generator/partner array, lambda array; phase-2 coordinate arrays; phase-2
    lambda array; any subset-coupling remainder draws on demand. At a marked
    time the phase-2 lambda of that step is consumed as the first-drawn
    lambda of the subset coupling.

    failure_kind priority when several apply: LargenessViolated (the replay
    was aborted by a degenerate pair mass), then NotConnected, then
    SubsetFailed.
    """
    n = _chain_size(kind, group, gens, n)
    if T2 < 1:
        raise InvariantViolation("arguments", "T2 must be >= 1")

    B = replicas
    start = default_start(kind, n, 0 if group is None else group.identity) if x0 is None else np.asarray(x0, dtype=float)
    # X and Y are the two halves of one C-contiguous batch, so a draw shared
    # by both chains moves them in one kernel call
    XY = np.empty((2 * B, n))
    X, Y = XY[:B], XY[B:]
    X[:] = start
    # one schedule per replica, phase 1 on [0, T1) and phase 2 on [T1, T)
    T = T1 + T2
    left, right, lam = empty_moves(B, T, n)
    rngs = []
    for b in range(B):
        rng = replica_rng(seed, b)
        rngs.append(rng)
        Y[b] = sample_stationary(n, rng).x if kind == "simplex" else msample_stationary(n, rng).c
        left[b, :T1], right[b, :T1], lam[b, :T1] = draw_moves(rng, T1, n, group, gens)
        left[b, T1:], right[b, T1:], lam[b, T1:] = draw_moves(rng, T2, n, group, gens)

    batch = step_batch if kind == "simplex" else mstep_batch
    advance(batch, XY, left, right, lam, 0, T1)
    # outcomes read only tau and connectedness, and the merges live on in
    # ``marks``; a whole process is kept for a trace only
    tau = [math.inf] * B
    connected = [False] * B
    processes = []
    marks = {}
    for b in range(B):
        proc = build_partition_process(left[b, T1:], right[b, T1:], n, T1)
        tau[b], connected[b] = proc.tau, proc.connected
        if keep_trace:
            processes.append(proc)
        for rec in proc.merges:
            marks.setdefault(rec.t, []).append((b, rec))
    # nothing is observed before the earliest marked time; a trace observes
    # every phase-2 time
    head = T1 if keep_trace else min(marks)
    advance(batch, XY, left, right, lam, T1, head)

    if keep_trace:
        tr_x = np.empty((B, T2 + 1, n))
        tr_y = np.empty((B, T2 + 1, n))
        tr_x[:, 0] = X
        tr_y[:, 0] = Y
    subset_success = [[] for _ in range(B)]

    subset_fail = np.full(B, -1, dtype=np.int64)
    largeness_fail = np.full(B, -1, dtype=np.int64)
    active = np.ones(B, dtype=bool)
    for t in range(head, T):
        handled = np.zeros(B, dtype=bool)
        for b, rec in marks.get(t, ()):
            handled[b] = True
            if not active[b]:
                continue
            subset = np.asarray(rec.s1, dtype=np.int64)
            try:
                ok, _, _ = subset_couple_arrays(
                    kind, X[b], Y[b], subset, rec.i, rec.j, rngs[b], lam_first=lam[b, t]
                )
            except DegeneratePairMass:
                largeness_fail[b] = t
                active[b] = False
                continue
            subset_success[b].append(ok)
            if not ok and subset_fail[b] < 0:
                subset_fail[b] = t
        rest = active & ~handled
        if rest.any():
            rows = np.flatnonzero(rest)
            batch(XY, *stacked_draws(left[rows, t], right[rows, t], lam[rows, t]),
                  np.concatenate((rows, rows + B)))
        if keep_trace:
            tr_x[:, t + 1 - T1] = X
            tr_y[:, t + 1 - T1] = Y

    gaps = np.abs(X - Y).max(axis=1)
    outcomes = []
    for b in range(B):
        has_largeness = largeness_fail[b] >= 0
        has_subset = subset_fail[b] >= 0
        coupled = connected[b] and not has_largeness and not has_subset
        if coupled:
            failure_kind = None
            first_failure = None
        elif has_largeness:
            failure_kind = LARGENESS_VIOLATED
            first_failure = int(largeness_fail[b])
        elif not connected[b]:
            failure_kind = NOT_CONNECTED
            first_failure = int(subset_fail[b]) if has_subset else None
        else:
            failure_kind = SUBSET_FAILED
            first_failure = int(subset_fail[b])
        gap = float(gaps[b])
        if coupled and gap > _FINAL_GAP_TOL:
            raise InvariantViolation(
                "final-coupling", f"replica {b} coupled but max gap = {gap:.3e}"
            )
        outcomes.append(
            CouplingOutcome(
                replica=b,
                coupled=coupled,
                failure_kind=failure_kind,
                first_failure_time=first_failure,
                tau_connect=int(tau[b]) if connected[b] else None,
                max_final_gap=gap,
            )
        )

    traces = None
    if keep_trace:
        traces = [
            CouplingTrace(
                t0=T1,
                xs=tr_x[b],
                ys=tr_y[b],
                partition=processes[b],
                subset_success=subset_success[b],
                first_failure_time=(
                    int(subset_fail[b]) if subset_fail[b] >= 0 else None
                ),
            )
            for b in range(B)
        ]
    return CouplingRunResult(outcomes=outcomes, traces=traces)


# ---------------------------------------------------------------------------
# connectivity, largeness and closeness


# replicas per kernel call: small tiles keep the edge arrays in cache and the
# peak memory flat (on connect-n512 tiles of 1, 2 and 8 ran slower than 4,
# and 8 held 1.8 MB more)
_CONNECT_TILE = 4


def _connection_times(left, right, n: int):
    """Connection time of each row of a batch of forward schedules.

    left, right: (B, L) coordinates in [0, n) with left != right. Returns
    (tau, connected): tau[b] = 1 + the largest time index in the minimum
    spanning forest of row b, each edge weighted by its index (0 for no
    edge); connected[b] when that forest has n - 1 edges. The indices are
    distinct, so the forest is the forward Kruskal scan's, and for a
    connected row tau[b] is the first k + 1 at which edges 0..k connect.

    Boruvka over the disjoint union of the rows, node b*n + i: each round
    every component takes its lightest live edge (np.minimum.at on the edge
    positions, which run in time order), a component hooks to the other end
    of that edge, the smaller root staying put when two components take the
    same edge, and pointer jumping flattens the hooks. Edges inside one
    component are dropped.
    """
    B, L = left.shape
    tau = np.zeros(B, dtype=np.int64)
    merges = np.zeros(B, dtype=np.int64)
    offset = (np.arange(B, dtype=np.int32) * n)[:, None]
    cu = (left.astype(np.int32) + offset).ravel()
    cv = (right.astype(np.int32) + offset).ravel()
    index = np.tile(np.arange(L, dtype=np.int32), B)
    hook = np.arange(B * n, dtype=np.int32)
    while cu.size:
        best = np.full(B * n, cu.size, dtype=np.int32)
        pos = np.arange(cu.size, dtype=np.int32)
        np.minimum.at(best, cu, pos)
        np.minimum.at(best, cv, pos)
        roots = np.flatnonzero(best < cu.size).astype(np.int32)
        edge = best[roots]
        other = np.where(cu[edge] == roots, cv[edge], cu[edge])
        moves = (best[other] != edge) | (roots > other)
        roots, other, edge = roots[moves], other[moves], edge[moves]
        hook[roots] = other
        rep = roots // n
        np.maximum.at(tau, rep, index[edge] + 1)
        merges += np.bincount(rep, minlength=B)
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        cu, cv = hook[cu], hook[cv]
        live = cu != cv
        cu, cv, index = cu[live], cv[live], index[live]
    return tau, merges == n - 1


def _tile_taus(rows, seed, n, group, gens, max_draws, length):
    """(tau, connected) of the given replicas, each read on the first
    ``length`` pairs of its max_draws-long schedule, in tiles of
    _CONNECT_TILE replicas; tau is max_draws + 1 where not connected."""
    taus = np.empty(len(rows), dtype=np.int64)
    connected = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), _CONNECT_TILE):
        tile = rows[start:start + _CONNECT_TILE]
        left, right, _ = empty_moves(len(tile), length, n)
        for k, b in enumerate(tile):
            left[k], right[k] = draw_pairs(
                replica_rng(seed, b), max_draws, n, group, gens, head=length
            )
        tau, ok = _connection_times(left, right, n)
        taus[start:start + len(tile)] = np.where(ok, tau, max_draws + 1)
        connected[start:start + len(tile)] = ok
    return taus, connected


@dataclass
class ConnectReport:
    kind: str
    n: int
    taus: np.ndarray             # per replica; censored entries equal max_draws + 1
    censored: int
    threshold: Optional[float]
    bound: Optional[float]
    tail_frequency: Optional[float]


def connectedness_experiment(
    kind: str,
    *,
    group: Optional[GroupTable] = None,
    gens: Optional[GeneratorSet] = None,
    n: Optional[int] = None,
    replicas: int = 1000,
    seed: int = 0,
    epsilon: Optional[float] = None,
    C: Optional[float] = None,
    max_draws: Optional[int] = None,
) -> ConnectReport:
    """Distribution of the connection time tau of a random update schedule.

    Schedule entries are i.i.d., so the backward suffix graph of length L has
    the law of a forward prefix. With each edge of a replica's forward
    schedule weighted by its time index, tau = 1 + the largest index in the
    minimum spanning forest of the first max_draws edges, computed for tiles
    of replicas at once (``_connection_times``); a replica that does not
    connect within max_draws edges reports tau = max_draws + 1 and counts as
    censored. Each replica is first read on the prefix of length
    min(max_draws, ceil(n max(log n, 1))), and only that much of its second
    pair array is drawn (nothing follows the pair arrays in its stream); a
    replica whose prefix does not connect is drawn again, from a fresh
    replica_rng(seed, b), at full max_draws. The report compares the
    empirical tail against the relevant threshold: matrices use
    (1/2 + 2 eps) n log n with bound 2 n^-eps; Cayley schedules use
    8 (C + 3) log n / gamma_hat with bound 2 n^-C.
    """
    n = _chain_size(kind, group, gens, n)
    if max_draws is None:
        max_draws = int(math.ceil(8.0 * n * max(math.log(n), 1.0))) + 32

    prefix = min(max_draws, math.ceil(n * max(math.log(n), 1.0)))
    taus, connected = _tile_taus(range(replicas), seed, n, group, gens, max_draws, prefix)
    if prefix < max_draws:
        rows = np.flatnonzero(~connected)
        taus[rows] = _tile_taus(rows, seed, n, group, gens, max_draws, max_draws)[0]
    censored = int(np.sum(taus > max_draws))

    threshold = bound = tail = None
    if kind == "matrix" and epsilon is not None:
        threshold = (0.5 + 2.0 * epsilon) * n * math.log(n)
        bound = 2.0 * n ** (-epsilon)
    elif kind == "simplex" and C is not None:
        gamma_hat = spectral_summary(base_walk_kernel(group, gens)).gap
        threshold = 8.0 * (C + 3.0) * math.log(n) / gamma_hat
        bound = 2.0 * n ** (-C)
    if threshold is not None:
        tail = float(np.mean(taus > threshold))
    return ConnectReport(
        kind=kind,
        n=n,
        taus=taus,
        censored=censored,
        threshold=threshold,
        bound=bound,
        tail_frequency=tail,
    )


@dataclass
class LargenessReport:
    minima: np.ndarray           # per replica: smallest boundary margin over the window
    threshold: Optional[float]
    target: Optional[float]      # promised frequency of minima >= threshold


def largeness_experiment(
    kind: str,
    *,
    group: Optional[GroupTable] = None,
    gens: Optional[GeneratorSet] = None,
    n: Optional[int] = None,
    window: int,
    replicas: int = 1000,
    seed: int = 0,
    k: float = 1.0,
    d: Optional[float] = None,
) -> LargenessReport:
    """Smallest boundary margin of each stationary trajectory over a window
    of steps: the entries themselves on the simplex, the distance to the
    nearer box wall, min(c, 2 - c), on the matrix chain.

    The matrix threshold is n^(-5.5 - k) with target frequency 1 - 2 n^-k;
    the simplex threshold is d, with no target. An entry's smallest margin
    over the window is the smallest of its start value's and of every value
    written to it, so the moves run in dependency levels and only the moved
    entries are read.

    Per-replica draw order: stationary start, pair arrays, lambda array.
    """
    n = _chain_size(kind, group, gens, n)
    if kind == "matrix":
        threshold = float(n) ** (-5.5 - k)
        target = 1.0 - 2.0 * float(n) ** (-k)
    else:
        threshold, target = d, None

    a, b, lam = empty_moves(replicas, window, n)
    states = np.empty((replicas, n))
    for r in range(replicas):
        rng = replica_rng(seed, r)
        states[r] = msample_stationary(n, rng).c if kind == "matrix" else sample_stationary(n, rng).x
        a[r], b[r], lam[r] = draw_moves(rng, window, n, group, gens)

    def margin(v: np.ndarray) -> np.ndarray:
        return np.minimum(v, 2.0 - v) if kind == "matrix" else v

    minima = margin(states).min(axis=1)
    batch = mstep_batch if kind == "matrix" else step_batch
    for rows, pa, pb, pl in pair_levels(a, b, lam, n):
        batch(states, pa, pb, pl, rows)
        np.minimum.at(minima, rows, np.minimum(margin(states[rows, pa]), margin(states[rows, pb])))
    return LargenessReport(minima=minima, threshold=threshold, target=target)


@dataclass
class ClosenessReport:
    initial_l1: float
    max_blockwise_l1: float      # max over checked steps of sum_S |w(X,S) - w(Y,S)|
    steps_checked: int
    ok: bool


def closeness_check(trace: CouplingTrace) -> ClosenessReport:
    """While the subset couplings have all succeeded, the blockwise L1
    distance over the current partition never exceeds the L1 distance at the
    start of phase 2 (within 1e-10)."""
    initial_l1 = float(np.abs(trace.xs[0] - trace.ys[0]).sum())
    limit = trace.xs.shape[0] - 1
    if trace.first_failure_time is not None:
        limit = trace.first_failure_time - trace.t0
    worst = 0.0
    for t_rel in range(limit + 1):
        blocks = trace.partition.partition_at(trace.t0 + t_rel)
        diff = trace.xs[t_rel] - trace.ys[t_rel]
        total = sum(abs(float(diff[list(block)].sum())) for block in blocks)
        worst = max(worst, total)
    return ClosenessReport(
        initial_l1=initial_l1,
        max_blockwise_l1=worst,
        steps_checked=limit + 1,
        ok=worst <= initial_l1 + 1e-10,
    )
