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
  the replay applies subset couplings exactly at marked times, one batched
  step (``subset_couple_batch``) per marked time over the replicas marked
  there. If every subset coupling succeeds and the schedule connects, the
  chains meet.

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
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation
from .pairops import Chain, advance, flat_pair_index, pair_levels, split_pair, stacked_draws
from .seeding import (
    LambdaStream, check_draw_memory, draw_moves, draw_pairs, empty_moves, empty_pairs,
    move_bytes, replica_rng,
)

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
    "subset_couple_batch",
    "run_nonmarkovian_coupling",
    "connectedness_experiment",
    "largeness_experiment",
    "closeness_check",
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


def _size_runs(size: np.ndarray):
    """(r0, r1, k) for each maximal run of rows r0..r1-1 of equal block size k."""
    starts = np.flatnonzero(np.diff(size, prepend=-1)).tolist()
    return [(r0, r1, int(size[r0])) for r0, r1 in zip(starts, [*starts[1:], len(size)])]


def subset_couple_batch(coeffs: Callable, X: np.ndarray, Y: np.ndarray, rows, i, j, s1, u, rngs):
    """One subset-coupled update per row, in place: batch row rows[k] of X
    and of Y updates the pair (i[k], j[k]), with i[k] in the block S1 of
    that row and j[k] outside it. X and Y are C-contiguous (B, n) batches
    and each row appears at most once. ``s1 = (members, start, size)``: the
    S1 of row k is ``members[start[k]:start[k] + size[k]]``. ``coeffs(vi,
    vj)`` is the chain's (total, alpha, beta) of a pair move on arrays
    (``Chain.coeffs``), u[k] the lambda that row k draws first, and
    ``rngs[rows[k]]`` the generator of its remainder draw.

    Per row: the chain whose pair move has the larger lambda coefficient
    takes u; the other lambda is computed from the weight-matching relation.
    If the computed value leaves [0, 1] the step fails and that lambda is
    drawn from the remainder density instead, keeping both marginals
    exactly uniform. The remainder draws are made one failed row at a time,
    in row order, before any write.

    A row whose pair mass (alpha) is at most 1e-300 on either side is
    degenerate: it is dropped before any further arithmetic and makes no
    draw and no write. Block sums are taken over runs of rows with equal
    |S1|, as C-contiguous (rows, |S1|) gathers summed along axis 1, which
    gives each row the bits of a 1-D ``.sum()`` of its block; sort the rows
    by |S1| to make each run one block size.

    Returns (degenerate, ok, lam_x, lam_y), one entry per row; lam_x and
    lam_y are NaN on degenerate rows. On each row that succeeded the block
    weights w(X, S1) and w(Y, S1) agree within 1e-12 (checked).
    """
    members, start, size = s1
    rows, i, u, start, size = (np.asarray(v) for v in (rows, i, u, start, size))
    fx, ii, jj = flat_pair_index(X, i, j, rows)
    fy = flat_pair_index(Y, i, j, rows)[0]
    sx, ax, bx = coeffs(fx[ii], fx[jj])
    sy, ay, by = coeffs(fy[ii], fy[jj])
    degenerate = (ax <= _PAIR_MASS_FLOOR) | (ay <= _PAIR_MASS_FLOOR)
    if degenerate.any():
        live = np.flatnonzero(~degenerate)
        rows, i, ii, jj, u, start, size, sx, ax, bx, sy, ay, by = (
            v[live] for v in (rows, i, ii, jj, u, start, size, sx, ax, bx, sy, ay, by)
        )

    # the flat index of each run's blocks, and the sums over S1 less i
    base = rows * X.shape[1]
    blocks = []
    c = np.zeros(len(rows))
    for r0, r1, k in _size_runs(size):
        block = members[start[r0:r1, None] + np.arange(k)]
        full = base[r0:r1, None] + block
        blocks.append((r0, r1, full))
        if k > 1:
            others = full[block != i[r0:r1, None]].reshape(r1 - r0, k - 1)
            c[r0:r1] = fy[others].sum(axis=1) - fx[others].sum(axis=1)
    c = (by - bx) + c

    # a matrix pair-gap tie with delta_x < 0 < delta_y (delta = 2 - pair
    # total) lets the x side draw first; a simplex tie has sx == sy, since
    # alpha is the pair total there. The block weights match where
    # ax lam_x = ay lam_y + c, so seen from the x side c changes sign
    x_first = (ax > ay) | (~(ay > ax) & (sx > 2.0) & (sy < 2.0))
    a1 = np.where(x_first, ax, ay)
    a2 = np.where(x_first, ay, ax)
    c = np.where(x_first, -c, c)

    z = (a1 * u + c) / a2
    ok = (0.0 <= z) & (z <= 1.0)
    for r in np.flatnonzero(~ok).tolist():
        cr, a1r, a2r = float(c[r]), float(a1[r]), float(a2[r])
        lo = min(max(cr / a2r, 0.0), 1.0)
        hi = min(max((a1r + cr) / a2r, 0.0), 1.0)
        z[r] = _remainder_sample(lo, hi, a2r / a1r, rngs[rows[r]])
    lam_x = np.where(x_first, u, z)
    lam_y = np.where(x_first, z, u)

    fx[ii], fx[jj] = split_pair(sx, ax, bx, lam_x)
    fy[ii], fy[jj] = split_pair(sy, ay, by, lam_y)

    for r0, r1, full in blocks:
        gap = np.abs(fx[full].sum(axis=1) - fy[full].sum(axis=1))
        bad = ok[r0:r1] & (gap > _W_TOL)
        if bad.any():
            raise InvariantViolation(
                "subset-w-equality", f"|w(X,S) - w(Y,S)| = {gap[bad].max():.3e}"
            )

    if not degenerate.any():
        return degenerate, ok, lam_x, lam_y
    out_ok = np.zeros(degenerate.size, dtype=bool)
    out_x = np.full(degenerate.size, np.nan)
    out_y = np.full(degenerate.size, np.nan)
    out_ok[live], out_x[live], out_y[live] = ok, lam_x, lam_y
    return degenerate, out_ok, out_x, out_y


# ---------------------------------------------------------------------------
# the two-phase non-Markovian coupling


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


def run_nonmarkovian_coupling(
    chain: Chain,
    *,
    T1: int,
    T2: int,
    replicas: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
    keep_trace: bool = False,
) -> CouplingRunResult:
    """Two-phase coupling for every replica; failures are recorded in the
    outcomes, never raised.

    Per replica: Y starts stationary, X at ``x0`` (default: ``chain.start``).
    Phase 1 applies T1 proportional steps. Then the partition process of the
    suffix graph of the replica's phase-2 coordinates is built, and the T2
    phase-2 steps are replayed with a subset coupling at each marked time —
    the updated coordinate lying in the smaller merged block S1 takes the
    role i, as the scan recorded it (``MergeRecord.i``) — and proportional
    coupling elsewhere.

    Where each draw is made: before phase 1, every replica's stationary Y and
    its (B, T1) phase-1 pair arrays. The phase-1 lambdas are never stored
    whole: phase 1 reads them one level tile at a time from a
    ``seeding.LambdaStream``, which fills one reused (B, tile) buffer just
    before the tile runs. After phase 1 the pair arrays are released and the
    phase-2 pair and lambda arrays are drawn into a (B, T2) store, indexed
    at t - T1. The memory these stores, and a trace, would take is checked
    against the memory available before the first draw
    (``seeding.check_draw_memory``).

    Nothing is observed during phase 1 or before the earliest marked time
    over the replicas (without ``keep_trace``), so those moves are applied
    in dependency levels (``pairops.advance``), one kernel call on the stacked
    [X; Y] batch per level; each move reads the values it would read in a
    per-step loop, so the result is that loop's, bit for bit. From the
    earliest marked time on, the replay steps one time at a time: one
    ``subset_couple_batch`` call over the live replicas marked at that time,
    read from a mark table built once from every replica's merges, then one
    kernel call on the stacked batch for the other live replicas.

    Per-replica draw order (unchanged by the batching and the streaming,
    since each replica draws only from its own generator, and consecutive
    lambda tiles give the bits of one call): stationary start; phase-1
    element/pair array, generator/partner array, lambda array; phase-2
    coordinate arrays; phase-2 lambda array; any subset-coupling remainder
    draws on demand, in time order. At a marked time the phase-2 lambda of
    that step is consumed as the first-drawn lambda of the subset coupling.

    failure_kind priority when several apply: LargenessViolated (the replay
    of the replica stopped at a marked step with a degenerate pair mass),
    then NotConnected, then SubsetFailed.
    """
    if T2 < 1:
        raise InvariantViolation("arguments", "T2 must be >= 1")

    n, B = chain.n, replicas
    trace_bytes = 2 * B * (T2 + 1) * n * 8 if keep_trace else 0
    check_draw_memory(
        move_bytes(B, T1, n, lambdas=False) + move_bytes(B, T2, n) + trace_bytes,
        f"the coupling of {B} replicas over T1 = {T1}, T2 = {T2} steps",
    )
    start = chain.start if x0 is None else np.asarray(x0, dtype=float)
    # X and Y are the two halves of one C-contiguous batch, so a draw shared
    # by both chains moves them in one kernel call
    XY = np.empty((2 * B, n))
    X, Y = XY[:B], XY[B:]
    X[:] = start
    T = T1 + T2
    rngs = [replica_rng(seed, b) for b in range(B)]
    left, right = empty_pairs(B, T1, n)
    for b, rng in enumerate(rngs):
        Y[b] = chain.stationary(rng)
        left[b], right[b] = draw_pairs(rng, T1, n, chain.group, chain.gens)

    batch = chain.kernel
    lambdas = LambdaStream(rngs, T1)
    advance(batch, XY, left, right, lambdas, 0, T1)
    if lambdas.drawn != T1:
        raise InvariantViolation("draw-order", f"phase 1 drew {lambdas.drawn} of {T1} lambdas")
    # the phase-1 pairs go before phase 2 on [T1, T) is drawn, into a store
    # indexed at t - T1
    del left, right
    left, right, lam = empty_moves(B, T2, n)
    for b, rng in enumerate(rngs):
        left[b], right[b], lam[b] = draw_moves(rng, T2, n, chain.group, chain.gens)
    # outcomes read only tau and connectedness, and the merges live on in
    # the mark table; a whole process is kept for a trace only
    tau = [math.inf] * B
    connected = [False] * B
    processes = []
    table, members = [], []
    for b in range(B):
        proc = build_partition_process(left[b], right[b], n, T1)
        tau[b], connected[b] = proc.tau, proc.connected
        if keep_trace:
            processes.append(proc)
        table += [(r.t, b, r.i, r.j, len(r.s1)) for r in proc.merges]
        members += [k for r in proc.merges for k in r.s1]
    # the mark table, one entry per merge: the S1 of entry k is
    # members[mark_start[k]:mark_start[k] + mark_size[k]]. It is sorted by
    # (t, |S1|), so each marked time is one span of the table and its blocks
    # run in size order
    mark_t, mark_b, mark_i, mark_j, mark_size = np.array(table, dtype=np.int64).T
    del table
    members = np.array(members, dtype=np.int64)
    mark_start = np.cumsum(mark_size) - mark_size
    order = np.lexsort((mark_size, mark_t))
    mark_t, mark_b, mark_i, mark_j, mark_size, mark_start = (
        v[order] for v in (mark_t, mark_b, mark_i, mark_j, mark_size, mark_start)
    )
    times, firsts = np.unique(mark_t, return_index=True)
    spans = dict(zip(times.tolist(), zip(firsts.tolist(), [*firsts[1:].tolist(), len(mark_t)])))
    # nothing is observed before the earliest marked time; a trace observes
    # every phase-2 time
    head = T1 if keep_trace else int(times[0])
    advance(batch, XY, left, right, lam, 0, head - T1)

    if keep_trace:
        tr_x = np.empty((B, T2 + 1, n))
        tr_y = np.empty((B, T2 + 1, n))
        tr_x[:, 0] = X
        tr_y[:, 0] = Y
        tried = np.zeros(len(mark_t), dtype=bool)
        succeeded = np.zeros(len(mark_t), dtype=bool)

    subset_fail = np.full(B, -1, dtype=np.int64)
    largeness_fail = np.full(B, -1, dtype=np.int64)
    active = np.ones(B, dtype=bool)
    for t in range(head, T):
        s = t - T1
        rest = active
        if t in spans:
            lo, hi = spans[t]
            marked = mark_b[lo:hi]
            rest = active.copy()
            rest[marked] = False
            sel = lo + np.flatnonzero(active[marked])
            rows = mark_b[sel]
            degenerate, ok, _, _ = subset_couple_batch(
                chain.coeffs, X, Y, rows, mark_i[sel], mark_j[sel],
                (members, mark_start[sel], mark_size[sel]), lam[rows, s], rngs,
            )
            largeness_fail[rows[degenerate]] = t
            active[rows[degenerate]] = False
            failed = rows[~ok & ~degenerate]
            subset_fail[failed[subset_fail[failed] < 0]] = t
            if keep_trace:
                tried[sel] = ~degenerate
                succeeded[sel] = ok
        if rest.any():
            rows = np.flatnonzero(rest)
            batch(XY, *stacked_draws(left[rows, s], right[rows, s], lam[rows, s]),
                  np.concatenate((rows, rows + B)))
        if keep_trace:
            tr_x[:, s + 1] = X
            tr_y[:, s + 1] = Y

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
                subset_success=succeeded[tried & (mark_b == b)].tolist(),
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
# peak memory flat (on connect-n512's prefixes tiles of 1, 2, 4, 8, 16 and 64
# took 0.13, 0.10, 0.09, 0.08, 0.08 and 0.09 s in _connection_times; 8 and 16
# saved about 7% of an in-process run, not checked on the benchmark)
_CONNECT_TILE = 4


def _connection_times(left, right, n: int):
    """Connection time of each row of a batch of forward schedules.

    left, right: (B, L) coordinates in [0, n) with left != right. Returns
    (tau, connected): tau[b] = 1 + the index of the last edge of row b that
    merges two components in a forward union-find scan, which stops at one
    component (0 for no edge), and connected[b] when it gets there; for a
    connected row tau[b] is the first k + 1 at which edges 0..k connect.

    With m the last first appearance of a coordinate in the row, no prefix
    shorter than m + 1 holds every coordinate and edge m merges (one end is
    new), so tau >= m + 1, with equality when edges 0..m connect: almost
    always for a random schedule (the hitting-time theorem of Erdos-Renyi
    and Bollobas-Thomason). The components of each prefix 0..m are labelled
    by hook-and-jump over the disjoint union of the rows, node b*n + i: each
    root hooks onto its smallest neighbouring root, pointer jumping flattens
    the labels, and edges inside one component are dropped. A row left with
    several components continues the scan from them, reading only its later
    edges that join two of them, in time order.
    """
    B, L = left.shape
    offset = (np.arange(B, dtype=np.int32) * n)[:, None]
    cu = left.astype(np.int32) + offset
    cv = right.astype(np.int32) + offset
    # first appearances as flat edge positions (np.minimum.at does not
    # broadcast one row of L values over (B, L) indices correctly)
    first = np.full(B * n, B * L, dtype=np.int32)
    for ends in (cu, cv):
        np.minimum.at(first, ends.ravel(), np.arange(B * L, dtype=np.int32))
    first = first.reshape(B, n)
    m = np.where(first < B * L, first, -1).max(axis=1) - np.arange(B) * L
    head = np.arange(L) <= m[:, None]
    hu, hv = cu[head], cv[head]
    label = np.arange(B * n, dtype=np.int32)
    while hu.size:
        np.minimum.at(label, hu, hv)
        np.minimum.at(label, hv, hu)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        hu = label[hu]
        hv = label[hv]
        live = hu != hv
        hu, hv = hu[live], hv[live]
    label = label.reshape(B, n) - offset
    parts = np.count_nonzero(label == np.arange(n), axis=1)
    tau = m + 1
    for b in np.flatnonzero(parts > 1).tolist():
        lu, lv = label[b][left[b]], label[b][right[b]]
        ks = np.flatnonzero((lu != lv) & (np.arange(L) > m[b]))
        parent = list(range(n))
        count = int(parts[b])
        for k, u, v in zip(ks.tolist(), lu[ks].tolist(), lv[ks].tolist()):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                tau[b], count = k + 1, count - 1
                if count == 1:
                    break
        parts[b] = count
    return tau, parts == 1


def _tile_taus(rows, seed, chain, max_draws, length):
    """(tau, connected) of the given replicas, each read on the first
    ``length`` pairs of its max_draws-long schedule, in tiles of
    _CONNECT_TILE replicas; tau is max_draws + 1 where not connected."""
    taus = np.empty(len(rows), dtype=np.int64)
    connected = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), _CONNECT_TILE):
        tile = rows[start:start + _CONNECT_TILE]
        left, right = empty_pairs(len(tile), length, chain.n)
        for k, b in enumerate(tile):
            left[k], right[k] = draw_pairs(
                replica_rng(seed, b), max_draws, chain.n, chain.group, chain.gens, head=length
            )
        tau, ok = _connection_times(left, right, chain.n)
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
    chain: Chain,
    *,
    replicas: int = 1000,
    seed: int = 0,
    threshold: Optional[float] = None,
    max_draws: Optional[int] = None,
) -> ConnectReport:
    """Distribution of the connection time tau of a random update schedule.

    Schedule entries are i.i.d., so the backward suffix graph of length L has
    the law of a forward prefix. tau is the length of the shortest prefix of
    a replica's forward schedule that connects all n coordinates, computed
    for tiles of replicas at once (``_connection_times``): at least the step
    at which the last coordinate first appears, and almost always equal to
    it; a replica that does not connect within max_draws edges reports
    tau = max_draws + 1 and counts as censored. Each replica is first read
    on the prefix of length min(max_draws, ceil(n max(log n, 1))), and only
    that much of its second pair array is drawn (nothing follows the pair
    arrays in its stream); a replica whose prefix does not connect is drawn
    again, from a fresh replica_rng(seed, b), at full max_draws. The report
    compares the empirical tail against the chain's threshold
    (``chain.connect_tail``), which reads ``threshold`` as epsilon on the
    matrix chain and as C on the simplex chain.
    """
    n = chain.n
    if max_draws is None:
        max_draws = int(math.ceil(8.0 * n * max(math.log(n), 1.0))) + 32

    prefix = min(max_draws, math.ceil(n * max(math.log(n), 1.0)))
    taus, connected = _tile_taus(range(replicas), seed, chain, max_draws, prefix)
    if prefix < max_draws:
        rows = np.flatnonzero(~connected)
        taus[rows] = _tile_taus(rows, seed, chain, max_draws, max_draws)[0]
    censored = int(np.sum(taus > max_draws))

    threshold, bound = chain.connect_tail(threshold)
    tail = None if threshold is None else float(np.mean(taus > threshold))
    return ConnectReport(
        kind=chain.kind,
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
    chain: Chain,
    *,
    window: int,
    replicas: int = 1000,
    seed: int = 0,
    threshold: Optional[float] = None,
) -> LargenessReport:
    """Smallest boundary margin of each stationary trajectory over a window
    of steps: the entries themselves on the simplex, the distance to the
    nearer box wall, min(c, 2 - c), on the matrix chain (``chain.margin``).

    The threshold and its target frequency are the chain's
    (``chain.largeness``), which reads ``threshold`` as k on the matrix chain
    and as d on the simplex chain.
    An entry's smallest margin over the window is the smallest of its start
    value's and of every value written to it, so the moves run in dependency
    levels and only the moved entries are read.

    Per-replica draw order: stationary start, pair arrays, lambda array.
    The (B, window) draws are pre-drawn, so a window whose store would not
    fit in the memory available is a ConfigError before the first draw.
    """
    n, margin = chain.n, chain.margin
    threshold, target = chain.largeness(threshold)

    check_draw_memory(move_bytes(replicas, window, n),
                      f"largeness over {replicas} replicas and a window of {window} steps")
    a, b, lam = empty_moves(replicas, window, n)
    states = np.empty((replicas, n))
    for r in range(replicas):
        rng = replica_rng(seed, r)
        states[r] = chain.stationary(rng)
        a[r], b[r], lam[r] = draw_moves(rng, window, n, chain.group, chain.gens)

    minima = margin(states).min(axis=1)
    for rows, pa, pb, pl in pair_levels(a, b, lam, n):
        chain.kernel(states, pa, pb, pl, rows)
        np.minimum.at(minima, rows, np.minimum(margin(states[rows, pa]), margin(states[rows, pb])))
    return LargenessReport(minima=minima, threshold=threshold, target=target)


@dataclass
class ClosenessReport:
    initial_l1: float
    max_blockwise_l1: float      # max over checked steps of sum_S |w(X,S) - w(Y,S)|
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
        ok=worst <= initial_l1 + 1e-10,
    )
