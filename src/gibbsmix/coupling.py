"""Coupling machinery for the two Gibbs samplers.

Three layers:

* proportional coupling: both chains share every (pair, lam) draw; the L2
  difference contracts in expectation. X and Y are two (B, n) batches, and
  each oriented move moves both, one kernel call per batch.
* subset coupling: at one update of the pair (i, j) with i inside a block S
  and j outside it, the two lambdas are drawn jointly so that the block
  weights w(X', S) and w(Y', S) coincide with high probability, while each
  lambda stays exactly uniform (a remainder density absorbs the failure
  branch).
* the two-phase non-Markovian coupling: phase 1 runs proportional steps;
  the phase-2 update coordinates are drawn up front, their suffix graph
  defines a backward partition process whose merge times are "marked", and
  the replay applies subset couplings exactly at marked times. Phase 2 runs
  in dependency levels with each replica's marked steps as barriers
  (``pairops.pair_levels``), one batched step (``subset_couple_batch``)
  per level over the replicas marked at it. If every subset coupling
  succeeds and the schedule connects, the chains meet.

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
from .pairops import Chain, advance, flat_view, orient, pair_levels, put_pair
from .seeding import draw_pairs, empty_pairs, predraw, replica_rng

__all__ = [
    "SUBSET_FAILED",
    "NOT_CONNECTED",
    "LARGENESS_VIOLATED",
    "PartitionProcess",
    "CouplingOutcome",
    "ConnectReport",
    "LargenessReport",
    "build_partition_process",
    "s1_index",
    "subset_couple_batch",
    "run_nonmarkovian_coupling",
    "connectedness_experiment",
    "largeness_experiment",
]

SUBSET_FAILED = "SubsetFailed"
NOT_CONNECTED = "NotConnected"
LARGENESS_VIOLATED = "LargenessViolated"

_W_TOL = 1e-12
_FINAL_GAP_TOL = 1e-8
_PAIR_MASS_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# schedules and partition processes


@dataclass(eq=False)
class PartitionProcess:
    """The merges of a backward scan in descending time, one entry each in
    ``merges`` (the time t), ``i``, ``j`` and ``size``: at t the blocks S1
    and S2 of P_{t+1} merge into one block of P_t, S1 the smaller by (size,
    smallest member), and (i, j) is the edge updated at t, with i in S1 and
    j in S2. ``members`` holds each S1 in ascending order, concatenated in
    merge order, so the S1 of merge k starts at sum(size[:k])."""

    merges: list
    i: list
    j: list
    size: list
    members: list
    tau: float                    # T - (first single-block time), or inf
    connected: bool


def build_partition_process(left, right, n: int, t0: int = 0) -> PartitionProcess:
    """Backward scan over the schedule whose edge at time t0 + s is
    (left[s], right[s]), two 1-D integer arrays with left != right, on block
    labels: owner[k] is the label of k's block, blocks[label] its members in
    no order and first[label] the smallest. A merge sorts S1, the block with
    the smaller (size, first), in place, appends it and the edge from S1 to
    S2 to the process's lists (its label dies), and moves S1 into S2; n - 1
    merges end the scan."""
    if len(left) == 0:
        raise InvariantViolation("schedule-empty", "schedule must be nonempty")
    owner = list(range(n))
    blocks = [[k] for k in range(n)]
    first = list(range(n))
    merges, mi, mj, size, members = [], [], [], [], []
    times = range(t0 + len(left) - 1, t0 - 1, -1)
    for t, i, j in zip(times, reversed(memoryview(left)), reversed(memoryview(right))):
        a, b = owner[i], owner[j]
        if a == b:
            continue
        if (len(blocks[b]), first[b]) < (len(blocks[a]), first[a]):
            a, b, i, j = b, a, j, i
        s1 = blocks[a]
        s1.sort()
        merges.append(t)
        mi.append(i)
        mj.append(j)
        size.append(len(s1))
        members += s1
        for k in s1:
            owner[k] = b
        blocks[b] += s1
        if first[a] < first[b]:
            first[b] = first[a]
        if len(merges) == n - 1:
            break
    connected = len(merges) == n - 1
    tau = float(t0 + len(left) - merges[-1]) if connected else math.inf
    return PartitionProcess(merges, mi, mj, size, members, tau, connected)


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


def s1_index(n: int, rows, i, members, start, size):
    """(index, rest): the flat S1 index of a batched subset step on (B, n)
    batches, and its mask without i. The S1 of row k is ``members[start[k]:
    start[k] + size[k]]`` in batch row rows[k]; ``index`` holds rows[k] * n
    + member for each, row after row, and ``rest`` is False exactly where
    the member is i[k]."""
    offset = np.cumsum(size) - size
    at, base, row_i = np.repeat((start - offset, rows * n, i), size, axis=1)
    at += np.arange(len(at))
    block = members[at]
    base += block
    return base, block != row_i


def _size_runs(size) -> list:
    """(r0, r1, k, o) for each maximal run of rows r0..r1-1 of equal block
    size k, whose blocks start at o = sum(size[:r0])."""
    if not len(size):
        return []
    starts = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1).tolist(), len(size)]
    runs, o = [], 0
    for r0, r1, k in zip(starts, starts[1:], size[starts[:-1]].tolist()):
        runs.append((r0, r1, k, o))
        o += (r1 - r0) * k
    return runs


def _block_sums(fa, fb, index, runs, drop: int, rows: int) -> np.ndarray:
    """The (2, rows) sums of fa and of fb over each row's span of the flat
    ``index``: it holds the rows' blocks, each less ``drop`` entries, row
    after row in the ``runs`` of ``_size_runs``. Both are gathered once,
    into the two rows of one array, and each run's spans are one (2, rows,
    k - drop) slice of it summed along its last axis, which gives each row
    the bits of a 1-D ``.sum()`` of its span; an empty span sums to 0."""
    values = np.empty((2, len(index)))
    np.take(fa, index, out=values[0])
    np.take(fb, index, out=values[1])
    sums = np.zeros((2, rows))
    for r0, r1, k, o in runs:
        w = k - drop
        if w > 0:
            o -= drop * r0
            np.add.reduce(values[:, o:o + (r1 - r0) * w].reshape(2, r1 - r0, w), axis=2,
                          out=sums[:, r0:r1])
    return sums


def subset_couple_batch(coeffs: Callable, X: np.ndarray, Y: np.ndarray, rows, i, j, s1, u, rngs):
    """One subset-coupled update per row, in place: batch row rows[k] of X
    and of Y updates the pair (i[k], j[k]), with i[k] in the block S1 of
    that row and j[k] outside it. X and Y are C-contiguous (B, n) batches
    and each row appears at most once. ``s1 = (index, rest, size)``: the
    rows' S1 as ``s1_index`` gives them, flat indices row after row with
    the mask without i, and size[k] = |S1| of row k. ``coeffs(vi, vj)`` is
    the chain's (total, alpha, beta) of a pair move on arrays
    (``Chain.coeffs``), u[k] the lambda that row k draws first, and
    ``rngs[rows[k]]`` the generator of its remainder draw.

    Per row: the chain whose pair move has the larger lambda coefficient
    takes u; the other lambda is computed from the weight-matching relation.
    If the computed value leaves [0, 1] the step fails and that lambda is
    drawn from the remainder density instead, keeping both marginals
    exactly uniform. The remainder draws are made one failed row at a time,
    in row order, before any write.

    A row whose pair mass (alpha) is at most 1e-300 on either side is
    degenerate: it is dropped, with its span of the index, before any
    further arithmetic and makes no draw and no write. Each chain's values
    on every row's S1 are gathered once through the index, and the block
    sums are taken over runs of rows with equal |S1|: a run's blocks are
    one contiguous (rows, |S1|) slice of the gather, summed along its last
    axis, which gives each row the bits of a 1-D ``.sum()`` of its block.
    Sort the rows by |S1| to make each run one block size. Rows are
    independent, so one call may hold steps of different times: the
    coupled runner passes the marks of one dependency level, one per
    replica.

    Returns (degenerate, ok, lam_x, lam_y), one entry per row; lam_x and
    lam_y are NaN on degenerate rows. On each row that succeeded the block
    weights w(X, S1) and w(Y, S1) agree within 1e-12 (checked).
    """
    index, rest, size = s1
    rows, i, j, u, size = (np.asarray(v) for v in (rows, i, j, u, size))
    fx, fy = flat_view(X), flat_view(Y)
    base = rows * X.shape[1]
    ii, jj = base + i, base + j
    sx, ax, bx = coeffs(fx[ii], fx[jj])
    sy, ay, by = coeffs(fy[ii], fy[jj])
    degenerate = (ax <= _PAIR_MASS_FLOOR) | (ay <= _PAIR_MASS_FLOOR)
    if degenerate.any():
        live = ~degenerate
        keep = np.repeat(live, size)
        index, rest = index[keep], rest[keep]
        rows, base, i, j, u, size, sx, ax, bx, sy, ay, by = (
            v[live] for v in (rows, base, i, j, u, size, sx, ax, bx, sy, ay, by)
        )

    # the sums over S1 less i
    runs = _size_runs(size)
    rest_y, rest_x = _block_sums(fy, fx, index[rest], runs, 1, len(rows))
    c = (by - bx) + (rest_y - rest_x)

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

    put_pair(fx, *orient(base, i, j, lam_x), sx, ax, bx)
    put_pair(fy, *orient(base, i, j, lam_y), sy, ay, by)

    wx, wy = _block_sums(fx, fy, index, runs, 0, len(rows))
    gap = np.abs(wx - wy)
    bad = ok & (gap > _W_TOL)
    if bad.any():
        raise InvariantViolation(
            "subset-w-equality", f"|w(X,S) - w(Y,S)| = {gap[bad].max():.3e}"
        )

    if not degenerate.any():
        return degenerate, ok, lam_x, lam_y
    out_ok = np.zeros(degenerate.size, dtype=bool)
    out_x, out_y = np.full((2, degenerate.size), np.nan)
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


def run_nonmarkovian_coupling(
    chain: Chain, *, T1: int, T2: int, replicas: int, seed: int
) -> list[CouplingOutcome]:
    """Two-phase coupling for every replica: one ``CouplingOutcome`` per
    replica, in replica order; failures are recorded there, never raised.

    Per replica: Y starts stationary, X at ``chain.start``.
    Phase 1 applies T1 proportional steps. Then the partition process of the
    suffix graph of the replica's phase-2 coordinates is built, and the T2
    phase-2 steps are replayed with a subset coupling at each marked time —
    the updated coordinate lying in the smaller merged block S1 takes the
    role i, as the scan recorded it (``PartitionProcess.i``) — and
    proportional coupling elsewhere.

    Where each draw is made: each phase is one ``seeding.predraw`` on the
    replicas' generators, which leaves each generator after that phase's
    lambdas. Before phase 1, every replica's stationary Y and its (B, T1)
    phase-1 pair arrays; after phase 1, the phase-2 pair arrays, into a
    (B, T2) store indexed at t - T1. Each phase's stream draws its lambdas
    one grid chunk at a time, as the level tiles reach it, so they are
    never stored whole; ``pair_levels`` yields each tile with its lambdas,
    and a marked step reads its lambda there. Both phases' stores are
    checked against the memory available before phase 1 draws anything.

    Nothing is observed during phase 1, so its moves are applied in
    dependency levels (``pairops.advance``), one kernel call per level on X
    and one on Y; each move reads the values it would read in a per-step
    loop, so the result is that loop's, bit for bit. Phase 2 is levelled
    the same way, in the same tiles, with each replica's marked steps as
    barriers (``pairops.pair_levels``): a marked step comes after all of
    its replica's earlier steps and before all of its later ones, alone at
    its level in its replica. Each level makes at most one kernel call per
    chain for its proportional moves and one ``subset_couple_batch`` call
    for its marked steps, sorted by |S1|. The marks come from a table whose
    columns are the replicas' merge lists laid end to end: when a tile is
    reached, its marks' columns, first lambdas and S1 index (``s1_index``)
    are gathered once, in (level, |S1|) order, and each level reads its
    span of them. A replica whose subset step meets a degenerate pair mass stops
    there: all of its later steps sit at later levels, and from then on its
    rows are dropped.
    A replay that steps every phase-2 time of one replica is the reference
    these outcomes match in the tests.

    Per-replica draw order (unchanged by the batching, the levelling and
    the streaming, since each replica draws only from its own generator,
    its marked steps run at rising levels, and its lambdas come from a copy
    of that generator, whose consecutive tiles give the bits of one call):
    stationary start; phase-1 element/pair array, generator/partner array,
    lambda array; phase-2 coordinate arrays; phase-2 lambda array; any
    subset-coupling remainder draws on demand, in time order. At a marked
    time the phase-2 lambda of that step is consumed as the first-drawn
    lambda of the subset coupling.

    failure_kind priority when several apply: LargenessViolated (the replay
    of the replica stopped at a marked step with a degenerate pair mass),
    then NotConnected, then SubsetFailed.
    """
    if T2 < 1:
        raise InvariantViolation("arguments", "T2 must be >= 1")

    n, B = chain.n, replicas
    rngs = [replica_rng(seed, b) for b in range(B)]
    phase2 = "the coupling's phase 2"
    # phase 2's store is checked before phase 1 draws anything
    (Y,), (left, right, lambdas) = predraw(chain, rngs, T1, "the coupling's phase 1",
                                           before=1, then=(T2, phase2))
    X = np.broadcast_to(chain.start, Y.shape).copy()

    batch = chain.kernel
    for _ in advance(batch, (X, Y), left, right, lambdas, [T1]):
        pass
    # phase 1's draws go before phase 2's are drawn
    del left, right, lambdas
    _, (left, right, lambdas) = predraw(chain, rngs, T2, phase2)

    # outcomes read only tau and connectedness; each replica's merge lists
    # extend the columns of the mark table
    tau, connected = [math.inf] * B, [False] * B
    mark_s, mark_i, mark_j, mark_size, members, count = [], [], [], [], [], []
    for b in range(B):
        proc = build_partition_process(left[b], right[b], n, T1)
        tau[b], connected[b] = proc.tau, proc.connected
        mark_s += proc.merges
        mark_i += proc.i
        mark_j += proc.j
        mark_size += proc.size
        members += proc.members
        count.append(len(proc.merges))
    # the mark table, one column per merge, at step s = t - T1 of its
    # replica: rows replica, s, i, j, |S1| and the start of its S1 in
    # members. It stays in replica order, as the scans wrote it, and the
    # marked steps are the barriers of the levelling
    marks = np.empty((6, len(mark_s)), dtype=np.int64)
    marks[:5] = np.repeat(np.arange(B), count), mark_s, mark_i, mark_j, mark_size
    mark_b, mark_s, mark_size, mark_start = marks[0], marks[1], marks[4], marks[5]
    mark_s -= T1
    np.cumsum(mark_size, out=mark_start)
    mark_start -= mark_size
    members = np.array(members, dtype=np.int64)
    barriers = np.zeros((B, T2), dtype=bool)
    barriers[mark_b, mark_s] = True

    flats = flat_view(X), flat_view(Y)
    subset_fail, largeness_fail = np.full((2, B), -1, dtype=np.int64)
    # a replica stops at its first degenerate pair mass, where its
    # largeness_fail is set; all of its later steps are at later levels, so
    # from then on its rows are dropped
    stopped = False
    for s0, lev, lam, levels in pair_levels(left, right, lambdas, n, [T2], barriers):
        # the tile's marks, gathered once and sorted by (level, |S1|), so
        # each level's marks are one span of the columns and of the S1
        # index, and their blocks run in size order
        tile = np.flatnonzero((mark_s >= s0) & (mark_s < s0 + len(lev)))
        level = lev[mark_s[tile] - s0, mark_b[tile]]
        tile_b, tile_s, tile_i, tile_j, tile_size, tile_start = marks[
            :, tile[np.lexsort((mark_size[tile], level))]]
        tile_u = lam[tile_b, tile_s - s0]
        index, rest = s1_index(n, tile_b, tile_i, members, tile_start, tile_size)
        ends = np.cumsum(np.bincount(level, minlength=len(levels) + 1))
        cuts = np.zeros(len(tile) + 1, dtype=np.int64)
        np.cumsum(tile_size, out=cuts[1:])
        cuts = cuts[ends].tolist()
        for (p, q, pl), m0, m1, e0, e1 in zip(levels, ends.tolist(), ends[1:].tolist(),
                                              cuts, cuts[1:]):
            if stopped:
                live = largeness_fail[p // n] < 0
                p, q, pl = p[live], q[live], pl[live]
            if len(p):
                for flat in flats:
                    batch(flat, p, q, pl)
            if m0 == m1:
                continue
            rows, s, i, j, size, u = (v[m0:m1] for v in
                                      (tile_b, tile_s, tile_i, tile_j, tile_size, tile_u))
            s1 = index[e0:e1], rest[e0:e1], size
            if stopped:
                live = largeness_fail[rows] < 0
                keep = np.repeat(live, size)
                rows, s, i, j, size, u = (v[live] for v in (rows, s, i, j, size, u))
                s1 = s1[0][keep], s1[1][keep], size
                if not len(rows):
                    continue
            degenerate, ok, _, _ = subset_couple_batch(chain.coeffs, X, Y, rows, i, j, s1, u, rngs)
            # ok is False on a degenerate row too
            if ok.all():
                continue
            if degenerate.any():
                largeness_fail[rows[degenerate]] = T1 + s[degenerate]
                stopped = True
            failed = ~ok & ~degenerate & (subset_fail[rows] < 0)
            subset_fail[rows[failed]] = T1 + s[failed]
        # the tile's arrays go before the next tile's are built (a tile has
        # at least one level)
        del levels, p, q, pl, index, rest

    gaps = np.abs(X - Y).max(axis=1)
    outcomes = []
    for b in range(B):
        has_largeness = largeness_fail[b] >= 0
        has_subset = subset_fail[b] >= 0
        coupled = connected[b] and not has_largeness and not has_subset
        if coupled:
            failure_kind, first_failure = None, None
        elif has_largeness:
            failure_kind, first_failure = LARGENESS_VIOLATED, int(largeness_fail[b])
        elif not connected[b]:
            failure_kind = NOT_CONNECTED
            first_failure = int(subset_fail[b]) if has_subset else None
        else:
            failure_kind, first_failure = SUBSET_FAILED, int(subset_fail[b])
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
    return outcomes


# ---------------------------------------------------------------------------
# connectivity and largeness


# replicas per kernel call: small tiles keep the edge arrays in cache and the
# peak memory flat (on connect-n512's prefixes tiles of 1, 2, 4, 8, 16 and 64
# took 0.13, 0.10, 0.09, 0.08, 0.08 and 0.09 s in _connection_times; over
# ten alternating pairs of 55 s perfbench runs, connect-n512's median run_s
# was 0.269 s at 8 against 0.281 s at 4, 8 faster in all ten, peak RSS
# 39.1 MB at both)
_CONNECT_TILE = 8


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
    that much of its pair arrays is drawn (``draw_pairs(head=...)``: nothing
    follows the pair arrays in its stream; for n a power of two the rest of
    the first array is skipped, otherwise drawn and dropped); a replica
    whose prefix does not connect is drawn again, from a fresh
    replica_rng(seed, b), at full max_draws. The report
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
    levels through ``pairops.advance``, with a kernel that moves and then
    folds only the entries it moved into the minima.

    Per-replica draw order (``seeding.predraw``): stationary start, then the moves.
    """
    n, margin = chain.n, chain.margin
    threshold, target = chain.largeness(threshold)
    rngs = [replica_rng(seed, r) for r in range(replicas)]
    (states,), (a, b, lam) = predraw(chain, rngs, window, "largeness", before=1)
    minima = margin(states).min(axis=1)

    def move(flat, p, q, pl):
        chain.kernel(flat, p, q, pl)
        np.minimum.at(minima, p // n, np.minimum(margin(flat[p]), margin(flat[q])))

    for _ in advance(move, (states,), a, b, lam, [window]):
        pass
    return LargenessReport(minima=minima, threshold=threshold, target=target)
