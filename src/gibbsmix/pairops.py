"""Exact-conservation arithmetic for two-coordinate Gibbs moves.

Both samplers in this package redistribute a conserved pair total s between
two coordinates as

    new_i = lam * alpha + beta,    new_j = (1 - lam) * alpha + beta,

with alpha + 2*beta = s (simplex moves: alpha = s, beta = 0). Evaluating both
formulas independently lets the float pair sum drift by an ulp per move. We
instead evaluate whichever share is the larger one and obtain the other by
subtraction from s. The computed share lies between s/2 and s (also for the
negative totals of a difference vector), so by Sterbenz's lemma the
subtraction is exact and the pair sum is bit-identical to s after every
move. Rounding is monotone, so the computed share also stays between 0 and s
and the update remains monotone in lam.

Every move is oriented once, before any kernel sees it (``orient``): for
lam < 1/2 the move (i, j, lam) is the move (j, i, 1 - lam), so each move
becomes flat batch indices (p, q) and lam' = max(lam, 1 - lam) >= 1/2, and
p takes lam' alpha + beta. alpha, beta and the pair total are symmetric in
the two coordinates, so the oriented move writes the bits of the unoriented
one. The batch kernels ``step_batch``/``mstep_batch`` take oriented moves,
``kernel(flat, p, q, lam')``, and end in ``put_pair``, the one pair-move
arithmetic. ``pair_moves`` orients arbitrary moves on a (B, n) batch. The
oriented moves name rows by flat offset, so they apply as they are to any
(B, n) batch: two chains that share draws are two batches, each moved by
its own call on the same (p, q, lam').

``Chain`` is the record of one of the two samplers that the code running on
either chain reads. ``pair_levels``, the one tile walk, groups the moves of
a (B, T) block of draws into dependency levels, one level tile at a time,
by one rule: a step's level is 1 + the highest level on the coordinates of
its row that it reads. A move reads its pair; a barrier, a step the caller
applies itself (the coupled runner's subset-coupled steps), reads its whole
row. The tiles are cut at each of the caller's marks and at each multiple
of _LEVEL_TILE, the one grid. A scan levels several tiles side by side in
one array, a row of coordinate pairs per step that the step's levels
overwrite once it is read, and hands each tile on as a sort key of its
levels in the narrowest type that holds them. Each tile's moves are
oriented once, when it is levelled, and its lambdas come from a tile
source that draws them one grid chunk at a time (``seeding.LambdaStream``),
so a long stretch need not hold them; the tile is yielded with them.
``advance`` walks those tiles to apply the draws to one or more batches up
to each mark in turn, one kernel call per level and batch instead of one
per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation

__all__ = ["Chain", "advance", "flat_view", "orient", "pair_levels", "pair_moves", "put_pair"]

# the grid of level tiles and lambda chunks: no tile crosses a multiple of
# it, each tile is levelled on its own, so its levels fit 16 bits, and the
# tiles of one scan are levelled side by side in one pass
_LEVEL_TILE = 512
# lane entries (coordinates plus steps of each tile-replica lane) one scan
# may hold; a single tile is always allowed. A coordinate entry is one
# level of the lane table (one byte, two on 512-step tiles), and a step two
# coordinates (two bytes up to n = 256), which its level overwrites, and
# then one byte of its tile's sort key (two where the tile's levels pass
# 255)
_LEVEL_BUDGET = 1 << 21
# bytes of the scan's table of each lane's last level per coordinate, which
# it gathers from and scatters into at every step; past about 1 MB each
# lane-step costs more (lowerbound-simplex at cyclic:64 +-1 with 2,000
# replicas, 8 four-step tiles per scan in place of 15: 5.50 s against
# 5.80 s in-process on a 2-core VM, faster in 5 of 5 alternating runs). A
# single tile is always allowed
_LANE_TABLE_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class Chain:
    """One of the two samplers, as the code that runs on either reads it.

    ``simplex.simplex_chain`` and ``matrices.matrix_chain`` build it; they
    are the only code that tells the chains apart, and ``kind`` is a label
    written to outputs only. The recipes are functions, so a value that
    costs an eigendecomposition (the simplex chain's base-walk gap) is
    computed only when a recipe that needs it is called.
    """

    kind: str
    n: int
    kernel: Callable              # kernel(flat, p, q, lam'): the oriented batch move
    stationary: Callable          # stationary(rng, size): (size, n) stationary rows from rng
    start: np.ndarray             # the worst-case deterministic start (read-only)
    group: Optional[object]       # the draw arguments of seeding.draw_pairs,
    gens: Optional[object]        # None on the matrix chain
    margin: Callable              # margin(v): distance of v's entries to the boundary
    coeffs: Callable              # coeffs(vi, vj): (total, alpha, beta) on arrays
    horizons: Callable            # horizons(): the coupling's default (T1, T2)
    connect_tail: Callable        # connect_tail(epsilon or C): (threshold, bound) or (None, None)
    largeness: Callable           # largeness(k or d): (threshold, target frequency or None)


def flat_view(batch: np.ndarray) -> np.ndarray:
    """``batch.reshape(-1)`` of a C-contiguous batch: only then is it a view,
    and writes through a flat index land in the batch itself."""
    if not batch.flags.c_contiguous:
        raise InvariantViolation("batch-layout", "the batch must be C-contiguous")
    return batch.reshape(-1)


def orient(base, a, b, lam):
    """The moves (a[k], b[k], lam[k]) of the batch rows whose flat indices
    start at base[k], oriented: (p, q, lam') with lam' = max(lam, 1 - lam)
    >= 1/2 and p the flat index of the side that takes lam' alpha + beta,
    that is a where lam >= 1/2 and b elsewhere; q is the other side.

    a and b are integer arrays of one dtype, swapped by xor where lam < 1/2.
    Nothing passed in is written to.
    """
    swap = (a ^ b) * (lam < 0.5)
    lam_p = 1.0 - lam
    np.maximum(lam, lam_p, out=lam_p)
    return base + (a ^ swap), base + (b ^ swap), lam_p


def pair_moves(batch: np.ndarray, a, b, lam, rows=None):
    """(``flat_view(batch)``, p, q, lam'): the arguments of one kernel call
    that moves pair (a[k], b[k]) of row rows[k] (default: every row) of a
    C-contiguous (B, n) batch with lam[k], oriented by ``orient``."""
    n = batch.shape[1]
    base = np.arange(0, batch.size, n) if rows is None else np.asarray(rows) * n
    return (flat_view(batch), *orient(base, np.asarray(a), np.asarray(b),
                                      np.asarray(lam, dtype=float)))


def put_pair(flat, p, q, lam, total, alpha, beta) -> None:
    """The oriented move, in place: flat[p] = lam alpha + beta and flat[q]
    = total - flat[p], for lam >= 1/2 (``orient``) and the pair's (total,
    alpha, beta) read before the move."""
    share = lam * alpha
    share += beta
    flat[p] = share
    np.subtract(total, share, out=share)
    flat[q] = share


def _move_levels(a, b, n: int, tiles, barriers=None) -> list:
    """Levels of the moves of the (B, T) draws in the K step ranges [s0, s1)
    of ``tiles``, restarting at each: one C-contiguous (B, s1 - s0) sort key
    per tile, [r, s] the level of step s0 + s of row r, in the narrowest
    unsigned dtype that holds the tile's highest level. Each (tile, row)
    pair is one lane, and all lanes run side by side in one pass of
    ``width`` steps, the widest tile's width; the padding after a tile's
    last step moves (0, 0).

    Each step of the pass is one row of its lanes' a coordinates and then
    their b coordinates, two coordinates a lane; once the step's pairs are
    read, its levels overwrite the start of the row, so the pass holds the
    rows and the lane table and no other array a step long. The keys are
    taken out of the rows once the pass ends, and the rows are freed.

    One rule: a step's level is 1 + the highest level on the coordinates it
    reads, in its lane's row of the table of the last level per coordinate,
    and it writes its level on each of them. A move reads its pair; a
    barrier, a step flagged in the (B, T) bool array ``barriers``, reads its
    whole row and so raises the whole row to its level: it is its lane's
    only step at its level, above every earlier step of the lane and below
    every later one.
    """
    B, K = a.shape[0], len(tiles)
    width = max(s1 - s0 for s0, s1 in tiles)
    lanes = K * B
    pairs = np.zeros((width, 2, lanes), dtype=np.min_scalar_type(n - 1))
    flag = np.zeros((width, 0 if barriers is None else lanes), dtype=bool)
    for k, (s0, s1) in enumerate(tiles):
        pairs[:s1 - s0, 0, k * B:(k + 1) * B] = a[:, s0:s1].T
        pairs[:s1 - s0, 1, k * B:(k + 1) * B] = b[:, s0:s1].T
        if barriers is not None:
            flag[:s1 - s0, k * B:(k + 1) * B] = barriers[:, s0:s1].T
    # a level is at most the tile's width
    last = np.zeros(lanes * n, dtype=np.min_scalar_type(width))
    rows = last.reshape(lanes, n)
    base = np.arange(0, lanes * n, n)
    # a level takes at most two coordinates' bytes, and it is written in the
    # lane table's own dtype, so the ufunc that writes it never casts; each
    # array a step reads or writes is contiguous (with each lane's pair side
    # by side in one word, the 4-step scans of lowerbound-simplex took about
    # 1.5 times as long)
    levels = pairs.reshape(width, -1).view(last.dtype)[:, :lanes]
    # the barrier lanes of step s are held[cuts[s]:cuts[s + 1]] (none without
    # barriers): a few lanes each, cheaper to index than to mask
    steps, held = np.nonzero(flag)
    cuts = np.searchsorted(steps, np.arange(width + 1)).tolist()
    del flag, steps
    for s in range(width):
        # the step's pairs are read before its levels overwrite them
        ia = base + pairs[s, 0]
        ib = base + pairs[s, 1]
        lev = np.maximum(last[ia], last[ib], out=levels[s])
        lev += 1
        if cuts[s] < cuts[s + 1]:
            lanes_s = held[cuts[s]:cuts[s + 1]]
            level = rows[lanes_s].max(axis=1)
            level += 1
            lev[lanes_s] = level
            rows[lanes_s] = level[:, None]
        last[ia] = lev
        last[ib] = lev
    # the lane table goes before the keys are built
    del last, rows
    keys = []
    for k, (s0, s1) in enumerate(tiles):
        tile = levels[:s1 - s0, k * B:(k + 1) * B]
        # 8- and 16-bit keys sort by radix, 8-bit ones in one pass
        keys.append(tile.T.astype(np.min_scalar_type(tile.max()), order="C"))
    return keys


def _level_step_bytes(n: int, width: int) -> int:
    """Bytes per replica-step of a tile of ``width`` steps on n coordinates
    as it is levelled and walked, the memory guard's count: the scan's two
    coordinates (``_move_levels``) and the tile's sort key, and the walk's
    sort order, p, q and lam' and one sorted copy of them
    (``_oriented_levels``), eight bytes each."""
    return 2 * np.min_scalar_type(n - 1).itemsize + np.min_scalar_type(width).itemsize + 5 * 8


def _oriented_levels(key, a, b, lam, n: int, barrier=None) -> list:
    """The oriented moves (p, q, lam') of a tile's (B, w) draws one per
    level, given the (B, w) sort key of its steps' levels (``_move_levels``);
    the steps flagged in the (B, w) ``barrier`` are left out. The key is
    not written to."""
    # one count per level: without barriers the key's highest entry is the
    # highest level
    counts = 0
    if barrier is not None:
        # key 0 sorts first and is no level, so the barriers are dropped; in
        # a copy, since the caller reads the barriers' levels. A level that
        # holds only barriers keeps its (empty) count
        counts = int(key.max()) + 1
        key = key.copy()
        key[barrier] = 0
    # entry r * w + s is step s of row r
    key = key.reshape(-1)
    order = np.argsort(key, kind="stable")
    # the tile is oriented where it lies, each row on its flat offset, and
    # then gathered by level, one array at a time so that each unsorted one
    # is freed before the next is gathered
    p, q, lam = orient(np.arange(0, a.shape[0] * n, n)[:, None], a, b, lam)
    p = p.take(order)
    q = q.take(order)
    lam = lam.take(order)
    ends = np.cumsum(np.bincount(key, minlength=counts)).tolist()
    return [(p[lo:hi], q[lo:hi], lam[lo:hi]) for lo, hi in zip(ends, ends[1:])]


def pair_levels(a, b, lam, n: int, marks, barriers=None):
    """Yield (s0, lev, lam, levels) for each level tile [s0, s0 + w) of the
    (B, T) draws up to the last of the ascending ``marks`` (0 <= mark <=
    T), in time order; row r moves pair (a[r, t], b[r, t]) with the lambda
    of step t. ``lev`` holds the (w, B) levels of the tile's steps (the
    transpose of its sort key, in the narrowest unsigned type that holds
    them), ``lam`` their (B, w) lambdas, and entry k of ``levels`` the
    oriented moves (p, q, lam') of level k + 1 on a (B, n) batch
    (``orient``); p // n is the row of a move.

    The tiles are cut at every mark and at every multiple of _LEVEL_TILE,
    so none crosses either. The ``lam`` passed in is a tile source:
    lam(s0, s1) gives the (B, s1 - s0) lambdas of steps [s0, s1); it is
    called once per tile, in time order, just before that tile is yielded
    with what it returned, so it may reuse one buffer
    (``seeding.LambdaStream``).

    Within a tile a move's level is 1 + the larger of the levels of that
    row's earlier moves on its two coordinates, so one level never touches
    a (row, coordinate) twice and each (row, coordinate) sees its moves in
    time order: applying the levels one kernel call each reads and writes
    exactly what a per-step loop does, however the steps are tiled. Tiles
    are levelled in scans under _LEVEL_BUDGET lane entries and
    _LANE_TABLE_BYTES of lane table, and each tile's moves are oriented
    once, before the tile is yielded.

    ``barriers`` is None or a (B, T) bool array of steps that the caller
    applies itself, reading any coordinate of the row. A barrier is its
    row's only step at its level, after all of the row's earlier steps and
    before all of its later ones, and is in no entry of ``levels`` (a level
    that holds only barriers has empty arrays). Applying each level's moves
    and its barriers, in either order, reads and writes what a per-step
    loop does, and a row that stops at a barrier has all its later steps at
    higher levels.

    This is a generator function, and a tile's arrays are held only by what
    it yields, so a caller that drops its references to them before the
    next tile frees them before the next tile's are built.
    """
    B, top = a.shape[0], max(marks, default=0)
    ends = sorted({*marks, *range(_LEVEL_TILE, top, _LEVEL_TILE)} - {0})
    scans, width = [], 0
    for s0, s1 in zip([0, *ends], ends):
        width = max(width, s1 - s0)
        lanes = (len(scans[-1]) + 1) * B if scans else 0
        if (not scans or lanes * (n + width) > _LEVEL_BUDGET
                or lanes * n * np.min_scalar_type(width).itemsize > _LANE_TABLE_BYTES):
            scans.append([])
            width = s1 - s0
        scans[-1].append((s0, s1))
    for scan in scans:
        # the scan's keys, last tile first, so that the list lets go of
        # each key as its tile is reached
        keys = _move_levels(a, b, n, scan, barriers)[::-1]
        for s0, s1 in scan:
            key, tile = keys.pop(), lam(s0, s1)
            yield s0, key.T, tile, _oriented_levels(
                key, a[:, s0:s1], b[:, s0:s1], tile, n,
                None if barriers is None else barriers[:, s0:s1])


def advance(kernel, batches, a, b, lam, marks):
    """Apply the (B, T) draws (a, b) with the lambdas of the tile source
    ``lam`` (as in ``pair_levels``) in place to each (B, n) batch of the
    sequence ``batches`` up to each mark of the ascending sequence ``marks``
    (0 <= mark <= T) in turn, yielding the mark once steps [0, mark) are
    applied; a caller that observes nothing, or only the entries each call
    moves (folded in by its kernel), passes one mark. The steps run one
    ``kernel(flat, p, q, lam')`` call per dependency level and batch, on
    ``flat_view(batch)``, in level tiles that restart at every mark, so at
    each mark every batch is what a per-step loop leaves.

    Each batch is one chain per replica, and several batches are chains
    that share every draw (the proportional coupling's X and Y); a batch
    that is not (B, n) raises InvariantViolation. The kernel is passed in
    rather than imported, so a caller's own binding of
    ``step_batch``/``mstep_batch`` is the one run.
    """
    B, n = a.shape[0], batches[0].shape[-1]
    for batch in batches:
        if batch.shape != (B, n):
            raise InvariantViolation(
                "batch-layout", f"a {batch.shape} batch for draws of {B} rows and n = {n}")
    flats = [flat_view(batch) for batch in batches]
    tiles = pair_levels(a, b, lam, n, marks)
    done = 0
    for mark in marks:
        while done < mark:
            s0, lev, _, levels = next(tiles)
            done = s0 + len(lev)
            for move in levels:
                for flat in flats:
                    kernel(flat, *move)
            # the tile's arrays go before the next tile's are built (a tile
            # has at least one level)
            del levels, move
        yield mark
