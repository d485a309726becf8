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

``split_pair_float`` is the scalar twin of ``split_pair``: the same
operations in the same order on Python floats, so both give identical IEEE
results. ``Chain`` is the record of one of the two samplers that the code
running on either chain reads. ``flat_pair_index`` is the indexing shared by
the batch move kernels, and ``stacked_draws`` doubles the draws of two chains
that share them, so that a stacked [X; Y] batch moves in one kernel call.
``pair_levels`` groups the moves of a (B, T) block of draws into dependency
levels, and ``advance`` applies a stretch of steps with nothing observed in
between as one kernel call per level instead of one per step. Both read the
lambdas one level tile at a time, from a stored (B, T) array or from a tile
source that draws each tile when it is reached (``seeding.LambdaStream``),
so a long stretch need not hold its lambdas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "Chain", "advance", "flat_pair_index", "pair_levels", "split_pair",
    "split_pair_float", "stacked_draws",
]

# steps per level tile: each tile is levelled on its own, so its levels fit
# int16, and the tiles of one scan are levelled side by side in one pass
_LEVEL_TILE = 512
# lane entries (coordinates plus steps of each tile-replica lane) one scan
# may hold; a single tile is always allowed
_LEVEL_BUDGET = 1 << 21


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
    kernel: Callable              # kernel(batch, a, b, lam, rows): the batch move
    stationary: Callable          # stationary(rng): one stationary row drawn from rng
    start: np.ndarray             # the worst-case deterministic start (read-only)
    group: Optional[object]       # the draw arguments of seeding.draw_moves,
    gens: Optional[object]        # None on the matrix chain
    margin: Callable              # margin(v): distance of v's entries to the boundary
    coeffs: Callable              # coeffs(vi, vj): (total, alpha, beta) on arrays
    horizons: Callable            # horizons(): the coupling's default (T1, T2)
    connect_tail: Callable        # connect_tail(epsilon or C): (threshold, bound) or (None, None)
    largeness: Callable           # largeness(k or d): (threshold, target frequency or None)


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


def _move_levels(a, b, n: int, width: int) -> np.ndarray:
    """Level of each move of (B, W) draws, restarting every ``width`` steps:
    1 + the larger of the levels of the row's earlier moves on its two
    coordinates within the tile. Returns (width, B, K) int16, [s, r, k] the
    level of step k*width + s of row r, for the K = ceil(W / width) tiles.

    Each (row, tile) pair is one lane, and all lanes run side by side in one
    pass of ``width`` steps; the padding after the last tile moves (0, 0).
    """
    B, W = a.shape
    K = -(-W // width)
    lanes = B * K

    def lane_major(v):
        padded = np.zeros((B, K * width), dtype=np.min_scalar_type(n - 1))
        padded[:, :W] = v
        return np.ascontiguousarray(padded.reshape(lanes, width).T)

    at, bt = lane_major(a), lane_major(b)
    last = np.zeros(lanes * n, dtype=np.int16)
    base = np.arange(0, lanes * n, n)
    out = np.empty((width, lanes), dtype=np.int16)
    for s in range(width):
        ia = base + at[s]
        ib = base + bt[s]
        lev = np.maximum(last[ia], last[ib], out=out[s])
        lev += 1
        last[ia] = lev
        last[ib] = lev
    return out.reshape(width, B, K)


def _lambda_tiles(lam) -> Callable:
    """``lam`` as a tile source: a function (s0, s1) -> the (B, s1 - s0)
    lambdas of steps [s0, s1). A stored (B, T) array is sliced; a function
    is already one."""
    return lam if callable(lam) else (lambda s0, s1: lam[:, s0:s1])


def pair_levels(a, b, lam, n: int):
    """Yield (rows, a, b, lam) once per dependency level of the (B, T) draws,
    in order; row r moves pair (a[r, t], b[r, t]) with lam[r, t] at step t.

    ``lam`` is the (B, T) lambda array, or a tile source lam(s0, s1) giving
    the (B, s1 - s0) lambdas of steps [s0, s1). A source is called once per
    tile, in time order, just before that tile's first level is yielded, and
    the tiles cover [0, T); what it returns is copied before the next call,
    so it may reuse one buffer.

    The steps run in tiles of _LEVEL_TILE. Within a tile a move's level is
    1 + the larger of the levels of that row's earlier moves on its two
    coordinates, so one level never touches a (row, coordinate) twice and
    each (row, coordinate) sees its moves in time order: applying the levels
    one kernel call each reads and writes exactly what a per-step loop does.
    Tiles are levelled in scans under _LEVEL_BUDGET lane entries.
    """
    B, T = a.shape
    width = min(_LEVEL_TILE, T)
    if B == 0 or width == 0:
        return
    tile_lam = _lambda_tiles(lam)
    per_scan = max(1, _LEVEL_BUDGET // (B * (n + width)))
    for t0 in range(0, T, per_scan * width):
        t1 = min(T, t0 + per_scan * width)
        levels = _move_levels(a[:, t0:t1], b[:, t0:t1], n, width)
        for k, s0 in enumerate(range(t0, t1, width)):
            s1 = min(t1, s0 + width)
            # entry r * (s1 - s0) + s is step s0 + s of row r; int16 keys
            # sort by radix
            lev = levels[:s1 - s0, :, k].T.ravel()
            order = np.argsort(lev, kind="stable")
            rows = order // (s1 - s0)
            ra, rb = (np.take(v[:, s0:s1], order) for v in (a, b))
            rl = np.take(tile_lam(s0, s1), order)
            ends = np.cumsum(np.bincount(lev))
            for lo, hi in zip(ends[:-1], ends[1:]):
                yield rows[lo:hi], ra[lo:hi], rb[lo:hi], rl[lo:hi]


def advance(kernel, batch: np.ndarray, a, b, lam, t0: int, t1: int) -> None:
    """Apply steps [t0, t1) of the (B, T) draws (a, b, lam) to ``batch`` in
    place, one ``kernel(batch, a, b, lam, rows)`` call per dependency level.
    ``lam`` is a stored array or a tile source as in ``pair_levels``, on the
    same time axis as a and b; a source is asked for [t0, t1) in tiles.

    A batch of B rows is one chain per replica. A batch of 2B rows is the
    stacked [X; Y] pair of two chains that share every draw, and both halves
    move in the same call. The kernel is passed in rather than imported, so
    a caller's own binding of ``step_batch``/``mstep_batch`` is the one run.
    """
    B = a.shape[0]
    span = slice(t0, t1)
    tiles = _lambda_tiles(lam)

    def span_lam(s0, s1):
        return tiles(t0 + s0, t0 + s1)

    for rows, *move in pair_levels(a[:, span], b[:, span], span_lam, batch.shape[1]):
        if batch.shape[0] == 2 * B:
            move, rows = stacked_draws(*move), np.concatenate((rows, rows + B))
        kernel(batch, *move, rows)
