"""The dependency-level scheduler: levels cover every move once, never touch
a (row, coordinate) twice, keep each (row, coordinate) in time order, and
applying them level by level gives the per-step loop's bytes, on one chain
per replica and on the stacked [X; Y] pair alike."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsmix import pairops
from gibbsmix.groups import build_cyclic
from gibbsmix.matrices import mstep_batch
from gibbsmix.pairops import advance, pair_levels
from gibbsmix.seeding import draw_moves, draw_pairs, empty_moves
from gibbsmix.simplex import step_batch


def _draws(rng, B, T, n, group=None, gens=None):
    a = np.empty((B, T), dtype=np.int64)
    b = np.empty((B, T), dtype=np.int64)
    for r in range(B):
        a[r], b[r] = draw_pairs(rng, T, n, group, gens)
    lam = rng.random((B, T))
    # exact 0, 1/2 and 1 take both branches of the pair split and its ties
    edge = rng.random((B, T)) < 0.3
    lam[edge] = rng.choice([0.0, 0.5, 1.0], int(edge.sum()))
    return a, b, lam


def _per_step(kernel, x, a, b, lam):
    for t in range(a.shape[1]):
        kernel(x, a[:, t], b[:, t], lam[:, t])


def _by_level(kernel, x, a, b, lam, n):
    for rows, pa, pb, pl in pair_levels(a, b, lam, n):
        kernel(x, pa, pb, pl, rows)


@pytest.mark.parametrize("tile", [1, 3, 7, 512])
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 40),
    B=st.integers(1, 9),
    tiles=st.floats(0.0, 3.0),
    budget=st.sampled_from([1, 1 << 21]),
    seed=st.integers(0, 2**32 - 1),
)
def test_levels_replay_the_per_step_loop(tile, n, B, tiles, budget, seed):
    T = int(tiles * tile) + (tiles > 0)
    rng = np.random.default_rng(seed)
    a, b, lam = _draws(rng, B, T, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairops, "_LEVEL_TILE", tile)
        mp.setattr(pairops, "_LEVEL_BUDGET", budget)
        # the lambda slot carries each move's id r*T + t, so the yields name
        # the moves they hold
        ids = np.arange(B * T, dtype=float).reshape(B, T)
        levels = [
            (rows, pa, pb, pl.astype(np.int64))
            for rows, pa, pb, pl in pair_levels(a, b, ids, n)
        ]
        seen = np.zeros(B * T, dtype=np.int64)
        last = np.full((B, n), -1)
        for rows, pa, pb, move in levels:
            r, t = np.divmod(move, T)
            assert np.array_equal(rows, r)
            assert np.array_equal(pa, a[r, t]) and np.array_equal(pb, b[r, t])
            seen[move] += 1
            # one touch per (row, coordinate) within a level
            touched = np.concatenate((r * n + pa, r * n + pb))
            assert np.unique(touched).size == touched.size
            # each (row, coordinate) sees its moves in time order
            assert np.all(last[r, pa] < t) and np.all(last[r, pb] < t)
            last[r, pa] = t
            last[r, pb] = t
        assert np.all(seen == 1)
        if n == 2:
            # every move touches both coordinates: one move per level per row
            assert len(levels) == T
            assert all(np.unique(rows).size == rows.size for rows, *_ in levels)

        x0 = rng.uniform(0.0, 2.0, (B, n))
        want, got = x0.copy(), x0.copy()
        _per_step(mstep_batch, want, a, b, lam)
        _by_level(mstep_batch, got, a, b, lam, n)
        assert np.array_equal(got, want)

        if n >= 3:
            group, gens = build_cyclic(n, range(1, n))
            a, b, lam = _draws(rng, B, T, n, group, gens)
            x0 = rng.dirichlet(np.ones(n), B)
            want, got = x0.copy(), x0.copy()
            _per_step(step_batch, want, a, b, lam)
            _by_level(step_batch, got, a, b, lam, n)
            assert np.array_equal(got, want)


def test_levels_of_strided_views():
    # the checkpointed callers pass column slices of (B, T) draws
    rng = np.random.default_rng(7)
    n, B, T = 6, 4, 1300
    a, b, lam = _draws(rng, B, T, n)
    x0 = rng.uniform(0.0, 2.0, (B, n))
    want, got = x0.copy(), x0.copy()
    _per_step(mstep_batch, want, a, b, lam)
    for t0, t1 in [(0, 1), (1, 600), (600, 600), (600, 1300)]:
        _by_level(mstep_batch, got, a[:, t0:t1], b[:, t0:t1], lam[:, t0:t1], n)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kernel", [step_batch, mstep_batch], ids=["simplex", "matrix"])
def test_advance_is_the_per_step_loop_on_single_and_stacked_batches(kernel):
    rng = np.random.default_rng(11)
    n, B, T = 9, 5, 700
    group, gens = build_cyclic(n, range(1, n)) if kernel is step_batch else (None, None)
    moves = empty_moves(B, T, n)
    for r in range(B):
        moves[0][r], moves[1][r], moves[2][r] = draw_moves(rng, T, n, group, gens)
    assert moves[0].dtype == np.uint8
    x0 = rng.dirichlet(np.ones(n), 2 * B)
    want = x0.copy()
    _per_step(kernel, want[:B], *moves)
    _per_step(kernel, want[B:], *moves)
    single, stacked = x0[:B].copy(), x0.copy()
    for t0, t1 in [(0, 0), (0, 1), (1, 513), (513, T)]:
        advance(kernel, single, *moves, t0, t1)
        advance(kernel, stacked, *moves, t0, t1)
    assert np.array_equal(single, want[:B])
    assert np.array_equal(stacked, want)
