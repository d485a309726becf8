"""The batch move kernels and the dependency-level scheduler.

One kernel call conserves each moved pair's sum exactly and leaves every
other entry alone. Levels cover every move once, never touch a (row,
coordinate) twice, keep each (row, coordinate) in time order, and applying
them level by level gives the per-step loop's bytes, on one chain per
replica and on the stacked [X; Y] pair alike."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gibbsmix import pairops
from gibbsmix.groups import build_cyclic
from gibbsmix.matrices import mstep_batch
from gibbsmix.pairops import advance, pair_levels
from gibbsmix.seeding import LambdaStream, draw_moves, draw_pairs, empty_moves
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


@pytest.mark.parametrize("n", [3, 4, 9])
@pytest.mark.parametrize("kernel, top", [(step_batch, 1.0), (mstep_batch, 2.0)],
                         ids=["simplex", "matrix"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), with_rows=st.booleans())
def test_batch_kernels_conserve_each_moved_pair_sum_exactly(kernel, top, n, data, with_rows):
    B = data.draw(st.integers(1, 6), label="B")
    x = data.draw(arrays(np.float64, (B, n), elements=st.floats(0.0, top)), label="x")
    rows = np.arange(B)
    if with_rows:
        rows = np.array(data.draw(
            st.lists(st.integers(0, B - 1), min_size=1, max_size=B, unique=True), label="rows"))
    k = rows.size
    a = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k), label="a"))
    step = np.array(data.draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k), label="step"))
    b = (a + step) % n
    lam = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), label="lam"))
    before = x.copy()
    kernel(x, a, b, lam, *((rows,) if with_rows else ()))
    assert np.array_equal(x[rows, a] + x[rows, b], before[rows, a] + before[rows, b])
    moved = np.zeros((B, n), dtype=bool)
    moved[rows, a] = moved[rows, b] = True
    assert np.array_equal(x[~moved], before[~moved])


def _marks(data, T):
    # ascending marks in [0, T]: uneven, repeated or empty windows, and
    # often a mark at 0 or at T
    inner = data.draw(st.lists(st.integers(0, T), max_size=6), label="marks")
    ends = data.draw(st.sampled_from([[], [0], [T], [0, T], [T, T]]), label="ends")
    return sorted(inner + ends)


def _observed(kernel, x, a, b, lam, marks):
    """The batch at each mark of ``advance``, as copies."""
    return [x.copy() for _ in advance(kernel, x, a, b, lam, marks)]


def _per_step_at(kernel, x, a, b, lam, marks):
    """The per-step loop's batch at each mark."""
    seen, done = [], 0
    for mark in marks:
        _per_step(kernel, x, a[:, done:mark], b[:, done:mark], lam[:, done:mark])
        done = mark
        seen.append(x.copy())
    return seen


@pytest.mark.parametrize("tile", [1, 3, 7, 512])
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 40),
    B=st.integers(1, 9),
    tiles=st.floats(0.0, 3.0),
    budget=st.sampled_from([1, 200, 1 << 21]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_levels_replay_the_per_step_loop(tile, n, B, tiles, budget, seed, data):
    T = int(tiles * tile) + (tiles > 0)
    marks = _marks(data, T)
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
        # windows between marks, with tiles restarting at each mark and
        # many small windows in one scan
        want = _per_step_at(mstep_batch, x0.copy(), a, b, lam, marks)
        got = _observed(mstep_batch, x0.copy(), a, b, lam, marks)
        assert len(got) == len(marks)
        assert all(map(np.array_equal, got, want))

        if n >= 3:
            group, gens = build_cyclic(n, range(1, n))
            a, b, lam = _draws(rng, B, T, n, group, gens)
            x0 = rng.dirichlet(np.ones(n), B)
            want, got = x0.copy(), x0.copy()
            _per_step(step_batch, want, a, b, lam)
            _by_level(step_batch, got, a, b, lam, n)
            assert np.array_equal(got, want)
            want = _per_step_at(step_batch, x0.copy(), a, b, lam, marks)
            got = _observed(step_batch, x0.copy(), a, b, lam, marks)
            assert all(map(np.array_equal, got, want))


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
@settings(max_examples=15, deadline=None)
@given(data=st.data(), budget=st.sampled_from([1, 3000, 1 << 21]))
@example(data=None, budget=1 << 21)
def test_advance_is_the_per_step_loop_on_single_and_stacked_batches(kernel, data, budget):
    # T = 700 spans two 512-step tiles; a budget of 3000 lane entries levels
    # several short windows in one scan, but a 512-step tile alone
    n, B, T = 9, 5, 700
    marks = [0, 1, 513, T] if data is None else _marks(data, T)
    group, gens = build_cyclic(n, range(1, n)) if kernel is step_batch else (None, None)
    rngs = [np.random.default_rng([11, r]) for r in range(B)]
    moves = empty_moves(B, T, n)
    for r, rng in enumerate(rngs):
        moves[0][r], moves[1][r], moves[2][r] = draw_moves(rng, T, n, group, gens)
    assert moves[0].dtype == np.uint8
    x0 = np.random.default_rng(12).dirichlet(np.ones(n), 2 * B)
    want_single = _per_step_at(kernel, x0[:B].copy(), *moves, marks)
    want_stacked = [np.concatenate(halves) for halves in zip(
        want_single, _per_step_at(kernel, x0[B:].copy(), *moves, marks))]

    def stream():
        # each replica's generator where draw_moves drew its lambdas
        twins = [np.random.default_rng([11, r]) for r in range(B)]
        for rng in twins:
            draw_pairs(rng, T, n, group, gens)
        return LambdaStream(twins, T)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairops, "_LEVEL_BUDGET", budget)
        for x, want in ((x0[:B], want_single), (x0, want_stacked)):
            for lam in (moves[2], stream()):
                got = _observed(kernel, x.copy(), *moves[:2], lam, marks)
                assert len(got) == len(marks)
                assert all(map(np.array_equal, got, want))
                if isinstance(lam, LambdaStream):
                    assert lam.drawn == (marks[-1] if marks else 0)
