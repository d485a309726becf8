"""The batch move kernels, the orientation of moves and the dependency-level
scheduler.

An oriented move writes the bits of the unoriented pair split. One kernel
call conserves each moved pair's sum exactly and leaves every other entry
alone. Levels cover every move once, never touch a (row, coordinate) twice,
keep each (row, coordinate) in time order, and applying them level by level
gives the per-step loop's bytes, on one batch and on two batches that share
every draw alike."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gibbsmix
from gibbsmix import coupling, matrices, pairops
from gibbsmix.coupling import run_nonmarkovian_coupling
from gibbsmix.errors import InvariantViolation
from gibbsmix.groups import build_cyclic
from gibbsmix.matrices import matrix_chain, mstep_batch, pair_alpha_beta
from gibbsmix.pairops import advance, flat_view, pair_levels, pair_moves
from gibbsmix.seeding import LambdaStream, draw_moves, draw_pairs, empty_pairs
from gibbsmix.simplex import step_batch
from pair_oracle import rule_levels, split_pair, split_pair_float


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


def _tiles(lam):
    """A stored (B, T) lambda array as the tile source the levelling reads."""
    return lambda s0, s1: lam[:, s0:s1]


def _per_step(kernel, x, a, b, lam):
    for t in range(a.shape[1]):
        kernel(*pair_moves(x, a[:, t], b[:, t], lam[:, t]))


def _by_level(kernel, x, a, b, lam, n):
    for *_, levels in pair_levels(a, b, _tiles(lam), n, [a.shape[1]]):
        for move in levels:
            kernel(flat_view(x), *move)


# lambdas at and next to the orientation's switch, and at the ends
_EDGE_LAMS = [0.0, float(np.nextafter(0.5, 0.0)), 0.5, float(np.nextafter(0.5, 1.0)), 1.0]


@pytest.mark.parametrize("kind", ["simplex", "matrix"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_oriented_moves_write_the_unoriented_split(kind, data):
    # orient + kernel against the where-based split on each row's own two
    # values, compared as bits: signed zeros count. Simplex entries take
    # both signs, as the difference vectors of s-recursion do
    n = 5
    B = data.draw(st.integers(1, 6), label="B")
    lo, hi = (-1.0, 1.0) if kind == "simplex" else (0.0, 2.0)
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(lo, hi))
    x = data.draw(arrays(np.float64, (B, n), elements=values), label="x")
    rows = np.array(data.draw(
        st.lists(st.integers(0, B - 1), min_size=1, max_size=B, unique=True), label="rows"))
    k = rows.size
    a = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k), label="a"))
    step = np.array(data.draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k), label="step"))
    b = (a + step) % n
    lams = st.one_of(st.sampled_from(_EDGE_LAMS), st.floats(0.0, 1.0))
    lam = np.array(data.draw(st.lists(lams, min_size=k, max_size=k), label="lam"))
    want = x.copy()
    for r, i, j, u in zip(rows, a, b, lam):
        vi, vj = x[r, i], x[r, j]
        if kind == "simplex":
            coeffs = (vi + vj, vi + vj, 0.0)
        else:
            coeffs = tuple(float(v) for v in pair_alpha_beta(vi, vj))
        want[r, i], want[r, j] = split_pair(*coeffs, u)
        # the scalar twin writes the same bits
        got = np.array(split_pair_float(*map(float, coeffs), float(u)))
        assert got.tobytes() == np.array([want[r, i], want[r, j]]).tobytes()
    before = lam.copy()
    (step_batch if kind == "simplex" else mstep_batch)(*pair_moves(x, a, b, lam, rows))
    assert x.tobytes() == want.tobytes()
    # the caller's lambdas are read, never oriented in place
    assert lam.tobytes() == before.tobytes()


def test_orient_swaps_the_sides_below_one_half():
    base = np.array([0, 10, 20, 30, 40])
    a = np.array([1, 2, 3, 4, 5], dtype=np.uint8)
    b = np.array([6, 7, 8, 9, 0], dtype=np.uint8)
    lam = np.array(_EDGE_LAMS)
    p, q, lam_p = pairops.orient(base, a, b, lam)
    assert p.tolist() == [6, 17, 23, 34, 45] and q.tolist() == [1, 12, 28, 39, 40]
    assert lam_p.tolist() == [1.0, 0.5, 0.5, float(np.nextafter(0.5, 1.0)), 1.0]
    assert lam.tolist() == _EDGE_LAMS


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
    kernel(*pair_moves(x, a, b, lam, *((rows,) if with_rows else ())))
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


def _observed(kernel, batches, a, b, lam, marks):
    """Each of the batches at each mark of ``advance``, as copies: one list
    of marks per batch."""
    seen = [[] for _ in batches]
    for _ in advance(kernel, batches, a, b, lam, marks):
        for x, got in zip(batches, seen):
            got.append(x.copy())
    return seen


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
    # n = 300 takes two-byte coordinates: the scan's rows hold four bytes
    # a lane and, on 512-step tiles, its levels two
    n=st.integers(2, 40) | st.just(300),
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
        # the lambda slot carries each move's id r*T + t, plus one, so the
        # yields name the moves they hold; a lambda of 1 or more is never
        # swapped by the orientation
        ids = np.arange(1, B * T + 1, dtype=float).reshape(B, T)
        levels = [(p, q, pl.astype(np.int64) - 1)
                  for *_, tile in pair_levels(a, b, _tiles(ids), n, [T]) for p, q, pl in tile]
        seen = np.zeros(B * T, dtype=np.int64)
        last = np.full((B, n), -1)
        for p, q, move in levels:
            r, t = np.divmod(move, T)
            pa, pb = a[r, t], b[r, t]
            assert np.array_equal(p, r * n + pa) and np.array_equal(q, r * n + pb)
            seen[move] += 1
            # one touch per (row, coordinate) within a level
            touched = np.concatenate((p, q))
            assert np.unique(touched).size == touched.size
            # each (row, coordinate) sees its moves in time order
            assert np.all(last[r, pa] < t) and np.all(last[r, pb] < t)
            last[r, pa] = t
            last[r, pb] = t
        assert np.all(seen == 1)
        if n == 2:
            # every move touches both coordinates: one move per level per row
            assert len(levels) == T
            assert all(np.unique(p // n).size == p.size for p, *_ in levels)

        x0 = rng.uniform(0.0, 2.0, (B, n))
        want, got = x0.copy(), x0.copy()
        _per_step(mstep_batch, want, a, b, lam)
        _by_level(mstep_batch, got, a, b, lam, n)
        assert np.array_equal(got, want)
        # windows between marks, with tiles restarting at each mark and
        # many small windows in one scan
        want = _per_step_at(mstep_batch, x0.copy(), a, b, lam, marks)
        (got,) = _observed(mstep_batch, (x0.copy(),), a, b, _tiles(lam), marks)
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
            (got,) = _observed(step_batch, (x0.copy(),), a, b, _tiles(lam), marks)
            assert all(map(np.array_equal, got, want))


@pytest.mark.parametrize("tile", [1, 3, 7, 512])
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 12),
    B=st.integers(1, 6),
    T=st.integers(1, 40),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    budget=st.sampled_from([1, 200, 1 << 21]),
    seed=st.integers(0, 2**32 - 1),
)
def test_levels_with_barriers_replay_the_per_step_loop(tile, n, B, T, density, budget, seed):
    # a barrier is its row's only step at its level, above every earlier
    # step of the row and below every later one; the other steps of each
    # level are its moves, once each. Applying each level's moves, then its
    # barriers one at a time, gives the per-step loop's bytes
    rng = np.random.default_rng(seed)
    a, b, lam = _draws(rng, B, T, n)
    barriers = rng.random((B, T)) < density
    # as in test_levels_replay_the_per_step_loop, each move's id r*T + t,
    # plus one, rides in the lambda slot
    ids = np.arange(1, B * T + 1, dtype=float).reshape(B, T)
    x0 = rng.uniform(0.0, 2.0, (B, n))
    want, got = x0.copy(), x0.copy()
    _per_step(mstep_batch, want, a, b, lam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairops, "_LEVEL_TILE", tile)
        mp.setattr(pairops, "_LEVEL_BUDGET", budget)
        done = 0
        tiles = zip(pair_levels(a, b, _tiles(lam), n, [T], barriers),
                    pair_levels(a, b, _tiles(ids), n, [T], barriers))
        for (s0, lev, _, levels), (*_, named) in tiles:
            w = len(lev)
            assert s0 == done and lev.shape == (w, B)
            done += w
            assert len(levels) == len(named) == lev.max()
            held = barriers[:, s0:s0 + w].T
            for level, ((p, q, pl), (_, _, moves)) in enumerate(zip(levels, named), 1):
                at = lev == level
                s, r = np.nonzero(at & ~held)
                assert sorted((moves.astype(np.int64) - 1).tolist()) == sorted(r * T + s0 + s)
                mstep_batch(flat_view(got), p, q, pl)
                for s, r in zip(*np.nonzero(at & held)):
                    assert at[:, r].sum() == 1
                    assert np.all(lev[:s, r] < level) and np.all(lev[s + 1:, r] > level)
                    t = s0 + s
                    mstep_batch(*pair_moves(got, a[r, [t]], b[r, [t]], lam[r, [t]], [r]))
        assert done == T
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    # n = 300 takes two-byte coordinates, so one-byte levels fill a quarter
    # of the scan's rows
    n=st.integers(2, 9) | st.just(300),
    B=st.integers(1, 5),
    T=st.integers(1, 60),
    tile=st.sampled_from([1, 4, 7, 512]),
    budget=st.sampled_from([1, 100, 1 << 21]),
    density=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_levels_are_the_rules_exactly(data, n, B, T, tile, budget, density, seed):
    # the levels set the number of kernel calls, so they are pinned, not
    # only their properties: every tile's levels, however the windows are
    # cut into tiles and the tiles into scans, are those of the rule applied
    # one step at a time (density 0 is the path with no barriers)
    rng = np.random.default_rng(seed)
    a, b, lam = _draws(rng, B, T, n)
    barriers = rng.random((B, T)) < density if density else None
    marks = _marks(data, T)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairops, "_LEVEL_TILE", tile)
        mp.setattr(pairops, "_LEVEL_BUDGET", budget)
        done = 0
        for s0, lev, _, _ in pair_levels(a, b, _tiles(lam), n, marks, barriers):
            w = len(lev)
            assert s0 == done and not any(s0 < m < s0 + w for m in marks)
            assert s0 // tile == (s0 + w - 1) // tile
            assert np.array_equal(lev, rule_levels(a, b, n, s0, s0 + w, barriers))
            done += w
    assert done == max(marks, default=0)


@pytest.mark.parametrize("tile", [1, 7, 512])
@pytest.mark.parametrize("marks", [[1100], [0, 5, 5, 300, 515, 1000], range(0, 1100, 4)],
                         ids=["one", "uneven", "stride"])
def test_each_tile_is_yielded_with_the_lambdas_of_its_steps(monkeypatch, tile, marks):
    # a marked step of the coupled runner reads its lambda from the tile it
    # is in: the tile's lambdas, as the stream serves them one grid chunk at
    # a time, are the draw_moves lambdas of the tile's steps, bit for bit
    monkeypatch.setattr(pairops, "_LEVEL_TILE", tile)
    B, T, n = 3, 1100, 6
    moves = [draw_moves(np.random.default_rng([5, r]), T, n) for r in range(B)]
    a, b, want = (np.stack(v) for v in zip(*moves))
    rngs = [np.random.default_rng([5, r]) for r in range(B)]
    for rng in rngs:
        draw_pairs(rng, T, n)
    done = 0
    for s0, lev, lam, _ in pair_levels(a, b, LambdaStream(rngs, T), n, marks):
        assert s0 == done and lam.shape == (B, len(lev))
        assert lam.tobytes() == want[:, s0:s0 + len(lev)].tobytes()
        done += len(lev)
    assert done == max(marks)


@pytest.mark.parametrize("density", [0.0, 0.05])
def test_a_tile_above_level_255_replays_the_per_step_loop(density):
    # row 0 moves the same pair at every step, so the first 512-step tile
    # climbs to level 512 and sorts 16-bit keys, and the 88-step tile after
    # it stays below 256 and sorts 8-bit ones; with barriers (applied after
    # each level's moves) and without, both give the per-step loop's bytes
    rng = np.random.default_rng(11)
    n, B, T = 6, 3, 600
    a, b, lam = _draws(rng, B, T, n)
    a[0], b[0] = 0, 1
    barriers = rng.random((B, T)) < density
    x0 = rng.uniform(0.0, 2.0, (B, n))
    want, got = x0.copy(), x0.copy()
    _per_step(mstep_batch, want, a, b, lam)
    tops = []
    for s0, lev, _, levels in pair_levels(a, b, _tiles(lam), n, [T], barriers):
        tops.append(int(lev.max()))
        held = barriers[:, s0:s0 + len(lev)].T
        for level, move in enumerate(levels, 1):
            mstep_batch(flat_view(got), *move)
            for s, r in zip(*np.nonzero((lev == level) & held)):
                t = s0 + s
                mstep_batch(*pair_moves(got, a[r, [t]], b[r, [t]], lam[r, [t]], [r]))
    assert len(tops) == 2 and tops[0] >= 512 and tops[1] < 256
    assert got.tobytes() == want.tobytes()


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
def test_advance_is_the_per_step_loop_on_one_and_two_batches(kernel, data, budget):
    # T = 700 spans two 512-step tiles; a budget of 3000 lane entries levels
    # several short windows in one scan, but a 512-step tile alone
    n, B, T = 9, 5, 700
    marks = [0, 1, 513, T] if data is None else _marks(data, T)
    group, gens = build_cyclic(n, range(1, n)) if kernel is step_batch else (None, None)
    rngs = [np.random.default_rng([11, r]) for r in range(B)]
    moves = (*empty_pairs(B, T, n), np.empty((B, T)))
    for r, rng in enumerate(rngs):
        moves[0][r], moves[1][r], moves[2][r] = draw_moves(rng, T, n, group, gens)
    assert moves[0].dtype == np.uint8
    x0, y0 = np.random.default_rng(12).dirichlet(np.ones(n), (2, B))
    want = [_per_step_at(kernel, x.copy(), *moves, marks) for x in (x0, y0)]

    def stream():
        # each replica's generator where draw_moves drew its lambdas; the
        # stream moves it on to where draw_moves leaves it
        twins = [np.random.default_rng([11, r]) for r in range(B)]
        for rng in twins:
            draw_pairs(rng, T, n, group, gens)
        lam = LambdaStream(twins, T)
        assert ([r.bit_generator.state for r in twins]
                == [r.bit_generator.state for r in rngs])
        return lam

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairops, "_LEVEL_BUDGET", budget)
        # X alone, and X with Y moved by the same draws
        for batches in ((x0,), (x0, y0)):
            for lam in (_tiles(moves[2]), stream()):
                got = _observed(kernel, tuple(x.copy() for x in batches), *moves[:2], lam, marks)
                for seen, wanted in zip(got, want):
                    assert len(seen) == len(marks)
                    assert all(map(np.array_equal, seen, wanted))


@pytest.mark.parametrize("rows", [4, 6, 10], ids=["B-1", "B+1", "2B"])
def test_advance_refuses_a_batch_that_is_not_one_row_per_replica(rows):
    # a batch with rows to spare would move only its first B; the retired
    # stacked [X; Y] layout of 2B rows is refused too, whichever batch it is
    B, n, T = 5, 4, 3
    a = np.zeros((B, T), dtype=np.uint8)
    good, bad = np.ones((B, n)), np.ones((rows, n))
    for batches in ((bad,), (good, bad), (bad, good)):
        before = [x.copy() for x in batches]
        with pytest.raises(InvariantViolation, match="batch-layout"):
            next(advance(mstep_batch, batches, a, a + 1, _tiles(np.full((B, T), 0.25)), [T]))
        assert all(map(np.array_equal, batches, before))


def test_scans_hold_at_most_a_megabyte_of_lane_table(monkeypatch):
    # the scan gathers from and scatters into its table of each lane's last
    # level per coordinate at every step, and past about 1 MB of it each
    # lane-step costs more. lowerbound-simplex on cyclic:64 with 2000
    # replicas observes every 4 steps: the lane-entry budget alone levels
    # 15 windows per scan (1.9 MB of one-byte levels), the cap 8. The
    # coupled runner's scans on couple-matrix-n128 stay whole: phase 1's
    # 26 tiles (832 KB of two-byte levels) and phase 2's 6
    original, scans = pairops._move_levels, []

    def counted(a, b, n, tiles, barriers=None):
        scans.append(len(tiles))
        return original(a, b, n, tiles, barriers)

    monkeypatch.setattr(pairops, "_move_levels", counted)
    B, T, n = 2000, 64, 64
    a = np.zeros((B, T), dtype=np.uint8)
    for _ in advance(lambda *move: None, (np.zeros((B, n)),), a, a + 1, _tiles(np.zeros((B, T))),
                     range(4, T + 1, 4)):
        pass
    assert scans == [8, 8]
    scans.clear()
    chain = matrix_chain(128)
    T1, T2 = chain.horizons()
    run_nonmarkovian_coupling(chain, T1=T1, T2=T2, replicas=125, seed=1)
    assert scans == [26, 6]


def test_the_traced_kernel_sees_the_parents_calls_and_moves(monkeypatch):
    # perfbench wraps matrices.mstep_batch by name in every gibbsmix module
    # that holds it and counts len(args[3]) as the rows moved; the levelled
    # runner must still make each call through that name with the per-row
    # lambdas as its fourth argument. The moves are those of the unoriented
    # kernel on couple-matrix at n = 128, 125 replicas, seed 1; the calls
    # are one on X and one on Y per level of phase 1 and per level of
    # phase 2 with free moves (946 and 333 levels)
    original, counts = matrices.mstep_batch, [0, 0]

    def wrapper(*args, **kwargs):
        counts[0] += 1
        counts[1] += len(args[3])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gibbsmix" and getattr(module, "mstep_batch", None) is original:
            monkeypatch.setattr(module, "mstep_batch", wrapper)
    chain = matrix_chain(128)
    T1, T2 = chain.horizons()
    run_nonmarkovian_coupling(chain, T1=T1, T2=T2, replicas=125, seed=1)
    assert counts == [2558, 3_879_750]


def test_the_subset_step_keeps_its_batching_on_the_benchmark_run(monkeypatch):
    # the same run makes one subset_couple_batch call per phase-2 level that
    # holds merges, over the 15,875 merges of its 125 partition scans; the
    # runner looks the step up by name, as perfbench's subset layer would
    original, counts = coupling.subset_couple_batch, [0, 0]

    def wrapper(*args):
        counts[0] += 1
        counts[1] += len(args[3])
        return original(*args)

    monkeypatch.setattr(coupling, "subset_couple_batch", wrapper)
    chain = matrix_chain(128)
    T1, T2 = chain.horizons()
    run_nonmarkovian_coupling(chain, T1=T1, T2=T2, replicas=125, seed=1)
    assert counts == [204, 15_875]


def _orienting(node):
    """Whether an expression compares a plain value with 1/2, or takes a max,
    min or where over a ``1 - x``: the orientation of a move."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        half = any(isinstance(v, ast.Constant) and v.value == 0.5 for v in sides)
        plain = any(isinstance(v, (ast.Name, ast.Subscript, ast.Attribute)) for v in sides)
        return half and plain
    if isinstance(node, ast.Call):
        func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        return func in {"max", "min", "maximum", "minimum", "where"} and any(
            isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
            and isinstance(arg.left, ast.Constant) and arg.left.value == 1
            for arg in node.args)
    return False


def test_only_pairops_orients_a_move():
    # every move is oriented by pairops.orient; a kernel or caller that
    # picks the larger share itself fails here
    package = Path(gibbsmix.__file__).parent
    found = {
        (path.stem, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _orienting(node)
    }
    assert {stem for stem, _ in found} == {"pairops"}
