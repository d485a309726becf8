import numpy as np
import pytest

from gibbsmix import pairops, seeding
from gibbsmix.errors import ConfigError, InvariantViolation
from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.seeding import (
    LambdaStream, check_draw_memory, draw_moves, draw_pairs, empty_pairs, skip_draws,
)

T = 600


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("n", [3, 4, 17])
def test_matrix_pair_law_is_the_documented_call_sequence(n):
    rng, ref = _twins(n)
    a, b = draw_pairs(rng, T, n)
    i = ref.integers(0, n, T)
    raw = ref.integers(0, n - 1, T)
    assert np.array_equal(a, i)
    assert np.array_equal(b, raw + (raw >= i))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.all(a != b)
    assert a.min() >= 0 and max(a.max(), b.max()) < n
    if n == 3:
        assert len(set(zip(a.tolist(), b.tolist()))) == 6


@pytest.mark.parametrize(
    "built",
    [build_cyclic(3, [1, 2]), build_cyclic(8, [1, 7]), build_dihedral(3), build_hypercube(3)],
    ids=["cyclic3", "cyclic8", "dihedral3", "cube3"],
)
def test_cayley_pair_law_is_the_documented_call_sequence(built):
    group, gens = built
    n = group.n
    rng, ref = _twins(n + 100)
    a, b = draw_pairs(rng, T, n, group, gens)
    g = ref.integers(0, n, T)
    r = np.asarray(gens.elements, dtype=np.int64)[ref.integers(0, gens.m, T)]
    assert np.array_equal(a, g)
    assert np.array_equal(b, group.mul[g, r])
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.all(a != b)


@pytest.mark.parametrize("head", [0, 1, 7, T - 1, T])
def test_head_is_the_prefix_of_the_full_draw(head):
    group, gens = build_cyclic(8, [1, 7])
    for args in ((17,), (8, group, gens)):
        rng, ref = _twins(head)
        a, b = draw_pairs(rng, T, *args, head=head)
        full_a, full_b = draw_pairs(ref, T, *args)
        assert len(a) == len(b) == head
        assert np.array_equal(a, full_a[:head]) and np.array_equal(b, full_b[:head])


def _keep_a_half(*rngs):
    # three 32-bit draws leave the upper half of a second 64-bit output kept
    for rng in rngs:
        rng.integers(0, 2**32, 3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("kept", [False, True], ids=["fresh", "kept-half"])
@pytest.mark.parametrize("n", [2, 3, 8, 17, 500, 512])
def test_head_passes_the_whole_first_array(n, kept):
    # with a power-of-two n the unread values of the first array are
    # skipped, otherwise drawn; either way the pairs are the full draw's
    # prefix, and the stream (64-bit state, kept half) and its next draws
    # are where drawing the first array at length T and the second at
    # length head leaves them
    group, gens = build_hypercube(1) if n == 2 else build_cyclic(n, [1, n - 1])
    for args, second in (((n,), n - 1), ((n, group, gens), gens.m)):
        for head in (0, 1, 7, 300, T - 1, T):
            rng, full, ref = (np.random.default_rng([n, head]) for _ in range(3))
            if kept:
                _keep_a_half(rng, full, ref)
            a, b = draw_pairs(rng, T, *args, head=head)
            full_a, full_b = draw_pairs(full, T, *args)
            assert np.array_equal(a, full_a[:head]) and np.array_equal(b, full_b[:head])
            ref.integers(0, n, T)
            ref.integers(0, second, head)
            got, want = rng.bit_generator.state, ref.bit_generator.state
            assert got["state"] == want["state"]
            assert got["has_uint32"] == want["has_uint32"]
            if want["has_uint32"]:
                assert got["uinteger"] == want["uinteger"]
            assert np.array_equal(rng.integers(0, 1000, 5), ref.integers(0, 1000, 5))
            assert rng.random() == ref.random()


def test_head_draws_the_first_array_where_integers_rejects():
    # below n = 3 * 2**30 numpy's sampler rejects a quarter of its 32-bit
    # outputs (2**32 mod n = 2**30), so the unread values cannot be skipped
    # by count; for n = 500 it rejects one output in 14.5 million, so a
    # skip there would pass almost every test, and only a bound this
    # uneven shows it
    n = 3 * 2**30
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    a, b = draw_pairs(rng, T, n, head=9)
    assert np.array_equal(a, ref.integers(0, n, T)[:9])
    ref.integers(0, n - 1, 9)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("T", [0, 1, 2, 7, 600])
@pytest.mark.parametrize("k", [1, 3, 9, 16, 31])
def test_power_of_two_integers_take_one_32_bit_output_per_value(k, T):
    # the skip in draw_pairs rests on numpy's bounded sampler: below a
    # power-of-two bound 2**k, integers takes one 32-bit output per value
    # (Lemire's rejection threshold 2**32 mod 2**k is 0), two per 64-bit
    # PCG64 output, the low half first and the high half kept
    rng = np.random.Generator(np.random.PCG64(k))
    words = np.random.PCG64(k)
    rng.integers(0, 2**k, T)
    words.advance(-(-T // 2))
    assert rng.bit_generator.state["state"] == words.state["state"]
    assert rng.bit_generator.state["has_uint32"] == T % 2


@pytest.mark.parametrize("kept", [False, True], ids=["fresh", "kept-half"])
@pytest.mark.parametrize("count", [-7, -1, 0, 1, 2, 601])
def test_skip_of_doubles_moves_both_ways_and_keeps_the_half(count, kept):
    # the rejection sampler moves back over attempts it drew and does not
    # keep; doubles take one 64-bit output each and leave a kept half alone
    rng, ref = np.random.default_rng(count + 10), np.random.default_rng(count + 10)
    if kept:
        _keep_a_half(rng, ref)
    rng.random(7)
    skip_draws(rng, count)
    ref.random(7 + count)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(rng.integers(0, 2**32, 3, dtype=np.uint32),
                          ref.integers(0, 2**32, 3, dtype=np.uint32))


@pytest.mark.parametrize("cayley", [False, True])
def test_move_law_is_the_pair_arrays_then_the_lambda_array(cayley):
    group, gens = build_cyclic(8, [1, 7])
    args = (8, group, gens) if cayley else (8,)
    rng, ref = _twins(int(cayley))
    a, b, lam = draw_moves(rng, T, *args)
    want_a, want_b = draw_pairs(ref, T, *args)
    assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
    assert np.array_equal(lam, ref.random(T))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n, dtype", [(3, np.uint8), (256, np.uint8), (257, np.uint16), (4096, np.uint16)])
def test_move_store_has_narrow_coordinates(n, dtype):
    a, b = empty_pairs(5, 7, n)
    assert a.shape == b.shape == (5, 7)
    assert a.dtype == b.dtype == dtype


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("widths", [
    [0],
    [0, 0],
    [1, 0, 6, 511, 512, 513, 3],
    [512, 512, 512, 17],
    [0, 700, 0, 1],
], ids=["zero", "zeros", "uneven", "tiles", "zero-between"])
@pytest.mark.parametrize("into", [False, True], ids=["returned", "out"])
def test_lambda_chunks_are_the_bits_of_one_call(widths, into):
    # a streamed lambda array rests on this: Generator.random drawn in
    # consecutive chunks, returned or written into a reused buffer with
    # out=, gives one call's bits and leaves the generator where it leaves
    # it; a zero-width chunk draws nothing
    T = sum(widths)
    rng, ref = _twins(T + 3 * into)
    buf = np.full(max(widths), np.nan)
    chunks = []
    for w in widths:
        if into:
            rng.random(w, out=buf[:w])
            chunks.append(buf[:w].copy())
        else:
            chunks.append(rng.random(w))
    assert np.array_equal(_bits(np.concatenate(chunks)), _bits(ref.random(T)))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("T", [0, 1, 511, 512, 513, 1100])
def test_lambda_stream_draws_each_replicas_lambda_array(T):
    B = 3
    rngs = [np.random.default_rng([7, b]) for b in range(B)]
    refs = [np.random.default_rng([7, b]) for b in range(B)]
    stream = LambdaStream(rngs, T)
    tiles = [stream(s0, min(T, s0 + 512)).copy() for s0 in range(0, T, 512)]
    got = np.concatenate(tiles, axis=1) if tiles else np.empty((B, 0))
    assert np.array_equal(_bits(got), _bits(np.stack([r.random(T) for r in refs])))
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in refs]


def test_lambda_stream_refuses_tiles_out_of_order():
    stream = LambdaStream([np.random.default_rng(0)], 10)
    stream(0, 4)
    for s0, s1 in [(0, 4), (5, 8), (4, 11)]:
        with pytest.raises(InvariantViolation, match="draw-order"):
            stream(s0, s1)
    stream(4, 10)
    with pytest.raises(InvariantViolation, match="draw-order"):
        stream(10, 11)


def test_lambda_stream_refuses_a_tile_wider_than_a_chunk(monkeypatch):
    # a tile of at most a chunk is drawn into a (B, chunk) buffer, with no
    # memory check; no tile may be wider
    monkeypatch.setattr(seeding, "available_memory", lambda: 0)
    rngs = [np.random.default_rng(b) for b in range(2)]
    chunk = pairops._LEVEL_TILE
    with pytest.raises(InvariantViolation, match="draw-order"):
        LambdaStream(rngs, 1100)(0, chunk + 1)
    stream = LambdaStream(rngs, 1100)
    assert stream(0, chunk).shape == (2, chunk)
    with pytest.raises(InvariantViolation, match="draw-order"):
        stream(chunk, 2 * chunk + 1)


@pytest.mark.parametrize("grid, cut", [(7, 2), (512, 500)])
def test_lambda_stream_refuses_a_tile_that_crosses_a_grid_line(monkeypatch, grid, cut):
    # a chunk is drawn whole by its first tile, so a tile that reaches past
    # the next multiple of pairops._LEVEL_TILE, read at call time, is
    # refused, however narrow; a tile that ends on the line is served
    monkeypatch.setattr(pairops, "_LEVEL_TILE", grid)
    stream = LambdaStream([np.random.default_rng(b) for b in range(2)], 1100)
    stream(0, cut)
    with pytest.raises(InvariantViolation, match="draw-order"):
        stream(cut, grid + 8)
    assert stream(cut, grid).shape == (2, grid - cut)


class _Counted:
    """A generator whose ``random`` calls are counted: it wraps the stream's
    copy of a generator, which makes the stream's draws."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("width, calls", [(1, 3), (4, 3), (7, 3), (300, 3), (512, 3)])
def test_lambda_stream_tiles_share_a_call_per_chunk(width, calls):
    # 1,100 steps are three 512-step chunks (the last one short): tiles
    # shorter than a chunk, cut at the chunk lines as the level tiles are,
    # share one random call per replica and chunk
    B, T = 3, 1100
    stream = LambdaStream([np.random.default_rng([8, b]) for b in range(B)], T)
    copies = stream._rngs = [_Counted(rng) for rng in stream._rngs]
    ends = sorted({*range(width, T, width), *range(512, T, 512), T})
    got = np.concatenate([stream(s0, s1).copy() for s0, s1 in zip([0, *ends], ends)], axis=1)
    assert [rng.calls for rng in copies] == [calls] * B
    refs = [np.random.default_rng([8, b]) for b in range(B)]
    assert np.array_equal(_bits(got), _bits(np.stack([r.random(T) for r in refs])))


@pytest.mark.parametrize("read", ["none", "part", "all"])
@pytest.mark.parametrize("T", [0, 5, 600, 1100])
@pytest.mark.parametrize("via", ["stream", "predraw"])
def test_generators_stand_after_their_lambdas_however_far_the_stream_is_read(via, T, read):
    # as soon as predraw returns (or a stream is made), each generator
    # stands where draw_moves leaves it; reading the stream, not at all, up
    # to mid-chunk or to T, draws from its copies and moves it no further
    from gibbsmix.matrices import matrix_chain

    B, n = 2, 5
    rngs = [seeding.replica_rng(9, b) for b in range(B)]
    refs = [seeding.replica_rng(9, b) for b in range(B)]
    if via == "predraw":
        _, (_, _, stream) = seeding.predraw(matrix_chain(n), rngs, T, "a test")
        want = np.stack([draw_moves(ref, T, n)[2] for ref in refs])
    else:
        stream = LambdaStream(rngs, T)
        want = np.stack([ref.random(T) for ref in refs])
    states = [ref.bit_generator.state for ref in refs]
    assert [rng.bit_generator.state for rng in rngs] == states
    stop = {"none": 0, "part": (T + 1) // 2, "all": T}[read]
    tiles = [stream(s0, min(stop, s0 + 4)).copy() for s0 in range(0, stop, 4)]
    got = np.concatenate(tiles, axis=1) if tiles else np.empty((B, 0))
    assert np.array_equal(_bits(got), _bits(want[:, :stop]))
    assert [rng.bit_generator.state for rng in rngs] == states
    for rng, ref in zip(rngs, refs):
        assert rng.random(3).tobytes() == ref.random(3).tobytes()


def test_draw_memory_guard_compares_the_estimate_with_the_probe(monkeypatch):
    monkeypatch.setattr(seeding, "available_memory", lambda: 1000)
    check_draw_memory(1000, "a store")
    with pytest.raises(ConfigError, match="a store would hold 1,001 bytes at once, more than the 1,000"):
        check_draw_memory(1001, "a store")
    # where the memory available is not reported nothing is checked
    monkeypatch.setattr(seeding, "available_memory", lambda: None)
    check_draw_memory(10**18, "a store")


def test_available_memory_is_a_byte_count_or_none():
    available = seeding.available_memory()
    assert available is None or (isinstance(available, int) and available > 0)


@pytest.mark.parametrize("which", ["matrix:3", "matrix:40", "cyclic:6"])
def test_predraw_draws_stationary_rows_as_single_draws(which):
    # each group of a replica's stationary rows is one chain.stationary call;
    # it gives the rows of that many single samples in turn, and the moves
    # and the rows after them follow in the stream as they would then
    from gibbsmix.matrices import matrix_chain, msample_stationary
    from gibbsmix.simplex import sample_stationary, simplex_chain

    kind, n = which.split(":")
    n = int(n)
    if kind == "matrix":
        chain, single = matrix_chain(n), lambda rng: msample_stationary(n, rng).c
    else:
        chain = simplex_chain(*build_cyclic(n, [1, n - 1]))
        single = lambda rng: sample_stationary(n, rng).x  # noqa: E731
    B, steps = 3, 25
    rngs = [seeding.replica_rng(9, r) for r in range(B)]
    rows, (a, b, lam) = seeding.predraw(chain, rngs, steps, "a test", before=2)
    assert rows.shape == (2, B, n)
    # the lambdas follow the pair arrays, and rows drawn after predraw
    # follow the lambdas, however far the stream is read
    moves = (a, b, lam(0, 10).copy())
    after = [chain.stationary(rng, 3) for rng in rngs]
    for r in range(B):
        rng = seeding.replica_rng(9, r)
        want = [single(rng) for _ in range(2)]
        drawn = draw_moves(rng, steps, n, chain.group, chain.gens)
        assert rows[:, r].tobytes() == np.stack(want).tobytes()
        assert after[r].tobytes() == np.stack([single(rng) for _ in range(3)]).tobytes()
        for got, ref in zip(moves, drawn):
            assert np.array_equal(got[r], ref[:got.shape[1]])
    rng, ref = _twins(4)
    assert chain.stationary(rng, 0).shape == (0, n)
    assert chain.stationary(rng, 4).tobytes() == np.stack([single(ref) for _ in range(4)]).tobytes()
    assert rng.random() == ref.random()
