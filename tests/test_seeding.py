import numpy as np
import pytest

from gibbsmix import seeding
from gibbsmix.errors import ConfigError, InvariantViolation
from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.seeding import (
    LambdaStream, check_draw_memory, draw_moves, draw_pairs, empty_moves, move_bytes,
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
    a, b, lam = empty_moves(5, 7, n)
    assert a.shape == b.shape == lam.shape == (5, 7)
    assert a.dtype == b.dtype == dtype and lam.dtype == np.float64
    assert move_bytes(5, 7, n) == a.nbytes + b.nbytes + lam.nbytes
    assert move_bytes(5, 7, n, lambdas=False) == a.nbytes + b.nbytes


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
    assert stream.drawn == T
    got = np.concatenate(tiles, axis=1) if tiles else np.empty((B, 0))
    assert np.array_equal(_bits(got), _bits(np.stack([r.random(T) for r in refs])))
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in refs]


def test_lambda_stream_refuses_tiles_out_of_order():
    stream = LambdaStream([np.random.default_rng(0)], 10)
    stream(0, 4)
    for s0, s1 in [(0, 4), (5, 8), (4, 11)]:
        with pytest.raises(InvariantViolation, match="draw-order"):
            stream(s0, s1)
    assert stream.drawn == 4


def test_draw_memory_guard_compares_the_estimate_with_the_probe(monkeypatch):
    monkeypatch.setattr(seeding, "available_memory", lambda: 1000)
    check_draw_memory(1000, "a store")
    with pytest.raises(ConfigError, match="a store would pre-draw 1,001 bytes, more than the 1,000"):
        check_draw_memory(1001, "a store")
    # where the memory available is not reported nothing is checked
    monkeypatch.setattr(seeding, "available_memory", lambda: None)
    check_draw_memory(10**18, "a store")


def test_available_memory_is_a_byte_count_or_none():
    available = seeding.available_memory()
    assert available is None or (isinstance(available, int) and available > 0)
