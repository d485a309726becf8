import numpy as np
import pytest

from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.seeding import draw_moves, draw_pairs, empty_moves

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
