import numpy as np
import pytest

from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.seeding import draw_pairs

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
