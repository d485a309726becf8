import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbsmix import pairops, simplex
from gibbsmix.errors import InvariantViolation
from gibbsmix.groups import build_cyclic
from gibbsmix.kernels import edge_walk_kernel
from gibbsmix.pairops import pair_moves
from gibbsmix.seeding import draw_pairs
from gibbsmix.simplex import (
    SimplexState,
    SVector,
    check_s_recursion,
    lower_bound_experiment,
    lower_bound_init,
    s_recursion_targets,
    s_vector,
    sample_stationary,
    step_batch,
)
from pair_oracle import split_pair

unit = st.floats(0.0, 1.0, allow_nan=False)


def test_step_moves_pair_mass(z4):
    # one move is a (1, n) batch: g = 0, r = 1 moves the pair (0, 0*1)
    group, _ = z4
    x = np.array([0.2, 0.3, 0.4, 0.1])
    step_batch(*pair_moves(x[None], [0], [group.mul[0, 1]], [0.5]))
    assert x[0] == pytest.approx(0.25, abs=0)
    assert x[1] == pytest.approx(0.25, abs=0)
    assert x[2] == 0.4 and x[3] == 0.1


def test_state_validation():
    with pytest.raises(InvariantViolation):
        SimplexState(np.array([0.5, 0.6]))
    with pytest.raises(InvariantViolation):
        SimplexState(np.array([1.1, -0.1]))


def test_stationary_marginal_law(rng):
    # one coordinate of a uniform 3-simplex point has CDF 1 - (1 - x)^2
    samples = np.array([sample_stationary(3, rng).x[0] for _ in range(20000)])
    result = stats.kstest(samples, lambda x: 1.0 - (1.0 - x) ** 2)
    assert result.pvalue > 0.01


_Z4_GROUP, _Z4_GENS = build_cyclic(4, [1, 3])


@settings(max_examples=200, deadline=None)
@given(lam=unit, a=st.floats(1e-6, 1.0), b=st.floats(1e-6, 1.0))
def test_step_conserves_pair_total_exactly(lam, a, b):
    group = _Z4_GROUP
    rest = 1.0
    x = np.array([a, b, 0.0, 0.0])
    x = x / x.sum() * rest
    out = x[None].copy()
    step_batch(*pair_moves(out, [0], [group.mul[0, 1]], [lam]))
    assert out[0, 0] + out[0, 1] == x[0] + x[1]
    assert out.min() >= 0.0


def test_batch_step_matches_scalar(z6, rng):
    group, gens = z6
    n = group.n
    x = rng.dirichlet(np.ones(n), 64)
    a = rng.integers(0, n, 64)
    r = np.asarray(gens.elements)[rng.integers(0, gens.m, 64)]
    b = np.asarray(group.mul[a, r])
    lam = rng.random(64)
    # each row against the pair split on that row's two values
    expected = x.copy()
    for k in range(64):
        total = x[k, a[k]] + x[k, b[k]]
        expected[k, a[k]], expected[k, b[k]] = split_pair(total, total, 0.0, lam[k])
    step_batch(*pair_moves(x, a, b, lam))
    assert np.array_equal(x, expected)


@pytest.mark.parametrize("with_rows", [False, True])
def test_a_rows_call_moves_only_those_rows(z6, rng, with_rows):
    # lam 0, 1/2 and 1 are among the moved rows
    group, gens = z6
    n, B = group.n, 40
    x = rng.dirichlet(np.ones(n), B)
    a, b = draw_pairs(rng, B, n, group, gens)
    lam = rng.random(B)
    lam[:3] = [0.0, 0.5, 1.0]
    rows = np.arange(B)
    if with_rows:
        rows = np.concatenate(([0, 1, 2], np.sort(rng.choice(rows[3:], 20, replace=False))))
    draws = (a[rows], b[rows], lam[rows])
    rows_arg = (rows,) if with_rows else ()
    before = x.copy()
    step_batch(*pair_moves(x, *draws, *rows_arg))
    # a rows call equals a plain call on those rows; the other rows stay
    sub = before[rows]
    step_batch(*pair_moves(sub, *draws))
    assert np.array_equal(x[rows], sub)
    still = np.setdiff1d(np.arange(B), rows)
    assert np.array_equal(x[still], before[still])
    # the pair sum is conserved exactly
    k = np.arange(rows.size)
    assert np.array_equal(sub[k, draws[0]] + sub[k, draws[1]],
                          before[rows, draws[0]] + before[rows, draws[1]])


def test_step_batch_rejects_non_contiguous_batch():
    x = np.full((8, 6), 1.0 / 6)[:, ::2]
    with pytest.raises(InvariantViolation):
        step_batch(*pair_moves(x, np.zeros(8, dtype=np.int64), np.ones(8, dtype=np.int64),
                               np.full(8, 0.5)))
    with pytest.raises(InvariantViolation):
        step_batch(*pair_moves(np.asfortranarray(np.ones((4, 3))), np.array([0]),
                               np.array([1]), np.array([0.5]), np.array([2])))


def test_s_vector_hand_example():
    group, _ = build_cyclic(3, [1, 2])
    x = SimplexState(np.array([0.5, 0.3, 0.2]))
    y = SimplexState(np.array([0.2, 0.3, 0.5]))
    d = x.x - y.x
    vec = s_vector(x, y, group)
    for h in range(3):
        expected = sum(d[g] * d[(g + h) % 3] for g in range(3))
        assert vec.s[h] == pytest.approx(expected, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_s_vector_invariants(data):
    n = data.draw(st.integers(3, 12))
    group, _ = build_cyclic(n, [1, n - 1])
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = sample_stationary(n, rng)
    y = sample_stationary(n, rng)
    vec = s_vector(x, y, group)
    ident = vec.s[group.identity]
    assert ident >= -1e-12
    assert np.abs(vec.s).max() <= ident + 1e-10
    assert abs(vec.s.sum()) <= 1e-10
    inv = group.inv
    assert np.allclose(vec.s, vec.s[inv], atol=1e-12)


def test_s_vector_rejects_dominated_identity_entry():
    # the identity entry is a squared norm and must dominate every entry
    with pytest.raises(InvariantViolation):
        SVector(s=np.array([1.0, 2.0, 3.0]), identity=0)


def test_s_recursion_targets_against_direct_average(z4, rng):
    # brute-force the one-step expectation by averaging the exact
    # lambda-integrated update over every (g, r) pair
    group, gens = z4
    n, m = group.n, gens.m
    x = sample_stationary(n, rng)
    y = sample_stationary(n, rng)
    d = x.x - y.x
    s = np.array([sum(d[g] * d[group.mul[g, h]] for g in range(n)) for h in range(n)])
    # after updating pair (g, gr): D'[g] = lam * P, D'[gr] = (1 - lam) * P
    # with P = D[g] + D[gr]; exact lambda moments 1/2, 1/3, and 1/6 close
    # the expectation of each product D'[z] D'[z.h]
    total = np.zeros(n)
    for g in range(n):
        for r in gens.elements:
            gr = int(group.mul[g, r])
            pair_sum = d[g] + d[gr]
            for h in range(n):
                acc = 0.0
                for z in range(n):
                    w = int(group.mul[z, h])
                    z_in = z == g or z == gr
                    w_in = w == g or w == gr
                    if z_in and w_in:
                        acc += pair_sum * pair_sum * (1.0 / 3.0 if z == w else 1.0 / 6.0)
                    elif z_in:
                        acc += 0.5 * pair_sum * d[w]
                    elif w_in:
                        acc += d[z] * 0.5 * pair_sum
                    else:
                        acc += d[z] * d[w]
                total[h] += acc / (n * m)
    targets = s_recursion_targets(s, group, gens)
    assert np.allclose(total, targets, atol=1e-12)


def test_s_recursion_monte_carlo(z6, rng):
    group, gens = z6
    x = sample_stationary(group.n, rng)
    y = sample_stationary(group.n, rng)
    report = check_s_recursion(x, y, group, gens, samples=200_000, seed=3)
    assert report.max_deviation_se <= 4.0
    assert abs(report.mean_lambda - 0.5) <= 4.0 * 0.3 / np.sqrt(report.samples)


def _cyclic64_pair():
    group, gens = build_cyclic(64, range(1, 64))
    rng = np.random.default_rng(64)
    return sample_stationary(64, rng), sample_stationary(64, rng), group, gens


@pytest.mark.parametrize("tile_bytes", [1, 3 * 8 * 64 * 64, 1 << 40])
def test_s_recursion_bytes_do_not_depend_on_the_row_tiles(monkeypatch, tile_bytes):
    # one-row tiles, three-row tiles and one tile per chunk (the whole
    # chunk's (b, n, n) gather einsummed at once) give the bytes of the
    # default 128-row tiles; 1,250 samples are 2 chunks of 1,000 and 250
    x, y, group, gens = _cyclic64_pair()
    monkeypatch.setattr(simplex, "_S_RECURSION_CHUNK", 1000)
    want = check_s_recursion(x, y, group, gens, samples=1250, seed=5)
    monkeypatch.setattr(simplex, "_S_RECURSION_TILE_BYTES", tile_bytes)
    got = check_s_recursion(x, y, group, gens, samples=1250, seed=5)
    assert got.estimates.tobytes() == want.estimates.tobytes()
    assert got.se.tobytes() == want.se.tobytes()


def test_s_recursion_peak_stays_within_a_few_tiles():
    # cyclic:64 complete, one chunk of 10,000 samples: gathered whole, D[g r]
    # was a (10,000, 64, 64) float64 array of 328 MB. In row tiles the
    # traced peak is the chunk's D (5.1 MB), one tile's gather (4 MB) and the
    # chunk's moves, about 9.7 MB
    x, y, group, gens = _cyclic64_pair()
    # a first run fills numpy's caches, which the traced run must not count
    check_s_recursion(x, y, group, gens, samples=10, seed=0)
    tracemalloc.start()
    try:
        check_s_recursion(x, y, group, gens, samples=10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * simplex._S_RECURSION_TILE_BYTES


def test_numpy_sums_axis_zero_row_by_row():
    # check_s_recursion folds each row tile into its chunk's sums through an
    # axis-0 sum over [partial; tile], which gives the bits of one sum over
    # the chunk only if numpy adds the rows one after another, in order
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((300, 64)) * 10.0 ** rng.integers(-12, 12, (300, 64))
    acc = rows[0].copy()
    for row in rows[1:]:
        acc += row
    assert rows.sum(axis=0).tobytes() == acc.tobytes()
    # the rows are order-sensitive: summed in reverse they give other bits
    assert rows[::-1].sum(axis=0).tobytes() != acc.tobytes()


def test_lower_bound_init_sign_rule(z6):
    group, gens = z6
    v, mu = lower_bound_init(edge_walk_kernel(group, gens))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert (v[v >= 0.0] ** 2).sum() >= 0.5 - 1e-12
    assert mu.x.min() >= 0.0
    assert mu.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_experiment_quick():
    group, gens = build_cyclic(8, [1, 7])
    report = lower_bound_experiment(group, gens, T=40, replicas=2000, seed=5)
    assert report.slope_rel_error <= 0.10
    assert report.stationary_second_moment <= report.stationary_bound
    for point in report.points:
        assert point.tv_lower_bound >= 0.0


def _report_digest(report):
    return hashlib.sha256(repr(dataclasses.astuple(report)).encode()).hexdigest()


@pytest.mark.parametrize("chunk", [512, 4])
@pytest.mark.parametrize("T, replicas, digest", [
    # T a multiple of the checkpoint stride of 4, where nothing is jumped, or
    # not: in 512-step chunks T = 513 leaves its last lambda undrawn, and
    # 4-step chunks draw only up to the last checkpoint at every such T
    (100, 50, "f26df804a12b44d6b553244aa497648b187729015d41d945df901da3ecbad93f"),
    (101, 50, "26324e697ba4be35e690d1a4e62425caad1b98f4abbb36a9117aa64cdc5cb981"),
    (513, 20, "5cfae590b7bf7c6c51868a4463f807a04f3d54c2e686da3ef13ece574311f705"),
    (101, 1, "81fe9787eb4bb5936718a8de086334068c10628fce5709562b701ee3614f1481"),
])
def test_lower_bound_report_bytes_at_the_edge_sizes(monkeypatch, chunk, T, replicas, digest):
    # pinned from the code that stored every lambda and drew the stationary
    # rows after them: the unread lambdas are jumped over, not drawn, and
    # each stationary row still follows its replica's whole lambda array
    monkeypatch.setattr(pairops, "_LEVEL_TILE", chunk)
    report = lower_bound_experiment(*build_cyclic(8, [1, 7]), T=T, replicas=replicas, seed=3)
    assert _report_digest(report) == digest


def test_lower_bound_peak_is_below_a_stored_lambda_array():
    # cyclic:16 +-1, 200 replicas, 10,001 steps: a (B, T) float64 lambda
    # store alone is 16.0 MB, and the traced peak was about 25.2 MB with
    # it. The streamed lambdas leave the pair store (4.0 MB) and the scans
    B, T = 200, 10_001
    group, gens = build_cyclic(16, [1, 15])
    # a first run fills numpy's caches, which the traced run must not count
    lower_bound_experiment(group, gens, T=10, replicas=3, seed=0)
    tracemalloc.start()
    try:
        report = lower_bound_experiment(group, gens, T=T, replicas=B, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * B * T
    assert _report_digest(report) == (
        "b92a5cc43480dde1d865597a7d8f9429c5c09d3d29165ac6b4f116f438648dbf")
