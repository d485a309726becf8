import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbsmix import matrices, pairops
from gibbsmix.errors import DominationViolated, InvariantViolation, RejectionBudgetExceeded
from gibbsmix.harness import exact_marginal_cdf
from gibbsmix.matrices import (
    MatrixState,
    identity_residual_batch,
    matrix_chain,
    mcontraction_experiment,
    monotone_couple_run,
    msample_stationary,
    msample_stationary_batch,
    mstep_batch,
    pair_alpha_beta,
)
from gibbsmix.pairops import pair_moves
from gibbsmix.seeding import draw_moves, draw_pairs, predraw, replica_rng
from gibbsmix.simplex import step_batch
from pair_oracle import split_pair

unit = st.floats(0.0, 1.0, allow_nan=False)
entry = st.floats(0.0, 2.0, allow_nan=False)


def _state(values):
    return MatrixState(np.asarray(values, dtype=float))


def _move(values, i, j, lam):
    """One move as a (1, n) batch; returns the moved row."""
    c = np.array([values], dtype=float)
    mstep_batch(*pair_moves(c, [i], [j], [lam]))
    return c[0]


def test_mstep_hand_values_above_two():
    # pair total 3.4 > 2 forces both entries >= 1.4
    c = [1.8, 1.6, 1.0, 0.2, 0.4]
    out = _move(c, 0, 1, 0.25)
    assert out[0] == pytest.approx(0.25 * 0.6 + 1.4, abs=1e-14)
    assert out[1] == pytest.approx(0.75 * 0.6 + 1.4, abs=1e-14)
    assert out[0] + out[1] == c[0] + c[1]
    assert out[2:].tolist() == [1.0, 0.2, 0.4]


def test_mstep_hand_values_below_two():
    c = [0.3, 0.9, 1.8, 1.0, 1.0]
    out = _move(c, 0, 1, 0.25)
    assert out[0] == pytest.approx(0.25 * 1.2, abs=1e-14)
    assert out[1] == pytest.approx(0.75 * 1.2, abs=1e-14)
    assert out[0] + out[1] == c[0] + c[1]


def test_state_validation():
    with pytest.raises(InvariantViolation):
        _state([2.2, 0.4, 0.4])
    with pytest.raises(InvariantViolation):
        _state([1.0, 1.0, 0.5])


def test_pair_alpha_beta_cases():
    s, alpha, beta = pair_alpha_beta(1.8, 1.6)
    assert (s, alpha, beta) == (pytest.approx(3.4), pytest.approx(0.6), pytest.approx(1.4))
    s, alpha, beta = pair_alpha_beta(0.3, 0.9)
    assert (s, alpha, beta) == (1.2, 1.2, 0.0)


@settings(max_examples=300, deadline=None)
@given(ci=entry, cj=entry, lam=unit)
def test_mstep_pair_box_and_conservation(ci, cj, lam):
    rest = 4.0 - ci - cj
    filler = min(rest, 2.0)
    out = _move([ci, cj, filler, rest - filler], 0, 1, lam)
    assert out[0] + out[1] == ci + cj
    assert 0.0 <= out[0] <= 2.0 and 0.0 <= out[1] <= 2.0


@settings(max_examples=200, deadline=None)
@given(ci=entry, cj=entry, lam1=unit, lam2=unit)
def test_mstep_monotone_in_lambda(ci, cj, lam1, lam2):
    lam1, lam2 = min(lam1, lam2), max(lam1, lam2)
    rest = 4.0 - ci - cj
    filler = min(rest, 2.0)
    c = [ci, cj, filler, rest - filler]
    low = _move(c, 0, 1, lam1)
    high = _move(c, 0, 1, lam2)
    assert low[0] <= high[0]
    assert low[1] >= high[1]


def test_stationary_sampler_exact_for_small_n(rng):
    c = msample_stationary(3, rng)
    assert isinstance(c, MatrixState)
    batch = msample_stationary_batch(3, rng, 20000)
    result = stats.kstest(batch[:, 0], lambda x: np.vectorize(exact_marginal_cdf)(3, x))
    assert result.pvalue > 0.01
    batch4 = msample_stationary_batch(4, rng, 20000)
    result4 = stats.kstest(batch4[:, 0], lambda x: np.vectorize(exact_marginal_cdf)(4, x))
    assert result4.pvalue > 0.01


@pytest.mark.parametrize("n", [3, 4, 11])
def test_stationary_batch_is_the_scalar_samples_stacked(n):
    # the batch checks its stack once, but draws what size scalar calls draw
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    batch = msample_stationary_batch(n, rng, 300)
    want = np.stack([msample_stationary(n, ref).c for _ in range(300)])
    assert np.array_equal(batch.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert msample_stationary_batch(n, rng, 0).shape == (0, n)


def _attempt_loop(n, rng, size, budget=10**6):
    """The rejection loop one attempt at a time: the reference the block
    sampler must draw the same bits as, and leave the stream where it does."""
    out = np.empty((size, n))
    for k in range(size):
        for _ in range(budget):
            c = rng.uniform(0.0, 2.0, n)
            c[-1] = n - c[:-1].sum()
            if 0.0 <= c[-1] <= 2.0:
                out[k] = c
                break
        else:
            raise RejectionBudgetExceeded(f"sample {k}")
    return out


@pytest.mark.parametrize("block_bytes", [1, 8 * 512 * 2, 1 << 20],
                         ids=["one-row-blocks", "small-blocks", "default"])
@pytest.mark.parametrize("n", [3, 4, 10, 32, 128, 512])
def test_block_sampler_draws_the_attempt_loop(monkeypatch, n, block_bytes):
    # blocks of attempts, with the unkept ones moved back over, give the
    # loop's samples bit for bit and leave the stream (with a kept 32-bit
    # half) where the loop leaves it, whatever the block size (two attempts
    # at n = 512 in the small blocks), single samples included
    monkeypatch.setattr(matrices, "_REJECTION_BLOCK_BYTES", block_bytes)
    rng, ref = np.random.default_rng([n, 1]), np.random.default_rng([n, 1])
    for g in (rng, ref):
        g.integers(0, 2**32, 1, dtype=np.uint32)
    for size in (1, 0, 7, 40):
        got = msample_stationary_batch(n, rng, size)
        want = _attempt_loop(n, ref, size)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(msample_stationary(n, rng).c, _attempt_loop(n, ref, 1)[0])
    assert rng.bit_generator.state == ref.bit_generator.state


def test_rejection_budget_counts_one_samples_run(monkeypatch):
    # the budget bounds the rejected attempts since the last acceptance, not
    # the attempts of a whole batch, and blocks never reach past it; the
    # sampler stops where the loop stops
    monkeypatch.setattr(matrices, "_REJECTION_BUDGET", 6)
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    # 20 samples at n = 3 take more than 6 attempts, but no 6 rejections in a row
    got = msample_stationary_batch(3, rng, 20)
    assert np.array_equal(got, _attempt_loop(3, ref, 20, budget=6))
    with pytest.raises(RejectionBudgetExceeded, match="no acceptance in 6 attempts at n = 50"):
        msample_stationary_batch(50, rng, 500)
    with pytest.raises(RejectionBudgetExceeded):
        _attempt_loop(50, ref, 500, budget=6)
    assert rng.bit_generator.state == ref.bit_generator.state


class _ScriptedUniform:
    """A generator stand-in whose uniform draws replay fixed rows: a (k, n)
    block of attempts starts with the rows not yet replayed, and its other
    rows, like the moves of the stream, come from a real generator."""

    def __init__(self, rows):
        self.rows = [np.array(r, dtype=float) for r in rows]
        self._rng = np.random.default_rng(0)
        self.bit_generator = self._rng.bit_generator

    def uniform(self, lo, hi, size):
        block = self._rng.uniform(lo, hi, size)
        head, self.rows = self.rows[:len(block)], self.rows[len(block):]
        block[:len(head)] = head
        return block


def test_stationary_batch_raises_the_scalar_state_checks():
    # an accepted draw with an entry outside [0, 2] (not reachable from a
    # real generator) fails the batch's one check as it fails MatrixState
    bad = [-0.5, 1.5, 1.0, 0.0]
    with pytest.raises(InvariantViolation, match="entry-range") as scalar:
        msample_stationary(4, _ScriptedUniform([bad]))
    with pytest.raises(InvariantViolation, match="entry-range") as batch:
        msample_stationary_batch(4, _ScriptedUniform([[1.0] * 4, bad]), 2)
    assert str(batch.value) == str(scalar.value)
    with pytest.raises(InvariantViolation, match="column-sum"):
        MatrixState(np.array([1.0, 1.0, 1.5]))


def test_stationary_sampler_budget(monkeypatch):
    monkeypatch.setattr(matrices, "_REJECTION_BUDGET", 1)
    with pytest.raises(RejectionBudgetExceeded):
        msample_stationary(50, np.random.default_rng(0))
    with pytest.raises(InvariantViolation):
        msample_stationary(2, np.random.default_rng(0))


def _identity_sides(cx, cy):
    """Both sides of the pair-gap difference identity by brute force: the
    sum over ordered pairs i != j of (delta - eps)^2, with delta = 2 - x_i -
    x_j and eps the same on y, and (n - 2) times the squared difference of
    both columns, 2 |x - y|^2."""
    n = len(cx)
    lhs = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            delta = 2.0 - cx[i] - cx[j]
            eps = 2.0 - cy[i] - cy[j]
            lhs += (delta - eps) ** 2
    diff = cx - cy
    return lhs, (n - 2) * 2.0 * float(diff @ diff)


def test_contraction_identity_hand_value():
    x = _state([1.1, 0.9, 1.0])
    y = _state([1.0, 1.0, 1.0])
    lhs, rhs = _identity_sides(x.c, y.c)
    assert lhs == pytest.approx(0.04, abs=1e-15)
    assert rhs == pytest.approx(0.04, abs=1e-15)
    assert abs(lhs - rhs) <= 1e-12
    assert identity_residual_batch(x.c[None], y.c[None])[0] <= 1e-12


def test_identity_residual_batch_matches_the_brute_force_sides(rng):
    # off the polytope the column sums differ and the identity fails by
    # 2 (sum of x - y)^2, so the vectorized residual is checked where it is
    # far from 0 as well as where it is 0
    for n in (3, 4, 7):
        off = rng.uniform(0.0, 2.0, (2, 50, n))
        on = [msample_stationary_batch(n, rng, 50) for _ in range(2)]
        for cx, cy in (off, on):
            want = [abs(lhs - rhs) for lhs, rhs in map(_identity_sides, cx, cy)]
            assert identity_residual_batch(cx, cy) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_identity_residual_tiles_keep_the_bits_and_bound_the_peak(rng, monkeypatch):
    # the whole-batch form is the reference: each row's sums must not
    # depend on how many rows share a tile
    def whole(cx, cy):
        d = cx - cy
        sq = (d[:, :, None] + d[:, None, :]) ** 2
        lhs = sq.sum(axis=(1, 2)) - np.einsum("bii->b", sq)
        return np.abs(lhs - (cx.shape[1] - 2) * 2.0 * (d**2).sum(axis=1))

    for n, B in ((3, 40), (10, 33), (32, 20), (100, 7)):
        cx, cy = rng.uniform(0.0, 2.0, (2, B, n))
        want = whole(cx, cy)
        for budget in (1, 8 * n * n * 3, 1 << 20):
            monkeypatch.setattr(matrices, "_RESIDUAL_TILE_BYTES", budget)
            assert np.array_equal(identity_residual_batch(cx, cy), want)
    monkeypatch.undo()
    # whole, n = 64 and 2000 pairs would hold two 65.5 MB (B, n, n) squares
    cx, cy = rng.uniform(0.0, 2.0, (2, 2000, 64))
    tracemalloc.start()
    try:
        identity_residual_batch(cx, cy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cx.nbytes + 3 * matrices._RESIDUAL_TILE_BYTES


def test_identity_residuals_on_random_pairs(rng):
    for n in (3, 10):
        cx = msample_stationary_batch(n, rng, 400)
        cy = msample_stationary_batch(n, rng, 400)
        assert identity_residual_batch(cx, cy).max() <= 1e-10


def test_contraction_experiment_quick():
    report = mcontraction_experiment(n=10, T=40, replicas=400, seed=2)
    assert report.ok
    for point in report.points:
        assert point.ratio <= point.bound + 4.0 * point.se
        assert point.bound == pytest.approx(1.0 - 2.0 / 30.0, abs=1e-15)


def test_monotone_domination_quick():
    report = monotone_couple_run(n=10, T=20000, replicas=4, seed=4)
    assert (report.steps, report.replicas) == (20000, 4)
    assert report.min_domination_gap >= -1e-12
    assert 0.0 <= report.min_entry_matrix <= report.max_entry_matrix <= 2.0


@pytest.mark.parametrize("tile", [6, 512])
@pytest.mark.parametrize(
    "n, T, replicas, seed", [(10, 3000, 4, 4), (3, 700, 1, 1), (25, 400, 7, 8), (5, 0, 3, 2)]
)
def test_monotone_run_matches_the_per_step_replay(monkeypatch, tile, n, T, replicas, seed):
    # the run moves both chains in dependency levels and reads only the
    # moved entries; one kernel call per step on every row of the store's
    # draws, with a pass over all entries after each step, must give every
    # tracked extreme exactly
    monkeypatch.setattr(pairops, "_LEVEL_TILE", tile)
    report = monotone_couple_run(n, T, replicas, seed)
    rngs = [replica_rng(seed, r) for r in range(replicas)]
    chain = matrix_chain(n)
    (c,), (a, b, _) = predraw(chain, rngs, T, "monotone", before=1)
    # the lambdas of the moves, drawn whole from fresh generators
    lam = np.empty((replicas, T))
    for r in range(replicas):
        rng = replica_rng(seed, r)
        chain.stationary(rng, 1)
        lam[r] = draw_moves(rng, T, n)[2]
    s = c / n
    gaps, mins_c, maxs_c, mins_s = [(c - s).min()], [c.min()], [c.max()], [s.min()]
    for t in range(T):
        mstep_batch(*pair_moves(c, a[:, t], b[:, t], lam[:, t]))
        step_batch(*pair_moves(s, a[:, t], b[:, t], lam[:, t]))
        gaps.append((c - s).min())
        mins_c.append(c.min())
        maxs_c.append(c.max())
        mins_s.append(s.min())
    assert (report.steps, report.replicas) == (T, replicas)
    assert report.min_domination_gap == min(gaps)
    assert report.min_entry_matrix == min(mins_c)
    assert report.max_entry_matrix == max(maxs_c)
    assert report.min_entry_simplex == min(mins_s)


@pytest.mark.parametrize("n, T, seed, want", [
    (10, 20000, 4, (2.8680881468623465e-05, 3.1167643287588476e-05, 1.9999767234026964,
                    2.196304295376539e-06)),
    (25, 4000, 8, (0.0004249909568042852, 0.0004447859786939623, 1.999786900005487,
                   1.9795021889677106e-05)),
])
def test_one_replica_monotone_run_keeps_the_single_run_report(n, T, seed, want):
    # the single run on stream [seed, 0] that moved one chain pair on
    # Python floats reported these; one replica draws the same stream
    report = monotone_couple_run(n, T, 1, seed)
    assert (report.min_domination_gap, report.min_entry_matrix, report.max_entry_matrix,
            report.min_entry_simplex) == want


def test_monotone_run_names_the_replica_that_loses_domination(monkeypatch):
    # a simplex kernel that pushes replica 2's moved entries above 2, past
    # every matrix entry, breaks the domination there
    n = 6

    def overshoot(flat, p, q, lam):
        step_batch(flat, p, q, lam)
        flat[p[p // n == 2]] = 3.0

    monkeypatch.setattr(matrices, "step_batch", overshoot)
    with pytest.raises(DominationViolated, match="in replica 2$"):
        monotone_couple_run(n, 50, 4, seed=0)


def test_batch_step_matches_scalar(rng):
    n = 6
    c = msample_stationary_batch(n, rng, 50)
    i = rng.integers(0, n, 50)
    raw = rng.integers(0, n - 1, 50)
    j = raw + (raw >= i)
    lam = rng.random(50)
    # each row against the pair split on that row's two values
    expected = c.copy()
    for k in range(50):
        coeffs = pair_alpha_beta(c[k, i[k]], c[k, j[k]])
        expected[k, i[k]], expected[k, j[k]] = split_pair(*coeffs, lam[k])
    mstep_batch(*pair_moves(c, i, j, lam))
    assert np.array_equal(c, expected)


@pytest.mark.parametrize("with_rows", [False, True])
def test_a_rows_call_moves_only_those_rows(rng, with_rows):
    # lam 0, 1/2 and 1 are among the moved rows
    n, B = 7, 40
    x = msample_stationary_batch(n, rng, B)
    i, j = draw_pairs(rng, B, n)
    lam = rng.random(B)
    lam[:3] = [0.0, 0.5, 1.0]
    rows = np.arange(B)
    if with_rows:
        rows = np.concatenate(([0, 1, 2], np.sort(rng.choice(rows[3:], 20, replace=False))))
    draws = (i[rows], j[rows], lam[rows])
    rows_arg = (rows,) if with_rows else ()
    before = x.copy()
    mstep_batch(*pair_moves(x, *draws, *rows_arg))
    # a rows call equals a plain call on those rows; the other rows stay
    sub = before[rows]
    mstep_batch(*pair_moves(sub, *draws))
    assert np.array_equal(x[rows], sub)
    still = np.setdiff1d(np.arange(B), rows)
    assert np.array_equal(x[still], before[still])
    # the pair sum is conserved exactly
    k = np.arange(rows.size)
    assert np.array_equal(sub[k, draws[0]] + sub[k, draws[1]],
                          before[rows, draws[0]] + before[rows, draws[1]])


def test_mstep_batch_rejects_non_contiguous_batch():
    c = np.ones((8, 6))[:, ::2]
    with pytest.raises(InvariantViolation):
        mstep_batch(*pair_moves(c, np.zeros(8, dtype=np.int64), np.ones(8, dtype=np.int64),
                                np.full(8, 0.5)))
    with pytest.raises(InvariantViolation):
        mstep_batch(*pair_moves(np.asfortranarray(np.ones((4, 3))), np.array([0]),
                                np.array([1]), np.array([0.5]), np.array([2])))
