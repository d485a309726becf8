import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbsmix import coupling, matrices, pairops, seeding, simplex
from gibbsmix.coupling import (
    CouplingOutcome,
    _connection_times,
    build_partition_process,
    closeness_check,
    connectedness_experiment,
    largeness_experiment,
    run_nonmarkovian_coupling,
    _remainder_sample,
    subset_couple_batch,
)
from gibbsmix.errors import ConfigError, DegeneratePairMass, InvariantViolation
from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.matrices import (
    MatrixState,
    matrix_chain,
    msample_stationary,
    msample_stationary_batch,
    mstep_batch,
    pair_alpha_beta,
    pair_alpha_beta_float,
)
from gibbsmix.pairops import split_pair, split_pair_float, stacked_draws
from gibbsmix.seeding import draw_pairs, empty_moves, replica_rng
from gibbsmix.simplex import sample_stationary, simplex_chain, step_batch

# each chain's pair coefficients, which depend on neither n nor the group
_COEFFS = {
    "simplex": simplex_chain(*build_cyclic(3, [1, 2])).coeffs,
    "matrix": matrix_chain(3).coeffs,
}


def _process(entries, n, t0=0):
    """The partition process of a schedule given as (i, j) rows."""
    entries = np.asarray(entries)
    return build_partition_process(entries[:, 0], entries[:, 1], n, t0)


def test_partition_process_needs_a_schedule():
    with pytest.raises(InvariantViolation) as err:
        build_partition_process(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3)
    assert err.value.axiom == "schedule-empty"


def test_partition_process_forced_example():
    proc = _process([[0, 1], [1, 2]], 3)
    assert proc.connected and proc.tau == 2
    assert [rec.t for rec in proc.merges] == [1, 0]
    assert proc.merges[0].s1 == (1,) and proc.merges[0].s2 == (2,)
    assert proc.merges[1].s1 == (0,) and proc.merges[1].s2 == (1, 2)
    # each merge's marked edge, from s1 to s2
    assert (proc.merges[0].i, proc.merges[0].j) == (1, 2)
    assert (proc.merges[1].i, proc.merges[1].j) == (0, 1)
    assert proc.partition_at(0) == [(0, 1, 2)]
    assert proc.partition_at(1) == [(0,), (1, 2)]
    assert proc.partition_at(2) == [(0,), (1,), (2,)]


def test_partition_untouched_coordinate_never_connects():
    proc = _process([[0, 1], [1, 3], [0, 3]], 5, t0=10)
    assert not proc.connected
    assert proc.tau == math.inf
    for t in range(10, 14):
        assert (2,) in proc.partition_at(t)
        assert (4,) in proc.partition_at(t)


def test_partition_single_pair():
    proc = _process([[1, 0]], 2)
    assert proc.connected and proc.tau == 1
    assert len(proc.merges) == 1
    assert proc.merges[0].s1 == (0,) and proc.merges[0].s2 == (1,)
    # drawn as (1, 0), recorded from s1 to s2
    assert (proc.merges[0].i, proc.merges[0].j) == (0, 1)


def _suffix_components(entries, t0, n, t):
    """Brute-force P_t: connected components of the suffix edges {s >= t},
    by min-label propagation until nothing changes."""
    label = list(range(n))
    edges = entries[max(0, t - t0):].tolist()
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    blocks = {}
    for k in range(n):
        blocks.setdefault(label[k], []).append(k)
    return sorted(tuple(v) for v in blocks.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partition_invariants_random_schedules(data):
    n = data.draw(st.integers(2, 32))
    length = data.draw(st.integers(1, 80))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, length)
    raw = rng.integers(0, n - 1, length)
    entries = np.stack([i, raw + (raw >= i)], axis=1)
    proc = build_partition_process(entries[:, 0], entries[:, 1], n, 5)
    # the scan reads the narrow rows of a draw store as it reads int64 ones
    left, right, _ = empty_moves(1, length, n)
    left[0], right[0] = entries[:, 0], entries[:, 1]
    assert left.dtype == np.uint8
    narrow = build_partition_process(left[0], right[0], n, 5)
    assert narrow.merges == proc.merges
    assert narrow.tau == proc.tau and narrow.connected == proc.connected

    previous = None
    for t in range(3, 5 + length + 2):
        part = proc.partition_at(t)
        assert part == _suffix_components(entries, 5, n, t)
        flat = sorted(x for block in part for x in block)
        assert flat == list(range(n))
        if previous is not None:
            # refinement going forward in time: every later block sits
            # inside an earlier one
            for block in part:
                assert any(set(block) <= set(b) for b in previous)
        previous = part

    merge_times = [rec.t for rec in proc.merges]
    assert merge_times == sorted(merge_times, reverse=True)
    assert len(set(merge_times)) == len(merge_times)
    for rec in proc.merges:
        assert len(rec.s1) <= len(rec.s2)
        if len(rec.s1) == len(rec.s2):
            assert min(rec.s1) < min(rec.s2)
        assert not (set(rec.s1) & set(rec.s2))
        merged = tuple(sorted(set(rec.s1) | set(rec.s2)))
        assert merged in proc.partition_at(rec.t)
        assert rec.s1 in proc.partition_at(rec.t + 1)
        assert rec.s2 in proc.partition_at(rec.t + 1)
        # the marked edge is the schedule's edge at t and crosses from s1 to s2
        assert {rec.i, rec.j} == set(entries[rec.t - 5].tolist())
        assert rec.i in rec.s1 and rec.j in rec.s2
    if proc.connected:
        t_star = proc.merges[-1].t
        assert proc.tau == 5 + length - t_star
        assert len(proc.partition_at(t_star)) == 1
        if t_star + 1 <= 5 + length:
            assert len(proc.partition_at(t_star + 1)) > 1


def _subset_oracle(kind, x, y, subset, i, j, rng, lam_first=None):
    """One subset-coupled update of the pair (i, j) of x and y, in place, on
    Python floats: the scalar step the batched one replaced, kept as its
    reference. Returns (succeeded, lam_x, lam_y); raises DegeneratePairMass
    where a pair mass is at most 1e-300."""
    if kind == "simplex":
        def coeffs(vi, vj):
            return vi + vj, vi + vj, 0.0
    else:
        coeffs = pair_alpha_beta_float
    xi, xj = float(x[i]), float(x[j])
    yi, yj = float(y[i]), float(y[j])
    sx, ax, bx = coeffs(xi, xj)
    sy, ay, by = coeffs(yi, yj)
    if ax <= 1e-300 or ay <= 1e-300:
        raise DegeneratePairMass(f"pair mass {min(ax, ay):.3e} at pair ({i}, {j})")

    others = subset[subset != i]
    c = (by - bx) + float(y[others].sum() - x[others].sum())
    x_first = ax > ay or (not ay > ax and sx > 2.0 and sy < 2.0)
    a1, a2, c = (ax, ay, -c) if x_first else (ay, ax, c)

    u = float(rng.random()) if lam_first is None else float(lam_first)
    z = (a1 * u + c) / a2
    succeeded = 0.0 <= z <= 1.0
    if not succeeded:
        lo = min(max(c / a2, 0.0), 1.0)
        hi = min(max((a1 + c) / a2, 0.0), 1.0)
        z = _remainder_sample(lo, hi, a2 / a1, rng)
    lam_x, lam_y = (u, z) if x_first else (z, u)

    x[i], x[j] = split_pair_float(sx, ax, bx, lam_x)
    y[i], y[j] = split_pair_float(sy, ay, by, lam_y)
    if succeeded:
        assert abs(float(x[subset].sum()) - float(y[subset].sum())) <= 1e-12
    return succeeded, lam_x, lam_y


def _subset_rows(kind, X, Y, blocks, i, j, u, rng):
    """The batched step on rows 0.. of X and Y, row k with the S1 block
    blocks[k], all remainder draws on ``rng``."""
    size = np.array([len(s) for s in blocks], dtype=np.int64)
    members = np.concatenate([np.asarray(s, dtype=np.int64) for s in blocks])
    rows = np.arange(len(blocks))
    return subset_couple_batch(
        _COEFFS[kind], X, Y, rows, np.asarray(i), np.asarray(j),
        (members, np.cumsum(size) - size, size), np.asarray(u, dtype=float), [rng] * len(X),
    )


def _subset_one(kind, x, y, subset, i, j, rng, lam_first=None):
    """The batched step on one row: x and y are updated in place. Returns
    (degenerate, ok, lam_x, lam_y) as scalars."""
    u = rng.random() if lam_first is None else lam_first
    out = _subset_rows(kind, x[None], y[None], [subset], [i], [j], [u], rng)
    return tuple(v[0] for v in out)


def test_subset_worked_example():
    x = np.array([0.2, 0.3, 0.5])
    y = np.array([0.25, 0.35, 0.4])
    _, ok, _, _ = _subset_one("simplex", x, y, [0], 0, 1, np.random.default_rng(0), 0.5)
    assert ok
    # lam_y = 0.5 gives lam_x = (0.6 * 0.5) / 0.5 = 0.6; both block weights 0.3
    assert x[0] == pytest.approx(0.3, abs=1e-15)
    assert y[0] == pytest.approx(0.3, abs=1e-15)
    assert x[2] == 0.5 and y[2] == 0.4


def test_subset_failure_branch():
    # the y side has pair mass 0.9 vs 0.1, so lam_first = 0.5 maps to 4.5,
    # far outside [0, 1]: the step fails and the x lambda comes from the
    # remainder density
    x = np.array([0.05, 0.05, 0.9])
    y = np.array([0.45, 0.45, 0.1])
    _, ok, _, _ = _subset_one("simplex", x, y, [0], 0, 1, np.random.default_rng(3), 0.5)
    assert not ok
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= x[0] <= 0.1


def test_subset_identical_states_always_succeed(rng):
    X = rng.dirichlet(np.ones(5), 50)
    Y = X.copy()
    degenerate, ok, _, _ = _subset_rows(
        "simplex", X, Y, [[0, 2]] * 50, [0] * 50, [1] * 50, rng.random(50), rng)
    assert ok.all() and not degenerate.any()
    assert np.array_equal(X, Y)


@pytest.mark.parametrize("kind", ["simplex", "matrix"])
def test_subset_degenerate_rows_make_no_draw_and_no_write(kind):
    # pair mass 0 on the x side of row 0 (total 0 on the simplex, 4 on the
    # matrix chain); row 1 is an ordinary row
    full = 0.0 if kind == "simplex" else 2.0
    X = np.array([[full, full, 1.0, 0.5], [0.2, 0.3, 0.5, 0.6]])
    Y = np.array([[0.3, 0.3, 0.4, 0.5], [0.25, 0.35, 0.4, 0.6]])
    X0, Y0 = X.copy(), Y.copy()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    degenerate, ok, lam_x, lam_y = _subset_rows(
        kind, X, Y, [[0], [0]], [0, 0], [1, 1], [0.5, 0.5], rng)
    assert degenerate.tolist() == [True, False]
    assert not ok[0] and np.isnan(lam_x[0]) and np.isnan(lam_y[0])
    assert np.array_equal(X[0], X0[0]) and np.array_equal(Y[0], Y0[0])
    assert not np.array_equal(X[1], X0[1])
    assert rng.bit_generator.state == state
    with pytest.raises(DegeneratePairMass):
        _subset_oracle(kind, X0[0], Y0[0], np.array([0]), 0, 1, rng)


def test_subset_matrix_mixed_signs_draw_side():
    # pair totals 2.25 and 1.75 straddle 2 with equal dyadic margins (an
    # exact coefficient tie): the side whose gap 2 - c[i] - c[j] is negative
    # draws first and consumes lam_first, the other lambda is solved for
    xv = np.ones(6)
    xv[0] += 0.25
    xv[2] -= 0.25
    yv = np.ones(6)
    yv[0] -= 0.25
    yv[2] += 0.25
    sx, ax, _ = pair_alpha_beta(xv[0], xv[1])
    sy, ay, _ = pair_alpha_beta(yv[0], yv[1])
    assert ax == ay and sx == 2.25 and sy == 1.75
    _, ok, lam_x, lam_y = _subset_one(
        "matrix", xv, yv, [0], 0, 1, np.random.default_rng(0), 0.625)
    assert ok
    assert lam_x == 0.625
    assert lam_y != 0.625
    assert np.isclose(xv.sum(), 6.0) and np.isclose(yv.sum(), 6.0)
    # mirrored margins: the y side now has the negative gap and draws first
    xv2 = np.ones(6)
    xv2[0] -= 0.25
    xv2[2] += 0.25
    yv2 = np.ones(6)
    yv2[0] += 0.25
    yv2[2] -= 0.25
    assert pair_alpha_beta(xv2[0], xv2[1])[1] == pair_alpha_beta(yv2[0], yv2[1])[1]
    _, ok2, lam_x2, lam_y2 = _subset_one(
        "matrix", xv2, yv2, [0], 0, 1, np.random.default_rng(0), 0.625)
    assert ok2
    assert lam_y2 == 0.625
    assert lam_x2 != 0.625


def _assert_subset_writes_split_pair(kind, xv, yv, subset, i, j, rng, lam_first):
    # the subset step must write exactly what the vectorized split_pair
    # gives at the lambdas it returns, and touch nothing else
    x0, y0 = xv.copy(), yv.copy()
    _, _, lam_x, lam_y = _subset_one(kind, xv, yv, subset, i, j, rng, lam_first)
    if lam_first is not None:
        assert lam_first in (lam_x, lam_y)
    for before, after, lam in ((x0, xv, lam_x), (y0, yv, lam_y)):
        if kind == "simplex":
            total = before[i] + before[j]
            want_i, want_j = split_pair(total, total, 0.0, lam)
        else:
            want_i, want_j = split_pair(*pair_alpha_beta(before[i], before[j]), lam)
        assert after[i] == want_i and after[j] == want_j
        assert after[i] + after[j] == before[i] + before[j]
        rest = np.ones(before.size, dtype=bool)
        rest[[i, j]] = False
        assert np.array_equal(after[rest], before[rest])
    return lam_x, lam_y


@pytest.mark.parametrize("kind", ["simplex", "matrix"])
def test_subset_arithmetic_matches_split_pair(kind, rng):
    n = 7
    sample = sample_stationary if kind == "simplex" else msample_stationary
    for k in range(400):
        xv = (sample(n, rng).x if kind == "simplex" else sample(n, rng).c).copy()
        yv = (sample(n, rng).x if kind == "simplex" else sample(n, rng).c).copy()
        i, j = rng.choice(n, 2, replace=False)
        others = [v for v in range(n) if v not in (i, j)]
        subset = np.sort(np.append(rng.choice(others, rng.integers(0, n - 1), replace=False), i))
        lam_first = (0.0, 0.5, 1.0, None)[k % 4]
        _assert_subset_writes_split_pair(kind, xv, yv, subset, int(i), int(j), rng, lam_first)


@pytest.mark.parametrize("lam_first", [0.0, 0.5, 1.0, 0.3])
def test_subset_arithmetic_matrix_edge_cases(lam_first, rng):
    # dyadic entries, so the alpha ties below are exact
    # pair totals of exactly 2.0 on both sides: alpha tie, beta = 0, y first
    xv = np.array([1.0, 1.0, 1.25, 0.75, 1.0, 1.0])
    yv = np.array([0.5, 1.5, 1.0, 1.0, 1.125, 0.875])
    _, lam_y = _assert_subset_writes_split_pair(
        "matrix", xv, yv, [0, 2], 0, 1, rng, lam_first)
    assert lam_y == lam_first
    # alpha tie with pair totals 2.25 (x) and 1.75 (y): the x side draws first
    xv = np.array([1.25, 1.0, 0.75, 1.0, 1.0, 1.0])
    yv = np.array([0.75, 1.0, 1.25, 1.0, 1.0, 1.0])
    lam_x, _ = _assert_subset_writes_split_pair(
        "matrix", xv.copy(), yv.copy(), [0], 0, 1, rng, lam_first)
    assert lam_x == lam_first
    # mirrored: the y side has the total above 2 and draws first
    _, lam_y = _assert_subset_writes_split_pair(
        "matrix", yv, xv, [0], 0, 1, rng, lam_first)
    assert lam_y == lam_first


def test_subset_marginal_uniformity_quick(rng):
    X = rng.dirichlet(np.ones(5), 4000)
    Y = rng.dirichlet(np.ones(5), 4000)
    _, _, lam_x, lam_y = _subset_rows(
        "simplex", X, Y, [[0, 2]] * 4000, [0] * 4000, [1] * 4000, rng.random(4000), rng)
    assert stats.kstest(lam_x, "uniform").pvalue > 1e-3
    assert stats.kstest(lam_y, "uniform").pvalue > 1e-3


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["simplex", "matrix"]),
    n=st.integers(3, 48),
    m=st.integers(1, 24),
    by_size=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_subset_batch_matches_the_scalar_oracle(kind, n, m, by_size, seed):
    # row by row, bit for bit: the writes, the outcome, both lambdas and the
    # remainder draws, all made on one shared generator so that their order
    # shows. Rows are close pairs (which mostly succeed), independent pairs
    # (which mostly fail) and degenerate pairs; |S1| runs up to n - 1 = 47,
    # past numpy's pairwise-sum threshold of 8
    rng = np.random.default_rng(seed)
    B = m + 3
    if kind == "simplex":
        X = rng.dirichlet(np.ones(n), B)
        Y = rng.dirichlet(np.ones(n), B)
    else:
        X = msample_stationary_batch(n, rng, B)
        Y = msample_stationary_batch(n, rng, B)
    rows = rng.choice(B, m, replace=False)
    close = rng.random(m) < 0.5
    Y[rows[close]] = X[rows[close]] + rng.uniform(-1e-9, 1e-9, (int(close.sum()), n))
    blocks, i, j = [], [], []
    for r in rows:
        perm = rng.permutation(n)
        k = int(rng.integers(1, n))
        blocks.append(np.sort(perm[:k]))
        i.append(int(perm[0]))
        j.append(int(perm[k]))
    degenerate = rng.random(m) < 0.15
    full = 0.0 if kind == "simplex" else 2.0
    for r, a, b, d in zip(rows, i, j, degenerate):
        if d:
            (X if rng.random() < 0.5 else Y)[r, [a, b]] = full
    u = rng.random(m)
    u[rng.random(m) < 0.1] = rng.choice([0.0, 0.5, 1.0])
    if by_size:
        order = np.argsort([len(s) for s in blocks], kind="stable")
        rows, blocks, i, j, u = (
            rows[order], [blocks[k] for k in order], np.asarray(i)[order],
            np.asarray(j)[order], u[order],
        )
        degenerate = degenerate[order]

    want_x, want_y = X.copy(), Y.copy()
    oracle_rng = np.random.default_rng(seed + 1)
    want = []
    for k, r in enumerate(rows):
        try:
            want.append(_subset_oracle(
                kind, want_x[r], want_y[r], blocks[k], i[k], j[k], oracle_rng, u[k]))
        except DegeneratePairMass:
            want.append(None)

    batch_rng = np.random.default_rng(seed + 1)
    size = np.array([len(s) for s in blocks], dtype=np.int64)
    got = subset_couple_batch(
        _COEFFS[kind], X, Y, rows, np.asarray(i), np.asarray(j),
        (np.concatenate(blocks), np.cumsum(size) - size, size), u, [batch_rng] * B,
    )
    assert np.array_equal(X, want_x) and np.array_equal(Y, want_y)
    assert got[0].tolist() == [w is None for w in want]
    for k, w in enumerate(want):
        if w is None:
            assert not got[1][k] and np.isnan(got[2][k]) and np.isnan(got[3][k])
        else:
            assert (bool(got[1][k]), float(got[2][k]), float(got[3][k])) == w
    assert batch_rng.bit_generator.state == oracle_rng.bit_generator.state


def _split_row(kind, row, i, j, lam):
    """The pair split on one row's own two values, written into the row."""
    if kind == "simplex":
        total = row[i] + row[j]
        coeffs = (total, total, 0.0)
    else:
        coeffs = pair_alpha_beta(row[i], row[j])
    row[i], row[j] = split_pair(*coeffs, lam)


def test_proportional_step_matches_scalar_moves(rng):
    # a stacked [x; y] batch move with shared draws equals the pair split on
    # each chain's own two values, bit for bit
    group, gens = build_cyclic(6, range(1, 6))
    for lam, kind in itertools.product([0.0, 0.5, 1.0, *rng.random(60)], ("simplex", "matrix")):
        if kind == "simplex":
            xy = rng.dirichlet(np.ones(6), 2)
            i = int(rng.integers(0, 6))
            j = int(group.mul[i, rng.choice(gens.elements)])
        else:
            xy = np.stack([msample_stationary(6, rng).c for _ in range(2)])
            i, j = rng.choice(6, 2, replace=False).tolist()
        expected = xy.copy()
        for row in expected:
            _split_row(kind, row, i, j, lam)
        batch = step_batch if kind == "simplex" else mstep_batch
        batch(xy, *stacked_draws(np.array([i]), np.array([j]), np.array([lam])))
        assert np.array_equal(xy, expected)


def test_proportional_matrix_pair_second_moment(rng):
    # matched-sign pair gaps: the expected squared two-column difference of
    # the updated pair is (4/3) (delta - epsilon)^2
    x = MatrixState(np.array([1.8, 1.2, 0.6, 0.4]))
    y = MatrixState(np.array([1.5, 1.1, 0.7, 0.7]))
    delta = x.c[0] + x.c[1] - 2.0
    eps = y.c[0] + y.c[1] - 2.0
    assert delta > 0 and eps > 0
    trials = 200_000
    lams = rng.random(trials)
    # one stacked batch move: row k of each half takes lams[k]
    xy = np.repeat(np.stack([x.c, y.c]), trials, axis=0)
    pair = np.zeros(trials, dtype=np.int64)
    mstep_batch(xy, *stacked_draws(pair, pair + 1, lams))
    diff = xy[:trials, :2] - xy[trials:, :2]
    mean = float((2.0 * (diff**2).sum(axis=1)).mean())
    target = (4.0 / 3.0) * (delta - eps) ** 2
    assert mean == pytest.approx(target, rel=0.02)


def _outcome_counts(outcomes):
    counts = {}
    for o in outcomes:
        key = o.failure_kind or "coupled"
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_nonmarkovian_identical_starts_always_couple():
    group, gens = build_cyclic(5, [1, 4])
    x0 = np.full(5, 0.2)
    result = run_nonmarkovian_coupling(
        simplex_chain(group, gens), T1=5, T2=120, replicas=40, seed=9,
        x0=x0, keep_trace=True,
    )
    for outcome, trace in zip(result.outcomes, result.traces):
        assert isinstance(outcome, CouplingOutcome)
        if outcome.coupled:
            assert outcome.max_final_gap <= 1e-8
        if outcome.failure_kind != "NotConnected":
            assert all(trace.subset_success)
    connected = [o for o in result.outcomes if o.failure_kind != "NotConnected"]
    assert all(o.coupled for o in connected)


def test_nonmarkovian_short_schedule_not_connected():
    result = run_nonmarkovian_coupling(matrix_chain(8), T1=10, T2=4, replicas=25, seed=2)
    counts = _outcome_counts(result.outcomes)
    assert counts == {"NotConnected": 25}
    for o in result.outcomes:
        assert o.tau_connect is None and not o.coupled


def test_nonmarkovian_records_subset_failures():
    result = run_nonmarkovian_coupling(matrix_chain(8), T1=2, T2=75, replicas=150, seed=21)
    counts = _outcome_counts(result.outcomes)
    assert counts.get("SubsetFailed", 0) > 0
    for o in result.outcomes:
        if o.failure_kind == "SubsetFailed":
            assert o.first_failure_time is not None
            assert 2 <= o.first_failure_time < 2 + 75


def test_nonmarkovian_deterministic():
    group, gens = build_cyclic(6, [1, 5])
    runs = [
        run_nonmarkovian_coupling(
            simplex_chain(group, gens), T1=50, T2=90, replicas=30, seed=13
        )
        for _ in range(2)
    ]
    records = [[asdict(o) for o in r.outcomes] for r in runs]
    assert records[0] == records[1]


@pytest.mark.parametrize("keep_trace", [False, True])
@pytest.mark.parametrize("build", [
    lambda: matrix_chain(8), lambda: simplex_chain(*build_cyclic(6, range(1, 6))),
], ids=["matrix:8", "cyclic:6-complete"])
def test_runner_makes_one_subset_call_per_marked_time(monkeypatch, build, keep_trace):
    # the runner reads the step through the module global, so this wrapper
    # sees every call; each call takes every replica marked at its time once
    chain = build()
    kwargs = dict(T1=20, T2=60, replicas=12, seed=5)
    traces = run_nonmarkovian_coupling(chain, keep_trace=True, **kwargs).traces
    merges = [rec for trace in traces for rec in trace.partition.merges]
    original = coupling.subset_couple_batch
    calls = []

    def counted(coeffs, X, Y, rows, *args):
        calls.append(np.asarray(rows).tolist())
        return original(coeffs, X, Y, rows, *args)

    monkeypatch.setattr(coupling, "subset_couple_batch", counted)
    result = run_nonmarkovian_coupling(chain, keep_trace=keep_trace, **kwargs)
    assert not any(o.failure_kind == "LargenessViolated" for o in result.outcomes)
    assert len(calls) == len({rec.t for rec in merges})
    assert sum(len(rows) for rows in calls) == len(merges)
    assert all(len(set(rows)) == len(rows) for rows in calls)


@pytest.mark.parametrize("module, name", [
    (matrices, "mstep_batch"),
    (matrices, "msample_stationary"),
    (simplex, "step_batch"),
    (simplex, "sample_stationary"),
])
def test_chain_calls_the_layer_bound_when_it_is_built(monkeypatch, module, name):
    # a layer rebound in its module before the chain is built is the one the
    # coupling runner and the largeness loop call, so wrappers that trace a
    # run from outside the package see every call
    original = getattr(module, name)
    calls = []

    def traced(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, traced)
    if module is matrices:
        chain = matrix_chain(8)
    else:
        chain = simplex_chain(*build_cyclic(6, [1, 5]))
    run_nonmarkovian_coupling(chain, T1=4, T2=30, replicas=3, seed=0)
    after_runner = len(calls)
    largeness_experiment(chain, window=5, replicas=3, seed=0)
    assert after_runner > 0 and len(calls) > after_runner


_PHASE1_CHAINS = {
    "matrix:3": ("matrix", 3, None),
    "matrix:5": ("matrix", 5, None),
    "matrix:17": ("matrix", 17, None),
    "cyclic:6": ("simplex", 6, lambda: build_cyclic(6, [1, 5])),
    "hypercube:1": ("simplex", 2, lambda: build_hypercube(1)),
    "hypercube:3": ("simplex", 8, lambda: build_hypercube(3)),
}


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("T1", [0, 1, 511, 512, 513])
@pytest.mark.parametrize("chain", sorted(_PHASE1_CHAINS))
def test_phase1_matches_a_per_step_loop(chain, T1, replicas):
    # the levelled phase 1 leaves X and Y where one kernel call per step
    # does, on draws rebuilt from each replica's stream in the documented
    # order: stationary Y, the phase-1 pair arrays, the phase-1 lambdas
    kind, n, build = _PHASE1_CHAINS[chain]
    group, gens = build() if build else (None, None)
    result = run_nonmarkovian_coupling(
        simplex_chain(group, gens) if build else matrix_chain(n), T1=T1, T2=1,
        replicas=replicas, seed=17, keep_trace=True,
    )
    for b, trace in enumerate(result.traces):
        rng = replica_rng(17, b)
        if kind == "matrix":
            y = msample_stationary(n, rng).c
            x = np.concatenate((np.full(n // 2, 2.0), [1.0] * (n % 2), np.zeros(n // 2)))
            a = rng.integers(0, n, T1)
            raw = rng.integers(0, n - 1, T1)
            pair_b = raw + (raw >= a)
            batch = mstep_batch
        else:
            y = sample_stationary(n, rng).x
            x = np.eye(n)[group.identity]
            a = rng.integers(0, n, T1)
            r = np.asarray(gens.elements)[rng.integers(0, gens.m, T1)]
            pair_b = group.mul[a, r]
            batch = step_batch
        lam = rng.random(T1)
        xy = np.stack([x, y])
        for t in range(T1):
            batch(xy, *stacked_draws(a[t:t + 1], pair_b[t:t + 1], lam[t:t + 1]))
        assert np.array_equal(trace.xs[0], xy[0])
        assert np.array_equal(trace.ys[0], xy[1])


_TRACE_CHAINS = {
    "matrix:3": ("matrix", 3, None),
    "matrix:8": ("matrix", 8, None),
    "matrix:40": ("matrix", 40, None),
    "cyclic:6-complete": ("simplex", 6, lambda: build_cyclic(6, range(1, 6))),
    "hypercube:3": ("simplex", 8, lambda: build_hypercube(3)),
    "dihedral:5": ("simplex", 10, lambda: build_dihedral(5)),
}


def _records_with_and_without_trace(chain, T1, T2, replicas, seed):
    _, n, build = _TRACE_CHAINS[chain]
    built = simplex_chain(*build()) if build else matrix_chain(n)
    return [
        [asdict(o) for o in run_nonmarkovian_coupling(
            built, T1=T1, T2=T2, replicas=replicas, seed=seed, keep_trace=keep,
        ).outcomes]
        for keep in (False, True)
    ]


@pytest.mark.parametrize("replicas", [1, 7])
@pytest.mark.parametrize("T1", [0, 1, 513])
@pytest.mark.parametrize("chain", sorted(_TRACE_CHAINS))
def test_keep_trace_does_not_change_outcomes(chain, T1, replicas):
    # keep_trace steps every phase-2 time, so it is the reference for the
    # levelled stretch before the earliest marked time
    n = _TRACE_CHAINS[chain][1]
    T2 = math.ceil(4 * n * max(math.log(n), 1.0))
    levelled, traced = _records_with_and_without_trace(chain, T1, T2, replicas, seed=3)
    assert levelled == traced


def test_keep_trace_does_not_change_a_largeness_abort():
    # from the default start half the matrix entries are 2, so a marked
    # step soon after T1 = 0 can meet a pair of total 4 and abort
    levelled, traced = _records_with_and_without_trace("matrix:8", 0, 20, 7, seed=0)
    assert levelled == traced
    kinds = {o["failure_kind"] for o in levelled}
    assert "LargenessViolated" in kinds and None in kinds


def test_runner_does_not_hold_the_phase1_lambdas(monkeypatch):
    # phase 1 reads its lambdas one level tile at a time, so the runner's
    # traced peak stays below the B * T1 * 8 bytes of a stored phase-1
    # lambda array; a runner that stores it peaks at about 1.7 times that
    # here. Levelling one tile per scan keeps the scan's own workspace
    # (about 6 bytes per step and replica levelled at once) from hiding
    # the store
    monkeypatch.setattr(pairops, "_LEVEL_BUDGET", 1)
    chain = matrix_chain(64)
    B, T1 = 100, 8000
    # a first run fills numpy's caches, which the traced run must not count
    run_nonmarkovian_coupling(chain, T1=3, T2=30, replicas=2, seed=0)
    tracemalloc.start()
    try:
        run_nonmarkovian_coupling(chain, T1=T1, T2=30, replicas=B, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B * T1 * 8


def test_keep_trace_counts_toward_the_memory_guard(monkeypatch):
    # the pair arrays of both phases and the phase-2 lambdas, then the
    # 2 B (T2 + 1) n floats of the trace
    B, T1, T2, n = 3, 10, 20, 8
    need = B * T1 * 2 + B * T2 * 10 + 2 * B * (T2 + 1) * n * 8
    kwargs = dict(T1=T1, T2=T2, replicas=B, seed=1)
    monkeypatch.setattr(seeding, "available_memory", lambda: need - 1)
    run_nonmarkovian_coupling(matrix_chain(n), **kwargs)
    with pytest.raises(ConfigError, match=f"pre-draw {need:,} bytes"):
        run_nonmarkovian_coupling(matrix_chain(n), keep_trace=True, **kwargs)
    monkeypatch.setattr(seeding, "available_memory", lambda: need)
    run_nonmarkovian_coupling(matrix_chain(n), keep_trace=True, **kwargs)


_PINNED_FAILURES = {
    # sha256 of the outcome records as sorted-key JSON, and the failure
    # kinds they hold, from the runner that made one scalar subset call per
    # marked replica
    "matrix-n16-subset": (
        lambda: matrix_chain(16), dict(T1=0, T2=192, replicas=200, seed=0),
        {None: 185, "SubsetFailed": 15},
        "8515a914936736e74562a930d8564b563dc021e72ba6fe8220bb0f7850c20468",
    ),
    "cyclic8-complete-subset": (
        lambda: simplex_chain(*build_cyclic(8, range(1, 8))),
        dict(T1=0, T2=96, replicas=200, seed=0),
        {None: 189, "SubsetFailed": 11},
        "0b8fba288047a5b884259904b2dbb1a72704b5ffbf35e6f8c4b51d9bd07f9ed0",
    ),
    "matrix-n8-largeness": (
        lambda: matrix_chain(8), dict(T1=0, T2=20, replicas=7, seed=0),
        {None: 1, "SubsetFailed": 4, "LargenessViolated": 1, "NotConnected": 1},
        "e45cba05da760e39a7fe55a8abfaeaa04ecd489da5b49bca1628980c9ff70612",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED_FAILURES))
def test_coupling_failure_paths_pinned(case):
    # the golden and benchmark runs have no failed replica; these pin the
    # subset-failure remainder draws and the largeness abort
    build, kwargs, kinds, digest = _PINNED_FAILURES[case]
    records = [asdict(o) for o in run_nonmarkovian_coupling(build(), **kwargs).outcomes]
    counts = {}
    for r in records:
        counts[r["failure_kind"]] = counts.get(r["failure_kind"], 0) + 1
    assert counts == kinds
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == digest


def test_closeness_bound_holds_with_large_initial_gap():
    result = run_nonmarkovian_coupling(
        matrix_chain(8), T1=2, T2=75, replicas=40, seed=21, keep_trace=True
    )
    checked = 0
    for trace in result.traces:
        report = closeness_check(trace)
        assert report.ok
        assert report.max_blockwise_l1 <= report.initial_l1 + 1e-10
        checked += 1
    assert checked == 40


def test_connectedness_small_case_exact_law():
    report = connectedness_experiment(matrix_chain(3), replicas=4000, seed=5)
    assert report.censored == 0
    for length in (2, 3, 4, 6):
        emp = float(np.mean(report.taus <= length))
        exact = 1.0 - (1.0 / 3.0) ** (length - 1)
        se = math.sqrt(exact * (1.0 - exact) / 4000)
        assert abs(emp - exact) <= 4.0 * se + 1e-9


def test_connectedness_thresholds():
    report = connectedness_experiment(matrix_chain(32), replicas=300, seed=9, threshold=0.5)
    assert report.threshold == pytest.approx((0.5 + 1.0) * 32 * math.log(32))
    assert report.bound == pytest.approx(2.0 * 32 ** -0.5)
    assert report.tail_frequency <= report.bound
    group, gens = build_cyclic(6, [1, 5])
    cayley = connectedness_experiment(
        simplex_chain(group, gens), replicas=200, seed=3, threshold=1.0
    )
    assert cayley.bound == pytest.approx(2.0 / 6.0)
    assert cayley.tail_frequency <= cayley.bound


def _scan_connection_time(left, right, n):
    # forward scan with its own union-find: (1 + index of the last merging
    # edge, or 0 without one; whether the edges connect all n coordinates)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tau, components = 0, n
    for k, (a, b) in enumerate(zip(left, right)):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
            tau, components = k + 1, components - 1
            if components == 1:
                break
    return tau, components == 1


def _assert_kernel_matches_scan(left, right, n):
    tau, connected = _connection_times(left, right, n)
    want = [_scan_connection_time(a, b, n) for a, b in zip(left, right)]
    assert tau.tolist() == [t for t, _ in want]
    assert connected.tolist() == [c for _, c in want]
    return connected


def test_connection_kernel_every_short_schedule_n3():
    pairs = np.array([(a, b) for a in range(3) for b in range(3) if a != b])
    for length in range(1, 6):
        seqs = pairs[np.stack(np.unravel_index(np.arange(6 ** length), (6,) * length), 1)]
        connected = _assert_kernel_matches_scan(seqs[..., 0], seqs[..., 1], 3)
    # disconnected: all five draws on one of the 3 edges, in either direction
    assert len(connected) == 6 ** 5 and connected.sum() == 6 ** 5 - 3 * 2 ** 5
    empty = np.zeros((3, 0), dtype=np.int64)
    assert _connection_times(empty, empty, 3)[0].tolist() == [0, 0, 0]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 40),
    rows=st.integers(1, 9),
    scale=st.floats(0.0, 3.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_connection_kernel_matches_scan_random_schedules(n, rows, scale, seed):
    # lengths from 0 to 3 n log n: below and above connection
    rng = np.random.default_rng(seed)
    length = int(scale * n * max(math.log(n), 1.0))
    left = rng.integers(0, n, (rows, length))
    right = (left + rng.integers(1, n, (rows, length))) % n
    _assert_kernel_matches_scan(left, right, n)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_connection_kernel_matches_scan_sparse_schedules(data):
    # sparse Cayley schedules: cycle edges g -> g +- 1 mod n, or 2-3 steps
    # that need not generate Z_n. About half the rows have several
    # components at the last first appearance m and finish on the scan of
    # the later edges that join two components of the prefix 0..m
    n = data.draw(st.integers(3, 40))
    if data.draw(st.booleans()):
        steps = [1, n - 1]
    else:
        steps = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=3))
    rows = data.draw(st.integers(1, 9))
    length = int(data.draw(st.floats(0.0, 4.0)) * n * math.log(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    left = rng.integers(0, n, (rows, length))
    right = (left + rng.choice(steps, (rows, length))) % n
    # coordinate n - 1 never appears: its edges become edges 0 -> 1
    touches = (left[0] == n - 1) | (right[0] == n - 1)
    left[0, touches], right[0, touches] = 0, 1
    # the path 0 - 1 - ... - (n - 1) in order, then the schedule: n - 1
    # first appears at m = n - 2, where the row connects
    path = np.arange(n - 1)
    left = np.vstack([left, np.concatenate([path, left[-1]])[:length]])
    right = np.vstack([right, np.concatenate([path + 1, right[-1]])[:length]])
    connected = _assert_kernel_matches_scan(left, right, n)
    assert not connected[0]
    if length >= n - 1:
        assert connected[-1]
        assert _connection_times(left[-1:], right[-1:], n)[0][0] == n - 1


def test_connection_kernel_peak_memory():
    # one tile of the connect-n512 prefix (L = 3,194 at n = 512): the
    # kernel holds a few (B, L) int32 arrays at a time, never a temporary
    # the size of the B * n nodes times L
    n, B = 512, coupling._CONNECT_TILE
    L = math.ceil(n * math.log(n))
    left, right = seeding.empty_pairs(B, L, n)
    for b in range(B):
        left[b], right[b] = draw_pairs(replica_rng(1, b), L, n)
    # a first call fills numpy's caches, which the traced call must not count
    _connection_times(left, right, n)
    tracemalloc.start()
    try:
        _connection_times(left, right, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * B * L * np.dtype(np.int32).itemsize


@pytest.mark.parametrize("replicas", [1, 2, 3, 5, 6, 9])
@pytest.mark.parametrize("max_draws", [None, 4, 12])
def test_connectedness_matches_scan_of_full_schedules(replicas, max_draws):
    # replica counts off the kernel's tile, prefixes that do and do not
    # connect, and censoring, against a scan of each full pair draw
    group, gens = build_cyclic(6, [1, 5])
    for chain in (matrix_chain(5), simplex_chain(group, gens)):
        report = connectedness_experiment(
            chain, replicas=replicas, seed=replicas, max_draws=max_draws
        )
        n = report.n
        full = max_draws or int(math.ceil(8.0 * n * math.log(n))) + 32
        want = []
        for b in range(replicas):
            left, right = draw_pairs(
                replica_rng(replicas, b), full, n, chain.group, chain.gens
            )
            tau, connected = _scan_connection_time(left, right, n)
            want.append(tau if connected else full + 1)
        assert report.taus.tolist() == want
        assert report.censored == sum(t > full for t in want)


def _matrix_connect(n, **kwargs):
    return connectedness_experiment(matrix_chain(n), **kwargs)


def _sha(report):
    return report.censored, hashlib.sha256(report.taus.tobytes()).hexdigest()


_PINNED_CONNECT = {
    # censored count and sha256 of taus.tobytes(), from the per-edge
    # union-find scan the batched kernel replaced
    "matrix-n2": (
        dict(n=2, replicas=7, seed=0),
        (0, "e06f05efa38d3061a75c1efdfc403efaaf9be30844e398071a026d4c96081e31"),
    ),
    "matrix-n3": (
        dict(n=3, replicas=4000, seed=5),
        (0, "3b8e8688dd0ab244f8ffdca618854766bd2ce954f82347025fc83838da0f3a2a"),
    ),
    "matrix-n3-max3": (
        dict(n=3, replicas=200, seed=2, max_draws=3),
        (26, "865ea8b52c1848d5f357822e485bea66d0df5859609745eabe3c73deec466c1e"),
    ),
    "matrix-n40-max60": (
        dict(n=40, replicas=9, seed=0, max_draws=60),
        (7, "1798fd2b344305027384e74611b017a5dce9ab70d0aa9df9f7764dac33d9ce92"),
    ),
    "matrix-n64-r1": (
        dict(n=64, replicas=1, seed=0),
        (0, "d7f85ce92696608bc16221decdb30e13b25166f6c810d1fd093b0bb64fc4451d"),
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED_CONNECT))
def test_connectedness_pinned_matrix_outputs(case):
    kwargs, pinned = _PINNED_CONNECT[case]
    assert _sha(_matrix_connect(**kwargs)) == pinned


def test_connectedness_pinned_cayley_outputs():
    group, gens = build_cyclic(6, [1, 5])
    report = connectedness_experiment(
        simplex_chain(group, gens), replicas=200, seed=3, max_draws=5
    )
    assert _sha(report) == (
        187, "9cec4790d10a0c31c620d31f8a54dad4ae2e430e76d5997a312a9a50ace1e8da"
    )
    group, gens = build_cyclic(256, [1, 255])
    report = connectedness_experiment(simplex_chain(group, gens), replicas=200, seed=3)
    assert _sha(report) == (
        0, "c995a45f128fb7866bce5c8fcd54589c361fb2014ea7bc20d458805181336d89"
    )
    # these replicas do not connect within the n log n prefix and are redrawn
    assert int(np.sum(report.taus > math.ceil(256 * math.log(256)))) == 42
