import hashlib
import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbsmix.coupling import (
    CouplingOutcome,
    _connection_times,
    build_partition_process,
    closeness_check,
    connectedness_experiment,
    run_nonmarkovian_coupling,
    subset_couple_arrays,
)
from gibbsmix.errors import DegeneratePairMass, InvariantViolation
from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.matrices import MatrixState, msample_stationary, mstep_batch, pair_alpha_beta
from gibbsmix.pairops import split_pair, stacked_draws
from gibbsmix.seeding import draw_pairs, empty_moves, replica_rng
from gibbsmix.simplex import sample_stationary, sample_stationary_batch, step_batch


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


def test_subset_worked_example():
    x = np.array([0.2, 0.3, 0.5])
    y = np.array([0.25, 0.35, 0.4])
    ok, _, _ = subset_couple_arrays("simplex", x, y, np.array([0]), 0, 1,
                                    np.random.default_rng(0), lam_first=0.5)
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
    ok, _, _ = subset_couple_arrays("simplex", x, y, np.array([0]), 0, 1,
                                    np.random.default_rng(3), lam_first=0.5)
    assert not ok
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= x[0] <= 0.1


def test_subset_identical_states_always_succeed(rng):
    for _ in range(50):
        x = sample_stationary(5, rng).x
        y = x.copy()
        ok, _, _ = subset_couple_arrays("simplex", x, y, np.array([0, 2]), 0, 1, rng)
        assert ok
        assert np.array_equal(x, y)


def test_subset_degenerate_pair_mass():
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([0.3, 0.3, 0.4])
    with pytest.raises(DegeneratePairMass):
        subset_couple_arrays("simplex", x, y, np.array([0]), 0, 1, np.random.default_rng(0))


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
    ok, lam_x, lam_y = subset_couple_arrays(
        "matrix", xv, yv, np.array([0]), 0, 1, np.random.default_rng(0),
        lam_first=0.625,
    )
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
    ok2, lam_x2, lam_y2 = subset_couple_arrays(
        "matrix", xv2, yv2, np.array([0]), 0, 1, np.random.default_rng(0),
        lam_first=0.625,
    )
    assert ok2
    assert lam_y2 == 0.625
    assert lam_x2 != 0.625


def _assert_subset_writes_split_pair(kind, xv, yv, subset, i, j, rng, lam_first):
    # the scalar subset step must write exactly what the vectorized
    # split_pair gives at the lambdas it returns, and touch nothing else
    x0, y0 = xv.copy(), yv.copy()
    _, lam_x, lam_y = subset_couple_arrays(kind, xv, yv, subset, i, j, rng, lam_first)
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
def test_subset_scalar_arithmetic_matches_split_pair(kind, rng):
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
def test_subset_scalar_arithmetic_matrix_edge_cases(lam_first, rng):
    # dyadic entries, so the alpha ties below are exact
    # pair totals of exactly 2.0 on both sides: alpha tie, beta = 0, y first
    xv = np.array([1.0, 1.0, 1.25, 0.75, 1.0, 1.0])
    yv = np.array([0.5, 1.5, 1.0, 1.0, 1.125, 0.875])
    _, lam_y = _assert_subset_writes_split_pair(
        "matrix", xv, yv, np.array([0, 2]), 0, 1, rng, lam_first)
    assert lam_y == lam_first
    # alpha tie with pair totals 2.25 (x) and 1.75 (y): the x side draws first
    xv = np.array([1.25, 1.0, 0.75, 1.0, 1.0, 1.0])
    yv = np.array([0.75, 1.0, 1.25, 1.0, 1.0, 1.0])
    lam_x, _ = _assert_subset_writes_split_pair(
        "matrix", xv.copy(), yv.copy(), np.array([0]), 0, 1, rng, lam_first)
    assert lam_x == lam_first
    # mirrored: the y side has the total above 2 and draws first
    _, lam_y = _assert_subset_writes_split_pair(
        "matrix", yv, xv, np.array([0]), 0, 1, rng, lam_first)
    assert lam_y == lam_first


def test_subset_marginal_uniformity_quick(rng):
    lam_xs, lam_ys = [], []
    for _ in range(4000):
        x = sample_stationary(5, rng)
        y = sample_stationary(5, rng)
        xv, yv = x.x.copy(), y.x.copy()
        _, lam_x, lam_y = subset_couple_arrays(
            "simplex", xv, yv, np.array([0, 2]), 0, 1, rng
        )
        lam_xs.append(lam_x)
        lam_ys.append(lam_y)
    assert stats.kstest(lam_xs, "uniform").pvalue > 1e-3
    assert stats.kstest(lam_ys, "uniform").pvalue > 1e-3


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
            xy = sample_stationary_batch(6, rng, 2)
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
        "simplex", group=group, gens=gens, T1=5, T2=120, replicas=40, seed=9,
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
    result = run_nonmarkovian_coupling("matrix", n=8, T1=10, T2=4, replicas=25, seed=2)
    counts = _outcome_counts(result.outcomes)
    assert counts == {"NotConnected": 25}
    for o in result.outcomes:
        assert o.tau_connect is None and not o.coupled


def test_nonmarkovian_records_subset_failures():
    result = run_nonmarkovian_coupling("matrix", n=8, T1=2, T2=75, replicas=150, seed=21)
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
            "simplex", group=group, gens=gens, T1=50, T2=90, replicas=30, seed=13
        )
        for _ in range(2)
    ]
    records = [[asdict(o) for o in r.outcomes] for r in runs]
    assert records[0] == records[1]


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
        kind, group=group, gens=gens, n=n, T1=T1, T2=1, replicas=replicas,
        seed=17, keep_trace=True,
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
    kind, n, build = _TRACE_CHAINS[chain]
    group, gens = build() if build else (None, None)
    return [
        [asdict(o) for o in run_nonmarkovian_coupling(
            kind, group=group, gens=gens, n=n, T1=T1, T2=T2, replicas=replicas,
            seed=seed, keep_trace=keep,
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


def test_closeness_bound_holds_with_large_initial_gap():
    result = run_nonmarkovian_coupling(
        "matrix", n=8, T1=2, T2=75, replicas=40, seed=21, keep_trace=True
    )
    checked = 0
    for trace in result.traces:
        report = closeness_check(trace)
        assert report.ok
        assert report.max_blockwise_l1 <= report.initial_l1 + 1e-10
        checked += 1
    assert checked == 40


def test_connectedness_small_case_exact_law():
    report = connectedness_experiment("matrix", n=3, replicas=4000, seed=5)
    assert report.censored == 0
    for length in (2, 3, 4, 6):
        emp = float(np.mean(report.taus <= length))
        exact = 1.0 - (1.0 / 3.0) ** (length - 1)
        se = math.sqrt(exact * (1.0 - exact) / 4000)
        assert abs(emp - exact) <= 4.0 * se + 1e-9


def test_connectedness_thresholds():
    report = connectedness_experiment("matrix", n=32, replicas=300, seed=9, epsilon=0.5)
    assert report.threshold == pytest.approx((0.5 + 1.0) * 32 * math.log(32))
    assert report.bound == pytest.approx(2.0 * 32 ** -0.5)
    assert report.tail_frequency <= report.bound
    group, gens = build_cyclic(6, [1, 5])
    cayley = connectedness_experiment(
        "simplex", group=group, gens=gens, replicas=200, seed=3, C=1.0
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


@pytest.mark.parametrize("replicas", [1, 2, 3, 5, 6, 9])
@pytest.mark.parametrize("max_draws", [None, 4, 12])
def test_connectedness_matches_scan_of_full_schedules(replicas, max_draws):
    # replica counts off the kernel's tile, prefixes that do and do not
    # connect, and censoring, against a scan of each full pair draw
    group, gens = build_cyclic(6, [1, 5])
    for kwargs in ({"n": 5}, {"group": group, "gens": gens}):
        kind = "matrix" if "n" in kwargs else "simplex"
        report = connectedness_experiment(
            kind, replicas=replicas, seed=replicas, max_draws=max_draws, **kwargs
        )
        n = report.n
        full = max_draws or int(math.ceil(8.0 * n * math.log(n))) + 32
        want = []
        for b in range(replicas):
            left, right = draw_pairs(
                replica_rng(replicas, b), full, n, kwargs.get("group"), kwargs.get("gens")
            )
            tau, connected = _scan_connection_time(left, right, n)
            want.append(tau if connected else full + 1)
        assert report.taus.tolist() == want
        assert report.censored == sum(t > full for t in want)


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
    assert _sha(connectedness_experiment("matrix", **kwargs)) == pinned


def test_connectedness_pinned_cayley_outputs():
    group, gens = build_cyclic(6, [1, 5])
    report = connectedness_experiment(
        "simplex", group=group, gens=gens, replicas=200, seed=3, max_draws=5
    )
    assert _sha(report) == (
        187, "9cec4790d10a0c31c620d31f8a54dad4ae2e430e76d5997a312a9a50ace1e8da"
    )
    group, gens = build_cyclic(256, [1, 255])
    report = connectedness_experiment("simplex", group=group, gens=gens, replicas=200, seed=3)
    assert _sha(report) == (
        0, "c995a45f128fb7866bce5c8fcd54589c361fb2014ea7bc20d458805181336d89"
    )
    # these replicas do not connect within the n log n prefix and are redrawn
    assert int(np.sum(report.taus > math.ceil(256 * math.log(256)))) == 42
