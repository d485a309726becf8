"""Acceptance gate: one test per headline guarantee, at the stated
tolerances and sample sizes, each asserting its own wall-clock budget."""

import json
import math
import time

import numpy as np
from scipy import stats

import gibbsmix.harness as harness
from gibbsmix.coupling import (
    connectedness_experiment,
    run_nonmarkovian_coupling,
    s1_index,
    subset_couple_batch,
)
from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.harness import ExperimentConfig, run
from gibbsmix.kernels import (
    base_walk_kernel,
    comparison_kernel,
    spectral_summary,
    verify_comparison,
)
from gibbsmix.matrices import (
    coupon_collector_experiment,
    identity_residual_batch,
    matrix_chain,
    mcontraction_experiment,
    monotone_couple_run,
    msample_stationary_batch,
)
from gibbsmix.simplex import (
    check_s_recursion,
    lower_bound_experiment,
    sample_stationary,
    simplex_chain,
)

from test_kernels import cycle_gap


def _group_suite():
    suite = []
    for n in (6, 12, 24):
        suite.append(build_cyclic(n, [1, n - 1]))
        suite.append(build_cyclic(n, list(range(1, n))))
    for k in (2, 3, 4):
        suite.append(build_hypercube(k))
    for k in (3, 5):
        suite.append(build_dihedral(k))
    return suite


def test_01_comparison_kernel_detailed_balance_across_group_suite():
    t0 = time.monotonic()
    for group, gens in _group_suite():
        kernel = comparison_kernel(group, gens)
        flow = kernel.pi[:, None] * kernel.p
        residual = float(np.abs(flow - flow.T).max())
        assert residual <= 1e-12, f"n={group.n} m={gens.m}: residual {residual:.3e}"
        expected = np.full(group.n, 1.0 / (group.n + 1.0))
        expected[group.identity] = 2.0 / (group.n + 1.0)
        assert np.abs(kernel.pi - expected).max() <= 1e-14
    assert time.monotonic() - t0 < 5.0


def test_02_dirichlet_comparison_and_gap_bounds_across_group_suite():
    t0 = time.monotonic()
    for group, gens in _group_suite():
        report = verify_comparison(group, gens, trials=1000, seed=7)
        assert report.min_dirichlet_ratio >= 0.25 - 1e-10
        assert report.max_measure_ratio <= 2.0 + 1e-12
        assert report.gap >= report.gap_hat / 8.0 - 1e-10
    assert time.monotonic() - t0 < 30.0


def test_03_cycle_gap_closed_form_matches_eigensolver():
    t0 = time.monotonic()
    for n in range(4, 65):
        group, gens = build_cyclic(n, [1, n - 1])
        solved = spectral_summary(base_walk_kernel(group, gens)).gap
        assert abs(solved - cycle_gap(n)) <= 1e-10, f"n={n}"
    assert time.monotonic() - t0 < 10.0


def test_04_one_step_overlap_recursion_matches_monte_carlo():
    t0 = time.monotonic()
    cases = [build_cyclic(6, [1, 5]), build_dihedral(3)]
    for idx, (group, gens) in enumerate(cases):
        rng = np.random.default_rng(100 + idx)
        x = sample_stationary(group.n, rng)
        y = sample_stationary(group.n, rng)
        report = check_s_recursion(x, y, group, gens, samples=10**6, seed=200 + idx)
        assert report.max_deviation_se <= 4.0, (
            f"case {idx}: worst deviation {report.max_deviation_se:.2f} SE"
        )
    assert time.monotonic() - t0 < 120.0


def test_05_simplex_contraction_envelope_at_checkpoints(tmp_path):
    t0 = time.monotonic()
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "contract-simplex",
            "group": {"family": "cyclic", "n": 16, "gens": "complete"},
            "replicas": 1000,
            "seed": 5,
        }
    )
    out = tmp_path / "res"
    assert run(cfg, out_dir=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["ok"] is True
    assert len(manifest["summary"]["checkpoints"]) == 10
    assert time.monotonic() - t0 < 120.0


def test_06_matrix_identity_and_per_step_contraction():
    t0 = time.monotonic()
    for n in (3, 10, 50):
        rng = np.random.default_rng(n)
        cx = msample_stationary_batch(n, rng, 10**4)
        cy = msample_stationary_batch(n, rng, 10**4)
        worst = float(identity_residual_batch(cx, cy).max())
        assert worst <= 1e-10, f"n={n}: residual {worst:.3e}"
    for n in (10, 50):
        report = mcontraction_experiment(n, T=10 * n, replicas=2000, seed=n)
        assert report.ok, f"n={n}: some checkpoint ratio exceeds 1 - 2/(3n) + 4 SE"
    assert time.monotonic() - t0 < 120.0


def _centered_noise(rng, count, n, scale_max):
    u = rng.uniform(-1.0, 1.0, (count, n))
    u -= u.mean(axis=1, keepdims=True)
    amax = np.abs(u).max(axis=1)
    scale = rng.uniform(0.0, scale_max, count) / amax
    return u * scale[:, None]


def _subset_by_size(coeffs, X, Y, perms, sizes, rng):
    """Row r of X and Y takes one subset-coupled update of the pair
    (perms[r, 0], perms[r, k]) with S1 = perms[r, :k], k = sizes[r]: one
    batched call per block size, each row's first lambda drawn up front and
    every remainder draw on ``rng``. Returns (failures, lam_x, lam_y)."""
    lam_x = np.empty(len(X))
    lam_y = np.empty(len(X))
    failures = 0
    rngs = [rng] * len(X)
    for k in range(1, X.shape[1]):
        rows = np.flatnonzero(sizes == k)
        size = np.full(len(rows), k)
        s1 = (*s1_index(X.shape[1], rows, perms[rows, 0], perms[rows, :k].ravel(),
                        np.arange(len(rows)) * k, size), size)
        degenerate, ok, lam_x[rows], lam_y[rows] = subset_couple_batch(
            coeffs, X, Y, rows, perms[rows, 0], perms[rows, k], s1, rng.random(len(rows)), rngs,
        )
        assert not degenerate.any()
        failures += int(np.count_nonzero(~ok))
    return failures, lam_x, lam_y


def test_07_subset_coupling_uniform_marginals_and_failure_rates():
    t0 = time.monotonic()
    n, invocations = 16, 10**5
    rng = np.random.default_rng(77)

    # -------- simplex: entries >= n^-b, pair of states within n^-f ---------
    f_exp, b_exp = 6, 2
    floor_b, gap_f = n ** -b_exp, float(n) ** -f_exp
    states = np.empty((invocations, n))
    have = 0
    while have < invocations:
        e = rng.exponential(1.0, (4 * (invocations - have), n))
        batch = e / e.sum(axis=1, keepdims=True)
        keep = batch[batch.min(axis=1) >= floor_b + gap_f]
        take = min(len(keep), invocations - have)
        states[have:have + take] = keep[:take]
        have += take
    partners = states + _centered_noise(rng, invocations, n, gap_f)
    assert partners.min() >= floor_b
    assert np.abs(partners - states).max() <= gap_f

    perms = rng.permuted(np.tile(np.arange(n), (invocations, 1)), axis=1)
    sizes = rng.integers(1, n, invocations)
    simplex_coeffs = simplex_chain(*build_cyclic(n, [1, n - 1])).coeffs
    failures, lam_x, lam_y = _subset_by_size(simplex_coeffs, states, partners, perms, sizes, rng)
    bound = 3.0 * n ** (b_exp + 1 - f_exp)
    slack = 4.0 * math.sqrt(bound * (1.0 - bound) / invocations)
    rate = failures / invocations
    assert rate <= bound + slack, f"simplex failure rate {rate:.2e} > {bound + slack:.2e}"
    assert stats.kstest(lam_x, "uniform").pvalue > 0.01
    assert stats.kstest(lam_y, "uniform").pvalue > 0.01

    # -------- matrix: same protocol, plus a mixed-sign pair-gap batch ------
    a_exp = 6
    gap_a = float(n) ** -a_exp
    half = invocations // 2
    cx = np.empty((half, n))
    have = 0
    while have < half:
        batch = msample_stationary_batch(n, rng, (half - have) + (half - have) // 4 + 16)
        keep = batch[np.minimum(batch, 2.0 - batch).min(axis=1) >= floor_b + gap_a]
        take = min(len(keep), half - have)
        cx[have:have + take] = keep[:take]
        have += take
    cy = cx + _centered_noise(rng, half, n, gap_a)

    other = invocations - half
    zeta = rng.uniform(gap_a / 8.0, gap_a / 4.0, other)
    mixed_x = np.ones((other, n))
    mixed_y = np.ones((other, n))
    perms_m = rng.permuted(np.tile(np.arange(n), (invocations, 1)), axis=1)
    sizes_m = rng.integers(1, n, invocations)
    for r in range(other):
        i, j = perms_m[half + r, 0], perms_m[half + r, sizes_m[half + r]]
        mixed_x[r] -= 2.0 * zeta[r] / (n - 2)
        mixed_y[r] += 2.0 * zeta[r] / (n - 2)
        mixed_x[r, [i, j]] = 1.0 + zeta[r]
        mixed_y[r, [i, j]] = 1.0 - zeta[r]
    all_x = np.vstack([cx, mixed_x])
    all_y = np.vstack([cy, mixed_y])
    assert np.abs(all_x - all_y).max() <= gap_a

    matrix_coeffs = matrix_chain(n).coeffs
    failures, lam_x, lam_y = _subset_by_size(matrix_coeffs, all_x, all_y, perms_m, sizes_m, rng)
    bound = 4.0 * n ** (b_exp + 2 - a_exp)
    slack = 4.0 * math.sqrt(bound * (1.0 - bound) / invocations)
    rate = failures / invocations
    assert rate <= bound + slack, f"matrix failure rate {rate:.2e} > {bound + slack:.2e}"
    assert stats.kstest(lam_x, "uniform").pvalue > 0.01
    assert stats.kstest(lam_y, "uniform").pvalue > 0.01
    assert time.monotonic() - t0 < 120.0


def test_08_end_to_end_coupling_frequency_and_final_gap():
    t0 = time.monotonic()
    group, gens = build_cyclic(16, list(range(1, 16)))
    chain = simplex_chain(group, gens)
    t1, t2 = chain.horizons()
    assert (t1, t2) == (3970, 999)
    outcomes = run_nonmarkovian_coupling(chain, T1=t1, T2=t2, replicas=1000, seed=31)
    coupled = sum(o.coupled for o in outcomes)
    assert coupled >= 990, f"simplex coupled {coupled}/1000"
    assert all(o.max_final_gap <= 1e-8 for o in outcomes if o.coupled)

    chain = matrix_chain(16)
    t1, t2 = chain.horizons()
    assert (t1, t2) == (1557, 200)
    outcomes = run_nonmarkovian_coupling(chain, T1=t1, T2=t2, replicas=1000, seed=32)
    coupled = sum(o.coupled for o in outcomes)
    assert coupled >= 990, f"matrix coupled {coupled}/1000"
    assert all(o.max_final_gap <= 1e-8 for o in outcomes if o.coupled)
    assert time.monotonic() - t0 < 300.0


def test_09_monotone_domination_over_long_run():
    t0 = time.monotonic()
    # 10**6 moves, as 50 replicas of 1,000 sweeps each
    report = monotone_couple_run(20, 20_000, 50, seed=8)
    assert report.min_domination_gap >= -1e-12
    assert report.steps * report.replicas == 10**6
    assert time.monotonic() - t0 < 60.0


def test_10_lower_bound_slope_and_coupon_collector_tails():
    t0 = time.monotonic()
    group, gens = build_cyclic(8, [1, 7])
    report = lower_bound_experiment(group, gens, T=40, replicas=10**4, seed=12)
    assert report.slope_rel_error <= 0.05, f"slope off by {report.slope_rel_error:.1%}"
    assert report.stationary_second_moment <= report.stationary_bound
    for c in (0.0, 1.0):
        coupon = coupon_collector_experiment(200, c, replicas=10**4, seed=int(40 + c))
        assert coupon.abs_error <= 0.05, f"c={c}: off by {coupon.abs_error:.3f}"
    assert time.monotonic() - t0 < 180.0


def test_11_connectedness_tail_bound_and_small_case_law():
    t0 = time.monotonic()
    report = connectedness_experiment(matrix_chain(64), replicas=1000, seed=6, threshold=0.5)
    assert report.censored == 0
    assert report.tail_frequency <= report.bound, (
        f"tail {report.tail_frequency:.4f} > bound {report.bound:.4f}"
    )
    small = connectedness_experiment(matrix_chain(3), replicas=4000, seed=14)
    exact_law = harness.oracle("schedule-enumeration")
    for length in range(1, 7):
        exact = exact_law[f"P[tau<={length}]"]
        emp = float(np.mean(small.taus <= length))
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / 4000)
        assert abs(emp - exact) <= 3.0 * se + 1e-9, f"L={length}"
    assert time.monotonic() - t0 < 120.0
