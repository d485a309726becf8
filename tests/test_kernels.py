import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsmix.errors import NonStochasticRow, NotReversible
from gibbsmix.groups import build_cyclic
from gibbsmix.kernels import (
    TransitionKernel,
    base_walk_kernel,
    comparison_kernel,
    complete_set_gap,
    cycle_gap,
    dirichlet_form,
    edge_walk_kernel,
    spectral_summary,
    verify_comparison,
)


def test_base_walk_row_cyclic4(z4):
    group, gens = z4
    kernel = base_walk_kernel(group, gens)
    assert kernel.p[0].tolist() == [0.5, 0.25, 0.0, 0.25]


def test_base_walk_row_cyclic5_complete():
    group, gens = build_cyclic(5, range(1, 5))
    kernel = base_walk_kernel(group, gens)
    row = kernel.p[0]
    assert abs(row[0] - 0.6) < 1e-15
    assert np.allclose(row[1:], 0.1, atol=1e-15)


def test_edge_walk_row_cyclic4(z4):
    group, gens = z4
    kernel = edge_walk_kernel(group, gens)
    assert kernel.p[0].tolist() == [0.75, 0.125, 0.0, 0.125]


def test_base_walk_is_half_lazy_from_four_elements():
    # diagonal 1 - 2/n with a 2/n jump part keeps eigenvalues >= 1 - 4/n
    for n in (4, 5, 6, 8, 12):
        group, gens = build_cyclic(n, [1, n - 1])
        eigs = spectral_summary(base_walk_kernel(group, gens)).eigenvalues
        assert eigs.min() >= 1.0 - 4.0 / n - 1e-12
        assert eigs.min() >= -1e-12


def test_cycle_gap_closed_form_small():
    for n in (4, 7, 16):
        group, gens = build_cyclic(n, [1, n - 1])
        gap = spectral_summary(base_walk_kernel(group, gens)).gap
        assert abs(gap - cycle_gap(n)) < 1e-10
        assert abs(cycle_gap(n) - (2.0 / n) * (1 - math.cos(2 * math.pi / n))) < 1e-15


def test_complete_set_gap_closed_form():
    n = 5
    group, gens = build_cyclic(n, range(1, n))
    gap = spectral_summary(base_walk_kernel(group, gens)).gap
    assert abs(gap - complete_set_gap(n)) < 1e-10
    assert complete_set_gap(n) == pytest.approx(2.0 / (n - 1), abs=1e-15)


def test_comparison_kernel_stationary_weights(z6):
    group, gens = z6
    kernel = comparison_kernel(group, gens)
    n = group.n
    expected = np.full(n, 1.0 / (n + 1))
    expected[group.identity] = 2.0 / (n + 1)
    assert np.allclose(kernel.pi, expected, atol=1e-15)
    assert np.allclose(kernel.p.sum(axis=1), 1.0, atol=1e-12)


def test_comparison_kernel_detailed_balance_exact(z6, dihedral3):
    for group, gens in (z6, dihedral3):
        kernel = comparison_kernel(group, gens)
        flow = kernel.pi[:, None] * kernel.p
        assert np.abs(flow - flow.T).max() == 0.0


def test_verify_comparison_ok(z6_complete, cube3):
    for group, gens in (z6_complete, cube3):
        report = verify_comparison(group, gens, trials=200, seed=1)
        assert report.ok
        assert report.min_dirichlet_ratio >= 0.25
        assert report.max_measure_ratio <= 2.0
        assert report.gap >= report.gap_hat / 8.0 - 1e-10


def test_dirichlet_form_scaling(z6):
    group, gens = z6
    kernel = base_walk_kernel(group, gens)
    phi = np.arange(group.n, dtype=float)
    base = dirichlet_form(kernel, phi)
    assert dirichlet_form(kernel, np.zeros(group.n)) == 0.0
    assert dirichlet_form(kernel, 2.0 * phi) == pytest.approx(4.0 * base, rel=1e-12)
    assert dirichlet_form(kernel, phi + 7.0) == pytest.approx(base, rel=1e-12)


def test_nonstochastic_row_rejected():
    p = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(NonStochasticRow):
        TransitionKernel(n=2, p=p, pi=np.array([0.5, 0.5]))


def test_spectral_summary_requires_reversibility():
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    kernel = TransitionKernel(n=3, p=p, pi=np.full(3, 1.0 / 3.0))
    with pytest.raises(NotReversible):
        spectral_summary(kernel)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 16))
def test_comparison_inequalities_on_cycles(n):
    group, gens = build_cyclic(n, [1, n - 1])
    kernel = comparison_kernel(group, gens)
    flow = kernel.pi[:, None] * kernel.p
    assert np.abs(flow - flow.T).max() <= 1e-15
    report = verify_comparison(group, gens, trials=50, seed=n)
    assert report.ok
    assert report.gap >= report.gap_hat / 8.0 - 1e-10
