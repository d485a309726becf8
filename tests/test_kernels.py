import hashlib
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsmix.errors import NonStochasticRow, NotReversible
from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube
from gibbsmix.kernels import (
    TransitionKernel,
    base_walk_kernel,
    comparison_kernel,
    dirichlet_form_matrix,
    edge_walk_kernel,
    spectral_summary,
    verify_comparison,
)
from gibbsmix.simplex import sample_stationary, s_recursion_targets, s_vector
from recursion_oracle import comparison_matrix, recursion_targets


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


def cycle_gap(n: int) -> float:
    """Base-walk gap on the n-cycle with generators {+1, -1}."""
    return (2.0 / n) * (1.0 - math.cos(2.0 * math.pi / n))


def complete_set_gap(n: int) -> float:
    """Base-walk gap on Z_n with the full non-identity generator set."""
    return 2.0 / (n - 1)


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
    a = dirichlet_form_matrix(kernel)
    phi = np.arange(group.n, dtype=float)
    base = phi @ a @ phi
    assert np.zeros(group.n) @ a @ np.zeros(group.n) == 0.0
    assert (2.0 * phi) @ a @ (2.0 * phi) == pytest.approx(4.0 * base, rel=1e-12)
    assert (phi + 7.0) @ a @ (phi + 7.0) == pytest.approx(base, rel=1e-12)


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


_RECURSION_GROUPS = {
    "cyclic:7-pm1": lambda: build_cyclic(7, [1, 6]),
    "cyclic:6-complete": lambda: build_cyclic(6, range(1, 6)),
    "cyclic:12-units": lambda: build_cyclic(12, [1, 5, 7, 11]),
    "hypercube:1": lambda: build_hypercube(1),
    "hypercube:3": lambda: build_hypercube(3),
    "dihedral:3": lambda: build_dihedral(3),
    "dihedral:5": lambda: build_dihedral(5),
}


@pytest.mark.parametrize("name", sorted(_RECURSION_GROUPS))
def test_comparison_kernel_is_the_s_recursion_kernel(name):
    # with c = 2 at the identity and 1 elsewhere, the S recursion's one-step
    # map is s -> c * (P (s / c)) for the comparison kernel P, on the
    # inversion-symmetric vectors that s_vector returns
    group, gens = _RECURSION_GROUPS[name]()
    p = comparison_kernel(group, gens).p
    c = np.ones(group.n)
    c[group.identity] = 2.0
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = s_vector(sample_stationary(group.n, rng), sample_stationary(group.n, rng), group).s
        assert np.abs(s[group.inv] - s).max() <= 1e-15 * s[group.identity]
        expected = s_recursion_targets(s, group, gens)
        assert np.abs(c * (p @ (s / c)) - expected).max() <= 1e-14 * s[group.identity]


# sha256 of comparison_kernel(...).p.tobytes() and of s_recursion_targets on
# the first s of test_comparison_kernel_is_the_s_recursion_kernel, taken when
# each function still wrote the recursion's cases out by hand
_RECURSION_BITS = {
    "cyclic:12-units": ("e293f24b20e17bb7210af712d5a650d111a42b6cebddbb38afa9e169cf913d78",
                        "1ed2dcd1a41b440fcc88f1645a091afe16e1cc59554f876c5c2add76e618b934"),
    "cyclic:6-complete": ("b51f4376a301814169320c7707b9b787129161bc8cf16289d465e0046e4377f4",
                          "013615b7f945839736ac300367f3eb9b053d955ed98b1b1a19fb4b3a3353c30c"),
    "cyclic:7-pm1": ("6624e0d2951eb9a9f62006f621468bc3ba16c8a53d47a9544bcc1340226d0248",
                     "583cab3528e56bd00727e7c26889bcb568eb7a246268491a567c6027f1112453"),
    "dihedral:3": ("349e071e582aa62345fde3b37805f4dc7e3c5f987e5469a32b28d62f4765d9e5",
                   "22ae4f3ff43de524f57aa58a548c576620e243435c0e7f33e0dd0e1f00c764ab"),
    "dihedral:5": ("ca12d6775904c65e298939b745318c1740bff90a839176ca529daea1391ed866",
                   "81ea092411b6c373c3186014f39a490053bfcd8b33248f1b6a441a1bc8dabcd0"),
    "hypercube:1": ("bca3bd6d6b8542b9a565f0e8f2baa3477e884062d953d0955cd457469e3d8248",
                    "1b5b01044cd1e5452f73b08894c5be0ea2eed5811425646f72f0065a57714a69"),
    "hypercube:3": ("638f3df114e4018b6df3debad20cbc79d608dfc5206e2c8b529849dc91c2991f",
                    "cf8d8558fe1b72dd0f568180360c8b1e3a4a4537675860fbdddd3b13943ecb23"),
}


@pytest.mark.parametrize("name", sorted(_RECURSION_GROUPS))
def test_s_recursion_bits_are_pinned(name):
    group, gens = _RECURSION_GROUPS[name]()
    rng = np.random.default_rng(11)
    s = s_vector(sample_stationary(group.n, rng), sample_stationary(group.n, rng), group).s
    digests = tuple(
        hashlib.sha256(v.tobytes()).hexdigest()
        for v in (comparison_kernel(group, gens).p, s_recursion_targets(s, group, gens))
    )
    assert digests == _RECURSION_BITS[name]


def _same_bits_as_the_row_loops(group, gens, seed):
    # the comparison kernel, and the targets of an S vector and of a vector
    # with no symmetry, against the recursion written one row at a time
    assert comparison_kernel(group, gens).p.tobytes() == comparison_matrix(group, gens).tobytes()
    rng = np.random.default_rng(seed)
    s = s_vector(sample_stationary(group.n, rng), sample_stationary(group.n, rng), group).s
    for v in (s, rng.standard_normal(group.n)):
        assert s_recursion_targets(v, group, gens).tobytes() == \
            recursion_targets(v, group, gens).tobytes()


@st.composite
def _recursion_groups(draw):
    family = draw(st.sampled_from(["cyclic", "dihedral", "hypercube"]))
    if family == "dihedral":
        return build_dihedral(draw(st.integers(3, 12)))
    if family == "hypercube":
        return build_hypercube(draw(st.integers(1, 5)))
    n = draw(st.integers(3, 40))
    gens = set(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=n - 1)))
    gens |= {n - g for g in gens}
    if reduce(math.gcd, gens, n) != 1:
        gens |= {1, n - 1}
    return build_cyclic(n, sorted(gens))


@settings(max_examples=60, deadline=None)
@given(groups=_recursion_groups(), seed=st.integers(0, 2**32 - 1))
def test_the_array_terms_keep_the_row_loops_bits(groups, seed):
    _same_bits_as_the_row_loops(*groups, seed)


@pytest.mark.parametrize("n, gens", [(256, range(1, 256)), (64, [1, 63])],
                         ids=["cyclic:256-complete", "cyclic:64-pm1"])
def test_the_array_terms_keep_the_row_loops_bits_on_larger_cycles(n, gens):
    _same_bits_as_the_row_loops(*build_cyclic(n, gens), seed=n)
