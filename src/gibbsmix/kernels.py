"""Transition kernels on a finite group and their spectral summaries.

Three kernels are built from a group and a symmetric generator set R (|R| = m,
|G| = n):

* base walk: from z, each z*s (s in R) receives 2/(nm); hold 1 - 2/n.
  Uniform stationary measure. Its spectral gap is the quantity gamma_hat that
  every horizon recipe in this package is phrased in.
* edge walk: from z, each z*s receives 1/(nm); hold 1 - 1/n. Used by the
  spectral lower-bound experiments (it is the one-step conditional expectation
  of the simplex chain).
* comparison kernel: the kernel driving the one-step recursion of the
  cross-correlation statistics of two proportionally coupled simplex chains
  (see simplex.s_vector). Stationary measure (2, 1, ..., 1)/(n+1), reversible.

The recursion is written once, as the ordered array terms of
``s_recursion_terms`` (at most m + 4 of them, each on many rows at once), and
both readers walk those terms and their entries, never the rows:
``simplex.s_recursion_targets`` applies them to a vector, and
``comparison_kernel`` rescales them into its rows and inversion-symmetrizes
them: each off-diagonal coefficient is split half onto w and half onto
w^{-1}. Cross-correlation vectors are inversion-symmetric, so the action is
unchanged, and only the symmetrized representative satisfies detailed
balance as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonStochasticRow, NotReversible
from .groups import GeneratorSet, GroupTable
from .seeding import replica_rng

__all__ = [
    "TransitionKernel",
    "SpectralSummary",
    "ComparisonReport",
    "base_walk_kernel",
    "edge_walk_kernel",
    "s_recursion_terms",
    "comparison_kernel",
    "detailed_balance_residual",
    "symmetrization",
    "spectral_summary",
    "dirichlet_form_matrix",
    "verify_comparison",
]

_ROW_TOL = 1e-12
# spectral_summary requires detailed balance within this
_REVERSIBILITY_TOL = 1e-12


@dataclass(eq=False)
class TransitionKernel:
    """Row-stochastic matrix p with stationary measure pi."""

    n: int
    p: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        bad = np.abs(self.p.sum(axis=1) - 1.0)
        worst = int(bad.argmax())
        if bad[worst] > _ROW_TOL:
            raise NonStochasticRow(f"row {worst} sums to 1{bad[worst]:+.3e}")
        if self.p.min() < 0.0:
            raise NonStochasticRow("negative transition probability")


@dataclass
class SpectralSummary:
    eigenvalues: np.ndarray   # descending
    gap: float                # 1 - lambda_2


@dataclass
class ComparisonReport:
    min_dirichlet_ratio: float
    max_measure_ratio: float      # max over states of pi/pi_hat and pi_hat/pi
    gap: float                    # comparison kernel
    gap_hat: float                # base walk
    trials: int
    ok: bool
    # the comparison kernel and its spectrum, for callers that tabulate them
    kernel: TransitionKernel = field(repr=False, compare=False)
    spectrum: SpectralSummary = field(repr=False, compare=False)


def _walk_kernel(group: GroupTable, gens: GeneratorSet, mass: float) -> TransitionKernel:
    """From z, each z*s (s in R) receives ``mass``; z holds the rest."""
    n = group.n
    p = np.zeros((n, n))
    rows = np.arange(n)
    # z*s differs from z and for each s, so no cell is set twice
    p[rows[:, None], group.mul[:, list(gens.elements)]] = mass
    p[rows, rows] = 1.0 - p.sum(axis=1)
    return TransitionKernel(n=n, p=p, pi=np.full(n, 1.0 / n))


def base_walk_kernel(group: GroupTable, gens: GeneratorSet) -> TransitionKernel:
    return _walk_kernel(group, gens, 2.0 / (group.n * gens.m))


def edge_walk_kernel(group: GroupTable, gens: GeneratorSet) -> TransitionKernel:
    return _walk_kernel(group, gens, 1.0 / (group.n * gens.m))


def s_recursion_terms(group: GroupTable, gens: GeneratorSet) -> list:
    """The exact one-step recursion of the cross-correlation vector S of two
    proportionally coupled simplex chains (g, r, lam all uniform; see
    simplex.s_vector), as an ordered list of array terms (rows, coef, ws):
    row rows[k] gets coef[k] * (s[ws[0][k]] + s[ws[1][k]] + ...), each row
    adds its terms in list order, and no row appears twice in one term.

    In order: every row's own term; the identity row's generators; each
    generator row's identity term, then its h*h term (an involution h has
    none: h*h is the identity, whose coefficient takes it in); then one
    four-element term per generator r, on every row but the identity, r and
    r^{-1}. A four-element term never contains the identity.
    """
    n, m, e, mul, inv = group.n, gens.m, group.identity, group.mul, group.inv
    every, g = np.arange(n), np.array(gens.elements)
    own = np.full(n, 1.0 - 2.0 / n)
    own[g] = 1.0 - 2.0 / n + 2.0 / (3 * m * n)
    own[e] = 1.0 - 2.0 / (3 * n)
    squares = g[inv[g] != g]
    terms = [
        (every, own, (every,)),
        (np.array([e]), np.full(1, 4.0 / (3 * m * n)), tuple(g[:, None])),
        (g, np.full(m, 2.0 / (3 * m * n)), (np.full(m, e),)),
        (squares, np.full(squares.size, 2.0 / (m * n)), (mul[squares, squares],)),
    ]
    # the four-element terms are cut from whole arrays over (generator, row),
    # so that they are freed as a few large blocks, not thousands of small ones
    on = (every != e) & (every != g[:, None]) & (every != inv[g][:, None])
    counts, rows = on.sum(axis=1), np.flatnonzero(on) % n
    r, ri = np.repeat(g, counts), np.repeat(inv[g], counts)
    whole = (rows, np.full(rows.size, 1.0 / (2 * m * n)),
             mul[r, rows], mul[r, inv[rows]], mul[ri, rows], mul[ri, inv[rows]])
    pieces = zip(*(np.split(a, np.cumsum(counts)[:-1]) for a in whole))
    return terms + [(h, coef, tuple(ws)) for h, coef, *ws in pieces]


def comparison_kernel(group: GroupTable, gens: GeneratorSet) -> TransitionKernel:
    """Kernel of the rescaled cross-correlation recursion, reversible wrt
    pi = c / (n+1): with c = 2 at the identity and 1 elsewhere, row h holds
    the own coefficient of ``s_recursion_terms`` on the diagonal and every
    other coefficient times c[w] / c[h], in term and entry order, split half
    onto w and then half onto w^{-1}."""
    n = group.n
    c = 1.0 + (np.arange(n) == group.identity)
    (rows, own, _), *rest = s_recursion_terms(group, gens)
    p = np.zeros((n, n))
    p[rows, rows] = own
    for rows, coef, ws in rest:
        for w in ws:
            x = coef * c[w] / c[rows]
            wi = group.inv[w]
            split = wi != w
            x[split] *= 0.5
            p[rows, w] += x
            p[rows[split], wi[split]] += x[split]
    return TransitionKernel(n=n, p=p, pi=c / (n + 1))


def detailed_balance_residual(kernel: TransitionKernel) -> float:
    """max |pi_g p_gh - pi_h p_hg| over all pairs of states."""
    flux = kernel.pi[:, None] * kernel.p
    return float(np.abs(flux - flux.T).max())


def symmetrization(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """(A, d): A the symmetric part of D^{1/2} P D^{-1/2} with D = diag(pi),
    and d = sqrt(pi). Under detailed balance A has P's eigenvalues, and an
    eigenvector u of A gives P the right eigenvector u / d."""
    d = np.sqrt(kernel.pi)
    sym = (d[:, None] * kernel.p) / d[None, :]
    return 0.5 * (sym + sym.T), d


def spectral_summary(kernel: TransitionKernel) -> SpectralSummary:
    """Eigenvalues via the symmetrization D^{1/2} P D^{-1/2}; requires
    detailed balance within tolerance."""
    resid = detailed_balance_residual(kernel)
    if resid > _REVERSIBILITY_TOL:
        raise NotReversible(f"detailed balance residual {resid:.3e}")
    vals = np.linalg.eigvalsh(symmetrization(kernel)[0])
    vals = vals[::-1]
    return SpectralSummary(eigenvalues=vals, gap=float(1.0 - vals[1]))


def dirichlet_form_matrix(kernel: TransitionKernel) -> np.ndarray:
    """Matrix A with phi^T A phi = (1/2) sum pi_g p_gh (phi_g - phi_h)^2."""
    w = kernel.pi[:, None] * kernel.p
    sym = 0.5 * (w + w.T)
    d = 0.5 * (w.sum(axis=1) + w.sum(axis=0))
    return np.diag(d) - sym


def verify_comparison(
    group: GroupTable,
    gens: GeneratorSet,
    trials: int = 1000,
    seed: int = 0,
) -> ComparisonReport:
    """Check the Dirichlet-form and spectral-gap comparison between the
    comparison kernel and the base walk on random test functions, drawn
    from replica 0's stream of ``seed`` (``replica_rng``).

    Inequalities checked: E(phi) >= (1/4) E_hat(phi) on every sampled phi,
    both measure ratios <= 2, and gap >= gap_hat / 8; ``ok`` says whether
    all three hold.
    """
    comp = comparison_kernel(group, gens)
    base = base_walk_kernel(group, gens)
    a = dirichlet_form_matrix(comp)
    a_hat = dirichlet_form_matrix(base)
    rng = replica_rng(seed, 0)
    phis = rng.standard_normal((trials, group.n))
    num = np.einsum("bi,ij,bj->b", phis, a, phis)
    den = np.einsum("bi,ij,bj->b", phis, a_hat, phis)
    ratios = num / den
    min_ratio = float(ratios.min())
    max_measure = float(max((comp.pi / base.pi).max(), (base.pi / comp.pi).max()))
    spectrum = spectral_summary(comp)
    gap = spectrum.gap
    gap_hat = spectral_summary(base).gap
    ok = (
        min_ratio >= 0.25 - 1e-10
        and max_measure <= 2.0 + 1e-12
        and gap >= gap_hat / 8.0 - 1e-10
    )
    return ComparisonReport(
        min_dirichlet_ratio=min_ratio,
        max_measure_ratio=max_measure,
        gap=gap,
        gap_hat=gap_hat,
        trials=trials,
        ok=ok,
        kernel=comp,
        spectrum=spectrum,
    )
