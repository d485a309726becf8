"""Configuration-driven experiment runner: config -> experiment call -> tables.

A single strict JSON document drives every experiment; a field or threshold
that the experiment does not read (``_READS``) is an error. The simulations live beside their chains; a runner only calls one.
Each run writes a manifest (status "running") before any results, the
artifacts, and then the final manifest (status "complete"), so interrupted
runs leave a detectable partial marker. All randomness flows through
per-replica streams derived as SeedSequence([seed, replica]); identical
config + seed reproduces identical artifact bytes.

Exit codes by error family (errors.py): 0 success, 1 a ``ConfigError`` or
``GroupError``, 2 any other package error or any other exception. The group
and kernel builders and the oracles' ``fractions`` are imported by the
functions that call them, so a matrix-chain run never loads them.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import AssertionFailure, ConfigError, GibbsmixError, GroupError
from .coupling import (
    CouplingOutcome,
    connectedness_experiment,
    largeness_experiment,
    run_nonmarkovian_coupling,
)
from .matrices import (
    MContractionPoint,
    coupon_collector_experiment,
    identity_residual_batch,
    matrix_chain,
    mcontraction_experiment,
    msample_stationary_batch,
)
from .pairops import Chain
from .seeding import check_draw_memory, replica_rng, replica_seed_words
from .simplex import (
    ContractionPoint,
    LowerBoundPoint,
    check_s_recursion,
    contraction_experiment,
    lower_bound_experiment,
    sample_stationary,
    simplex_chain,
)

__all__ = [
    "EXPERIMENTS",
    "THRESHOLD_KEYS",
    "ORACLE_SUITES",
    "ExperimentConfig",
    "RunManifest",
    "resolve_group",
    "irwin_hall_cdf",
    "exact_acceptance_rate",
    "exact_marginal_cdf",
    "oracle",
    "run",
]

# what each experiment reads besides seed and output: one list of names per
# chain field it runs on, that field first ('n' the matrix chain, 'group' the
# simplex chain; the oracle runs on neither), and at most one threshold
_READS = {
    "gap": ["group"],
    "compare": ["group replicas"],
    "s-recursion": ["group replicas"],
    "contract-simplex": ["group T replicas"],
    "contract-matrix": ["n T replicas"],
    "identity-matrix": ["n replicas"],
    "couple-simplex": ["group T1 T2 replicas"],
    "couple-matrix": ["n T1 T2 replicas"],
    "connect": ["n replicas thresholds.epsilon", "group replicas thresholds.C"],
    "largeness": ["n T replicas thresholds.k", "group T replicas thresholds.d"],
    "lowerbound-simplex": ["group T replicas thresholds.d"],
    "lowerbound-matrix": ["n replicas thresholds.c"],
    "oracle": ["suite"],
}
_READ_FIELDS = ("group", "n", "T", "T1", "T2", "replicas", "suite")
THRESHOLD_KEYS = frozenset(
    name.removeprefix("thresholds.") for reads in _READS.values() for names in reads
    for name in names.split() if name.startswith("thresholds.")
)

# each group family and the field that sizes it
_GROUP_FAMILIES = {"cyclic": "n", "hypercube": "k", "dihedral": "k", "file": "path"}
_GROUP_KEYS = {"family", "gens", *_GROUP_FAMILIES.values()}
_OUTPUT_KEYS = {"path", "format"}
_FORMATS = {"csv", "jsonl"}

_IDENTITY_TOL = 1e-10
_SEED_LIMIT = 2**64


# ---------------------------------------------------------------------------
# configuration


def _reject_unknown(what: str, given, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} {sorted(unknown)}; allowed: {sorted(allowed)}")


def _require_int(value, name: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass
class ExperimentConfig:
    experiment: str
    group: Optional[dict] = None
    n: Optional[int] = None
    T: Optional[int] = None
    T1: Optional[int] = None
    T2: Optional[int] = None
    replicas: Optional[int] = None
    seed: int = 0
    thresholds: dict = field(default_factory=dict)
    output: Optional[dict] = None
    suite: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        _require_int(self.seed, "seed", 0)
        if self.seed >= _SEED_LIMIT:
            raise ConfigError(f"seed must be < 2**64, got {self.seed}")
        if self.n is not None:
            _require_int(self.n, "n", 3)
        for name in ("T", "T1", "T2"):
            value = getattr(self, name)
            if value is not None:
                _require_int(value, name, 0)
        if self.replicas is not None:
            _require_int(self.replicas, "replicas", 1)
        if not isinstance(self.thresholds, dict):
            raise ConfigError("thresholds must be an object")
        given = {name for name in _READ_FIELDS if getattr(self, name) is not None}
        given |= {f"thresholds.{key}" for key in self.thresholds}
        reads = _READS[self.experiment]
        if not any(given <= set(names.split()) for names in reads):
            options = " or ".join("{" + names.replace(" ", ", ") + "}" for names in reads)
            raise ConfigError(f"{self.experiment} reads {options} besides seed and output; "
                              f"got {sorted(given)}")
        for key, value in self.thresholds.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"threshold {key} must be a number, got {value!r}")
            # false for NaN, for +-inf and for an int beyond the float range
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(f"threshold {key} must be finite, got {value!r}")
        if self.group is not None:
            if not isinstance(self.group, dict):
                raise ConfigError("group must be an object")
            _reject_unknown("group fields", self.group, _GROUP_KEYS)
            family = self.group.get("family")
            if family not in _GROUP_FAMILIES:
                raise ConfigError(
                    f"group.family must be one of {sorted(_GROUP_FAMILIES)}, got {family!r}"
                )
        if self.output is not None:
            if not isinstance(self.output, dict):
                raise ConfigError("output must be an object")
            _reject_unknown("output fields", self.output, _OUTPUT_KEYS)
            fmt = self.output.get("format")
            if fmt is not None and fmt not in _FORMATS:
                raise ConfigError(f"output.format must be csv or jsonl, got {fmt!r}")
        if self.suite is not None and self.suite not in ORACLE_SUITES:
            raise ConfigError(
                f"unknown oracle suite {self.suite!r}; choose from {', '.join(ORACLE_SUITES)}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown("config fields", data, cls.__dataclass_fields__)
        if "experiment" not in data:
            raise ConfigError("config requires an 'experiment' field")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_group(spec: Optional[dict]):
    """Build (GroupTable, GeneratorSet) from a config group object."""
    from .groups import build_cyclic, build_dihedral, build_hypercube, load_group

    if spec is None:
        raise ConfigError("this experiment requires a 'group' object")
    family = spec.get("family")
    if family not in _GROUP_FAMILIES:
        raise ConfigError(f"group.family must be one of {sorted(_GROUP_FAMILIES)}, got {family!r}")
    if _GROUP_FAMILIES[family] not in spec:
        raise ConfigError(f"{family} group requires {_GROUP_FAMILIES[family]!r}")
    if family == "cyclic":
        n = _require_int(spec["n"], "group.n", 3)
        gens = spec.get("gens", "pm1")
        if gens == "pm1":
            gens = [1, n - 1]
        elif gens == "complete":
            gens = list(range(1, n))
        elif not (isinstance(gens, list) and all(isinstance(g, int) for g in gens)):
            raise ConfigError("group.gens must be a list of integers, 'pm1', or 'complete'")
        return build_cyclic(n, gens)
    if family == "hypercube":
        return build_hypercube(_require_int(spec["k"], "group.k", 1))
    if family == "dihedral":
        return build_dihedral(_require_int(spec["k"], "group.k", 3))
    return load_group(spec["path"])


# ---------------------------------------------------------------------------
# artifact writing


# cell formatters by dtype kind, else str (bool and numpy's bool are kind "b")
_CELLS = {"f": float.__repr__, "i": str, "u": str, "b": lambda v: "true" if v else "false"}
_CHUNK_CELLS = 1 << 16  # the values a write holds as Python objects at once


def _formatter(column):
    """One column's cell formatter, chosen once from its dtype: an array's,
    or a list's first value's that is not None. A None is an empty cell."""
    if isinstance(column, np.ndarray):
        return _CELLS.get(column.dtype.kind, str)
    cell = _CELLS.get(np.dtype(type(next((v for v in column if v is not None), ""))).kind, str)
    return (lambda v: "" if v is None else cell(v)) if None in column else cell


def _json_default(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_json_default)


@dataclass
class Table:
    """One tabular artifact: a header and its columns (numpy arrays, lists or
    ranges of one length), written as CSV or JSON lines ``_CHUNK_CELLS``
    values at a time, in the config's format or in fmt_override (coupling
    outcome records are always JSON lines)."""

    name: str
    header: list
    columns: list
    fmt_override: Optional[str] = None

    @classmethod
    def of(cls, name: str, record_type, records, fmt_override: Optional[str] = None) -> "Table":
        """Table of dataclass records: one column per field of record_type,
        so a table without records still has its header."""
        header = [f.name for f in fields(record_type)]
        return cls(name, header, [[getattr(r, h) for r in records] for h in header], fmt_override)

    def write(self, directory: Path, fmt: str) -> Path:
        fmt = self.fmt_override or fmt
        path = directory / f"{self.name}.{fmt}"
        cells = [_formatter(column) for column in self.columns] if fmt == "csv" else None
        step = max(1, _CHUNK_CELLS // len(self.columns))
        with open(path, "w") as fh:
            if fmt == "csv":
                fh.write(",".join(self.header) + "\n")
            for lo in range(0, len(self.columns[0]), step):
                chunk = [column[lo:lo + step] for column in self.columns]
                chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
                if fmt == "csv":
                    rows = zip(*map(map, cells, chunk))
                    fh.writelines(",".join(row) + "\n" for row in rows)
                else:
                    fh.writelines(_dumps(dict(zip(self.header, row))) + "\n" for row in zip(*chunk))
        return path


@dataclass
class RunManifest:
    experiment: str
    config: dict
    seed: int
    replicas: Optional[int]
    replica_seed_rule: str
    replica_seeds: list
    version: str
    status: str
    started_at_unix: float
    wall_clock_seconds: Optional[float] = None
    artifacts: list = field(default_factory=list)
    summary: Optional[dict] = None
    error: Optional[str] = None

    def write(self, path: Path) -> None:
        path.write_text(_dumps(asdict(self)) + "\n")


_SEED_RULE = (
    "one numpy Generator per replica from SeedSequence([seed, replica]); "
    "replica_seeds lists the first derived 64-bit word of each stream"
)
_MANIFEST_SEED_CAP = 20_000


# ---------------------------------------------------------------------------
# experiment runners (each returns (summary, tables), the summary naming its
# ``replicas`` where it draws a stream per replica; the docstring is CLI help)


def _threshold(config: ExperimentConfig, default=None):
    """The config's threshold: the table lets a chain read at most one."""
    value = next(iter(config.thresholds.values()), default)
    return None if value is None else float(value)


def _n(config: ExperimentConfig) -> int:
    if config.n is None:
        raise ConfigError(f"{config.experiment} requires 'n'")
    return config.n


def _chain(config: ExperimentConfig) -> Chain:
    """The chain a config that may name either one runs on: the matrix chain
    on n or the simplex chain on its group (the table forbids both)."""
    if config.n is not None:
        return matrix_chain(config.n)
    if config.group is None:
        raise ConfigError(f"{config.experiment} requires 'n' or 'group'")
    return simplex_chain(*resolve_group(config.group))


def _eig_table(name: str, summary_kernel) -> Table:
    values = summary_kernel.eigenvalues
    return Table(name, ["index", "eigenvalue"], [range(len(values)), values])


def _kernel_table(name: str, kernel) -> Table:
    header = ["row"] + [f"to_{j}" for j in range(kernel.p.shape[1])]
    return Table(name, header, [range(len(kernel.p)), *kernel.p.T])


def _run_gap(config: ExperimentConfig):
    """spectrum and gap of the pair-walk kernels on a Cayley graph"""
    from .kernels import base_walk_kernel, edge_walk_kernel, spectral_summary

    group, gens = resolve_group(config.group)
    n = group.n
    # at its peak: the two kernels, the group table and the (n, n)
    # temporaries of a spectral summary (traced at 5.5 of these)
    check_draw_memory(6 * 8 * n * n, f"gap at n = {n}")
    base = base_walk_kernel(group, gens)
    edge = edge_walk_kernel(group, gens)
    sum_base = spectral_summary(base)
    sum_edge = spectral_summary(edge)
    summary = {
        "n": n,
        "m": gens.m,
        "gap_base": sum_base.gap,
        "gap_edge": sum_edge.gap,
    }
    tables = [
        _kernel_table("base_kernel", base),
        _eig_table("base_eigenvalues", sum_base),
        _eig_table("edge_eigenvalues", sum_edge),
    ]
    return summary, tables


def _run_compare(config: ExperimentConfig):
    """detailed balance and Dirichlet-form comparison of the rescaled kernel"""
    from .kernels import detailed_balance_residual, verify_comparison

    group, gens = resolve_group(config.group)
    n, trials = group.n, config.replicas or 1000
    # at its peak: both kernels, both Dirichlet-form matrices, the group
    # table and their (n, n) temporaries (traced at 7.5 of these), and the
    # (trials, n) test functions. The recursion's terms, built and gone
    # before these, peak at 6 of them with the complete set
    check_draw_memory(8 * (8 * n * n + trials * n), f"compare over {trials} trials at n = {n}")
    report = verify_comparison(group, gens, trials=trials, seed=config.seed)
    summary = {
        "n": n,
        "m": gens.m,
        "trials": trials,
        "db_residual": detailed_balance_residual(report.kernel),
        "min_dirichlet_ratio": report.min_dirichlet_ratio,
        "max_measure_ratio": report.max_measure_ratio,
        "gap": report.gap,
        "gap_hat": report.gap_hat,
        "ok": report.ok,
    }
    tables = [
        _kernel_table("comparison_kernel", report.kernel),
        _eig_table("comparison_eigenvalues", report.spectrum),
    ]
    return summary, tables


def _run_s_recursion(config: ExperimentConfig):
    """Monte Carlo check of the one-step autocorrelation-vector recursion"""
    group, gens = resolve_group(config.group)
    samples = config.replicas or 10**6
    # X and Y come from replica 1's stream, the moves from replica 0's
    rng = replica_rng(config.seed, 1)
    x = sample_stationary(group.n, rng)
    y = sample_stationary(group.n, rng)
    report = check_s_recursion(x, y, group, gens, samples=samples, seed=config.seed)
    # se and deviation_se are None with one sample
    blank = [None] * group.n
    se = blank if report.se is None else report.se
    units = blank if report.deviation_se is None else report.deviation_se
    worst = report.max_deviation_se
    summary = {
        "n": group.n,
        "samples": samples,
        "max_abs_deviation": report.max_abs_deviation,
        "max_deviation_se": worst,
        "ok": None if worst is None else worst <= 4.0,
    }
    return summary, [Table("srecursion", ["element", "target", "estimate", "se", "deviation_se"],
                           [range(group.n), report.targets, report.estimates, se, units])]


def _run_contract_simplex(config: ExperimentConfig):
    """L2 contraction of proportionally coupled simplex chains"""
    group, gens = resolve_group(config.group)
    replicas = config.replicas or 1000
    report = contraction_experiment(group, gens, config.T, replicas, config.seed)
    # one row per checkpoint and replica
    values = report.sq_gaps.ravel()
    trajectory = [np.repeat([p.t for p in report.points], replicas),
                  np.tile(np.arange(replicas), len(report.points)),
                  ["sq_l2_gap"] * len(values), values]
    summary = {
        "n": group.n,
        "replicas": replicas,
        "gamma_hat": report.gamma_hat,
        "checkpoints": [p.t for p in report.points],
        "ok": all(p.mean_sq_l2_gap <= p.bound for p in report.points),
    }
    tables = [
        Table("trajectory", ["t", "replica", "statistic_name", "value"], trajectory),
        Table.of("means", ContractionPoint, report.points),
    ]
    return summary, tables


def _run_contract_matrix(config: ExperimentConfig):
    """per-step L2 contraction ratio of coupled matrix chains"""
    n = _n(config)
    replicas = config.replicas or 1000
    T = config.T if config.T is not None else 10 * n
    report = mcontraction_experiment(n, T, replicas, config.seed)
    summary = {
        "n": n,
        "replicas": replicas,
        "T": T,
        "identical_start_replicas": report.identical_start_replicas,
        "ok": report.ok,
    }
    return summary, [Table.of("points", MContractionPoint, report.points)]


def _run_identity_matrix(config: ExperimentConfig):
    """exact pairwise-gap identity on random matrix states"""
    n = _n(config)
    pairs = config.replicas or 10**4
    # the two (pairs, n) stacks of stationary rows and the residuals; the
    # table is written from the residuals, row by row
    check_draw_memory((2 * n + 1) * pairs * 8, f"identity-matrix over {pairs} pairs at n = {n}")
    rng = replica_rng(config.seed, 0)
    cx = msample_stationary_batch(n, rng, pairs)
    cy = msample_stationary_batch(n, rng, pairs)
    residuals = identity_residual_batch(cx, cy)
    worst = float(residuals.max())
    summary = {"n": n, "pairs": pairs, "max_residual": worst, "tolerance": _IDENTITY_TOL}
    tables = [Table("residuals", ["pair", "residual"], [range(pairs), residuals])]
    if worst > _IDENTITY_TOL:
        raise AssertionFailure(
            f"contraction identity residual {worst:.3e} exceeds {_IDENTITY_TOL} (n={n})"
        )
    return summary, tables


def _run_couple(config: ExperimentConfig, chain: Chain):
    replicas = config.replicas or 1000
    t1_default, t2_default = chain.horizons()
    T1 = config.T1 if config.T1 is not None else t1_default
    T2 = config.T2 if config.T2 is not None else t2_default
    if T2 < 1:
        raise ConfigError(f"{config.experiment} needs T2 >= 1, got {T2}")
    outcomes = run_nonmarkovian_coupling(
        chain, T1=T1, T2=T2, replicas=replicas, seed=config.seed
    )
    coupled = [o for o in outcomes if o.coupled]
    failures = dict(Counter(o.failure_kind for o in outcomes if o.failure_kind))
    taus = [o.tau_connect for o in outcomes if o.tau_connect is not None]
    summary = {
        "n": chain.n,
        "T1": T1,
        "T2": T2,
        "replicas": replicas,
        "coupled_frequency": len(coupled) / replicas,
        "failure_counts": failures,
        "max_coupled_gap": max((o.max_final_gap for o in coupled), default=None),
        "mean_tau_connect": (sum(taus) / len(taus)) if taus else None,
    }
    return summary, [Table.of("outcomes", CouplingOutcome, outcomes, fmt_override="jsonl")]


def _run_couple_simplex(config: ExperimentConfig):
    """two-phase non-Markovian coupling on a Cayley simplex chain"""
    return _run_couple(config, simplex_chain(*resolve_group(config.group)))


def _run_couple_matrix(config: ExperimentConfig):
    """two-phase non-Markovian coupling on the matrix chain"""
    return _run_couple(config, matrix_chain(_n(config)))


def _run_connect(config: ExperimentConfig):
    """connection-time tails of random update schedules"""
    replicas = config.replicas or 1000
    report = connectedness_experiment(
        _chain(config), replicas=replicas, seed=config.seed, threshold=_threshold(config)
    )
    summary = {
        "kind": report.kind,
        "n": report.n,
        "replicas": replicas,
        "censored": report.censored,
        "threshold": report.threshold,
        "bound": report.bound,
        "tail_frequency": report.tail_frequency,
        "ok": (report.tail_frequency <= report.bound)
        if report.bound is not None
        else None,
    }
    return summary, [Table("taus", ["replica", "tau"], [range(replicas), report.taus])]


def _run_largeness(config: ExperimentConfig):
    """boundary margins of stationary trajectories over a window"""
    replicas = config.replicas or 1000
    chain = _chain(config)
    window = config.T if config.T is not None else chain.n * chain.n
    report = largeness_experiment(
        chain, window=window, replicas=replicas, seed=config.seed, threshold=_threshold(config)
    )
    minima, threshold, target = report.minima, report.threshold, report.target
    frequency = float(np.mean(minima >= threshold)) if threshold is not None else None
    summary = {
        "kind": chain.kind,
        "n": chain.n,
        "window": window,
        "replicas": replicas,
        "threshold": threshold,
        "frequency_above_threshold": frequency,
        "target_frequency": target,
        "min_observed": float(minima.min()),
        "ok": (frequency >= target) if (frequency is not None and target is not None) else None,
    }
    return summary, [Table("minima", ["replica", "min_boundary_margin"], [range(replicas), minima])]


def _run_lowerbound_simplex(config: ExperimentConfig):
    """eigenvector-statistic decay and TV lower bound"""
    group, gens = resolve_group(config.group)
    replicas = config.replicas or 10**4
    report = lower_bound_experiment(
        group, gens, config.T, d=_threshold(config), replicas=replicas, seed=config.seed
    )
    summary = {
        "n": group.n,
        "replicas": replicas,
        "T": report.T,
        "gamma": report.gamma,
        "slope": report.slope,
        "slope_target": report.slope_target,
        "slope_rel_error": report.slope_rel_error,
        "stationary_second_moment": report.stationary_second_moment,
        "stationary_bound": report.stationary_bound,
        "ok": report.slope_rel_error is not None
        and report.slope_rel_error <= 0.05
        and report.stationary_second_moment <= report.stationary_bound,
    }
    return summary, [Table.of("points", LowerBoundPoint, report.points)]


def _run_lowerbound_matrix(config: ExperimentConfig):
    """coupon-collector miss probability lower bound"""
    n = _n(config)
    replicas = config.replicas or 10**4
    c = _threshold(config, 0.0)
    report = coupon_collector_experiment(n, c, replicas, config.seed)
    summary = {
        "n": n,
        "c": c,
        "T": report.T,
        "replicas": replicas,
        "miss_frequency": report.miss_frequency,
        "target": report.target,
        "abs_error": report.abs_error,
        "ok": report.abs_error <= 0.05,
    }
    return summary, []


# ---------------------------------------------------------------------------
# exact oracles


def irwin_hall_cdf(k: int, x: float) -> float:
    """CDF at x of the sum of k independent U[0, 1] variables."""
    if x <= 0.0:
        return 0.0
    if x >= k:
        return 1.0
    total = 0.0
    for j in range(int(math.floor(x)) + 1):
        total += (-1.0) ** j * math.comb(k, j) * (x - j) ** k
    return total / math.factorial(k)


def exact_acceptance_rate(n: int) -> float:
    """Exact acceptance probability of the matrix stationary sampler: the
    sum of n-1 U[0, 2] draws must land in [n-2, n]."""
    k = n - 1
    return irwin_hall_cdf(k, n / 2.0) - irwin_hall_cdf(k, (n - 2) / 2.0)


def exact_marginal_cdf(n: int, x: float) -> float:
    """Exact CDF of one matrix column entry under the uniform polytope law.

    P[c_0 <= x] conditions the free-coordinate product measure on acceptance:
    the remaining n-1 entries must sum to n - c_0, so the conditional CDF is
    a ratio of Irwin-Hall CDF differences.
    """
    if x <= 0.0:
        return 0.0
    if x >= 2.0:
        return 1.0
    k = n - 1
    top = irwin_hall_cdf(k, n / 2.0) - irwin_hall_cdf(k, (n - x) / 2.0)
    return top / exact_acceptance_rate(n)


def _oracle_kernel_enumeration() -> dict:
    """Rebuild small base/edge kernels from first principles (exact rational
    row masses via direct enumeration of (element, generator) draws) and
    compare against the kernel builders."""
    from fractions import Fraction

    from .kernels import base_walk_kernel, edge_walk_kernel, spectral_summary

    out = {}
    cases = {
        "cyclic-4-pm1": (4, [1, 3]),
        "cyclic-5-complete": (5, [1, 2, 3, 4]),
    }
    for name, (n, gens) in cases.items():
        group, gset = resolve_group({"family": "cyclic", "n": n, "gens": gens})
        m = len(gens)
        base_row = [Fraction(0)] * n
        base_row[0] = 1 - Fraction(2, n)
        edge_row = [Fraction(0)] * n
        edge_row[0] = 1 - Fraction(1, n)
        for s in gens:
            base_row[s % n] += Fraction(2, n * m)
            edge_row[s % n] += Fraction(1, n * m)
        built_base = base_walk_kernel(group, gset).p[0]
        built_edge = edge_walk_kernel(group, gset).p[0]
        for w in range(n):
            if abs(float(base_row[w]) - built_base[w]) > 1e-15:
                raise AssertionFailure(
                    f"{name}: base row entry {w} is {built_base[w]!r}, oracle {float(base_row[w])!r}"
                )
            if abs(float(edge_row[w]) - built_edge[w]) > 1e-15:
                raise AssertionFailure(
                    f"{name}: edge row entry {w} is {built_edge[w]!r}, oracle {float(edge_row[w])!r}"
                )
        out[name] = {
            "base_row": [float(v) for v in base_row],
            "edge_row": [float(v) for v in edge_row],
        }
    # cycle eigenvalues in closed form vs. the eigensolver
    group, gset = resolve_group({"family": "cyclic", "n": 4, "gens": [1, 3]})
    closed = sorted(
        (1.0 - (1.0 / 4.0) * (1.0 - math.cos(2.0 * math.pi * k / 4.0)) for k in range(4)),
        reverse=True,
    )
    solved = spectral_summary(edge_walk_kernel(group, gset)).eigenvalues
    worst = max(abs(a - b) for a, b in zip(closed, solved))
    if worst > 1e-10:
        raise AssertionFailure(f"cyclic-4 edge eigenvalues deviate by {worst:.3e}")
    out["cyclic-4-edge-eigenvalues"] = {"closed_form": closed, "max_deviation": worst}
    return out


def _oracle_acceptance_rate() -> dict:
    return {f"n={n}": exact_acceptance_rate(n) for n in (3, 4, 5)}


def _oracle_schedule_enumeration() -> dict:
    """Exact law of the connection time for n = 3 by enumerating every
    ordered pair sequence of length <= 6."""
    from fractions import Fraction

    n = 3
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = {}
    for length in range(1, 7):
        connected = 0
        total = len(pairs) ** length
        for seq in itertools.product(pairs, repeat=length):
            uf_parent = list(range(n))

            def find(a):
                while uf_parent[a] != a:
                    uf_parent[a] = uf_parent[uf_parent[a]]
                    a = uf_parent[a]
                return a

            comps = n
            for i, j in seq:
                ri, rj = find(i), find(j)
                if ri != rj:
                    uf_parent[ri] = rj
                    comps -= 1
            connected += comps == 1
        exact = Fraction(connected, total)
        out[f"P[tau<={length}]"] = float(exact)
    return out


def _oracle_marginal_density() -> dict:
    out = {}
    grid = [0.25 * k for k in range(9)]
    for n in (3, 4):
        out[f"cdf-n={n}"] = {f"x={x}": exact_marginal_cdf(n, x) for x in grid}
    # the n=3 marginal density is the trapezoid (1 + min(x, 2-x)) / 3;
    # cross-check the CDF against its integral at the grid
    for x in grid:
        if x <= 1.0:
            integral = (x + x * x / 2.0) / 3.0
        else:
            integral = (3.0 * x - x * x / 2.0 - 1.0) / 3.0
        if abs(integral - exact_marginal_cdf(3, x)) > 1e-12:
            raise AssertionFailure(
                f"n=3 marginal CDF at {x} is {exact_marginal_cdf(3, x)!r}, "
                f"trapezoid integral {integral!r}"
            )
    out["n=3-density-form"] = "(1 + min(x, 2 - x)) / 3 on [0, 2]"
    return out


_ORACLE_RUNNERS = {
    "kernel-enumeration": _oracle_kernel_enumeration,
    "acceptance-rate": _oracle_acceptance_rate,
    "schedule-enumeration": _oracle_schedule_enumeration,
    "marginal-density": _oracle_marginal_density,
}
ORACLE_SUITES = tuple(_ORACLE_RUNNERS)


def oracle(suite: str) -> dict:
    """Run one exact-oracle suite and print its values (12 significant
    digits) for embedding into test fixtures."""
    if suite not in _ORACLE_RUNNERS:
        raise ConfigError(f"unknown oracle suite {suite!r}")
    values = _ORACLE_RUNNERS[suite]()
    print(f"oracle suite {suite}")

    def emit(label: str, val) -> None:
        if isinstance(val, dict):
            for key, sub in val.items():
                emit(f"{label}{key}.", sub)
        elif isinstance(val, float):
            print(f"  {label.rstrip('.')} = {val:.12g}")
        elif isinstance(val, list):
            body = ", ".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in val)
            print(f"  {label.rstrip('.')} = [{body}]")
        else:
            print(f"  {label.rstrip('.')} = {val}")

    emit("", values)
    return values


def _run_oracle(config: ExperimentConfig):
    """exact brute-force oracle suites for test fixtures"""
    if config.suite is None:
        raise ConfigError("oracle requires a 'suite' field")
    values = oracle(config.suite)
    return {"suite": config.suite, "values": values}, []


# ---------------------------------------------------------------------------
# dispatch


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS, if any, on one thread for the rest of the process: its
    threaded kernels split sums by thread count, moving eigenvalues' last bits at n = 256."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        set_threads = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


_RUNNERS = {
    "gap": _run_gap,
    "compare": _run_compare,
    "s-recursion": _run_s_recursion,
    "contract-simplex": _run_contract_simplex,
    "contract-matrix": _run_contract_matrix,
    "identity-matrix": _run_identity_matrix,
    "couple-simplex": _run_couple_simplex,
    "couple-matrix": _run_couple_matrix,
    "connect": _run_connect,
    "largeness": _run_largeness,
    "lowerbound-simplex": _run_lowerbound_simplex,
    "lowerbound-matrix": _run_lowerbound_matrix,
    "oracle": _run_oracle,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig, out_dir=None, fmt: Optional[str] = None) -> int:
    """Execute one experiment; returns the process exit code.

    Writes <out>/manifest.json with status "running" before any result file,
    then the artifacts, then the final manifest with status "complete" (or
    "failed" with the error and exit code 1 for the ``ConfigError`` and
    ``GroupError`` families, 2 for any other package error ("invariant
    failure") and for any other exception, MemoryError included ("unexpected
    failure", whose traceback goes to stderr). A failure's one-line message
    goes to stderr, like the command line's own config errors; the summary
    lines of a completed run go to stdout."""
    try:
        output = config.output or {}
        directory = Path(out_dir or output.get("path") or f"gibbsmix-results/{config.experiment}")
        fmt = fmt or output.get("format") or "csv"
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}")
        directory.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    started = time.time()
    replicas = config.replicas
    manifest = RunManifest(
        experiment=config.experiment,
        config=config.to_dict(),
        seed=config.seed,
        replicas=replicas,
        replica_seed_rule=_SEED_RULE,
        replica_seeds=[],
        version=__version__,
        status="running",
        started_at_unix=started,
    )
    manifest_path = directory / "manifest.json"
    manifest.write(manifest_path)
    try:
        _one_blas_thread()
        summary, tables = _RUNNERS[config.experiment](config)
        paths = [table.write(directory, fmt) for table in tables]
        count = summary.get("replicas") or 0
        if 0 < count <= _MANIFEST_SEED_CAP:
            manifest.replica_seeds = replica_seed_words(config.seed, count)
        manifest.summary = summary
        manifest.artifacts = [p.name for p in paths]
        manifest.status = "complete"
        manifest.wall_clock_seconds = time.time() - started
        manifest.write(manifest_path)
    except Exception as exc:
        if isinstance(exc, (ConfigError, GroupError)):
            code, what = 1, "config error"
        elif isinstance(exc, GibbsmixError):
            code, what = 2, "invariant failure"
        else:
            # a defect, or a resource the run ran out of (MemoryError)
            code, what = 2, "unexpected failure"
            import traceback

            traceback.print_exc()
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.wall_clock_seconds = time.time() - started
        manifest.write(manifest_path)
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    for key, value in summary.items():
        print(f"{config.experiment}: {key} = {value}")
    return 0
