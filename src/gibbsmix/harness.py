"""Configuration-driven experiment runner: config -> experiment call -> tables.

A single strict JSON document drives every experiment; unknown fields are
errors. The simulations live beside their chains; a runner only calls one.
Each run writes a manifest (status "running") before any results, the
artifacts, and then the final manifest (status "complete"), so interrupted
runs leave a detectable partial marker. All randomness flows through
per-replica streams derived as SeedSequence([seed, replica]); identical
config + seed reproduces identical artifact bytes.

Exit codes: 0 success, 1 configuration error, 2 invariant/assertion failure
or any other exception.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import (
    AssertionFailure,
    ConfigError,
    DominationViolated,
    GroupError,
    InvariantViolation,
    KernelError,
    RejectionBudgetExceeded,
)
from .coupling import (
    CouplingOutcome,
    connectedness_experiment,
    largeness_experiment,
    run_nonmarkovian_coupling,
)
from .groups import build_cyclic, build_dihedral, build_hypercube, load_group
from .kernels import (
    base_walk_kernel,
    comparison_kernel,
    edge_walk_kernel,
    spectral_summary,
    verify_comparison,
)
from .matrices import (
    MContractionPoint,
    coupon_collector_experiment,
    identity_residual_batch,
    mcontraction_experiment,
    msample_stationary_batch,
)
from .seeding import replica_rng, replica_seed_words
from .simplex import (
    ContractionPoint,
    LowerBoundPoint,
    check_s_recursion,
    contraction_experiment,
    lower_bound_experiment,
    sample_stationary,
)

__all__ = [
    "EXPERIMENTS",
    "THRESHOLD_KEYS",
    "ORACLE_SUITES",
    "ExperimentConfig",
    "RunManifest",
    "resolve_group",
    "default_horizons",
    "irwin_hall_cdf",
    "exact_acceptance_rate",
    "exact_marginal_cdf",
    "oracle",
    "run",
]

THRESHOLD_KEYS = frozenset({"epsilon", "C", "k", "d", "c"})

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
        _reject_unknown("threshold names", self.thresholds, THRESHOLD_KEYS)
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


def default_horizons(kind: str, n: int, gamma_hat: Optional[float] = None):
    """Recipe (T1, T2) used by the couple-* experiments when not overridden.

    Cayley chains: T1 = ceil((8 / gamma_hat) (log(4n) + 62)) and
    T2 = ceil(48 log n / gamma_hat) — the phase-1 horizon drives the L2 gap
    below the subset-coupling tolerance, and T2 connects the schedule with
    probability 1 - O(n^-3). Matrix chains do the same with the n log n
    scaling: T1 = ceil(1.5 n (log(8n) + 60)), T2 = ceil(4.5 n log n).
    """
    if kind == "simplex":
        if gamma_hat is None or gamma_hat <= 0:
            raise ConfigError("simplex horizons need a positive gamma_hat")
        t1 = math.ceil((8.0 / gamma_hat) * (math.log(4 * n) + 62.0))
        t2 = math.ceil(8.0 * 6.0 * math.log(n) / gamma_hat)
        return t1, t2
    if kind == "matrix":
        t1 = math.ceil(1.5 * n * (math.log(8 * n) + 60.0))
        t2 = math.ceil(4.5 * n * math.log(n))
        return t1, t2
    raise ConfigError(f"unknown chain kind {kind!r}")


# ---------------------------------------------------------------------------
# artifact writing


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_default(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_json_default)


@dataclass
class Table:
    """One tabular artifact; written as CSV or JSON lines per the config.

    fmt_override pins a table to one format regardless of the config
    (coupling outcome records are always JSON lines)."""

    name: str
    header: list
    rows: list
    fmt_override: Optional[str] = None

    @classmethod
    def of(cls, name: str, record_type, records, fmt_override: Optional[str] = None) -> "Table":
        """Table of dataclass records: one column per field of record_type,
        so a table without records still has its header."""
        header = [f.name for f in fields(record_type)]
        return cls(name, header, [astuple(r) for r in records], fmt_override)

    def write(self, directory: Path, fmt: str) -> Path:
        if self.fmt_override is not None:
            fmt = self.fmt_override
        if fmt == "jsonl":
            path = directory / f"{self.name}.jsonl"
            with open(path, "w") as fh:
                for row in self.rows:
                    record = dict(zip(self.header, row))
                    fh.write(_dumps(record) + "\n")
        else:
            path = directory / f"{self.name}.csv"
            with open(path, "w") as fh:
                fh.write(",".join(self.header) + "\n")
                for row in self.rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
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
# experiment runners (each returns (summary, tables, uses_replica_streams);
# the docstring is the CLI help)


def _thr(config: ExperimentConfig, key: str, default=None):
    value = config.thresholds.get(key, default)
    return None if value is None else float(value)


def _n(config: ExperimentConfig) -> int:
    if config.n is None:
        raise ConfigError(f"{config.experiment} requires 'n'")
    return config.n


def _chain(config: ExperimentConfig, kind: Optional[str] = None):
    """(kind, n, chain arguments) of the config's chain: the simplex chain
    on its group or the matrix chain on n. Without a kind the config must
    name exactly one of the two."""
    if kind is None:
        if (config.group is None) == (config.n is None):
            raise ConfigError(f"{config.experiment} requires exactly one of 'group' or 'n'")
        kind = "matrix" if config.n is not None else "simplex"
    if kind == "matrix":
        return kind, _n(config), {"n": config.n}
    group, gens = resolve_group(config.group)
    return kind, group.n, {"group": group, "gens": gens}


def _eig_table(name: str, summary_kernel) -> Table:
    rows = [(idx, float(v)) for idx, v in enumerate(summary_kernel.eigenvalues)]
    return Table(name, ["index", "eigenvalue"], rows)


def _kernel_table(name: str, kernel) -> Table:
    rows = [
        tuple([i] + [float(v) for v in kernel.p[i]])
        for i in range(kernel.p.shape[0])
    ]
    header = ["row"] + [f"to_{j}" for j in range(kernel.p.shape[1])]
    return Table(name, header, rows)


def _run_gap(config: ExperimentConfig):
    """spectrum and gap of the pair-walk kernels on a Cayley graph"""
    group, gens = resolve_group(config.group)
    base = base_walk_kernel(group, gens)
    edge = edge_walk_kernel(group, gens)
    sum_base = spectral_summary(base)
    sum_edge = spectral_summary(edge)
    summary = {
        "n": group.n,
        "m": gens.m,
        "gap_base": sum_base.gap,
        "gap_edge": sum_edge.gap,
    }
    tables = [
        _kernel_table("base_kernel", base),
        _eig_table("base_eigenvalues", sum_base),
        _eig_table("edge_eigenvalues", sum_edge),
    ]
    return summary, tables, False


def _db_residual(kernel) -> float:
    flow = kernel.pi[:, None] * kernel.p
    return float(np.abs(flow - flow.T).max())


def _run_compare(config: ExperimentConfig):
    """detailed balance and Dirichlet-form comparison of the rescaled kernel"""
    group, gens = resolve_group(config.group)
    trials = config.replicas or 1000
    comp = comparison_kernel(group, gens)
    report = verify_comparison(group, gens, trials=trials, seed=config.seed)
    summary = {
        "n": group.n,
        "m": gens.m,
        "trials": trials,
        "db_residual": _db_residual(comp),
        "min_dirichlet_ratio": report.min_dirichlet_ratio,
        "max_measure_ratio": report.max_measure_ratio,
        "gap": report.gap,
        "gap_hat": report.gap_hat,
        "ok": report.ok,
    }
    tables = [
        _kernel_table("comparison_kernel", comp),
        _eig_table("comparison_eigenvalues", spectral_summary(comp)),
    ]
    return summary, tables, False


def _run_s_recursion(config: ExperimentConfig):
    """Monte Carlo check of the one-step autocorrelation-vector recursion"""
    group, gens = resolve_group(config.group)
    samples = config.replicas or 10**6
    rng = replica_rng(config.seed, 0)
    x = sample_stationary(group.n, rng)
    y = sample_stationary(group.n, rng)
    report = check_s_recursion(x, y, group, gens, samples=samples, seed=config.seed)
    # se and deviation_se are None with one sample
    blank = [None] * group.n
    se = blank if report.se is None else report.se.tolist()
    units = blank if report.deviation_se is None else report.deviation_se.tolist()
    rows = [
        (h, float(report.targets[h]), float(report.estimates[h]), se[h], units[h])
        for h in range(group.n)
    ]
    worst = report.max_deviation_se
    summary = {
        "n": group.n,
        "samples": samples,
        "max_abs_deviation": report.max_abs_deviation,
        "max_deviation_se": worst,
        "ok": None if worst is None else worst <= 4.0,
    }
    return summary, [Table("srecursion", ["element", "target", "estimate", "se", "deviation_se"], rows)], False


def _run_contract_simplex(config: ExperimentConfig):
    """L2 contraction of proportionally coupled simplex chains"""
    group, gens = resolve_group(config.group)
    replicas = config.replicas or 1000
    report = contraction_experiment(group, gens, config.T, replicas, config.seed)
    trajectory = [
        (p.t, r, "sq_l2_gap", float(v))
        for p, sq in zip(report.points, report.sq_gaps)
        for r, v in enumerate(sq)
    ]
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
    return summary, tables, True


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
    return summary, [Table.of("points", MContractionPoint, report.points)], True


def _run_identity_matrix(config: ExperimentConfig):
    """exact pairwise-gap identity on random matrix states"""
    n = _n(config)
    pairs = config.replicas or 10**4
    rng = replica_rng(config.seed, 0)
    cx = msample_stationary_batch(n, rng, pairs)
    cy = msample_stationary_batch(n, rng, pairs)
    residuals = identity_residual_batch(cx, cy)
    worst = float(residuals.max())
    rows = [(idx, float(residuals[idx])) for idx in range(pairs)]
    summary = {"n": n, "pairs": pairs, "max_residual": worst, "tolerance": _IDENTITY_TOL}
    tables = [Table("residuals", ["pair", "residual"], rows)]
    if worst > _IDENTITY_TOL:
        raise AssertionFailure(
            f"contraction identity residual {worst:.3e} exceeds {_IDENTITY_TOL} (n={n})"
        )
    return summary, tables, False


def _run_couple(config: ExperimentConfig, kind: str):
    replicas = config.replicas or 1000
    _, n, chain = _chain(config, kind)
    gamma_hat = spectral_summary(base_walk_kernel(**chain)).gap if kind == "simplex" else None
    t1_default, t2_default = default_horizons(kind, n, gamma_hat)
    T1 = config.T1 if config.T1 is not None else t1_default
    T2 = config.T2 if config.T2 is not None else t2_default
    if T2 < 1:
        raise ConfigError(f"{config.experiment} needs T2 >= 1, got {T2}")
    outcomes = run_nonmarkovian_coupling(
        kind, T1=T1, T2=T2, replicas=replicas, seed=config.seed, **chain
    ).outcomes
    coupled = [o for o in outcomes if o.coupled]
    failures = dict(Counter(o.failure_kind for o in outcomes if o.failure_kind))
    taus = [o.tau_connect for o in outcomes if o.tau_connect is not None]
    summary = {
        "n": n,
        "T1": T1,
        "T2": T2,
        "replicas": replicas,
        "coupled_frequency": len(coupled) / replicas,
        "failure_counts": failures,
        "max_coupled_gap": max((o.max_final_gap for o in coupled), default=None),
        "mean_tau_connect": (sum(taus) / len(taus)) if taus else None,
    }
    return summary, [Table.of("outcomes", CouplingOutcome, outcomes, fmt_override="jsonl")], True


def _run_couple_simplex(config: ExperimentConfig):
    """two-phase non-Markovian coupling on a Cayley simplex chain"""
    return _run_couple(config, "simplex")


def _run_couple_matrix(config: ExperimentConfig):
    """two-phase non-Markovian coupling on the matrix chain"""
    return _run_couple(config, "matrix")


def _run_connect(config: ExperimentConfig):
    """connection-time tails of random update schedules"""
    replicas = config.replicas or 1000
    kind, _, chain = _chain(config)
    report = connectedness_experiment(
        kind, **chain, replicas=replicas, seed=config.seed,
        epsilon=_thr(config, "epsilon"), C=_thr(config, "C"),
    )
    rows = [(idx, int(report.taus[idx])) for idx in range(replicas)]
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
    return summary, [Table("taus", ["replica", "tau"], rows)], True


def _run_largeness(config: ExperimentConfig):
    """boundary margins of stationary trajectories over a window"""
    replicas = config.replicas or 1000
    kind, n, chain = _chain(config)
    window = config.T if config.T is not None else n * n
    report = largeness_experiment(
        kind, **chain, window=window, replicas=replicas, seed=config.seed,
        k=_thr(config, "k", 1.0), d=_thr(config, "d"),
    )
    minima, threshold, target = report.minima, report.threshold, report.target
    rows = [(r, float(minima[r])) for r in range(replicas)]
    frequency = float(np.mean(minima >= threshold)) if threshold is not None else None
    summary = {
        "kind": kind,
        "n": n,
        "window": window,
        "replicas": replicas,
        "threshold": threshold,
        "frequency_above_threshold": frequency,
        "target_frequency": target,
        "min_observed": float(minima.min()),
        "ok": (frequency >= target) if (frequency is not None and target is not None) else None,
    }
    return summary, [Table("minima", ["replica", "min_boundary_margin"], rows)], True


def _run_lowerbound_simplex(config: ExperimentConfig):
    """eigenvector-statistic decay and TV lower bound"""
    group, gens = resolve_group(config.group)
    replicas = config.replicas or 10**4
    gamma = spectral_summary(edge_walk_kernel(group, gens)).gap
    T = config.T if config.T is not None else max(8, math.ceil(1.5 / gamma))
    report = lower_bound_experiment(
        group, gens, T, d=_thr(config, "d"), replicas=replicas, seed=config.seed
    )
    summary = {
        "n": group.n,
        "replicas": replicas,
        "T": T,
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
    return summary, [Table.of("points", LowerBoundPoint, report.points)], True


def _run_lowerbound_matrix(config: ExperimentConfig):
    """coupon-collector miss probability lower bound"""
    n = _n(config)
    replicas = config.replicas or 10**4
    c = _thr(config, "c", 0.0)
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
    return summary, [], True


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
    return {"suite": config.suite, "values": values}, [], False


# ---------------------------------------------------------------------------
# dispatch


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
    "failed" with the error and exit code 1 for configuration problems, 2
    for violated invariants and any other exception, MemoryError included,
    whose traceback goes to stderr)."""
    try:
        output = config.output or {}
        directory = Path(out_dir or output.get("path") or f"gibbsmix-results/{config.experiment}")
        fmt = fmt or output.get("format") or "csv"
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}")
        directory.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}")
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
        summary, tables, per_replica = _RUNNERS[config.experiment](config)
        paths = [table.write(directory, fmt) for table in tables]
        if per_replica:
            count = summary.get("replicas", replicas) or 0
            if count and count <= _MANIFEST_SEED_CAP:
                manifest.replica_seeds = replica_seed_words(config.seed, count)
        manifest.summary = summary
        manifest.artifacts = [p.name for p in paths]
        manifest.status = "complete"
        manifest.wall_clock_seconds = time.time() - started
        manifest.write(manifest_path)
    except Exception as exc:
        if isinstance(exc, (ConfigError, GroupError)):
            code, what = 1, "config error"
        elif isinstance(exc, (AssertionFailure, InvariantViolation, KernelError,
                              DominationViolated, RejectionBudgetExceeded)):
            code, what = 2, "invariant failure"
        else:
            # a defect, or a resource the run ran out of (MemoryError)
            code, what = 2, "unexpected failure"
            traceback.print_exc()
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.wall_clock_seconds = time.time() - started
        manifest.write(manifest_path)
        print(f"{what}: {exc}")
        return code
    for key, value in summary.items():
        print(f"{config.experiment}: {key} = {value}")
    return 0
