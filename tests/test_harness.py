import argparse
import ast
import copy
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gibbsmix.errors as errors
import gibbsmix.harness as harness
import gibbsmix.kernels as kernels
import gibbsmix.seeding as seeding
import gibbsmix.simplex as simplex
from gibbsmix.cli import build_parser, parse_group_shorthand
from gibbsmix.cli import main as cli_main
from gibbsmix.errors import ConfigError, InvariantViolation
from gibbsmix.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    exact_acceptance_rate,
    exact_marginal_cdf,
    irwin_hall_cdf,
    oracle,
    resolve_group,
    run,
)
from gibbsmix.groups import build_cyclic
from gibbsmix.matrices import (
    coupon_collector_experiment,
    matrix_chain,
    msample_stationary,
    mstep_batch,
)
from gibbsmix.pairops import pair_moves
from gibbsmix.seeding import draw_moves, replica_rng
from gibbsmix.simplex import sample_stationary, simplex_chain, step_batch


# ---------------------------------------------------------------------------
# configuration strictness


def test_config_minimal_round_trip():
    cfg = ExperimentConfig.from_dict({"experiment": "gap", "group": {"family": "cyclic", "n": 6}})
    assert cfg.experiment == "gap"
    assert cfg.seed == 0
    assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@pytest.mark.parametrize(
    "data",
    [
        {"experiment": "gap", "bogus": 1},
        {"experiment": "not-an-experiment"},
        {"experiment": "gap", "thresholds": {"zeta": 1.0}},
        {"experiment": "gap", "thresholds": {"epsilon": "high"}},
        {"experiment": "gap", "group": {"family": "octonion", "n": 8}},
        {"experiment": "gap", "group": {"family": "cyclic", "n": 6, "extra": 1}},
        {"experiment": "gap", "output": {"path": "x", "compression": "gz"}},
        {"experiment": "gap", "output": {"format": "parquet"}},
        {"experiment": "gap", "seed": -1},
        {"experiment": "gap", "seed": 2**64},
        {"experiment": "gap", "seed": 1.5},
        {"experiment": "gap", "replicas": 0},
        {"experiment": "gap", "n": 2},
        {"experiment": "oracle", "suite": "tarot"},
        {"no_experiment": True},
        [1, 2, 3],
        # a, b and f were accepted once, but no experiment reads them
        {"experiment": "gap", "thresholds": {"a": 3.0}},
        {"experiment": "gap", "thresholds": {"b": 3.0}},
        {"experiment": "gap", "thresholds": {"f": 3.0}},
        # json.loads reads NaN, Infinity and 1e400 as non-finite floats, and a
        # long integer literal as an int beyond the float range
        {"experiment": "connect", "n": 8, "thresholds": {"epsilon": math.nan}},
        {"experiment": "largeness", "n": 8, "thresholds": {"k": math.inf}},
        {"experiment": "lowerbound-matrix", "n": 20, "thresholds": {"c": -math.inf}},
        {"experiment": "lowerbound-matrix", "n": 20, "thresholds": {"c": 10**400}},
        # a threshold that the experiment does not read
        {"experiment": "gap", "group": {"family": "cyclic", "n": 6},
         "thresholds": {"epsilon": 1.0}},
        {"experiment": "couple-matrix", "n": 5, "thresholds": {"k": 3.0}},
        {"experiment": "connect", "n": 8, "thresholds": {"k": 1.0}},
        {"experiment": "largeness", "n": 8, "thresholds": {"C": 1.0}},
        {"experiment": "lowerbound-simplex", "group": {"family": "cyclic", "n": 6},
         "thresholds": {"c": 0.0}},
        {"experiment": "lowerbound-matrix", "n": 20, "thresholds": {"d": 0.1}},
        {"experiment": "oracle", "suite": "acceptance-rate", "thresholds": {"d": 0.1}},
        # threshold names and config field names are separate namespaces
        {"experiment": "gap", "thresholds": {"replicas": 1}},
        # connect runs on one chain, not on both
        {"experiment": "connect", "n": 8, "group": {"family": "cyclic", "n": 6}},
    ],
)
def test_config_rejects_bad_inputs(data):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


def test_config_from_json_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": "connect", "n": 8, "replicas": 10}))
    cfg = ExperimentConfig.from_json_file(path)
    assert cfg.experiment == "connect" and cfg.n == 8

    bad = tmp_path / "bad.json"
    for text in ("{not json", '{"experiment": "connect", "n": ' + "1" * 5000 + "}"):
        bad.write_text(text)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_file(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# what each experiment reads

_CYCLIC6 = {"family": "cyclic", "n": 6}
# the names each experiment reads besides seed and output, one set per chain
# it runs on; kept here rather than read from the harness
_EXPECTED_READS = {
    "gap": [{"group"}],
    "compare": [{"group", "replicas"}],
    "s-recursion": [{"group", "replicas"}],
    "contract-simplex": [{"group", "T", "replicas"}],
    "contract-matrix": [{"n", "T", "replicas"}],
    "identity-matrix": [{"n", "replicas"}],
    "couple-simplex": [{"group", "T1", "T2", "replicas"}],
    "couple-matrix": [{"n", "T1", "T2", "replicas"}],
    "connect": [{"n", "replicas", "epsilon"}, {"group", "replicas", "C"}],
    "largeness": [{"n", "T", "replicas", "k"}, {"group", "T", "replicas", "d"}],
    "lowerbound-simplex": [{"group", "T", "replicas", "d"}],
    "lowerbound-matrix": [{"n", "replicas", "c"}],
    "oracle": [{"suite"}],
}
# a value for every config field and threshold a test adds to a config
_FIELD_VALUES = {"group": _CYCLIC6, "n": 8, "T": 7, "T1": 3, "T2": 4, "replicas": 9,
                 "suite": "acceptance-rate"}
_THRESHOLD_VALUES = {"epsilon": 0.5, "C": 1.0, "k": 1.0, "d": 0.01, "c": 0.0}
# a small config of each (experiment, chain), naming only what it reads
_RUNNABLE = {
    ("gap", "group"): {"group": _CYCLIC6},
    ("compare", "group"): {"group": _CYCLIC6, "replicas": 10},
    ("s-recursion", "group"): {"group": _CYCLIC6, "replicas": 10},
    ("contract-simplex", "group"): {"group": _CYCLIC6, "replicas": 2},
    ("contract-matrix", "n"): {"n": 5, "T": 10, "replicas": 2},
    ("identity-matrix", "n"): {"n": 5, "replicas": 10},
    ("couple-simplex", "group"): {"group": {"family": "cyclic", "n": 5}, "T1": 3, "T2": 40,
                                  "replicas": 2},
    ("couple-matrix", "n"): {"n": 5, "T1": 3, "T2": 40, "replicas": 2},
    ("connect", "n"): {"n": 8, "replicas": 5},
    ("connect", "group"): {"group": _CYCLIC6, "replicas": 5},
    ("largeness", "n"): {"n": 5, "T": 20, "replicas": 2},
    ("largeness", "group"): {"group": _CYCLIC6, "T": 20, "replicas": 2},
    ("lowerbound-simplex", "group"): {"group": _CYCLIC6, "T": 10, "replicas": 10},
    ("lowerbound-matrix", "n"): {"n": 20, "replicas": 10},
    ("oracle", None): {"suite": "acceptance-rate"},
}


def _with_name(data: dict, name: str) -> dict:
    """data with one more config field or threshold."""
    if name in _THRESHOLD_VALUES:
        thresholds = {**data.get("thresholds", {}), name: _THRESHOLD_VALUES[name]}
        return {**data, "thresholds": thresholds}
    return {**data, name: _FIELD_VALUES[name]}


def _once_ignored():
    """(experiment, chain, name) of every name that a config could once give
    although the experiment does not read it: the sizes and the suite on
    every experiment, n and group on the oracle, and on connect and
    largeness the other chain's threshold."""
    for experiment, variants in _EXPECTED_READS.items():
        for reads in variants:
            chain = next((c for c in ("n", "group") if c in reads), None)
            accepted = {"T", "T1", "T2", "replicas", "suite"}
            if experiment == "oracle":
                accepted |= {"n", "group"}
            accepted |= {t for other in variants for t in other if t in _THRESHOLD_VALUES}
            for name in sorted(accepted - reads):
                yield experiment, chain, name


_ONCE_IGNORED = list(_once_ignored())


def test_once_ignored_names_are_counted():
    assert len(_ONCE_IGNORED) == 58
    assert {(e, c) for e, c, _ in _ONCE_IGNORED} == set(_RUNNABLE)


@pytest.mark.parametrize("experiment, chain, name", _ONCE_IGNORED,
                         ids=[f"{e}-{c}-{n}" for e, c, n in _ONCE_IGNORED])
def test_a_name_the_experiment_does_not_read_exits_one(tmp_path, capsys, experiment, chain,
                                                       name):
    # each of these once ran to exit 0 and was written to the manifest as if
    # it had shaped the run; the config without it is accepted
    runnable = {"experiment": experiment, **_RUNNABLE[experiment, chain]}
    ExperimentConfig.from_dict(runnable)
    data = _with_name(runnable, name)
    with pytest.raises(ConfigError, match=f"{experiment} reads"):
        ExperimentConfig.from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "res"
    assert cli_main([experiment, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert "config error: " in capsys.readouterr().err


def _readme_reads_table():
    """(subcommand, names) of each row of the README's table of what each
    subcommand reads."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | reads | defaults |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")[1:-1]
        (experiment,) = re.findall(r"`([^`]+)`", cells[0])
        rows.append((experiment, re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_readme_table_of_reads_matches_the_config_check():
    rows = _readme_reads_table()
    assert {experiment for experiment, _ in rows} == set(EXPERIMENTS)
    names = set(_FIELD_VALUES) | {f"thresholds.{key}" for key in _THRESHOLD_VALUES}
    for experiment, reads in rows:
        assert set(reads) <= names, (experiment, reads)
        data = {"experiment": experiment}
        for name in reads:
            data = _with_name(data, name.removeprefix("thresholds."))
        ExperimentConfig.from_dict(data)
        for other in sorted(names - set(reads)):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(_with_name(data, other.removeprefix("thresholds.")))


# ---------------------------------------------------------------------------
# group resolution and horizon recipes


def test_resolve_group_variants(tmp_path):
    group, gens = resolve_group({"family": "cyclic", "n": 6})
    assert group.n == 6 and set(gens.elements) == {1, 5}
    _, gens = resolve_group({"family": "cyclic", "n": 6, "gens": "complete"})
    assert set(gens.elements) == set(range(1, 6))
    _, gens = resolve_group({"family": "cyclic", "n": 7, "gens": [2, 5]})
    assert set(gens.elements) == {2, 5}
    group, _ = resolve_group({"family": "hypercube", "k": 3})
    assert group.n == 8
    group, _ = resolve_group({"family": "dihedral", "k": 4})
    assert group.n == 8

    src, src_gens = resolve_group({"family": "cyclic", "n": 4})
    lines = [str(src.n)]
    lines += [" ".join(str(v) for v in row) for row in src.mul]
    lines.append(" ".join(str(g) for g in src_gens.elements))
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    loaded, _ = resolve_group({"family": "file", "path": str(path)})
    assert np.array_equal(loaded.mul, src.mul)

    with pytest.raises(ConfigError):
        resolve_group(None)
    with pytest.raises(ConfigError):
        resolve_group({"family": "cyclic"})
    with pytest.raises(ConfigError):
        resolve_group({"family": "hypercube"})
    with pytest.raises(ConfigError):
        resolve_group({"family": "file"})


def test_default_horizons_frozen_values():
    # complete generating set on 16 elements: gamma_hat = 2/15
    assert simplex_chain(*build_cyclic(16, range(1, 16))).horizons() == (3970, 999)
    assert matrix_chain(16).horizons() == (1557, 200)


# ---------------------------------------------------------------------------
# exact oracles


def test_irwin_hall_cdf_closed_forms():
    assert irwin_hall_cdf(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert irwin_hall_cdf(2, 1.0) == pytest.approx(0.5, abs=1e-15)
    # k=2 has the triangular law: CDF(x) = x^2/2 on [0,1]
    assert irwin_hall_cdf(2, 0.5) == pytest.approx(0.125, abs=1e-15)
    assert irwin_hall_cdf(3, 1.5) == pytest.approx(0.5, abs=1e-15)
    assert irwin_hall_cdf(4, 0.0) == 0.0
    assert irwin_hall_cdf(4, 4.0) == pytest.approx(1.0, abs=1e-12)


def test_exact_acceptance_rates_frozen():
    assert exact_acceptance_rate(3) == pytest.approx(0.75, abs=1e-14)
    assert exact_acceptance_rate(4) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert exact_acceptance_rate(5) == pytest.approx(float(Fraction(115, 192)), abs=1e-13)


def test_exact_marginal_cdf_against_trapezoid():
    assert exact_marginal_cdf(3, 0.0) == 0.0
    assert exact_marginal_cdf(3, 2.0) == pytest.approx(1.0, abs=1e-12)
    for x in (0.2, 0.7, 1.0, 1.3, 1.9):
        if x <= 1.0:
            integral = (x + x * x / 2.0) / 3.0
        else:
            integral = (3.0 * x - x * x / 2.0 - 1.0) / 3.0
        assert exact_marginal_cdf(3, x) == pytest.approx(integral, abs=1e-12)
    grid = np.linspace(0.0, 2.0, 21)
    vals = [exact_marginal_cdf(4, float(x)) for x in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_oracle_suites_frozen_values():
    acc = oracle("acceptance-rate")
    assert acc["n=3"] == pytest.approx(0.75, abs=1e-14)
    assert acc["n=4"] == pytest.approx(2.0 / 3.0, abs=1e-14)

    sched = oracle("schedule-enumeration")
    for length in range(1, 7):
        assert sched[f"P[tau<={length}]"] == pytest.approx(
            1.0 - (1.0 / 3.0) ** (length - 1), abs=1e-14
        )

    kern = oracle("kernel-enumeration")
    assert kern["cyclic-4-pm1"]["base_row"] == pytest.approx([0.5, 0.25, 0.0, 0.25])
    assert kern["cyclic-4-pm1"]["edge_row"] == pytest.approx([0.75, 0.125, 0.0, 0.125])

    marg = oracle("marginal-density")
    assert marg["cdf-n=3"]["x=2.0"] == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(ConfigError):
        oracle("tarot")


def test_coupon_collector_formula_and_edge_cases():
    report = coupon_collector_experiment(200, 0.0, replicas=200, seed=4)
    assert report.T == 529
    assert report.target == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    # c >= log n empties the horizon: every coordinate is missed
    degenerate = coupon_collector_experiment(50, math.log(50) + 1.0, replicas=20, seed=0)
    assert degenerate.T == 0
    assert degenerate.miss_frequency == 1.0


# ---------------------------------------------------------------------------
# run() lifecycle


def _read_manifest(directory):
    return json.loads((directory / "manifest.json").read_text())


def test_run_identity_matrix_completes(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"experiment": "identity-matrix", "n": 5, "replicas": 50, "seed": 3}
    )
    out = tmp_path / "res"
    assert run(cfg, out_dir=out) == 0
    manifest = _read_manifest(out)
    assert manifest["status"] == "complete"
    assert manifest["experiment"] == "identity-matrix"
    assert manifest["summary"]["max_residual"] <= 1e-10
    assert manifest["wall_clock_seconds"] >= 0.0
    assert "SeedSequence" in manifest["replica_seed_rule"]
    for name in manifest["artifacts"]:
        assert (out / name).exists()


@pytest.mark.parametrize("n", [3, 10])
def test_identity_matrix_holds_no_more_than_its_guard_counts(tmp_path, monkeypatch, n):
    # the guard counts the two (pairs, n) stacks of stationary rows and the
    # residuals; the residual tiles and the rejection blocks add a few MB
    # whatever the pair count. Per-pair row tuples or gap temporaries the
    # size of a stack break the bound (at 60,000 pairs and n = 3 they took
    # the peak to about four times the stacks)
    guarded, check = [], harness.check_draw_memory

    def spy(need, what):
        guarded.append(need)
        check(need, what)

    monkeypatch.setattr(harness, "check_draw_memory", spy)
    cfg = ExperimentConfig.from_dict(
        {"experiment": "identity-matrix", "n": n, "replicas": 60_000, "seed": 1})
    tracemalloc.start()
    try:
        assert run(cfg, out_dir=tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(guarded) == 1 and peak <= guarded[0] + (4 << 20)


# a config and its guard's estimate: gap holds 6 and compare 8 (n, n)
# float64 arrays, and compare its (1000, n) test functions; s-recursion a
# (50,000, n) chunk, 80 bytes per move, a 128-row tile's gather, partial sums
# and squares, and the terms of m = 2 generators
_DENSE_RUNS = {
    "gap": ({"experiment": "gap", "group": {"family": "cyclic", "n": 512, "gens": "complete"}},
            6 * 8 * 512 * 512),
    "compare": ({"experiment": "compare",
                 "group": {"family": "cyclic", "n": 512, "gens": "complete"}},
                8 * (8 * 512 * 512 + 1000 * 512)),
    "s-recursion": ({"experiment": "s-recursion", "group": {"family": "cyclic", "n": 64},
                     "replicas": 60_000},
                    50_000 * (8 * 64 + 80) + 8 * 64 * (128 * 64 + 2 * 128 + 2) + 48 * 3 * 64),
}


@pytest.mark.parametrize("name", sorted(_DENSE_RUNS))
def test_a_dense_run_holds_no_more_than_its_guard_counts(tmp_path, monkeypatch, name):
    # gap and compare count their (n, n) float64 arrays (traced at 5.5 and
    # 7.5 of them) and compare its (trials, n) test functions; s-recursion
    # its (50,000, n) chunk, the chunk's moves, a tile's buffers and the
    # recursion's terms. The group check's sampled triples and the writer's
    # chunk add a few MB whatever the size
    guarded = []
    for module in (harness, simplex):
        def spy(need, what, check=module.check_draw_memory):
            guarded.append(need)
            check(need, what)

        monkeypatch.setattr(module, "check_draw_memory", spy)
    cfg = ExperimentConfig.from_dict({**_DENSE_RUNS[name][0], "seed": 1})
    tracemalloc.start()
    try:
        assert run(cfg, out_dir=tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert guarded == [_DENSE_RUNS[name][1]] and peak <= guarded[0] + (4 << 20)


@pytest.mark.parametrize("name", sorted(_DENSE_RUNS))
def test_a_refused_dense_run_builds_nothing(tmp_path, monkeypatch, name):
    # the guard comes before the first kernel, S vector or move
    data, need = _DENSE_RUNS[name]
    built = []
    # the runners import the kernel builders when they run, so the builders
    # are patched where they are defined
    for module, builder in [(kernels, "base_walk_kernel"), (kernels, "edge_walk_kernel"),
                            (kernels, "comparison_kernel"), (kernels, "s_recursion_terms"),
                            (simplex, "s_vector"), (simplex, "draw_moves")]:
        monkeypatch.setattr(module, builder, lambda *args, b=builder: built.append(b))
    monkeypatch.setattr(seeding, "available_memory", lambda: need - 1)
    assert run(ExperimentConfig.from_dict({**data, "seed": 1}), out_dir=tmp_path) == 1
    error = _read_manifest(tmp_path)["error"]
    assert error.startswith("ConfigError: ") and f"hold {need:,} bytes at once" in error
    assert built == []


@pytest.mark.parametrize("seed", [0, 7, 2**63])
def test_s_recursion_draws_its_start_and_its_moves_from_two_streams(tmp_path, monkeypatch, seed):
    # X and Y come from one stream and the moves from another, so the moves
    # never re-read the outputs that made the start
    streams = {}
    real_sample, real_draw = harness.sample_stationary, simplex.draw_moves

    def sample(n, rng):
        streams.setdefault("start", copy.deepcopy(rng))
        return real_sample(n, rng)

    def draw(rng, *args):
        streams.setdefault("moves", copy.deepcopy(rng))
        return real_draw(rng, *args)

    monkeypatch.setattr(harness, "sample_stationary", sample)
    monkeypatch.setattr(simplex, "draw_moves", draw)
    cfg = ExperimentConfig.from_dict({"experiment": "s-recursion",
                                      "group": {"family": "cyclic", "n": 5},
                                      "replicas": 10, "seed": seed})
    assert run(cfg, out_dir=tmp_path) == 0
    assert streams["start"].random(4).tolist() != streams["moves"].random(4).tolist()


def test_run_is_deterministic_at_fixed_seed(tmp_path):
    contents = []
    for tag in ("a", "b"):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "connect", "n": 6, "replicas": 40, "seed": 11}
        )
        out = tmp_path / tag
        assert run(cfg, out_dir=out) == 0
        blobs = {
            name: (out / name).read_bytes()
            for name in _read_manifest(out)["artifacts"]
        }
        blobs["summary"] = json.dumps(_read_manifest(out)["summary"], sort_keys=True)
        contents.append(blobs)
    assert contents[0] == contents[1]


def test_run_seed_changes_results(tmp_path):
    blobs = []
    for seed in (1, 2):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "connect", "n": 6, "replicas": 40, "seed": seed}
        )
        out = tmp_path / str(seed)
        assert run(cfg, out_dir=out) == 0
        names = _read_manifest(out)["artifacts"]
        blobs.append(b"".join((out / name).read_bytes() for name in sorted(names)))
    assert blobs[0] != blobs[1]


def test_run_config_problem_exits_one(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "gap"})  # missing group
    out = tmp_path / "res"
    assert run(cfg, out_dir=out) == 1
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed"
    assert "ConfigError" in manifest["error"]


@pytest.mark.parametrize("data, need", [
    # the largest store drawn: a pair store (one byte per coordinate, two
    # per step) and its lambda stream's buffer (a float64 per step up to
    # 512 steps), the lockstep experiment's or the coupling's phase-2 one,
    # which also holds one barrier flag per step
    ({"experiment": "couple-matrix", "n": 8, "T1": 10, "T2": 20}, 3 * 20 * 11),
    ({"experiment": "couple-simplex", "group": {"family": "cyclic", "n": 6}, "T1": 0,
      "T2": 40}, 3 * 40 * 11),
    ({"experiment": "largeness", "n": 8, "T": 50}, 3 * 50 * 10),
    ({"experiment": "largeness", "group": {"family": "cyclic", "n": 6}, "T": 70}, 3 * 70 * 10),
    # contract-simplex needs T >= ceil(8 / gamma_hat), 49 on cyclic:6
    ({"experiment": "contract-simplex", "group": {"family": "cyclic", "n": 6}, "T": 49},
     3 * 49 * 10),
    ({"experiment": "contract-matrix", "n": 8, "T": 30}, 3 * 30 * 10),
    ({"experiment": "lowerbound-simplex", "group": {"family": "cyclic", "n": 6}, "T": 60},
     3 * 60 * 10),
    # identity-matrix holds two (pairs, n) float64 stacks of stationary rows
    # and the pairs' residuals
    ({"experiment": "identity-matrix", "n": 8}, (2 * 8 + 1) * 3 * 8),
    # compare holds 8 (n, n) float64 arrays and its (trials, n) test
    # functions
    ({"experiment": "compare", "group": {"family": "cyclic", "n": 6}}, 8 * (8 * 6 * 6 + 3 * 6)),
    # s-recursion: a chunk of 3 difference vectors and 3 moves of at most 80
    # bytes, a 3-row tile's gather, partial sums and squares, and the terms
    # of m = 2 generators
    ({"experiment": "s-recursion", "group": {"family": "cyclic", "n": 6}},
     3 * (8 * 6 + 80) + 8 * 6 * (3 * 6 + 2 * 3 + 2) + 48 * 3 * 6),
], ids=["couple-matrix", "couple-simplex", "largeness-matrix", "largeness-simplex",
        "contract-simplex", "contract-matrix", "lowerbound-simplex", "identity-matrix",
        "compare", "s-recursion"])
def test_a_store_larger_than_the_memory_available_exits_one(tmp_path, monkeypatch, data, need):
    # the guard reads the estimate against a patched probe; nothing large
    # is allocated
    cfg = ExperimentConfig.from_dict({**data, "replicas": 3, "seed": 2})
    monkeypatch.setattr(seeding, "available_memory", lambda: need - 1)
    out = tmp_path / "short"
    assert run(cfg, out_dir=out) == 1
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed" and manifest["replica_seeds"] == []
    assert manifest["error"].startswith("ConfigError: ")
    assert f"hold {need:,} bytes at once" in manifest["error"]
    assert f"the {need - 1:,} bytes of memory available" in manifest["error"]
    monkeypatch.setattr(seeding, "available_memory", lambda: need)
    assert run(cfg, out_dir=tmp_path / "enough") == 0


def test_run_invariant_failure_exits_two(tmp_path, monkeypatch):
    def boom(config):
        raise InvariantViolation("synthetic", "runner failure for the exit-code path")

    monkeypatch.setitem(harness._RUNNERS, "connect", boom)
    cfg = ExperimentConfig.from_dict({"experiment": "connect", "n": 6})
    out = tmp_path / "res"
    assert run(cfg, out_dir=out) == 2
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed"
    assert "InvariantViolation" in manifest["error"]


@pytest.mark.parametrize("experiment, fields, error", [
    ("gap", {"group": {"family": "cyclic", "n": 6}}, ValueError),
    ("connect", {"n": 6}, MemoryError),
], ids=["gap-ValueError", "connect-MemoryError"])
def test_run_unexpected_exception_exits_two(tmp_path, monkeypatch, capsys, experiment, fields,
                                            error):
    def boom(config):
        raise error("synthetic runner failure")

    monkeypatch.setitem(harness._RUNNERS, experiment, boom)
    cfg = ExperimentConfig.from_dict({"experiment": experiment, **fields})
    out = tmp_path / "res"
    assert run(cfg, out_dir=out) == 2
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error"] == f"{error.__name__}: synthetic runner failure"
    assert "synthetic runner failure" in capsys.readouterr().err


def test_failure_lines_go_to_stderr(tmp_path, monkeypatch, capsys):
    # every failure's one-line message goes to stderr, as the command
    # line's own config errors do; stdout stays empty
    assert cli_main(["gap", "--group", "cyclic:2", "--out", str(tmp_path / "gap")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ")
    cfg = ExperimentConfig.from_dict({"experiment": "connect", "n": 6, "replicas": 2})
    assert run(cfg, out_dir=tmp_path / "fmt", fmt="xml") == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: unknown output format 'xml'\n"
    for error, code, what in ((InvariantViolation("synthetic", "broken"), 2, "invariant failure"),
                              (KeyError("synthetic"), 2, "unexpected failure")):
        def boom(config, error=error):
            raise error

        monkeypatch.setitem(harness._RUNNERS, "connect", boom)
        assert run(cfg, out_dir=tmp_path / what) == code
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == f"{what}: {error}"


_LEAF_ERRORS = sorted((cls for cls in vars(errors).values() if isinstance(cls, type)
                       and issubclass(cls, errors.GibbsmixError) and not cls.__subclasses__()),
                      key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", _LEAF_ERRORS + [KeyError, MemoryError],
                         ids=lambda cls: cls.__name__)
def test_a_failure_is_reported_by_its_error_family(tmp_path, monkeypatch, capsys, error):
    # run maps a failure by its family in errors.py, not by a list of
    # classes: the ConfigError and GroupError families are config errors
    # (exit 1), every other package error an invariant failure (exit 2),
    # neither with a traceback; anything else is unexpected (exit 2) and
    # prints its traceback
    assert len(_LEAF_ERRORS) > 10 and errors.DegeneratePairMass in _LEAF_ERRORS
    exc = error("synthetic runner failure")

    def boom(config):
        raise exc

    monkeypatch.setitem(harness._RUNNERS, "connect", boom)
    cfg = ExperimentConfig.from_dict({"experiment": "connect", "n": 6})
    out = tmp_path / "res"
    if issubclass(error, (errors.ConfigError, errors.GroupError)):
        code, what = 1, "config error"
    elif issubclass(error, errors.GibbsmixError):
        code, what = 2, "invariant failure"
    else:
        code, what = 2, "unexpected failure"
    assert run(cfg, out_dir=out) == code
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error"] == f"{error.__name__}: {exc}"
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.splitlines()[-1] == f"{what}: {exc}"
    assert ("Traceback (most recent call last)" in stderr) == (what == "unexpected failure")


@pytest.mark.parametrize("experiment, fields", [
    ("couple-matrix", {"n": 5}),
    ("couple-simplex", {"group": {"family": "cyclic", "n": 5}}),
])
def test_couple_needs_a_phase_two_step(tmp_path, capsys, experiment, fields):
    # T2 = 0 leaves no schedule to build a partition process from
    for T2, code in ((0, 1), (1, 0)):
        cfg = ExperimentConfig.from_dict(
            {"experiment": experiment, "T1": 3, "T2": T2, "replicas": 2, **fields})
        out = tmp_path / str(T2)
        assert run(cfg, out_dir=out) == code
        manifest = _read_manifest(out)
        assert manifest["status"] == ("failed" if code else "complete")
        if code:
            assert manifest["error"].startswith("ConfigError: ")
    capsys.readouterr()


def test_s_recursion_with_one_sample_has_no_standard_error(tmp_path, capsys):
    # one sample has no spread: se and deviation_se are null in the table,
    # and the summary neither scores nor judges the deviation
    out = tmp_path / "res"
    assert cli_main(["s-recursion", "--group", "cyclic:3", "--replicas", "1",
                     "--out", str(out)]) == 0
    summary = _read_manifest(out)["summary"]
    assert summary["max_deviation_se"] is None and summary["ok"] is None
    assert summary["max_abs_deviation"] > 0.0
    header, *rows = [line.split(",") for line in (out / "srecursion.csv").read_text().splitlines()]
    assert header[-2:] == ["se", "deviation_se"]
    assert len(rows) == 3 and all(row[-2:] == ["", ""] for row in rows)
    # two samples have both
    assert cli_main(["s-recursion", "--group", "cyclic:3", "--replicas", "2",
                     "--out", str(tmp_path / "two")]) == 0
    assert _read_manifest(tmp_path / "two")["summary"]["ok"] is not None
    capsys.readouterr()


def test_s_recursion_counts_target_rounding_as_no_deviation(tmp_path, capsys):
    # on the 2-element group one move sends D to 0, so both exact targets are
    # 0; the closed form rounds element 0's to 5.55e-17 and the estimates are
    # about 1e-33 with se about 1e-35, all within the rounding bound
    out = tmp_path / "res"
    assert cli_main(["s-recursion", "--group", "hypercube:1", "--replicas", "1000",
                     "--seed", "0", "--out", str(out)]) == 0
    summary = _read_manifest(out)["summary"]
    assert summary["max_deviation_se"] == 0.0 and summary["ok"] is True
    capsys.readouterr()


def test_contract_simplex_horizon_before_the_first_checkpoint_exits_one(tmp_path, capsys):
    # cyclic:5 checkpoints every ceil(8 / gamma_hat) = 29 steps
    out = tmp_path / "res"
    assert cli_main(["contract-simplex", "--group", "cyclic:5", "--T", "1",
                     "--out", str(out)]) == 1
    assert _read_manifest(out)["error"].startswith("ConfigError: T too small")
    capsys.readouterr()


def test_record_table_without_records_keeps_its_header(tmp_path, capsys):
    # T = 0 leaves contract-matrix no checkpoint, so points.csv has no row;
    # its header comes from the record type
    out = tmp_path / "res"
    assert cli_main(["contract-matrix", "--n", "5", "--T", "0", "--replicas", "3",
                     "--out", str(out)]) == 0
    assert (out / "points.csv").read_text() == "t,mean_sq_before,mean_sq_after,ratio,se,bound\n"
    capsys.readouterr()


@pytest.mark.parametrize("chunk", [1, 16, 24, harness._CHUNK_CELLS])
def test_table_writes_every_cell_kind(tmp_path, monkeypatch, chunk):
    # one column per cell kind; None is an empty cell (null in JSON), and
    # bool and numpy's bool are both true/false, not the integers 1/0. The
    # bytes do not depend on how many rows a write formats at once (here 1,
    # 2, 3 or all 4 of them)
    monkeypatch.setattr(harness, "_CHUNK_CELLS", chunk)
    header = ["optional", "flag", "np_flag", "count", "np_count", "value", "np_value", "label"]
    columns = [
        [None, np.float64(0.5), None, 1e-300],
        [True, False, True, False],
        np.array([True, False, False, True]),
        [0, -3, 2**64, 7],
        np.array([7, -1, 2**62, 0], dtype=np.int64),
        [0.1, -0.0, math.inf, 1 / 3],
        np.array([1 / 3, 2.0, -np.inf, 1e16]),
        ["a", "sq_l2_gap", "", "x y"],
    ]
    table = harness.Table("cells", header, columns)
    assert table.write(tmp_path, "csv").read_text() == (
        "optional,flag,np_flag,count,np_count,value,np_value,label\n"
        ",true,true,0,7,0.1,0.3333333333333333,a\n"
        "0.5,false,false,-3,-1,-0.0,2.0,sq_l2_gap\n"
        ",true,false,18446744073709551616,4611686018427387904,inf,-inf,\n"
        "1e-300,false,true,7,0,0.3333333333333333,1e+16,x y\n"
    )
    assert table.write(tmp_path, "jsonl").read_text() == (
        '{"count": 0, "flag": true, "label": "a", "np_count": 7, "np_flag": true, '
        '"np_value": 0.3333333333333333, "optional": null, "value": 0.1}\n'
        '{"count": -3, "flag": false, "label": "sq_l2_gap", "np_count": -1, "np_flag": false, '
        '"np_value": 2.0, "optional": 0.5, "value": -0.0}\n'
        '{"count": 18446744073709551616, "flag": true, "label": "", "np_count": '
        '4611686018427387904, "np_flag": false, "np_value": -Infinity, "optional": null, '
        '"value": Infinity}\n'
        '{"count": 7, "flag": false, "label": "x y", "np_count": 0, "np_flag": true, '
        '"np_value": 1e+16, "optional": 1e-300, "value": 0.3333333333333333}\n'
    )


def test_eigenvalue_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n = 256 OpenBLAS splits the eigensolver's work by its thread count,
    # which moves the last bits unless a run pins one thread itself
    src, written = Path(harness.__file__).resolve().parents[1], []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-B", "-m", "gibbsmix.cli", "gap", "--group", "cyclic:256",
                        "--seed", "1", "--out", str(out)], env=env, check=True,
                       capture_output=True, timeout=120)
        written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert sorted(written[0]) == ["base_eigenvalues.csv", "base_kernel.csv",
                                  "edge_eigenvalues.csv"]
    assert written[0] == written[1]


def test_contract_matrix_exact_coupling_writes_null_ratios(tmp_path, capsys):
    # n=5 with one replica couples to the bit within the run: from then on
    # mean_sq_before is 0 and the ratio is undefined
    out = tmp_path / "res"
    code = cli_main(["contract-matrix", "--n", "5", "--replicas", "1", "--T", "1100",
                     "--seed", "4", "--out", str(out)])
    assert code == 0
    assert _read_manifest(out)["status"] == "complete"
    header, *rows = [line.split(",") for line in (out / "points.csv").read_text().splitlines()]
    cols = {name: k for k, name in enumerate(header)}
    null = [row for row in rows if row[cols["ratio"]] == ""]
    assert null
    for row in rows:
        undefined = float(row[cols["mean_sq_before"]]) == 0.0
        assert (row[cols["ratio"]] == "") == undefined
        # one replica has no standard error at any checkpoint
        assert row[cols["se"]] == ""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("T, slope_defined", [(1203, True), (3, False)])
def test_lowerbound_simplex_manifest_is_strict_json(tmp_path, capsys, T, slope_defined):
    # at T=1203 some checkpoint means fall to or below 0 and are left out of
    # the fit; at T=3 only the t=0 checkpoint exists, so there is no slope
    out = tmp_path / "res"
    code = cli_main(["lowerbound-simplex", "--group", "cyclic:10", "--T", str(T),
                     "--replicas", "50", "--seed", "5", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    summary = manifest["summary"]
    assert manifest["status"] == "complete"
    assert (summary["slope"] is not None) == slope_defined
    assert (summary["slope_rel_error"] is not None) == slope_defined
    if not slope_defined:
        assert summary["ok"] is False


def test_lowerbound_simplex_unit_gap_has_no_slope(tmp_path, capsys):
    # the 2-element group's edge walk has gap exactly 1, so log(1 - gamma)
    # is undefined
    out = tmp_path / "res"
    code = cli_main(["lowerbound-simplex", "--group", "hypercube:1", "--replicas", "20",
                     "--out", str(out)])
    assert code == 0
    summary = _read_manifest(out)["summary"]
    assert summary["gamma"] == 1.0
    assert summary["slope_target"] is None
    assert summary["slope"] is None and summary["slope_rel_error"] is None
    assert summary["ok"] is False


@pytest.mark.parametrize("fields", [
    {"n": 5, "T": 1300},
    {"group": {"family": "dihedral", "k": 3}, "T": 600, "thresholds": {"d": 0.01}},
])
def test_largeness_minima_are_the_per_step_loop(tmp_path, fields):
    # reference: one kernel call per step and a margin pass over every entry
    B = 6
    data = {"experiment": "largeness", "replicas": B, "seed": 3, **fields}
    assert run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0
    got = [float(line.split(",")[1])
           for line in (tmp_path / "minima.csv").read_text().splitlines()[1:]]
    group = gens = None
    if "n" in fields:
        n, kernel = fields["n"], mstep_batch
        margin = lambda x: np.minimum(x, 2.0 - x).min(axis=1)  # noqa: E731
    else:
        group, gens = resolve_group(fields["group"])
        n, kernel = group.n, step_batch
        margin = lambda x: x.min(axis=1)  # noqa: E731
    states = np.empty((B, n))
    moves = []
    for r in range(B):
        rng = replica_rng(3, r)
        states[r] = msample_stationary(n, rng).c if group is None else sample_stationary(n, rng).x
        moves.append(draw_moves(rng, fields["T"], n, group, gens))
    a, b, lam = (np.stack(v) for v in zip(*moves))
    minima = margin(states)
    for t in range(fields["T"]):
        kernel(*pair_moves(states, a[:, t], b[:, t], lam[:, t]))
        minima = np.minimum(minima, margin(states))
    assert got == minima.tolist()


_EDGE_GROUPS = {
    "cyclic3": {"family": "cyclic", "n": 3},
    "hypercube1": {"family": "hypercube", "k": 1},
    "dihedral3": {"family": "dihedral", "k": 3},
}
# the horizon fields each experiment reads, set one at a time; the others
# run at their defaults
_EDGE_TIME = {
    "contract-simplex": ("T",), "contract-matrix": ("T",), "largeness": ("T",),
    "lowerbound-simplex": ("T",), "couple-simplex": ("T1", "T2"),
    "couple-matrix": ("T1", "T2"),
}
_GROUP_ONLY = ("gap", "compare", "s-recursion", "contract-simplex", "couple-simplex",
               "lowerbound-simplex")
_N_ONLY = ("contract-matrix", "identity-matrix", "couple-matrix", "lowerbound-matrix")


def _edge_cases():
    for experiment in EXPERIMENTS:
        if experiment == "oracle":
            for suite in harness.ORACLE_SUITES:
                yield f"oracle-{suite}", {"experiment": experiment, "suite": suite}
            continue
        sizes = []
        if experiment not in _N_ONLY:
            sizes += [(name, {"group": spec}) for name, spec in _EDGE_GROUPS.items()]
        if experiment not in _GROUP_ONLY:
            sizes += [(f"n{n}", {"n": n}) for n in (3, 4)]
        horizons = [(field, t) for field in _EDGE_TIME.get(experiment, ()) for t in (0, 1)]
        # gap reads no replica count
        replicas = {} if experiment == "gap" else {"replicas": 1}
        for size, fields in sizes:
            data = {"experiment": experiment, "seed": 1, **replicas, **fields}
            yield f"{experiment}-{size}", data
            for field, t in horizons:
                yield f"{experiment}-{size}-{field}{t}", {**data, field: t}


@pytest.mark.parametrize("data", [d for _, d in _edge_cases()], ids=[i for i, _ in _edge_cases()])
def test_every_experiment_at_edge_sizes_leaves_strict_artifacts(tmp_path, capsys, data):
    # one replica, the smallest groups (hypercube:1 has 2 elements) and
    # matrices, horizons of 0 and 1: every run ends with a documented exit
    # code and a final status, and no artifact or manifest holds a NaN
    out = tmp_path / "res"
    code = run(ExperimentConfig.from_dict(data), out_dir=out)
    assert code in (0, 1, 2)
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert manifest["status"] == ("complete" if code == 0 else "failed")
    if code:
        # a failure is one of the package's own errors, not a stray exception
        assert isinstance(getattr(errors, manifest["error"].split(":")[0], None), type)
    for name in manifest["artifacts"]:
        text = (out / name).read_text()
        if name.endswith(".jsonl"):
            for line in text.splitlines():
                json.loads(line, parse_constant=_reject_constant)
        else:
            fields = {f for line in text.splitlines() for f in line.split(",")}
            assert not fields & {"nan", "inf", "-inf"}, name


def test_run_writes_running_manifest_before_results(tmp_path, monkeypatch):
    seen = {}

    def probe(config):
        seen["manifest"] = _read_manifest(tmp_path / "res")
        return {"ok": True}, []

    monkeypatch.setitem(harness._RUNNERS, "connect", probe)
    cfg = ExperimentConfig.from_dict({"experiment": "connect", "n": 6})
    assert run(cfg, out_dir=tmp_path / "res") == 0
    assert seen["manifest"]["status"] == "running"
    assert seen["manifest"]["summary"] is None
    assert _read_manifest(tmp_path / "res")["status"] == "complete"


def test_run_jsonl_format_and_outcome_records(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "couple-simplex",
            "group": {"family": "cyclic", "n": 4},
            "T1": 10,
            "T2": 40,
            "replicas": 8,
            "seed": 2,
            "output": {"format": "jsonl"},
        }
    )
    out = tmp_path / "res"
    assert run(cfg, out_dir=out) == 0
    manifest = _read_manifest(out)
    outcome_files = [n for n in manifest["artifacts"] if "outcome" in n]
    assert outcome_files and all(n.endswith(".jsonl") for n in outcome_files)
    lines = (out / outcome_files[0]).read_text().splitlines()
    assert len(lines) == 8
    record = json.loads(lines[0])
    assert {"replica", "coupled"} <= set(record)
    assert manifest["replica_seeds"] and len(manifest["replica_seeds"]) == 8


def test_experiment_list_matches_dispatch():
    assert set(EXPERIMENTS) == set(harness._RUNNERS)


def test_name_lists_keep_their_order():
    assert harness.ORACLE_SUITES == (
        "kernel-enumeration", "acceptance-rate", "schedule-enumeration", "marginal-density",
    )
    assert harness._GROUP_KEYS == {"family", "n", "k", "gens", "path"}
    assert harness.THRESHOLD_KEYS == {"epsilon", "C", "k", "d", "c"}


@pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "oracle"])
def test_config_naming_the_other_chains_field_exits_one(tmp_path, capsys, experiment):
    # 'n' names the matrix chain and 'group' the simplex chain; a config that
    # names both is a config error, whichever chain the experiment runs on,
    # and is rejected before anything is written
    out = tmp_path / "res"
    args = [experiment, "--n", "8", "--group", "cyclic:6", "--out", str(out)]
    assert cli_main(args) == 1
    assert not out.exists()
    assert "config error: " in capsys.readouterr().err


def test_no_code_compares_against_a_chain_label():
    # which chain runs is decided once, by the factory that builds its
    # record; "simplex" and "matrix" are labels written to outputs only
    found = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    found += [
                        f"{path.name}:{node.lineno}"
                        for sub in ast.walk(operand)
                        if isinstance(sub, ast.Constant) and sub.value in ("simplex", "matrix")
                    ]
    assert found == []


def test_compare_builds_and_solves_its_kernel_once(monkeypatch, tmp_path):
    # the comparison kernel and its spectrum come from verify_comparison's
    # report; the runner builds and solves nothing of its own
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("comparison_kernel", "spectral_summary"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    data = {"experiment": "compare", "group": _CYCLIC6, "replicas": 10}
    assert run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0
    # one comparison kernel; the spectra of it and of the base walk
    assert sorted(calls) == ["comparison_kernel", "spectral_summary", "spectral_summary"]


def test_harness_binds_no_simulation_layer():
    # the harness turns a config into a call and the call's result into
    # tables; move kernels, levelled advances and draw laws stay with the
    # chains
    layer = ("advance", "pair_levels", "draw_moves", "draw_pairs", "empty_pairs",
             "predraw", "step_batch", "mstep_batch", "msample_stationary")
    assert [name for name in layer if hasattr(harness, name)] == []


# ---------------------------------------------------------------------------
# command line


def test_parse_group_shorthand_cases():
    assert parse_group_shorthand("cyclic:12") == {"family": "cyclic", "n": 12}
    assert parse_group_shorthand("cyclic:12:complete") == {
        "family": "cyclic", "n": 12, "gens": "complete",
    }
    assert parse_group_shorthand("cyclic:12:1,11") == {
        "family": "cyclic", "n": 12, "gens": [1, 11],
    }
    assert parse_group_shorthand("hypercube:3") == {"family": "hypercube", "k": 3}
    assert parse_group_shorthand("dihedral:5") == {"family": "dihedral", "k": 5}
    assert parse_group_shorthand("file:/tmp/a:b.txt") == {
        "family": "file", "path": "/tmp/a:b.txt",
    }
    for bad in ("cyclic", "cyclic:x", "cyclic:6:1,q", "quaternion:8", "hypercube:2:3"):
        with pytest.raises(ConfigError):
            parse_group_shorthand(bad)


_OPTIONS = ["-h", "--help", "--config", "--seed", "--out", "--format", "--replicas", "--group",
            "--n", "--T", "--T1", "--T2", "--suite", "--threshold"]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_every_subcommand_has_help(capsys):
    sub = _subparsers(build_parser())
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(helps) == list(EXPERIMENTS)
    assert all(text and text.strip() for text in helps.values()), helps
    # --help lists every subcommand with its runner's docstring, and each
    # subcommand's --help shows the options that every subcommand has
    with pytest.raises(SystemExit) as exit_:
        cli_main(["--help"])
    assert exit_.value.code == 0
    listing = " ".join(capsys.readouterr().out.split())
    assert [name for name in EXPERIMENTS if f"{name} {helps[name]}" not in listing] == []
    for name in EXPERIMENTS:
        assert [o for a in sub.choices[name]._actions for o in a.option_strings] == _OPTIONS
        with pytest.raises(SystemExit) as exit_:
            cli_main([name, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == sub.choices[name].format_help()
    # a command line that names a subcommand builds only that one's options
    named = _subparsers(build_parser(["couple-matrix", "--n", "8"])).choices
    assert list(named) == list(EXPERIMENTS)
    assert {name for name, sp in named.items() if len(sp._actions) > 1} == {"couple-matrix"}


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_an_unreadable_group_file_is_a_config_error(tmp_path, capsys, case):
    # a group file that cannot be read is bad input, like a malformed one
    # (ParseError, a GroupError): exit 1 and a failed manifest, no traceback
    groups = tmp_path / "groups"
    groups.mkdir()
    (groups / "bom.txt").write_bytes(b"\xff\xfe3\n0 1 2\n1 2 0\n2 0 1\n1 2\n")
    path = {"missing": groups / "none" / "g.txt", "directory": groups,
            "not-utf8": groups / "bom.txt"}[case]
    out = tmp_path / "res"
    assert cli_main(["gap", "--group", f"file:{path}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err and "Traceback" not in err
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed" and manifest["error"].startswith("ParseError: ")


def test_a_matrix_run_loads_no_kernels_groups_or_exact_arithmetic(tmp_path):
    # connect and couple-matrix on the matrix chain build no group or kernel
    # and run no oracle, so their runs never import groups, kernels or
    # fractions. perfbench/child.py's trace mode looks up the simplex,
    # matrices, coupling, seeding and harness modules in sys.modules right
    # after `from gibbsmix import cli`, to wrap their layers, so that import
    # must keep loading those five
    repo = Path(harness.__file__).resolve().parents[2]
    script = (
        "import json, sys\n"
        "from gibbsmix import cli\n"
        "traced = sorted(m for m in sys.modules if m in {'gibbsmix.simplex', 'gibbsmix.matrices',"
        " 'gibbsmix.coupling', 'gibbsmix.seeding', 'gibbsmix.harness'})\n"
        "codes = [cli.main([name, '--config', f'{sys.argv[1]}/{name}.json', '--out',"
        " f'{sys.argv[2]}/{name}']) for name in ('connect', 'couple-matrix')]\n"
        "unused = ['gibbsmix.kernels', 'gibbsmix.groups', 'fractions']\n"
        "print(json.dumps([traced, codes, [m for m in unused if m in sys.modules]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(repo / "src"),
                                                         os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-B", "-c", script, str(repo / "scripts" / "configs"),
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    traced, codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert traced == ["gibbsmix.coupling", "gibbsmix.harness", "gibbsmix.matrices",
                      "gibbsmix.seeding", "gibbsmix.simplex"]
    assert codes == [0, 0] and loaded == []


def test_cli_runs_gap_experiment(tmp_path, capsys):
    out = tmp_path / "res"
    code = cli_main(["gap", "--group", "cyclic:6", "--out", str(out)])
    assert code == 0
    assert "gap_base" in capsys.readouterr().out
    assert _read_manifest(out)["status"] == "complete"


def test_cli_threshold_and_flag_overrides(tmp_path):
    out = tmp_path / "res"
    code = cli_main(
        [
            "connect", "--n", "8", "--replicas", "25", "--seed", "7",
            "--threshold", "epsilon=0.5", "--out", str(out), "--format", "jsonl",
        ]
    )
    assert code == 0
    manifest = _read_manifest(out)
    assert manifest["config"]["thresholds"] == {"epsilon": 0.5}
    assert manifest["config"]["replicas"] == 25 and manifest["seed"] == 7


def test_cli_config_file_with_subcommand(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "connect", "n": 6, "replicas": 10}))
    out = tmp_path / "res"
    assert cli_main(["connect", "--config", str(path), "--out", str(out)]) == 0
    # the subcommand must match the config's experiment
    assert cli_main(["gap", "--config", str(path), "--out", str(tmp_path / "r2")]) == 1


def test_cli_error_paths(tmp_path, capsys, monkeypatch):
    # a failing run still writes its manifest under the default output path
    monkeypatch.chdir(tmp_path)
    assert cli_main(["connect"]) == 1  # needs group or n
    assert cli_main(["connect", "--n", "8", "--threshold", "epsilon"]) == 1
    assert cli_main(["gap", "--group", "cyclic:6", "--threshold", "a=3"]) == 1
    assert cli_main(["gap", "--group", "klein:4"]) == 1
    assert cli_main(["nosuch"]) == 1
    # thresholds that the experiment does not read
    assert cli_main(["gap", "--group", "cyclic:6", "--threshold", "epsilon=1"]) == 1
    assert cli_main(["couple-matrix", "--n", "5", "--threshold", "k=3"]) == 1
    capsys.readouterr()
    # float() reads nan and inf; both are config errors that name the key
    assert cli_main(["connect", "--n", "8", "--threshold", "epsilon=nan"]) == 1
    assert cli_main(["lowerbound-matrix", "--n", "20", "--threshold", "c=inf"]) == 1
    err = capsys.readouterr().err
    assert "threshold epsilon must be finite" in err and "threshold c must be finite" in err


def test_cli_oracle_prints_frozen_constants(tmp_path, capsys):
    out = tmp_path / "res"
    assert cli_main(["oracle", "--suite", "acceptance-rate", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "0.75" in text
