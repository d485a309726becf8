import argparse
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import gibbsmix.errors as errors
import gibbsmix.harness as harness
from gibbsmix.cli import build_parser, parse_group_shorthand
from gibbsmix.cli import main as cli_main
from gibbsmix.errors import ConfigError, InvariantViolation
from gibbsmix.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    default_horizons,
    exact_acceptance_rate,
    exact_marginal_cdf,
    irwin_hall_cdf,
    oracle,
    resolve_group,
    run,
)
from gibbsmix.matrices import coupon_collector_experiment, msample_stationary, mstep_batch
from gibbsmix.seeding import draw_moves, replica_rng
from gibbsmix.simplex import sample_stationary, step_batch


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
    assert default_horizons("simplex", 16, gamma_hat=2.0 / 15.0) == (3970, 999)
    assert default_horizons("matrix", 16) == (1557, 200)
    with pytest.raises(ConfigError):
        default_horizons("simplex", 16)
    with pytest.raises(ConfigError):
        default_horizons("tensor", 16)


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


@pytest.mark.parametrize("experiment, error", [("gap", ValueError), ("connect", MemoryError)])
def test_run_unexpected_exception_exits_two(tmp_path, monkeypatch, capsys, experiment, error):
    def boom(config):
        raise error("synthetic runner failure")

    monkeypatch.setitem(harness._RUNNERS, experiment, boom)
    cfg = ExperimentConfig.from_dict({"experiment": experiment, "n": 6})
    out = tmp_path / "res"
    assert run(cfg, out_dir=out) == 2
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error"] == f"{error.__name__}: synthetic runner failure"
    assert "synthetic runner failure" in capsys.readouterr().err


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
        kernel(states, a[:, t], b[:, t], lam[:, t])
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
        for size, fields in sizes:
            data = {"experiment": experiment, "replicas": 1, "seed": 1, **fields}
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
        return {"ok": True}, [], False

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


def test_harness_binds_no_simulation_layer():
    # the harness turns a config into a call and the call's result into
    # tables; move kernels, levelled advances and draw laws stay with the
    # chains
    layer = ("advance", "pair_levels", "draw_moves", "draw_pairs", "empty_moves",
             "step_batch", "mstep_batch", "msample_stationary")
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


def test_every_subcommand_has_help():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(helps) == list(EXPERIMENTS)
    assert all(text and text.strip() for text in helps.values()), helps


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
