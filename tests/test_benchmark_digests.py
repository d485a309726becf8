"""The benchmark's correctness gate, run in the suite: each perfbench
workload's config, at seed 1, writes the artifacts whose sha256 the benchmark
pins (perfbench/workloads.json, ``digests_seed1``), so a change that moves
their bytes fails here and not only in a benchmark run. The workloads file is
read, never written."""

import hashlib
import json
from pathlib import Path

import pytest

from gibbsmix.harness import ExperimentConfig, run

WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json").read_text()
)["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_digests_at_seed_1(name, tmp_path, capsys):
    spec = WORKLOADS[name]
    config = ExperimentConfig.from_dict(dict(spec["config"], seed=1))
    assert run(config, out_dir=tmp_path) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if p.name != "manifest.json"}
    assert got == spec["digests_seed1"]
