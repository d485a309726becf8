"""The benchmark's correctness gate, run in the suite: each perfbench
workload's config, at seed 1, writes the artifacts whose sha256 the benchmark
pins (perfbench/workloads.json, ``digests_seed1``), so a change that moves
their bytes fails here and not only in a benchmark run. A traced child
(perfbench/child.py) must find and wrap every layer it times. perfbench/ is
read, never written."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gibbsmix.harness import ExperimentConfig, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_digests_at_seed_1(name, tmp_path, capsys):
    spec = WORKLOADS[name]
    config = ExperimentConfig.from_dict(dict(spec["config"], seed=1))
    assert run(config, out_dir=tmp_path) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if p.name != "manifest.json"}
    assert got == spec["digests_seed1"]


def test_a_traced_child_wraps_the_layers_of_a_coupled_run(tmp_path):
    # trace mode looks up the modules it wraps in sys.modules right after
    # `from gibbsmix import cli`, so one the import no longer loaded would
    # fail every traced child; -B keeps bytecode out of the checkout
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "child.py"), "trace", str(result), "t", "--",
         "couple-matrix", "--n", "8", "--replicas", "4", "--T1", "200", "--T2", "200",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["rc"] == 0
    assert {"kernel", "partition", "runner"} <= {span[0] for span in record["spans"]}
    assert record["counts"]["kernel.calls"] > 0
