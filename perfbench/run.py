"""The gibbsmix benchmark: fixed experiment workloads run end to end through
the CLI (gibbsmix.cli.main), one fresh child process per run, one run at a
time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates traced and untraced runs and reports the per-layer metrics; the
spans are recorded by perfbench/child.py, which wraps each layer's entry
points from outside the package. With --workload all the workloads are run
round-robin, one child per workload per round.

A run continues for --seconds (at least two rounds untraced, three traced).
Inside every child a speed probe times a fixed reference snippet every 20 ms
while the run executes (perfbench/child.py, SpeedProbe). End-to-end times
are reported in probe-scaled seconds: each child's wall time, less the time
spent in the probe, is multiplied by the pinned probe_s of
perfbench/workloads.json over the median probe sample of that child, then
the median over the run is taken. The unscaled medians and the probe
samples are printed beside them, so that machine drift stays visible.

Every artifact except manifest.json is checked against the sha256 pinned in
perfbench/workloads.json at seed 1; at any other seed every run must give
the bytes of the first. The exact counts of the traced runs must repeat.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 170
# One BLAS/OpenMP thread per child. Bytecode is never cached, so every run
# compiles the package the same way whatever the environment sets.
CHILD_ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONDONTWRITEBYTECODE="1",
)

# counts that must repeat exactly between traced runs of one workload
EXACT_COUNTS = (
    "draws.replicas", "draws.bytes", "kernel.calls", "kernel.moves",
    "partition.calls", "partition.edges", "partition.merges", "subset.calls",
    "subset.failed", "subset.degenerate", "connect.edges", "connect.censored",
    "write.bytes",
)


@dataclass
class Run:
    """Outcome of one child process."""

    ok: bool
    sample: dict
    digests: dict
    layers: dict
    error: str


def run_child(mode: str, config: dict, work: Path) -> Run:
    run_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=work))
    try:
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = run_dir / "out"
        result = run_dir / "result.json"
        argv = [sys.executable, str(HERE / "child.py"), mode, str(result), run_dir.name, "--",
                config["experiment"], "--config", str(cfg_path), "--out", str(out)]
        spawn = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=run_dir, env=CHILD_ENV, timeout=CHILD_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return Run(False, {}, {}, {}, f"{mode} run timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.strip().splitlines()[-3:]
            return Run(False, {}, {}, {}, f"{mode} run exited {proc.returncode}: {' | '.join(tail)}")
        rec = json.loads(result.read_text())
        if rec["ready"] is None:
            return Run(False, {}, {}, {}, f"{mode} run never called replica_rng")
        sample = {"setup_s": rec["ready"] - spawn - rec["speed_ready_s"],
                  "speed_s": statistics.median(rec["speed_samples"])}
        digests, layers = {}, {}
        if mode != "probe":
            sample["run_s"] = rec["main_end"] - spawn - rec["speed_s"]
            sample["peak_rss_mb"] = rec["maxrss_kb"] / 1024.0
            digests = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir()) if p.name != "manifest.json"
            }
        if mode == "trace":
            layers = layer_metrics(rec, out)
        return Run(True, sample, digests, layers, "")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def layer_metrics(rec: dict, out: Path) -> dict:
    """Per-layer numbers of one traced run, from its spans and counts."""
    spans = rec["spans"]
    counts = rec["counts"]
    dur = [end - start for _, start, end, _ in spans]
    child_total = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_total[parent] += dur[i]

    def outermost(name):
        """Spans called name that no other span called name encloses."""
        for i, (span_name, _, _, parent) in enumerate(spans):
            if span_name != name:
                continue
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                yield i

    def busy(name):
        return sum((dur[i] for i in outermost(name)), 0.0)

    def first_start(name):
        return next((start for span_name, start, _, _ in spans if span_name == name), None)

    def ratio(num, den):
        return num / den if den else 0.0

    c = {name: counts.get(name, 0) for name in EXACT_COUNTS}
    taus = out / "taus.csv"
    if taus.is_file():
        with open(taus, newline="") as fh:
            c["connect.edges"] = sum(int(row["tau"]) for row in csv.DictReader(fh))
    draws_gen = busy("draws.seed") + busy("draws.gen")
    kernel_start, draws_start = first_start("kernel"), first_start("draws.seed")
    kernel_s = busy("kernel")
    partition_s = busy("partition")
    subset_s = busy("subset")
    m = dict(c)
    m.update({
        "draws.s": kernel_start - draws_start if kernel_start is not None else draws_gen,
        "draws.gen_s": draws_gen,
        "draws.stationary_s": busy("draws.stationary"),
        "kernel.busy_s": kernel_s,
        "kernel.mmoves_per_s": ratio(c["kernel.moves"], kernel_s) / 1e6,
        "kernel.batch_mean": ratio(c["kernel.moves"], c["kernel.calls"]),
        "partition.busy_s": partition_s,
        "partition.medges_per_s": ratio(c["partition.edges"], partition_s) / 1e6,
        "subset.busy_s": subset_s,
        "subset.us_per_call": ratio(subset_s, c["subset.calls"]) * 1e6,
        "subset.success_ratio": ratio(
            c["subset.calls"] - c["subset.failed"] - c["subset.degenerate"], c["subset.calls"]),
        "connect.busy_s": busy("connect"),
        "runner.self_s": sum(dur[i] - child_total[i]
                             for i, span in enumerate(spans) if span[0] == "runner"),
        "write.busy_s": busy("write"),
        "setup.import_s": rec["import_s"],
        "setup.config_s": rec["ready"] - rec["main_start"],
    })
    return m


def environment() -> str:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()}, cpu {model}")


class WorkloadState:
    def __init__(self, name: str, spec: dict, seed: int, nominal_speed_s: float):
        self.name = name
        self.config = dict(spec["config"], seed=seed)
        self.pinned = spec["digests_seed1"] if seed == 1 else None
        self.first_digests = None
        self.nominal_speed_s = nominal_speed_s
        self.samples = {"warm": [], "plain": [], "trace": [], "probe": []}
        self.layers = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, mode: str, run: Run) -> None:
        """Count the run, check its digests and keep its sample."""
        self.attempted += 1
        if run.ok and mode in ("plain", "trace"):
            expected = self.pinned or self.first_digests
            if expected is None:
                self.first_digests = run.digests
            elif run.digests != expected:
                run.ok = False
                run.error = f"{mode} run artifact digests {run.digests} != expected {expected}"
        if not run.ok:
            self.failed += 1
            self.errors.append(run.error)
            return
        self.samples[mode].append(run.sample)
        if mode == "trace":
            self.layers.append(run.layers)

    def scaled(self, mode: str, key: str) -> list:
        """A time of each child of one mode, scaled by the child's speed
        probe to the pinned probe sample time."""
        return [s[key] * self.nominal_speed_s / s["speed_s"] for s in self.samples[mode]]

    def raw(self, mode: str, key: str) -> list:
        return [s[key] for s in self.samples[mode]]

    def end_to_end(self) -> dict:
        run_s = self.scaled("plain", "run_s")
        return {
            "run_s": run_s,
            "replicas_per_s": [self.config["replicas"] / t for t in run_s],
            "setup_s": self.scaled("probe", "setup_s") + self.scaled("plain", "setup_s"),
            "peak_rss_mb": self.raw("plain", "peak_rss_mb"),
        }

    def per_layer(self) -> tuple:
        """(values by metric name, list of counts that did not repeat)."""
        values = {k: [layer[k] for layer in self.layers] for k in self.layers[0]}
        unstable = [k for k in EXACT_COUNTS if len(set(values[k])) > 1]
        traced = statistics.median(self.scaled("trace", "run_s"))
        plain = statistics.median(self.scaled("plain", "run_s"))
        values["trace.overhead_frac"] = [traced / plain - 1.0]
        return values, unstable


def measure(states: list, seconds: float, trace: bool) -> None:
    """Round-robin over the workloads until the time is used, one child at
    a time."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        for st in states:  # warm the page cache; not timed
            st.record("warm", run_child("probe", st.config, work))
        min_rounds = 3 if trace else 2
        begin = time.monotonic()
        rounds = 0
        while True:
            round_start = time.monotonic()
            for st in states:
                if trace:
                    mode = "trace" if rounds % 2 == 0 else "plain"
                    st.record(mode, run_child(mode, st.config, work))
                else:
                    st.record("probe", run_child("probe", st.config, work))
                    st.record("plain", run_child("plain", st.config, work))
            rounds += 1
            now = time.monotonic()
            if rounds >= min_rounds and (now - begin) + (now - round_start) > seconds:
                break


def summarize(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return (f"n={len(values)} min {min(values):.6g} median {statistics.median(values):.6g} "
            f"max {max(values):.6g}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads((HERE / "workloads.json").read_text())
    spec = pinned["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gibbsmix" / "cli.py").is_file():
        print(f"perfbench: no gibbsmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**64
    names = sorted(spec) if args.workload == "all" else [args.workload]
    states = [WorkloadState(name, spec[name], seed, pinned["probe_s"]) for name in names]
    declared = bench["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    try:
        measure(states, args.seconds, bool(args.trace))
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(f"environment: {environment()}")
    print(f"times below are scaled to the pinned probe sample of {pinned['probe_s'] * 1e3:.6g} ms")
    metrics = {}
    correct = True
    for st in states:
        for error in st.errors:
            print(f"FAILED {st.name}: {error}", file=sys.stderr)
        if not st.samples["plain"] or (args.trace and not st.layers):
            correct = False
            continue
        if args.trace:
            values, unstable = st.per_layer()
            if unstable:
                correct = False
                print(f"FAILED {st.name}: exact counts differ between traced runs: "
                      + ", ".join(f"{k} {sorted(set(values[k]))}" for k in unstable),
                      file=sys.stderr)
        else:
            values = st.end_to_end()
        print(f"workload {st.name} (seed {seed}, {st.attempted} runs, {st.failed} failed):")
        for mode in ("plain", "trace") if args.trace else ("probe", "plain"):
            key = "setup_s" if mode == "probe" else "run_s"
            times = st.raw(mode, key)
            speed = [t * 1e3 for t in st.raw(mode, "speed_s")]
            print(f"  {mode} {key}, unscaled = {statistics.median(times):.6g} s ({summarize(times)}); "
                  f"probe sample {statistics.median(speed):.6g} ms ({summarize(speed)})")
        for m in declared:
            if m["name"] in EXACT_COUNTS:
                pick = statistics.median_low  # one of the (equal) counts
            else:
                pick = statistics.median
            value = pick(values[m["name"]])
            key = m["name"] if len(states) == 1 else f"{st.name}/{m['name']}"
            metrics[key] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']} = {value:.6g} {m['unit']} ({summarize(values[m['name']])})")
    attempted = sum(st.attempted for st in states)
    failed = sum(st.failed for st in states)
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
