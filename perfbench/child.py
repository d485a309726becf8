"""One benchmark run of the gibbsmix CLI, in a fresh process.

Usage: python3 perfbench/child.py MODE RESULT RUN_ID -- <gibbsmix cli arguments>

MODE is one of
  plain  run the CLI with only the readiness hook and the speed probe installed;
  trace  also wrap each layer's entry points and record spans and counts;
  probe  stop at readiness and exit 0 (a set-up measurement).

Readiness is the first call of ``replica_rng``: everything before it
(interpreter, imports, config parsing, group and spectral set-up) is set-up.
The record holds the monotonic times at which cli.main started, readiness
came and cli.main returned.

From the numpy import on, a speed probe (SpeedProbe) times a small fixed
reference snippet every 20 ms of wall time from a SIGALRM handler, so the
speed of the machine is sampled while the run itself executes.

The run writes one JSON object to RESULT: RUN_ID, the CLI's return code,
monotonic timestamps, the peak RSS, the speed probe's samples and the time
it took, and, in trace mode, the spans of the run and its counts. The
package is imported from the checkout's src/ directory and is never edited.
A wrapper replaces the function under its name in every gibbsmix module
that holds it; the package looks such names up at call time.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from collections import Counter
from functools import wraps
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


PROBE_INTERVAL_S = 0.02
# snippets a probe child times directly at readiness, so that its short
# set-up still gets a speed estimate from enough samples
PROBE_BURST = 16


class SpeedProbe:
    """Times a fixed reference snippet (pure-Python integer arithmetic,
    numpy calls on a 128-element array and sums over a 256 KB array, about
    0.4 ms) every PROBE_INTERVAL_S of wall time while the run executes.

    The snippet never touches the package or its random streams. The
    benchmark divides each child's time by the median sample, which cancels
    the drift of the machine's speed that a reference timed before or after
    the child cannot follow. ``total`` is the time spent inside the probe;
    it is subtracted from the child's wall time."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.random(128)
        self._index = rng.integers(0, 128, 128)
        self._mid = rng.random(32_000)
        self.samples = []
        self.total = 0.0

    def sample(self, *_):
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        x, index = self._small, self._index
        for _ in range(25):
            y = np.minimum(x[index], x)
            x = np.where(y > 0.5, y * 0.5, y + 0.25)
        for _ in range(8):
            self._mid.sum()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.total += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class Ready(BaseException):
    """Raised at readiness in probe mode. A BaseException, so that no
    handler inside the package catches it."""


class Tracer:
    """Spans kept in memory as [name, start, end, parent index] and written
    out when the run ends; counts are tallied at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def call(self, name, fn, args, kwargs, count=None, on_error=None):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(self.counts, exc)
            raise
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if count is not None:
            count(self.counts, args, result)
        return result

    def wrapped(self, fn, name, count=None, on_error=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, on_error)

        return wrapper


class TimedGenerator:
    """Delegates to a numpy Generator; each draw is a ``draws.gen`` span
    and adds the bytes it returned to ``draws.bytes``."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def _draw(self, method, args, kwargs):
        return self._tracer.call("draws.gen", getattr(self._rng, method), args, kwargs,
                                 _count_bytes)

    def integers(self, *args, **kwargs):
        return self._draw("integers", args, kwargs)

    def random(self, *args, **kwargs):
        return self._draw("random", args, kwargs)

    def exponential(self, *args, **kwargs):
        return self._draw("exponential", args, kwargs)

    def uniform(self, *args, **kwargs):
        return self._draw("uniform", args, kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_bytes(counts, args, result):
    counts["draws.bytes"] += getattr(result, "nbytes", 8)


def _count_rows(counts, args, result):
    counts["kernel.calls"] += 1
    counts["kernel.moves"] += len(args[3])


def _count_partition(counts, args, result):
    counts["partition.calls"] += 1
    counts["partition.edges"] += len(args[0])
    counts["partition.merges"] += len(result.merges)


def _count_subset(counts, args, result):
    counts["subset.calls"] += 1
    counts["subset.failed"] += not result[0]


def _count_degenerate(counts, exc):
    from gibbsmix.errors import DegeneratePairMass

    if isinstance(exc, DegeneratePairMass):
        counts["subset.calls"] += 1
        counts["subset.degenerate"] += 1


def _count_connect(counts, args, result):
    counts["connect.censored"] += result.censored


def _count_write(counts, args, result):
    counts["write.bytes"] += Path(result).stat().st_size


def _count_seed(counts, args, result):
    counts["draws.replicas"] += 1


def patch(module_name: str, name: str, make_wrapper) -> None:
    """Replace module_name.name by make_wrapper(original) in every loaded
    gibbsmix module that holds the original under that name. A name the
    package no longer has is skipped."""
    original = getattr(sys.modules[module_name], name, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "gibbsmix" and getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def install_readiness(on_ready, tracer=None) -> None:
    def make(original):
        def replica_rng(*args, **kwargs):
            on_ready()
            if tracer is None:
                return original(*args, **kwargs)
            rng = tracer.call("draws.seed", original, args, kwargs, _count_seed)
            return TimedGenerator(rng, tracer)

        return replica_rng

    patch("gibbsmix.seeding", "replica_rng", make)


_LAYERS = (
    # (defining module, function, span name, count)
    ("gibbsmix.simplex", "step_batch", "kernel", _count_rows),
    ("gibbsmix.matrices", "mstep_batch", "kernel", _count_rows),
    ("gibbsmix.matrices", "msample_stationary", "draws.stationary", None),
    ("gibbsmix.matrices", "msample_stationary_batch", "draws.stationary", None),
    ("gibbsmix.coupling", "build_partition_process", "partition", _count_partition),
    ("gibbsmix.coupling", "connectedness_experiment", "connect", _count_connect),
    ("gibbsmix.coupling", "run_nonmarkovian_coupling", "runner", None),
)


def install_trace(tracer: Tracer) -> None:
    from gibbsmix import harness

    for module_name, name, span, count in _LAYERS:
        patch(module_name, name, lambda fn, s=span, c=count: tracer.wrapped(fn, s, c))
    patch("gibbsmix.coupling", "subset_couple_arrays",
          lambda fn: tracer.wrapped(fn, "subset", _count_subset, _count_degenerate))
    harness.Table.write = tracer.wrapped(harness.Table.write, "write", _count_write)
    # the experiment runners sit in a dispatch table, so they are wrapped there
    runners = getattr(harness, "_RUNNERS", {})
    for key, fn in runners.items():
        runners[key] = tracer.wrapped(fn, "runner")


def main(argv: list) -> int:
    if len(argv) < 4 or argv[0] not in ("plain", "trace", "probe") or argv[3] != "--":
        raise SystemExit("usage: child.py plain|trace|probe RESULT RUN_ID -- ARGS")
    mode, result_path, run_id, cli_args = argv[0], argv[1], argv[2], argv[4:]
    record = {"run_id": run_id, "mode": mode, "ready": None}
    probe = None

    def on_ready():
        if record["ready"] is None:
            if mode == "probe":
                for _ in range(PROBE_BURST):
                    probe.sample()
            record["ready"] = time.monotonic()
            record["speed_ready_s"] = probe.total
            if mode == "probe":
                raise Ready()

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401  (part of the timed import)

    probe = SpeedProbe()
    probe.start()
    from gibbsmix import cli

    record["import_s"] = time.perf_counter() - start

    tracer = Tracer()
    install_readiness(on_ready, tracer if mode == "trace" else None)
    if mode == "trace":
        install_trace(tracer)
    record["main_start"] = time.monotonic()
    try:
        rc = cli.main(cli_args)
    except Ready:
        rc = 0
    else:
        if mode == "probe":
            rc = 3  # the run ended without drawing
    record["main_end"] = time.monotonic()
    probe.stop()
    record["speed_s"] = probe.total
    record["speed_samples"] = probe.samples
    record["rc"] = rc
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["spans"] = tracer.spans
    record["counts"] = dict(tracer.counts)
    Path(result_path).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
