"""Measurement loops of the benchmark: end-to-end runs and traced runs.

run.py pins the BLAS/OpenMP threads and puts the library on the path before
importing this module; the cold-start interpreters inherit that environment.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np

from check import check
from speed import SpeedProbe
from tracing import Tracer
from workloads import attempt, blocks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"

# At least ten samples above p90 need at least 100 operations.
MIN_OPS = 100
COLD_STARTS = 11
# Blocks per second of an untraced run on a 2-vCPU VM. A run does a fixed
# amount of work, sized from these rates to take about --seconds there, so
# that two runs with the same seed attempt the same operations and fail on
# the same ones, whatever the machine's speed at the time.
BLOCKS_PER_SECOND = {"compare_ladder": 0.71, "tables_small": 17.6, "roots_hard": 0.6}
# Blocks in the fixed operation list of a traced run, sized so that a
# 25-second run makes at least two passes on a 2-core machine.
TRACE_BLOCKS = {"compare_ladder": 3, "tables_small": 20, "roots_hard": 2}


def timed_blocks(workload: str, seconds: int) -> int:
    """Blocks in a timed run: about seconds' worth, and at least MIN_OPS
    operations."""
    block_len = len(next(blocks(workload, 0)))
    return max(math.ceil(MIN_OPS / block_len), round(seconds * BLOCKS_PER_SECOND[workload]))


def traced_passes(workload: str, seconds: int) -> int:
    """Passes of a traced run over its operation list, each of which runs
    every operation twice: about seconds' worth, and at least one."""
    return max(1, round(seconds * BLOCKS_PER_SECOND[workload] / (2 * TRACE_BLOCKS[workload])))


class Tally:
    """Checker outcomes of the operations of one run."""

    def __init__(self) -> None:
        self.outcomes: Counter = Counter()
        self.by_label: dict[str, Counter] = {}
        self.unexpected_wrong: Counter = Counter()
        self.raised: Counter = Counter()

    def record(self, op, output) -> None:
        outcome = check(op, output)
        self.outcomes[outcome] += 1
        self.by_label.setdefault(f"{op.kind}:{op.label}", Counter())[outcome] += 1
        if outcome == "wrong" and op.known_defect is None:
            self.unexpected_wrong[f"{op.kind}:{op.label}"] += 1

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def ratio(self, outcome: str) -> float:
        return self.outcomes[outcome] / self.attempted

    def result(self, metrics: dict) -> dict:
        """The result line. Failures are loud (an exception, or CLI exit 4) and
        only counted; correct is false when an output contradicts the reference
        on an input that is not a listed known defect."""
        return {
            "correct": not self.unexpected_wrong,
            "attempted": self.attempted,
            "failed": self.outcomes["failed"] + self.outcomes["wrong"],
            "metrics": metrics,
        }

    def report(self) -> None:
        print(f"checker: {dict(self.outcomes)}; raised: {dict(self.raised) or 'none'}")
        for label, counts in sorted(self.by_label.items()):
            if set(counts) != {"ok"}:
                print(f"  {label}: {dict(counts)}")
        for label, n in sorted(self.unexpected_wrong.items()):
            print(f"  WRONG on {label}: {n}")


# ---------------------------------------------------------------------------
# set-up


def cold_starts(n: int) -> tuple[list[float], list[dict]]:
    """Wall times (s) of n fresh interpreters that import zerobounds and run
    one warm-up operation, with each one's phase breakdown."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    walls, phases = [], []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py")],
            cwd=SRC.parent, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - start)
        phase = json.loads(proc.stdout.splitlines()[-1])
        if Path(phase["zerobounds_file"]).resolve().parent.parent != SRC:
            raise RuntimeError(f"cold start imported {phase['zerobounds_file']}, not {SRC}")
        phases.append(phase)
    return walls, phases


def warm_up(workload: str, seed: int) -> None:
    for op in next(blocks(workload, seed, stream=1)):
        attempt(op, Counter())


# ---------------------------------------------------------------------------
# end-to-end run


def timed_run(workload: str, seed: int, seconds: int) -> dict:
    """End-to-end metrics. Each operation's latency is divided by the speed
    probe's slow-down when it started, which reports it at the probe's
    reference speed (speed.py), and the set-up time by the run's mean
    slow-down: a probe sampled right after a cold start reads up to 1.5x
    high. The raw figures are printed beside them."""
    walls, _ = cold_starts(COLD_STARTS)
    warm_up(workload, seed)

    tally = Tally()
    probe = SpeedProbe()
    latencies: list[float] = []
    slowdowns: list[float] = []
    for block in islice(blocks(workload, seed), timed_blocks(workload, seconds)):
        for op in block:
            probe.maybe_sample()
            slowdowns.append(probe.slowdown())
            start = time.perf_counter()
            output = attempt(op, tally.raised)
            latencies.append(time.perf_counter() - start)
            tally.record(op, output)

    raw = np.array(latencies)
    scaled = raw / np.array(slowdowns)
    mean_slowdown = statistics.fmean(slowdowns)
    n = len(raw)
    above_p90 = int(np.sum(scaled > np.percentile(scaled, 90)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # name -> (reported value, raw value, unit, sample note)
    table = {
        "throughput_ops_s": (n / scaled.sum(), n / raw.sum(), "ops/s", f"n={n}"),
        "latency_p50_ms": (np.percentile(scaled, 50) * 1e3, np.percentile(raw, 50) * 1e3,
                           "ms", f"n={n}"),
        "latency_p90_ms": (np.percentile(scaled, 90) * 1e3, np.percentile(raw, 90) * 1e3,
                           "ms", f"n={n}, {above_p90} above"),
        "setup_s": (statistics.median(walls) / mean_slowdown, statistics.median(walls), "s",
                    f"median of {len(walls)} cold starts"),
        "peak_rss_mb": (rss_mb, rss_mb, "MB", "benchmark process, not scaled"),
    }
    metrics = {name: {"value": float(value), "unit": unit}
               for name, (value, _, unit, _) in table.items()}

    print(f"workload {workload}, seed {seed}: {n} operations in {raw.sum():.2f} s busy; "
          f"probe slow-down mean {mean_slowdown:.3f}")
    print(f"  {'metric':<18} {'reported':>12} {'raw':>12}")
    for name, (value, raw_value, unit, note) in table.items():
        print(f"  {name:<18} {value:>12.4f} {raw_value:>12.4f} {unit:<6} ({note})")
    for outcome, name in (("failed", "fail_ratio"), ("wrong", "wrong_ratio")):
        print(f"  {name:<18} {tally.ratio(outcome):>12.4f} {'':>12} {'ratio':<6} "
              f"({tally.outcomes[outcome]}/{n})")
    tally.report()
    return tally.result(metrics)


# ---------------------------------------------------------------------------
# traced run


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    ops = [op for block in islice(blocks(workload, seed), TRACE_BLOCKS[workload])
           for op in block]
    _, phases = cold_starts(COLD_STARTS)
    warm_up(workload, seed)

    # Each operation runs untraced and then traced, back to back, so that
    # drift in machine speed cancels out of the tracing overhead.
    tally = Tally()
    tracers: list[Tracer] = []
    untraced_ns = traced_ns = 0
    for _ in range(traced_passes(workload, seconds)):
        tracer = Tracer()
        for op_id, op in enumerate(ops):
            start = time.perf_counter_ns()
            output = attempt(op, tally.raised)
            untraced_ns += time.perf_counter_ns() - start
            tally.record(op, output)

            tracer.op_id = op_id
            with tracer:
                span = tracer.open("operation")
                try:
                    output = attempt(op, tally.raised)
                finally:
                    tracer.close(span)
            traced_ns += tracer.spans[span].end - tracer.spans[span].start
            tally.record(op, output)
        tracers.append(tracer)

    traced_ops = len(ops) * len(tracers)
    first = tracers[0]
    self_ms: Counter = Counter()
    for tracer in tracers:
        self_ms.update(tracer.self_times_ms())
    metrics = {name: {"value": total / traced_ops, "unit": "ms"}
               for name, total in self_ms.items()}
    op_ms = traced_ns / 1e6 / traced_ops
    untraced_op_ms = untraced_ns / 1e6 / traced_ops
    metrics.update({
        "linalg.lapack_calls": {"value": first.lapack_calls, "unit": "count"},
        "linalg.lapack_n3": {"value": first.lapack_n3, "unit": "n3"},
        "roots.iterations": {"value": first.iterations, "unit": "count"},
        "roots.failures": {"value": first.count("find_roots", failed=True), "unit": "count"},
        "companion.block_builds": {"value": first.count("build_block_companion"),
                                   "unit": "count"},
        "cli.import_ms": {"value": statistics.median(p["cli_import_ms"] for p in phases),
                          "unit": "ms"},
        "trace.op_ms": {"value": op_ms, "unit": "ms"},
        "trace.untraced_op_ms": {"value": untraced_op_ms, "unit": "ms"},
        "trace.overhead_ratio": {"value": op_ms / untraced_op_ms, "unit": "ratio"},
        "fail_ratio": {"value": tally.ratio("failed"), "unit": "ratio"},
        "wrong_ratio": {"value": tally.ratio("wrong"), "unit": "ratio"},
    })
    first.write(SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl")

    print(f"workload {workload}, seed {seed}: {len(tracers)} traced passes over "
          f"{len(ops)} operations (counts are per pass)")
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    layers_ms = sum(v for k, v in self_ms.items() if k != "trace.unattributed_ms") / traced_ops
    print(f"  per-layer self times sum to {layers_ms:.4f} ms of {op_ms:.4f} ms traced per op; "
          f"unattributed {op_ms - layers_ms:.4f} ms, tracing overhead "
          f"{op_ms - untraced_op_ms:.4f} ms per op")
    tally.report()
    return tally.result(metrics)
