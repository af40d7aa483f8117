"""zerobounds benchmark: one seeded workload, measured end to end or traced.

Usage, from the repository root:

    python3 benchmark/run.py --workload compare_ladder --seed 1 --seconds 25 --trace 0

Workloads (workloads.py and BENCHMARK.json say why each exists):
compare_ladder, tables_small, roots_hard.

One client runs a closed loop: each operation starts when the previous one
returns. BLAS and OpenMP threads are pinned to 1 before NumPy loads. Every
output is checked against an independent reference (check.py).

--trace 0 measures the end-to-end metrics: cold-start set-up time from fresh
interpreters, then warm throughput and latency over a fixed number of seeded
blocks, sized to take about --seconds on a 2-vCPU VM and to hold at least
100 operations, then peak memory. Timings
are reported at a reference machine speed: they are scaled by the time of a
frozen kernel sampled throughout the run (speed.py), which cancels the drift
of a shared machine's speed. The raw figures are printed beside them.
--trace 1 measures the per-layer metrics: it runs a fixed, seeded list of
operations untraced and traced, back to back, in a fixed number of passes
sized to take about --seconds, derives self
times from the spans and writes the first traced pass's spans to
benchmark/out/.

Because the work of a run depends only on --workload and --seconds, two runs
with the same seed attempt the same operations and fail on the same ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. failed counts every operation that raised,
reported an oracle failure or answered wrong. correct is false when an
answer contradicts the reference on an input that is not a listed known
defect (workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("compare_ladder", "tables_small", "roots_hard")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "zerobounds" / "__init__.py").is_file():
        print(f"error: no zerobounds sources under {SRC}", file=sys.stderr)
        return 2
    # The pins take effect only if set before NumPy is first imported, so the
    # measurement modules are imported after them.
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    import harness

    run = harness.traced_run if args.trace else harness.timed_run
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
