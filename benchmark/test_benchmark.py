"""Tests of the benchmark harness itself: inputs, checker and tracing.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q benchmark
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import islice

import mpmath
import numpy as np
import pytest

import harness
import tracing
from check import check, check_compare, check_roots, reference_max_modulus
from run import WORKLOADS
from workloads import attempt, blocks, execute, hard_family


def _first(workload: str, kind: str, label: str | None = None):
    for op in next(blocks(workload, 5)):
        if op.kind == kind and (label is None or op.label == label):
            return op
    raise LookupError(f"no {kind} {label} op in the first {workload} block")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixed_seed_reproduces_identical_inputs(workload):
    first = list(islice(blocks(workload, 7), 2))
    again = list(islice(blocks(workload, 7), 2))
    other = list(islice(blocks(workload, 8), 2))
    assert first == again
    assert first != other


def test_generated_text_parses_to_the_recorded_values():
    import zerobounds

    for workload in WORKLOADS:
        for op in next(blocks(workload, 3)):
            if op.text is None:
                continue
            monic = np.array(op.values) / op.values[0]
            parsed = np.array(zerobounds.parse_polynomial(op.text).descending())
            np.testing.assert_allclose(parsed, monic, rtol=1e-15, atol=0)


def test_checker_flags_a_shrunken_max_modulus():
    op = _first("compare_ladder", "compare", "deg6")
    rendered = execute(op)
    assert check(op, rendered) == "ok"
    payload = json.loads(rendered)
    true_max = float(payload["oracle"]["max_modulus"])
    payload["oracle"]["max_modulus"] = format(true_max * (1 - 1e-6), ".12g")
    assert check_compare(op, json.dumps(payload)) == "wrong"

    roots_op = _first("roots_hard", "roots", "generic")
    max_modulus = execute(roots_op)
    assert check_roots(roots_op, max_modulus) == "ok"
    assert check_roots(roots_op, max_modulus * (1 - 1e-6)) == "wrong"


@pytest.mark.parametrize("kind", ["disk", "rectangle"])
def test_checker_flags_a_verdict_contradicting_the_reference(kind):
    op = _first("compare_ladder", "compare", "deg16")
    payload = json.loads(execute(op))
    flipped = {"holds": "violated", "violated": "holds"}
    for row in payload["rows"]:
        is_rectangle = row["rectangle"] is not None
        if row["verdict"] is not None and is_rectangle == (kind == "rectangle"):
            row["verdict"] = flipped[row["verdict"]]
            break
    else:
        pytest.fail(f"no {kind} row with a verdict")
    assert check_compare(op, json.dumps(payload)) == "wrong"


def test_hard_references_contain_the_exact_roots_of_each_input():
    """The roots of each input as rounded to floats, in 30-digit arithmetic,
    lie inside the interval the checker accepts."""
    mpmath.mp.dps = 30
    for op in hard_family():
        lo, hi = reference_max_modulus(op)
        c = [mpmath.mpc(x) for x in op.values]
        if len(c) == 3:
            disc = mpmath.sqrt(c[1] ** 2 - 4 * c[0] * c[2])
            roots = [(-c[1] + disc) / (2 * c[0]), (-c[1] - disc) / (2 * c[0])]
        else:
            roots = mpmath.polyroots(c, maxsteps=3000, extraprec=300)
        true_max = float(max(abs(r) for r in roots))
        assert lo <= true_max <= hi, op.label
        assert hi - lo <= 0.02 * true_max, op.label


def test_known_defects_still_show():
    raised: Counter = Counter()
    outcomes = {op.label: check(op, attempt(op, raised)) for op in hard_family()}
    assert outcomes["scaled_1e-200"] == "wrong"
    assert outcomes["zero_roots"] == outcomes["wilkinson10"] == "ok"
    failed = [label for label, outcome in outcomes.items() if outcome == "failed"]
    assert sorted(failed) == sorted(
        ["repeated4", "repeated3_3", "cluster", "wilkinson20", "scaled_1e+200"])


def test_untraced_run_leaves_no_wrapper_installed(monkeypatch):
    monkeypatch.setattr(harness, "COLD_STARTS", 1)
    result = harness.timed_run("tables_small", 3, 1)
    assert tracing.installed_wrappers() == []
    assert result["correct"]
    assert result["attempted"] >= harness.MIN_OPS
    assert set(result["metrics"]) == {
        "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"}


def test_same_seed_attempts_and_fails_the_same_operations(monkeypatch):
    monkeypatch.setattr(harness, "COLD_STARTS", 1)
    first, second = (harness.timed_run("roots_hard", 5, 1) for _ in range(2))
    assert first["attempted"] == second["attempted"] >= harness.MIN_OPS
    assert first["failed"] == second["failed"] > 0


def test_traced_run_restores_originals_and_accounts_for_op_time(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "COLD_STARTS", 1)
    monkeypatch.setattr(harness, "TRACE_BLOCKS", {**harness.TRACE_BLOCKS, "tables_small": 1})
    monkeypatch.setattr(harness, "SPANS_DIR", tmp_path)
    result = harness.traced_run("tables_small", 3, 1)
    assert tracing.installed_wrappers() == []
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layers = sum(v for name, v in metrics.items()
                 if name.endswith("_ms") and name.split(".")[0] not in ("trace", "cli"))
    assert layers + metrics["trace.unattributed_ms"] == pytest.approx(metrics["trace.op_ms"])
    assert metrics["companion.block_builds"] > 0
    assert metrics["linalg.lapack_calls"] > 0
    assert metrics["linalg.radius_sweep_ms"] == 0.0  # tables_small bypasses the sweep
    assert (tmp_path / "spans-tables_small-seed3.jsonl").is_file()
