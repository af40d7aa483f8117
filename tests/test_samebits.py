"""The same-bits scan (tests/samebits.py) stays runnable and deterministic."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("samebits.py")


def _samebits(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_a_quick_scan_run_twice_reports_every_output_identical(tmp_path):
    runs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for out in runs:
        assert _samebits("run", out, "--quick").returncode == 0
    compared = _samebits("compare", *runs)
    assert compared.returncode == 0, compared.stdout + compared.stderr
    rows = [line.split() for line in compared.stdout.splitlines()[1:]]
    kinds = [row[-4:] for row in rows if len(row) >= 4 and row[-4] in
             ("roots", "rectangle", "sweep", "sweep_row", "closed")]
    assert {kind[0] for kind in kinds} == {"roots", "rectangle", "sweep", "sweep_row", "closed"}
    assert all(moved == "0" and worst == "0" for _, _, moved, worst in kinds)
    families = {row[0] for row in rows if len(row) == 6}
    assert {"complex", "real", "past-range", "unitary", "dense", "wilkinson", "hard"} <= families


def _compare_failures(tmp_path, first, second):
    """compare on two one-line runs whose input fails with the given oracle texts."""
    runs = []
    for name, text in (("a", first), ("b", second)):
        runs.append(tmp_path / f"{name}.jsonl")
        line = {"family": "hard", "id": "0", "out": {"roots": text, "failed": True}}
        runs[-1].write_text(json.dumps(line) + "\n")
    return _samebits("compare", *runs)


def test_compare_counts_a_failure_whose_causes_changed(tmp_path):
    text = ("root iteration stalled at the rounding level after 64 iterations, then {} "
            "(max residual nan, guard nan)")
    compared = _compare_failures(tmp_path, text.format("overflowed at iteration 1"),
                                 text.format("did not converge in 2000 iterations"))
    assert compared.returncode == 1
    assert "causes changed 1 of 1 failing in both" in compared.stdout


def test_compare_moves_but_counts_no_cause_on_a_changed_residual(tmp_path):
    text = "root iteration overflowed at iteration 1 (max residual {}, guard 1e-12)"
    compared = _compare_failures(tmp_path, text.format("5.040e+83"), text.format("nan"))
    assert compared.returncode == 1
    roots = next(line.split() for line in compared.stdout.splitlines() if " roots " in line)
    assert roots[-3:-1] == ["0", "1"]  # identical 0, moved 1
    assert "causes changed 0 of 1 failing in both" in compared.stdout
