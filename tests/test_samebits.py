"""The same-bits scan (tests/samebits.py) stays runnable and deterministic."""

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
