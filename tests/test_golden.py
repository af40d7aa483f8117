"""Golden-output gate: default JSON output must stay byte-identical.

The files under tests/golden/ hold the output of

    zerobounds compare --poly <fixture coefficients> --format json --methods all

for each of the eight fixtures, and of ``zerobounds fixture all`` in JSON
(``fixture_all.json``) and in text (``fixture_all.txt``).
Seven more files cover the paths the defaults do not reach: the non-default
``linden`` / ``kittaneh`` variants (CSV and text, on table1), an
odd-degree input with a zero constant term, whose partition methods run on
the even quotient (text), h1 under ``--strict-mw``, whose mw row is refused
with the guard's reasons (JSON), a quartic whose ``unit_tail_disk`` row
is valid with sign -1 (text), and (z - 1)^4 in JSON twice: once with an
oracle stubbed to fail with a fixed message, which leaves ``oracle`` null
beside that ``oracle_error`` string (exit 4), and once under ``--no-oracle``,
where both are null. The stub keeps the golden independent of the CPU: the
real stall's residual depends on which SIMD loop NumPy runs for complex
multiply; tests/test_roots.py covers the stall itself.
The text variants golden is read a second time from a ``compare @FILE`` run
whose preset file holds the same flags, one per line.
A change that is meant to keep behaviour (a refactor or a faster route to the
same numbers) must leave them untouched; a change that moves a printed value
has to regenerate them and say why.
"""

from pathlib import Path

import pytest

import zerobounds.report
from zerobounds import FIXTURES, NoConvergenceError
from zerobounds.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _cli_output(capsys, argv, exit_code=0):
    assert main(argv) == exit_code
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_compare_json_matches_golden(capsys, name):
    argv = ["compare", "--poly", FIXTURES[name].coefficients,
            "--format", "json", "--methods", "all"]
    expected = (GOLDEN / f"compare_{name}.json").read_text(encoding="utf-8")
    assert _cli_output(capsys, argv) == expected


@pytest.mark.parametrize("fmt, golden", [("json", "fixture_all.json"), ("text", "fixture_all.txt")],
                         ids=["json", "text"])
def test_fixture_all_json_matches_golden(capsys, fmt, golden):
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert _cli_output(capsys, ["fixture", "all", "--format", fmt]) == expected


_TABLE1_VARIANTS = ["compare", "--poly", FIXTURES["table1"].coefficients, "--methods", "all",
                    "--variant", "linden=table", "--variant", "kittaneh=plus_one"]

# _TABLE1_VARIANTS' flags, one per line in a preset file the test writes
_PRESET = "@table1_variants.args"

_QUARTIC = ["compare", "--poly", "1, -4, 6, -4, 1", "--methods", "all"]  # (z - 1)^4


def _stalled_oracle(p):
    raise NoConvergenceError("root iteration stalled at the rounding level (stubbed oracle)")


@pytest.mark.parametrize("argv, golden, exit_code", [
    (_TABLE1_VARIANTS + ["--format", "csv"], "compare_table1_variants.csv", 0),
    (_TABLE1_VARIANTS + ["--format", "text"], "compare_table1_variants.txt", 0),
    (_TABLE1_VARIANTS[:3] + [_PRESET, "--format", "text"], "compare_table1_variants.txt", 0),
    (["compare", "--poly", "2, 1/3, 0, 1/4, 1/5, 0", "--methods", "all", "--format", "text"],
     "compare_odd_reduced.txt", 0),
    (["compare", "--poly", FIXTURES["h1"].coefficients, "--methods", "all", "--strict-mw",
      "--format", "json"], "compare_h1_strict_mw.json", 3),
    (["compare", "--poly", "1, 1/2, 1/3, 0, -1", "--methods", "all", "--format", "text"],
     "compare_unit_tail.txt", 0),
    (_QUARTIC + ["--format", "json"], "compare_quartic_oracle_error.json", 4),
    (_QUARTIC + ["--format", "json", "--no-oracle"], "compare_quartic_no_oracle.json", 0),
], ids=["table1-variants-csv", "table1-variants-text", "table1-variants-preset-text",
        "odd-reduced-text", "h1-strict-mw-json", "unit-tail-text", "oracle-error-json",
        "no-oracle-json"])
def test_non_default_paths_match_golden(capsys, monkeypatch, tmp_path, argv, golden,
                                       exit_code):
    monkeypatch.chdir(tmp_path)
    Path(_PRESET[1:]).write_text("\n".join(_TABLE1_VARIANTS[3:]) + "\n", encoding="utf-8")
    if golden == "compare_quartic_oracle_error.json":
        monkeypatch.setattr(zerobounds.report, "find_roots", _stalled_oracle)
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert _cli_output(capsys, argv, exit_code) == expected
