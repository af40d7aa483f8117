"""Golden-output gate: default JSON output must stay byte-identical.

The files under tests/golden/ hold the output of

    zerobounds compare --poly <fixture coefficients> --format json --methods all

for each of the eight fixtures, and of ``zerobounds fixture all --format json``.
A change that is meant to keep behaviour (a refactor or a faster route to the
same numbers) must leave them untouched; a change that moves a printed value
has to regenerate them and say why.
"""

from pathlib import Path

import pytest

from zerobounds import FIXTURES
from zerobounds.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _cli_output(capsys, argv):
    main(argv)
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_compare_json_matches_golden(capsys, name):
    argv = ["compare", "--poly", FIXTURES[name].coefficients,
            "--format", "json", "--methods", "all"]
    expected = (GOLDEN / f"compare_{name}.json").read_text(encoding="utf-8")
    assert _cli_output(capsys, argv) == expected


def test_fixture_all_json_matches_golden(capsys):
    expected = (GOLDEN / "fixture_all.json").read_text(encoding="utf-8")
    assert _cli_output(capsys, ["fixture", "all", "--format", "json"]) == expected
