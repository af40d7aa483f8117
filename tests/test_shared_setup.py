"""Set-up shared by the rows of one compare or fixture: one w1 per polynomial,
each row built once, one error state per compare, and nothing that leaks from
one method or polynomial into another."""

from pathlib import Path

import numpy as np
import pytest

import zerobounds.cartesian
import zerobounds.report
from conftest import random_polynomial
from zerobounds import (
    FIXTURES,
    BlockCompanion,
    CompareOptions,
    Polynomial,
    block_cartesian_radius,
    build_block_companion,
    cartesian_disk,
    format_compare_json,
    parse_polynomial,
    run_compare,
    run_fixture,
)
from zerobounds.report import ALL_METHODS

GOLDEN = Path(__file__).parent / "golden"
ODD_REDUCED = "1, 2, 3, 4, 5, 0"  # degree 5; the Cartesian rows run on its quartic quotient
_RNG = np.random.default_rng(31)
RANDOM = [random_polynomial(_RNG, int(_RNG.integers(4, 17))) for _ in range(2)]
INPUTS = [*(parse_polynomial(f.coefficients) for f in FIXTURES.values()),
          parse_polynomial(ODD_REDUCED), *RANDOM]
INPUT_IDS = [*FIXTURES, "odd-reduced", *(f"random-{p.degree}" for p in RANDOM)]


@pytest.mark.parametrize("source, reduced", [("1, 2, 3, 4, 5", False), (ODD_REDUCED, True)],
                         ids=["even", "quotient"])
def test_both_cartesian_rows_share_one_w1(monkeypatch, source, reduced):
    calls = []
    original = zerobounds.cartesian._companion_row_parts

    def spy(row, n):
        calls.append(n)
        return original(row, n)

    monkeypatch.setattr(zerobounds.cartesian, "_companion_row_parts", spy)
    report = run_compare(source)
    assert report.reduced == reduced
    rows = {r.method: r for r in report.rows}
    assert rows["cartesian_disk"].verdict == rows["block_cartesian"].verdict == "holds"
    assert calls == [2]


def test_partitions_of_one_polynomial_share_w1_and_are_read_only(monkeypatch):
    calls = []
    original = zerobounds.cartesian._companion_row_parts
    monkeypatch.setattr(zerobounds.cartesian, "_companion_row_parts",
                        lambda row, n: calls.append(n) or original(row, n))
    p = parse_polynomial("1, 2, 3, 4, 5, 6, 7")
    first, second = build_block_companion(p), build_block_companion(p)
    assert first is not second
    assert cartesian_disk(first) == cartesian_disk(second)
    assert calls == [3]
    # an equal polynomial, and a partition built by hand, each compute their own
    cartesian_disk(build_block_companion(parse_polynomial("1, 2, 3, 4, 5, 6, 7")))
    by_hand = BlockCompanion(3, first.companion, first.a11, first.a12, first.a21, first.a22)
    assert block_cartesian_radius(by_hand) == block_cartesian_radius(first)
    assert calls == [3, 3, 3]
    for array in (first.companion, first.a11, first.a12, first.a21, first.a22):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def test_each_report_row_is_built_once(monkeypatch):
    built = []

    class CountedRow(zerobounds.report.ReportRow):
        def __init__(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["method"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(zerobounds.report, "ReportRow", CountedRow)
    report = run_compare(FIXTURES["table1"].coefficients)
    assert sum(r.rank is not None for r in report.rows) >= 12
    assert built == list(ALL_METHODS)
    assert not hasattr(zerobounds.report, "replace")


def test_one_error_state_per_compare_and_per_fixture(monkeypatch):
    entered = []
    original = np.errstate

    def spy(**kwargs):
        entered.append(kwargs)
        return original(**kwargs)

    monkeypatch.setattr(zerobounds.report.np, "errstate", spy)
    report = run_compare(FIXTURES["table1"].coefficients)
    assert len(report.rows) == len(ALL_METHODS)
    assert entered.count({"over": "ignore", "invalid": "ignore"}) == 1
    entered.clear()
    assert len(run_fixture("table3").checks) == 10
    assert entered.count({"over": "ignore", "invalid": "ignore"}) == 1


def _rows(p, methods):
    report = run_compare(p, CompareOptions(methods=methods))
    return {r.method: (r.value, r.rectangle, r.verdict, r.margin, r.notes) for r in report.rows}


@pytest.mark.parametrize("p", INPUTS, ids=INPUT_IDS)
def test_a_row_does_not_depend_on_the_other_methods(p):
    """Each run but the last gets a new Polynomial object; the last reruns the
    first run's object, which holds what that run kept on it."""
    shared = Polynomial(p.lower)
    together = _rows(shared, ALL_METHODS)
    alone = {}
    for name in ALL_METHODS:
        alone.update(_rows(Polynomial(p.lower), (name,)))
    reverse = ALL_METHODS[::-1]
    assert together == alone == _rows(Polynomial(p.lower), reverse) == _rows(shared, reverse)


def test_a_second_polynomial_reads_as_if_run_alone():
    """Run back to back with another polynomial of its degree, a report equals
    its golden file, written by a run of it alone."""
    for first, second in (("table1", "table2"), ("table2", "h3")):
        run_compare(FIXTURES[first].coefficients)
        report = format_compare_json(run_compare(FIXTURES[second].coefficients))
        assert report == (GOLDEN / f"compare_{second}.json").read_text(encoding="utf-8")
