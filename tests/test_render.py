"""The JSON renderers write fixed templates; each must print exactly what
json.dumps(payload, indent=2) + "\\n" prints for the payload below, which is
how the reports were rendered before the templates. CSV output must print what
csv.writer printed for the same cells."""

import csv
import io
import json
import math

import numpy as np
import pytest

import zerobounds.report
from zerobounds import (
    FIXTURES,
    CompareOptions,
    Expectation,
    Fixture,
    NoConvergenceError,
    Polynomial,
    find_roots,
)
from zerobounds.report import (
    _coefficient_text,
    _f12,
    format_compare_csv,
    format_compare_json,
    format_fixture_json,
    format_roots_json,
    run_compare,
    run_fixture,
)


def _compare_payload(report):
    maxmod = report.oracle.max_modulus if report.oracle is not None else None
    return {
        "degree": report.degree,
        "coefficients": [_coefficient_text(c) for c in report.coefficients],
        "oracle": None if report.oracle is None else {
            "max_modulus": _f12(report.oracle.max_modulus),
            "iterations": report.oracle.iterations,
        },
        "oracle_error": report.oracle_error,
        "reduced": report.reduced,
        "rows": [
            {
                "method": row.method,
                "variant": row.variant,
                "value": _f12(row.value),
                "applicability": row.applicability,
                "oracle_max_modulus": _f12(maxmod),
                "verdict": row.verdict,
                "margin": _f12(row.margin),
                "rank": row.rank,
                "rectangle": None if row.rectangle is None else {
                    "re_lo": _f12(row.rectangle.re_lo),
                    "re_hi": _f12(row.rectangle.re_hi),
                    "im_lo": _f12(row.rectangle.im_lo),
                    "im_hi": _f12(row.rectangle.im_hi),
                },
                "notes": list(row.notes),
            }
            for row in report.rows
        ],
    }


def _fixture_payload(reports):
    return [
        {
            "name": r.name,
            "passed": r.passed,
            "oracle_max_modulus": _f12(r.oracle_max_modulus),
            "checks": [
                {
                    "method": c.method,
                    "variant": c.variant,
                    "component": c.component,
                    "status": c.status,
                    "reference": None if math.isnan(c.reference) else _f12(c.reference),
                    "computed": None if math.isnan(c.computed) else _f12(c.computed),
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in r.checks
            ],
        }
        for r in reports
    ]


def _roots_payload(rootset):
    return {
        "degree": len(rootset.roots),
        "max_modulus": _f12(rootset.max_modulus),
        "iterations": rootset.iterations,
        "roots": [
            {"re": _f12(z.real), "im": _f12(z.imag), "modulus": _f12(abs(z)), "residual": _f12(r)}
            for z, r in zip(rootset.roots, rootset.residuals)
        ],
    }


def _dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def _assert_compare_renders_as_dumps(report):
    assert format_compare_json(report) == _dumps(_compare_payload(report))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_polynomials_render_as_json_dumps(name):
    report = run_compare(FIXTURES[name].coefficients)
    _assert_compare_renders_as_dumps(report)
    fixture = run_fixture(name)
    assert format_fixture_json([fixture]) == _dumps(_fixture_payload([fixture]))
    rootset = find_roots(FIXTURES[name].polynomial())
    assert format_roots_json(rootset) == _dumps(_roots_payload(rootset))


def test_all_fixtures_and_no_fixture_render_as_json_dumps():
    reports = [run_fixture(name) for name in FIXTURES]
    assert format_fixture_json(reports) == _dumps(_fixture_payload(reports))
    assert format_fixture_json([]) == _dumps([])


@pytest.mark.parametrize("degree", [4, 5, 7, 9, 16, 21, 32, 64, 128])
def test_seeded_gaussian_compares_render_as_json_dumps(degree):
    rng = np.random.default_rng(degree)
    for zero_constant in (False, True):
        lower = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        if zero_constant:
            lower[0] = 0  # odd degrees run the partition methods on the even quotient
        report = run_compare(Polynomial(tuple(lower)))
        assert report.reduced == (zero_constant and degree % 2 == 1)
        _assert_compare_renders_as_dumps(report)


def test_refused_rectangle_and_oracle_free_rows_render_as_json_dumps(monkeypatch):
    def stall(p):
        raise NoConvergenceError("root iteration stalled (synthetic)", best_roots=(), residuals=())

    with monkeypatch.context() as patch:
        patch.setattr(zerobounds.report, "find_roots", stall)
        failed = run_compare("1, -4, 6, -4, 1")  # (z - 1)^4, with an oracle error
    assert failed.oracle is None and "stalled" in failed.oracle_error
    without = run_compare("1, -4, 6, -4, 1", CompareOptions(oracle=False))
    assert without.oracle is None and without.oracle_error is None
    odd = run_compare("1, 2, 3, 5")  # odd degree, nonzero constant term
    rows = failed.rows + without.rows + odd.rows
    assert any(row.applicability == "refused" for row in rows)
    assert any(row.rectangle is not None for row in rows)
    assert any(row.rank is None for row in rows) and any(row.rank is not None for row in rows)
    for report in (failed, without, odd, run_compare("1, 2, 3", CompareOptions(methods=()))):
        _assert_compare_renders_as_dumps(report)


def _csv_writer_rendering(report):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["method", "variant", "value", "applicability", "oracle_max_modulus",
                     "verdict", "margin"])
    maxmod = _f12(report.oracle.max_modulus if report.oracle is not None else None)
    writer.writerows([row.method, row.variant, _f12(row.value), row.applicability, maxmod,
                      row.verdict, _f12(row.margin)] for row in report.rows)
    return out.getvalue()


@pytest.mark.parametrize("coefficients, options", [
    *((FIXTURES[name].coefficients, CompareOptions()) for name in sorted(FIXTURES)),
    ("1, -4, 6, -4, 1", CompareOptions(oracle=False)),  # empty oracle, verdict, margin
    ("1, 2, 3, 1, 2, 0", CompareOptions()),  # odd degree, run on the even quotient
    (FIXTURES["h1"].coefficients, CompareOptions(strict_mw=True)),  # MW refused
])
def test_compare_csv_prints_what_csv_writer_prints(coefficients, options):
    report = run_compare(coefficients, options)
    assert report.oracle is not None or not options.oracle
    assert report.reduced == (coefficients == "1, 2, 3, 1, 2, 0")
    if options.strict_mw:
        assert any(row.method == "mw" and row.applicability == "refused" for row in report.rows)
    assert format_compare_csv(report) == _csv_writer_rendering(report)


def test_escaped_strings_render_as_json_dumps():
    fixture = Fixture('quote"back\\slash-é', "1, 2, 3, 4", (
        Expectation('say "hi" \\ café', 1.0, "exact"),
        Expectation("cauchy", 5.0, "exact"),
    ), mw_guard="heuristic", mw_verdict="holds")
    report = run_fixture(fixture)
    detail = report.checks[0].detail
    assert '"' in detail and "\\" in detail and "é" in detail
    assert any(math.isnan(c.reference) for c in report.checks)  # the guard check
    rendered = format_fixture_json([report])
    assert rendered == _dumps(_fixture_payload([report]))
    assert rendered.isascii()
