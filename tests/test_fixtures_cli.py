"""Fixture evaluation, report formats, CLI behavior and exit codes."""

import csv
import io
import json

import pytest

import zerobounds.report
from zerobounds import (
    CompareOptions,
    Expectation,
    Fixture,
    NoConvergenceError,
    UnknownFixtureError,
    get_fixture,
    run_all_fixtures,
    run_compare,
    run_fixture,
)
from zerobounds.cartesian import mw_bound
from zerobounds.cli import main
from zerobounds.report import (
    ALL_METHODS,
    format_compare_csv,
    format_compare_json,
    format_compare_text,
    format_fixture_json,
    format_fixture_text,
    resolve_methods,
)

TABLE1 = get_fixture("table1").coefficients


# ------------------------------------------------------------------ fixtures


def test_all_bundled_fixtures_pass():
    reports = run_all_fixtures()
    assert len(reports) == 8
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]


def test_table1_fixture_spot_checks():
    report = run_fixture("table1")
    assert report.passed
    by_method = {(c.method, c.variant): c for c in report.checks}
    cart = by_method[("cartesian_disk", None)]
    assert cart.status == "exact"
    assert abs(cart.reference - 3.941508802) < 1e-9
    assert abs(cart.computed - 3.941508802190745) < 1e-10
    kit = by_method[("kittaneh_disk", "plus_one")]
    assert kit.status == "variant-matched"


def test_divergent_reference_max_modulus_is_reported_not_asserted():
    report = run_fixture("h2")
    assert report.passed
    mm = next(c for c in report.checks if c.method == "max_modulus")
    assert mm.status == "reference-divergent"
    assert mm.passed  # report-only row
    assert mm.detail == "reference max modulus does not match the root oracle"
    assert abs(mm.reference - 0.6408240287) < 1e-9
    assert abs(mm.computed - 0.6319764145) < 1e-9


def test_mw_guard_and_verdict_checks_appear():
    report = run_fixture("h1")
    guard = next(c for c in report.checks if c.component == "guard")
    verdict = next(c for c in report.checks if c.component == "verdict")
    assert guard.passed and "heuristic" in guard.detail
    assert verdict.passed and "violated" in verdict.detail


def test_unknown_fixture_names_the_known_ones():
    with pytest.raises(UnknownFixtureError, match="table1"):
        get_fixture("nope")


def test_fixture_text_marks_divergent_rows():
    text = format_fixture_text(run_fixture("table3"))
    assert text.startswith("fixture table3: PASS")
    assert "[ok*]" in text  # divergent kittaneh row
    assert "[ok ]" in text
    assert "FAIL" not in text


def test_strict_tolerance_fails_the_rounded_references(monkeypatch):
    # published values carry ~10 digits; demanding 1e-12 must fail
    monkeypatch.setattr(zerobounds.report, "FIXTURE_TOLERANCE", 1e-12)
    assert not run_fixture("table1").passed


def test_fixture_rows_follow_compare_refusals_and_validity():
    # odd degree, zero constant term: partition methods run on the even quotient
    fixture = Fixture("custom", "2, 1/3, 0, 1/4, 1/5, 0", (
        Expectation("partition_disk", 1.113338579, "exact"),
        Expectation("unit_tail_disk", 1.0, "exact"),
        Expectation("cauchy", 0.1, "reference-divergent"),  # below the max modulus
        Expectation("cauchy", 2.0, "reference-divergent"),
    ))
    report = run_fixture(fixture)
    assert not report.passed
    assert [c.passed for c in report.checks] == [True, False, False, True]
    refused = report.checks[1]
    assert refused.detail == ("zero root factored out; computed on the even quotient; "
                              "constant coefficient must equal +1 exactly")
    assert json.loads(format_fixture_json([report]))[0]["checks"][1]["computed"] is None
    # odd degree, nonzero constant term: refused, not raised
    report = run_fixture(Fixture("odd", "1, 2, 3, 5", (
        Expectation("partition_disk", 1.0, "exact"),)))
    assert [(c.passed, c.detail) for c in report.checks] == [
        (False, "requires even degree (constant term is nonzero)")]


def test_fixture_rows_name_unknown_methods_and_variants():
    report = run_fixture(Fixture("x", "1, 2, 3, 4", (
        Expectation("nope", 1.0, "exact"),
        Expectation("cauchy", 1.0, "exact", variant="table"),
        Expectation("linden", 1.0, "exact", variant="bogus"),
        Expectation("cauchy", 5.0, "exact"),
        Expectation("cauchy", 5.0, "exact", component="re_half"),
        Expectation("kittaneh_rectangle", 1.0, "exact", component="re_hlaf"),
        Expectation("kittaneh_rectangle", 1.0, "exact"),
    )))
    assert [(c.method, c.passed, c.detail) for c in report.checks] == [
        ("nope", False, "unknown method 'nope'"),
        ("cauchy", False, "method 'cauchy' has no variants"),
        ("linden", False, "method 'linden' has no variant 'bogus'"),
        ("cauchy", True, ""),
        ("cauchy", False, "method 'cauchy' has no component 're_half'"),
        ("kittaneh_rectangle", False, "method 'kittaneh_rectangle' has no component 're_hlaf'"),
        ("kittaneh_rectangle", False, "method 'kittaneh_rectangle' has no component None"),
    ]
    checks = json.loads(format_fixture_json([report]))[0]["checks"]
    assert [check["computed"] for check in checks] == [None, None, None, "5", None, None, None]


def test_fixture_mw_guard_and_verdict_share_one_mw_bound(monkeypatch):
    calls = []

    def spy(p, strict=False):
        calls.append(p)
        return mw_bound(p, strict=strict)

    monkeypatch.setattr(zerobounds.report, "mw_bound", spy)
    for name in ("table4", "table5", "h1", "h2", "h3"):
        calls.clear()
        assert run_fixture(name).passed
        assert len(calls) == 1, name
    # a guard without an mw expectation still runs the bound, once
    calls.clear()
    report = run_fixture(Fixture("guard", get_fixture("table4").coefficients, (),
                                 mw_guard="guaranteed", mw_verdict="violated"))
    assert len(calls) == 1
    assert [(c.component, c.passed, c.detail) for c in report.checks] == [
        ("guard", False, "guard status 'heuristic', expected 'guaranteed'"),
        ("verdict", False, "oracle verdict 'holds', expected 'violated'"),
    ]


def test_fixture_runs_each_method_and_variant_once(monkeypatch):
    """table2 checks both halves of two rectangles: each rectangle runs once."""
    calls = []
    for name in ("partition_rectangle", "kittaneh_rectangle"):
        def spy(p, name=name, original=getattr(zerobounds.report, name)):
            calls.append(name)
            return original(p)

        monkeypatch.setattr(zerobounds.report, name, spy)
    report = run_fixture("table2")
    assert [(c.method, c.component) for c in report.checks] == [
        ("partition_rectangle", "re_half"), ("partition_rectangle", "im_half"),
        ("kittaneh_rectangle", "re_half"), ("kittaneh_rectangle", "im_half")]
    assert report.passed
    assert calls == ["partition_rectangle", "kittaneh_rectangle"]


def test_fixture_mw_guard_is_read_from_the_row_applicability(monkeypatch):
    """The guard status comes from the mw row's applicability, which
    mw_bound maps one to one from its status; the notes play no part."""
    fixture = Fixture("guard", get_fixture("table4").coefficients, (), mw_guard="heuristic")
    for force, status in ((False, "heuristic"), (True, "refused")):
        def without_notes(p, strict=False, force=force):
            return mw_bound(p, strict=force)._replace(notes=())

        monkeypatch.setattr(zerobounds.report, "mw_bound", without_notes)
        check = run_fixture(fixture).checks[0]
        assert check.detail == f"guard status {status!r}, expected 'heuristic'"
        assert check.passed == (status == "heuristic")


# ------------------------------------------------------------------- compare


def test_compare_runs_every_method_and_ranks_them():
    report = run_compare(TABLE1)
    assert {r.method for r in report.rows} == set(ALL_METHODS)
    valued = [r for r in report.rows if r.rank is not None]
    ranked = sorted(valued, key=lambda r: r.rank)
    values = [r.value for r in ranked]
    assert values == sorted(values)
    assert ranked[0].method == "radius_sweep"
    # every disk row got a verdict from the oracle
    disk_rows = [r for r in report.rows if r.value is not None]
    assert all(r.verdict == "holds" for r in disk_rows if r.method != "mw")


def test_compare_refuses_even_only_methods_on_odd_degrees():
    report = run_compare("1, 2, 3, 5")  # odd degree, nonzero constant
    refused = {r.method for r in report.rows if r.applicability == "refused"}
    assert {"cartesian_disk", "block_cartesian", "partition_disk",
            "unit_tail_disk", "partition_rectangle"} <= refused
    note = next(r for r in report.rows if r.method == "partition_disk").notes[0]
    assert "even degree" in note


def test_compare_refuses_below_the_minimum_degree_before_parity():
    # degree 1 with a zero constant term is not reducible; the parity reason
    # would claim a nonzero constant term
    methods = ("cartesian_disk", "partition_rectangle", "kittaneh_disk")
    report = run_compare("1, 0", CompareOptions(methods=methods))
    assert [r.applicability for r in report.rows] == ["refused"] * 3
    assert [r.notes for r in report.rows] == [
        ("requires degree >= 4",), ("requires degree >= 4",), ("requires degree >= 3",)]
    # odd degree 5 with a nonzero constant term still names parity
    report = run_compare("1, 2, 3, 1, 2, 7", CompareOptions(methods=("cartesian_disk",)))
    assert report.rows[0].notes == ("requires even degree (constant term is nonzero)",)


def test_compare_factors_out_a_zero_root_for_odd_degrees():
    report = run_compare("1, 2, 3, 1, 2, 0")  # degree 5, quotient degree 4
    assert report.reduced
    row = next(r for r in report.rows if r.method == "partition_disk")
    assert row.value is not None
    assert "even quotient" in row.notes[0]
    # the verdict is still against the full polynomial's roots
    assert row.verdict == "holds"


def test_compare_method_subset_and_unknown_method():
    report = run_compare(TABLE1, CompareOptions(methods=("cauchy", "mw")))
    assert [r.method for r in report.rows] == ["cauchy", "mw"]
    with pytest.raises(ValueError, match="unknown methods"):
        resolve_methods("cauchy, nope")
    with pytest.raises(ValueError, match="^duplicate methods: cauchy$"):
        resolve_methods("cauchy, mw, cauchy")
    assert resolve_methods(None) == ALL_METHODS
    assert resolve_methods("all") == ALL_METHODS


def test_compare_without_oracle_has_no_verdicts():
    report = run_compare(TABLE1, CompareOptions(oracle=False))
    assert report.oracle is None
    assert all(r.verdict is None and r.margin is None for r in report.rows)


# ----------------------------------------------------------------- rendering


def test_text_rendering_shows_rectangles_and_ranks():
    text = format_compare_text(run_compare(TABLE1))
    assert "oracle max |z| = 1.266287018" in text
    assert "cartesian_disk" in text
    assert "] x [" in text  # rectangle extents
    assert "holds" in text


@pytest.mark.parametrize("source, options", [
    (TABLE1, CompareOptions()),
    ("2, 1/3, 0, 1/4, 1/5, 0", CompareOptions()),
])
def test_text_columns_line_up_with_the_header(source, options):
    report = run_compare(source, options)
    lines = format_compare_text(report).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("method "))
    column = lines[start].index("applicability")
    rows = lines[start + 2:]
    assert len(rows) == len(report.rows)
    for line, row in zip(rows, report.rows):
        assert line[column - 1] == " " and line[column:].startswith(row.applicability), line


def test_csv_rendering_has_the_pinned_column_shape():
    report = run_compare(TABLE1)
    rows = list(csv.reader(io.StringIO(format_compare_csv(report))))
    assert rows[0] == ["method", "variant", "value", "applicability",
                       "oracle_max_modulus", "verdict", "margin"]
    assert all(len(r) == 7 for r in rows)
    by_method = {r[0]: r for r in rows[1:]}
    # rectangle rows keep the value cell empty
    assert by_method["hermitian_rectangle"][2] == ""
    assert by_method["partition_rectangle"][2] == ""
    assert by_method["cauchy"][2] == "5"
    # every numeric cell round-trips at 12 significant digits
    for r in rows[1:]:
        for cell in (r[2], r[4], r[6]):
            if cell:
                assert format(float(cell), ".12g") == cell


def _numeric_strings(node):
    if isinstance(node, str):
        try:
            float(node)
        except ValueError:
            return
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _numeric_strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numeric_strings(v)


def test_json_rendering_round_trips_numbers_exactly():
    payload = json.loads(format_compare_json(run_compare(TABLE1)))
    assert payload["degree"] == 6
    assert payload["oracle"]["max_modulus"] == "1.26628701785"
    assert payload["reduced"] is False
    rect_row = next(r for r in payload["rows"] if r["method"] == "hermitian_rectangle")
    assert rect_row["value"] is None
    assert set(rect_row["rectangle"]) == {"re_lo", "re_hi", "im_lo", "im_hi"}
    numbers = list(_numeric_strings(payload))
    assert len(numbers) > 30
    for s in numbers:
        assert format(float(s), ".12g") == s, s


# ----------------------------------------------------------------------- cli


def test_cli_compare_ok(capsys):
    assert main(["compare", "--poly", "1, 0, -1"]) == 0
    out = capsys.readouterr().out
    assert "oracle max |z| = 1" in out


def test_cli_fixture_all_ok(capsys):
    assert main(["fixture", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8


def test_cli_parse_error_names_the_token(capsys):
    assert main(["compare", "--poly", "1, bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "roots"])
@pytest.mark.parametrize("poly, cause", [
    ("0, 1", "leading coefficient is zero"),
    ("1e-200, 1e200", "overflows"),
    ("1e-320, 1", "overflows"),
], ids=["zero", "quotient-overflow", "subnormal-leading"])
def test_cli_bad_leading_coefficient_exits_two(command, poly, cause, capsys):
    assert main([command, "--poly", poly]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and cause in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--poly", "1, 2, 3", "--methods", "nope"],
        ["compare", "--poly", "1, 2, 3", "--variant", "linden=bogus"],
        ["compare", "--poly", "1, 2, 3", "--variant", "alpha=0.3"],
        ["fixture", "nope"],
        ["compare", "--poly", "1, 2, 3", "--variant", "linden"],
        ["compare", "--poly", "1, 2, 3", "--methods", "cauchy,cauchy"],
    ],
)
def test_cli_bad_input_exits_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_empty_method_list_exits_two(capsys):
    assert main(["compare", "--poly", "1, 2", "--methods", ","]) == 2
    assert capsys.readouterr().err == "error: empty method list\n"


def test_cli_radius_sweep_holds_on_a_near_unitary_companion(capsys):
    # lambda_max(theta) has 12 nearly equal narrow peaks here; a grid search
    # settled on a low one and fell below the largest root modulus
    poly = "1, 0, 1/10000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1"
    assert main(["compare", "--poly", poly, "--methods", "radius_sweep", "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == "radius_sweep" and row[5] == "holds"


def test_cli_unknown_fixture_lists_known_names(capsys):
    assert main(["fixture", "nope"]) == 2
    assert "table1" in capsys.readouterr().err


def test_cli_strict_mw_refusal_exits_three(capsys):
    h1 = get_fixture("h1").coefficients
    assert main(["compare", "--poly", h1, "--strict-mw", "--methods", "mw"]) == 3
    out = capsys.readouterr().out
    assert "refused" in out
    assert "strict mode refuses heuristic use" in out


def test_cli_oracle_failure_exits_four_but_prints_bounds(monkeypatch, capsys):
    def explode(p):
        raise NoConvergenceError("synthetic stall", best_roots=(), residuals=())

    monkeypatch.setattr(zerobounds.report, "find_roots", explode)
    assert main(["compare", "--poly", TABLE1, "--format", "csv"]) == 4
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    by_method = {r[0]: r for r in rows[1:]}
    assert by_method["cauchy"][2] == "5"  # bounds still computed
    assert all(r[4] == "" and r[5] == "" for r in rows[1:])  # no oracle, no verdicts


def test_cli_oracle_failure_wins_over_strict_mw(monkeypatch, capsys):
    def explode(p):
        raise NoConvergenceError("synthetic stall", best_roots=(), residuals=())

    monkeypatch.setattr(zerobounds.report, "find_roots", explode)
    h1 = get_fixture("h1").coefficients
    assert main(["compare", "--poly", h1, "--strict-mw", "--methods", "mw"]) == 4
    capsys.readouterr()


def test_cli_no_oracle_flag(capsys):
    assert main(["compare", "--poly", "1, 2, 3", "--no-oracle", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(r[5] == "" for r in rows[1:])  # verdict column empty


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    preset = tmp_path / "preset.args"
    preset.write_text("--format=json\n--variant=kittaneh=plus_one\n", encoding="utf-8")
    # the preset sets json + plus_one; the later command-line format wins, variant stays
    code = main(["compare", "--poly", TABLE1, f"@{preset}",
                 "--format", "csv", "--methods", "kittaneh_disk"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1][0] == "kittaneh_disk"
    assert rows[1][1] == "plus_one"
    assert format(float(rows[1][2]), ".12g") == rows[1][2]
    # without the override the preset's json format is used
    code = main(["compare", "--poly", TABLE1, f"@{preset}", "--methods", "kittaneh_disk"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["variant"] == "plus_one"


def test_cli_config_strict_mw_applies(tmp_path, capsys):
    preset = tmp_path / "strict.args"
    preset.write_text("--strict-mw\n", encoding="utf-8")
    h1 = get_fixture("h1").coefficients
    assert main(["compare", "--poly", h1, f"@{preset}", "--methods", "mw"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    ["--bogus-key=1\n", "--format=yaml\n", "--oracle=maybe\n", "--strict-mw=maybe\n",
     "json\n", "--alpha=wide\n"],
)
def test_cli_bad_config_exits_two(tmp_path, capsys, content):
    # a preset line meets argparse's own checks, as the same text on the command line would
    preset = tmp_path / "bad.args"
    preset.write_text(content, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--poly", "1, 2, 3", f"@{preset}"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["", "   ", "# note", "  # note", "--format json"],
                         ids=["blank", "spaces", "comment", "indented-comment", "flag-space-value"])
def test_cli_preset_line_that_is_not_one_argument_is_named(tmp_path, capsys, line):
    preset = tmp_path / "lines.args"
    preset.write_text(f"--format=json\n{line}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--poly", "1, 2, 3", f"@{preset}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: zerobounds compare ")
    assert f"zerobounds compare: error: preset line {line!r} is not one argument" in err


def test_cli_preset_flag_value_with_spaces_is_one_argument(tmp_path, capsys):
    preset = tmp_path / "poly.args"
    preset.write_text("--poly=1, 0, -1\n--format=json\n", encoding="utf-8")
    assert main(["compare", f"@{preset}", "--methods", "cauchy"]) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == ["1", "0", "-1"]


def test_cli_preset_variant_error_matches_the_flag(tmp_path, capsys):
    preset = tmp_path / "variant.args"
    preset.write_text("--variant=linden=bogus\n", encoding="utf-8")
    assert main(["compare", "--poly", "1, 2, 3", f"@{preset}"]) == 2
    from_preset = capsys.readouterr()
    assert main(["compare", "--poly", "1, 2, 3", "--variant", "linden=bogus"]) == 2
    assert capsys.readouterr() == from_preset
    assert from_preset.err.startswith("error:")


def test_cli_missing_config_file_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--poly", "1, 2, 3", f"@{tmp_path / 'absent.args'}"])
    assert exc.value.code == 2
    assert "absent.args" in capsys.readouterr().err


def test_cli_fixture_takes_no_config(tmp_path, capsys):
    # fixture's only setting is its format, so it has no preset file to read
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("format = json\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "table1", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_cli_fixture_reads_no_preset(tmp_path, capsys):
    # only compare expands @FILE: fixture sees an extra argument, or a fixture name
    preset = tmp_path / "preset.args"
    preset.write_text("--format=json\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "table1", f"@{preset}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["fixture", f"@{preset}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown fixture '@{preset}'")


@pytest.mark.parametrize("poly, text, re_im", [
    ("1, 3", "  -3 +0i   |z| = 3   residual 0\n", ("-3", "0")),
    ("1, -3i", "  +0 +3i   |z| = 3   residual 0\n", ("0", "3")),
    ("1, 0", "  +0 +0i   |z| = 0   residual 0\n", ("0", "0")),
], ids=["real", "imaginary", "zero"])
def test_cli_degree_one_root_has_no_negative_zero(poly, text, re_im, capsys):
    assert main(["roots", "--poly", poly]) == 0
    assert capsys.readouterr().out.splitlines(keepends=True)[1] == text
    assert main(["roots", "--poly", poly, "--format", "json"]) == 0
    root = json.loads(capsys.readouterr().out)["roots"][0]
    assert (root["re"], root["im"]) == re_im


@pytest.mark.parametrize("fmt, line", [
    ("text", "  -1.5e+308 -1.5e+308i   |z| = inf   residual 0"),
    ("json", '      "modulus": "inf",'),
], ids=["text", "json"])
def test_cli_root_with_a_modulus_past_the_float_range_reads_inf(fmt, line, capsys):
    """Both parts of the degree-1 root are finite, but its modulus is not."""
    assert main(["roots", "--poly", "1, 1.5e308+1.5e308i", "--format", fmt]) == 0
    assert line in capsys.readouterr().out.splitlines()


# the four degree-1 disks read inf, and so does the oracle's max |z|
OVERFLOWED_HOLDING = ("cauchy", "carmichael_mason", "montel", "fujii_kubo")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_cli_a_bound_equal_to_an_inf_max_modulus_has_margin_zero(fmt, capsys):
    """inf - inf is NaN; a holding bound equal to the max modulus has margin 0."""
    assert main(["compare", "--poly", "1, 1.5e308+1.5e308i", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    if fmt == "text":  # method, value, applicability, verdict, margin, ...: no variant here
        cells = {line.split()[0]: line.split() for line in out.splitlines()[4:]}
        margins = [(cells[m][1], cells[m][3], cells[m][4]) for m in OVERFLOWED_HOLDING]
    else:
        rows = json.loads(out)["rows"] if fmt == "json" else csv.DictReader(io.StringIO(out))
        rows = {row["method"]: row for row in rows}
        margins = [(rows[m]["value"], rows[m]["verdict"], rows[m]["margin"])
                   for m in OVERFLOWED_HOLDING]
    assert margins == [("inf", "holds", "0")] * 4


def test_cli_roots_json(capsys):
    assert main(["roots", "--poly", "1, 0, -1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 2
    assert payload["max_modulus"] == "1"
    assert len(payload["roots"]) == 2
    moduli = [r["modulus"] for r in payload["roots"]]
    assert all(format(float(m), ".12g") == m for m in moduli)


def test_cli_fixture_json(capsys):
    assert main(["fixture", "h3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["name"] == "h3"
    assert payload[0]["passed"] is True
    statuses = {c["status"] for c in payload[0]["checks"]}
    assert "exact" in statuses
