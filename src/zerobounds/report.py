"""Run bounds against a polynomial, validate with the root oracle, and render
text/CSV/JSON reports; also evaluate the bundled fixtures.

Disk methods produce a single radius, rectangle methods four extents. CSV
keeps a fixed seven-column shape (method, variant, value, applicability,
oracle_max_modulus, verdict, margin) with the value cell empty for rectangles;
rectangle extents appear in the text and JSON renderings. Machine formats
render every number as a 12-significant-digit decimal string so that reports
round-trip byte-for-byte through a JSON parse.

Each entry of the method table calls its bound directly. The rows of one
compare or fixture share the polynomial's set-up: its moduli, its even
quotient, and the memo that each partition of it carries (see cartesian),
where w1 is kept, so both Cartesian disk rows take w1 from one eigensolve.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

import numpy as np

from . import classical
from .cartesian import (
    MW_APPLICABILITY,
    Rectangle,
    block_cartesian_radius,
    build_block_companion,
    build_companion,
    cartesian_disk,
    hermitian_rectangle,
    kittaneh_rectangle,
    mw_bound,
    partition_disk,
    partition_rectangle,
    unit_tail_disk,
)
from .classical import BoundResult
from .errors import HypothesisViolatedError, NoConvergenceError, NonFiniteMatrixError
from .fixtures import DIVERGENT, EXACT, FIXTURES, Expectation, Fixture, get_fixture
from .linalg import numerical_radius_sweep
from .polynomial import Polynomial, _modulus, odd_reduce, parse_polynomial
from .roots import RootSet, find_roots, validate_bound, validate_rectangle

__all__ = [
    "CompareOptions", "ReportRow", "CompareReport", "FixtureCheck", "FixtureReport",
    "Method", "METHODS", "ALL_METHODS", "resolve_methods",
    "run_compare", "run_fixture", "run_all_fixtures",
    "format_compare_text", "format_compare_csv", "format_compare_json",
    "format_fixture_text", "format_fixture_json", "format_roots_json",
]

class CompareOptions(NamedTuple):
    methods: tuple[str, ...] | None = None  # None means every method in METHODS
    linden_variant: str = "printed"
    kittaneh_variant: str = "printed"
    strict_mw: bool = False
    oracle: bool = True


class Method(NamedTuple):
    """One row of the method table.

    min_degree applies to the input as given; even methods refuse odd input
    unless a zero constant term lets them run on the even quotient. option
    names the CompareOptions field that picks one of variants; the CLI family
    is that name without its "_variant" suffix. run reaches its bound through
    a module attribute at call time, so wrappers installed on those
    attributes (tracing, mocking) see the call.
    """

    kind: str  # "disk" or "rectangle"
    min_degree: int
    run: Callable[[Polynomial, CompareOptions], BoundResult | Rectangle]
    even: bool = False
    variants: tuple[str, ...] = ()
    option: str | None = None


def _block_cartesian(p: Polynomial, opt: CompareOptions) -> BoundResult:
    bc = build_block_companion(p)
    value = block_cartesian_radius(bc)
    return BoundResult("block_cartesian", value, notes=("s=0.5",))


def _radius_sweep(p: Polynomial, opt: CompareOptions) -> BoundResult:
    lower, upper = numerical_radius_sweep(build_companion(p))
    return BoundResult("radius_sweep", upper, notes=(f"lower={lower:.10g}",))


METHODS: dict[str, Method] = {
    "cauchy": Method("disk", 1, lambda p, opt: classical.cauchy(p)),
    "carmichael_mason": Method("disk", 1, lambda p, opt: classical.carmichael_mason(p)),
    "montel": Method("disk", 1, lambda p, opt: classical.montel(p)),
    "fujii_kubo": Method("disk", 1, lambda p, opt: classical.fujii_kubo(p)),
    "abdurakhmanov": Method("disk", 2, lambda p, opt: classical.abdurakhmanov(p)),
    "linden": Method("disk", 2, lambda p, opt: classical.linden(p, opt.linden_variant),
                     variants=classical.LINDEN_VARIANTS, option="linden_variant"),
    "kittaneh_disk": Method(
        "disk", 3, lambda p, opt: classical.kittaneh_disk(p, opt.kittaneh_variant),
        variants=classical.KITTANEH_VARIANTS, option="kittaneh_variant"),
    "abu_omar_kittaneh": Method("disk", 2, lambda p, opt: classical.abu_omar_kittaneh(p)),
    "al_dolat": Method("disk", 2, lambda p, opt: classical.al_dolat(p)),
    "cartesian_disk": Method(
        "disk", 4, lambda p, opt: cartesian_disk(build_block_companion(p)), even=True),
    "block_cartesian": Method("disk", 4, _block_cartesian, even=True),
    "partition_disk": Method("disk", 4, lambda p, opt: partition_disk(p), even=True),
    "unit_tail_disk": Method("disk", 4, lambda p, opt: unit_tail_disk(p), even=True),
    "mw": Method("disk", 2, lambda p, opt: mw_bound(p, strict=opt.strict_mw)),
    "radius_sweep": Method("disk", 2, _radius_sweep),
    "kittaneh_rectangle": Method("rectangle", 3, lambda p, opt: kittaneh_rectangle(p)),
    "partition_rectangle": Method(
        "rectangle", 4, lambda p, opt: partition_rectangle(p), even=True),
    "hermitian_rectangle": Method("rectangle", 2, lambda p, opt: hermitian_rectangle(p)),
}

ALL_METHODS: tuple[str, ...] = tuple(METHODS)


class ReportRow(NamedTuple):
    method: str
    variant: str | None
    value: float | None
    applicability: str
    rectangle: Rectangle | None = None
    verdict: str | None = None
    margin: float | None = None
    rank: int | None = None
    notes: tuple[str, ...] = ()


class CompareReport(NamedTuple):
    degree: int
    coefficients: tuple[complex, ...]  # monic, degree-descending
    rows: tuple[ReportRow, ...]
    oracle: RootSet | None = None
    oracle_error: str | None = None
    reduced: bool = False  # partition methods ran on the even quotient


def resolve_methods(spec: str | None) -> tuple[str, ...]:
    """Turn a comma-separated method list (or 'all'/None) into METHODS ids."""
    if spec is None or spec.strip() == "all":
        return ALL_METHODS
    names = tuple([t for t in (s.strip() for s in spec.split(",")) if t])
    unknown = [n for n in names if n not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {', '.join(unknown)} (known: {', '.join(ALL_METHODS)})")
    if not names:
        raise ValueError("empty method list")
    duplicates = sorted({n for n in names if names.count(n) > 1}, key=names.index)
    if duplicates:
        raise ValueError(f"duplicate methods: {', '.join(duplicates)}")
    return names


def _row_fields(name: str, p: Polynomial, quotient: Polynomial, opt: CompareOptions,
                oracle: RootSet | None) -> tuple:
    """One method's ReportRow fields but its rank, (method, variant, value, applicability,
    rectangle, verdict, margin, notes): the method table's refusal rules, the run, and the
    oracle's verdict (none without an oracle). quotient is odd_reduce(p)'s, so it is p
    unless p was reduced. The caller holds np.errstate(over="ignore", invalid="ignore"),
    so an overflow reads as a refusal or inf."""
    method = METHODS[name]
    target, notes, refusal = p, (), None
    if method.even and p.degree % 2 == 1 and p.coefficient(1) != 0:
        refusal = "requires even degree (constant term is nonzero)"
    elif p.degree < method.min_degree:
        refusal = f"requires degree >= {method.min_degree}"
    elif method.even and quotient is not p:
        target, notes = quotient, ("zero root factored out; computed on the even quotient",)
    if refusal is None:
        try:
            outcome = method.run(target, opt)
        except HypothesisViolatedError as exc:
            refusal = str(exc)
        except NonFiniteMatrixError as exc:
            refusal = f"overflow: {exc}"
    if refusal is not None:
        return name, None, None, "refused", None, None, None, notes + (refusal,)

    if isinstance(outcome, Rectangle):
        rectangle, variant, value, applicability = outcome, None, None, "valid"
        extents = (-outcome.re_lo, outcome.re_hi, -outcome.im_lo, outcome.im_hi)
        verdict = validate_rectangle(outcome, oracle) if oracle is not None else None
    else:
        rectangle, variant, value, extents = None, outcome.variant, outcome.value, (outcome.value,)
        applicability, notes = outcome.applicability, notes + outcome.notes
        verdict = validate_bound(value, oracle) if oracle is not None else None
    if math.inf in extents:
        notes += ("overflow: true value exceeds the float range",)
    verdict, margin = (None, None) if verdict is None else (verdict.verdict, verdict.margin)
    return name, variant, value, applicability, rectangle, verdict, margin, notes


def run_compare(source: str | Polynomial, options: CompareOptions | None = None) -> CompareReport:
    opt = options or CompareOptions()
    p = parse_polynomial(source) if isinstance(source, str) else source
    requested = opt.methods if opt.methods is not None else ALL_METHODS
    quotient, reduced = odd_reduce(p)

    oracle: RootSet | None = None
    oracle_error: str | None = None
    if opt.oracle:
        try:
            oracle = find_roots(p)
        except NoConvergenceError as exc:
            oracle_error = str(exc)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as refusal or inf
        fields = [_row_fields(name, p, quotient, opt, oracle) for name in requested]
    # ranked by value among the rows that hold one and are not refused
    ranked = sorted((i for i, f in enumerate(fields) if f[2] is not None and f[3] != "refused"),
                    key=lambda i: fields[i][2])
    ranks = {i: rank for rank, i in enumerate(ranked, start=1)}

    return CompareReport(
        degree=p.degree,
        coefficients=p.descending(),
        rows=tuple([ReportRow(*f[:7], ranks.get(i), f[7]) for i, f in enumerate(fields)]),
        oracle=oracle,
        oracle_error=oracle_error,
        reduced=reduced,
    )


class FixtureCheck(NamedTuple):
    method: str
    variant: str | None
    component: str | None
    status: str
    reference: float
    computed: float
    passed: bool
    detail: str = ""


class FixtureReport(NamedTuple):
    name: str
    passed: bool
    checks: tuple[FixtureCheck, ...]
    oracle_max_modulus: float


# relative tolerance of the asserted fixture rows; the published references carry ~10 digits
FIXTURE_TOLERANCE = 1e-7


def _close(computed: float, reference: float) -> bool:
    return abs(computed - reference) / max(abs(reference), 1e-30) <= FIXTURE_TOLERANCE


def run_fixture(name: str | Fixture) -> FixtureReport:
    """Evaluate one bundled fixture; each method row is computed as compare computes it.

    The first rule that applies checks an expectation. An unknown method, or
    a variant or component the method lacks, fails: rectangles take re_half or
    im_half, and max_modulus (the oracle's largest root modulus) takes neither.
    A reference-divergent max_modulus passes. A refused row fails. Otherwise
    an exact or variant-matched value is asserted at relative tolerance
    FIXTURE_TOLERANCE. A reference-divergent row is never asserted for equality:
    it passes when the computed disk or rectangle holds against the oracle, and
    a disk's reference must dominate the max root modulus too. The MW guard and
    the MW verdict are each checked, from one mw row, when the fixture sets them.
    """
    fixture = get_fixture(name) if isinstance(name, str) else name
    p = fixture.polynomial()
    quotient, _ = odd_reduce(p)
    oracle = find_roots(p)
    rows: dict[tuple[str, str | None], ReportRow] = {}  # each (method, variant) runs once

    def row(method: str, variant: str | None) -> ReportRow:
        if (method, variant) not in rows:
            option = {} if variant is None else {METHODS[method].option: variant}
            fields = _row_fields(method, p, quotient, CompareOptions(**option), oracle)
            rows[method, variant] = ReportRow(*fields[:7], None, fields[7])
        return rows[method, variant]

    def check(exp: Expectation) -> tuple[float, bool, str]:
        method = METHODS.get(exp.method)
        if method is None and exp.method != "max_modulus":
            return math.nan, False, f"unknown method {exp.method!r}"
        variants, kind = (method.variants, method.kind) if method else ((), "disk")
        if exp.variant not in (None, *variants):
            return math.nan, False, (f"method {exp.method!r} has no variant {exp.variant!r}"
                                     if variants else f"method {exp.method!r} has no variants")
        if exp.component not in ((None,) if kind == "disk" else ("re_half", "im_half")):
            return math.nan, False, f"method {exp.method!r} has no component {exp.component!r}"
        if method is None:  # max_modulus
            computed, divergent = oracle.max_modulus, exp.status == DIVERGENT
            detail = "reference max modulus does not match the root oracle" if divergent else ""
            return computed, divergent or _close(computed, exp.value), detail
        result = row(exp.method, exp.variant)
        rect = result.rectangle
        computed = (result.value if rect is None
                    else rect.re_hi if exp.component == "re_half" else rect.im_hi)
        if result.applicability == "refused":
            return (math.nan if computed is None else computed), False, "; ".join(result.notes)
        if exp.status != DIVERGENT:
            return computed, _close(computed, exp.value), ""
        if rect is not None:
            return (computed, result.verdict == "holds",
                    "divergent reference; computed rectangle checked for root containment")
        return (computed, result.verdict == "holds" and validate_bound(exp.value, oracle).holds,
                "divergent reference; both values checked against the oracle")

    with np.errstate(over="ignore", invalid="ignore"):
        checks = [FixtureCheck(exp.method, exp.variant, exp.component, exp.status, exp.value,
                               *check(exp)) for exp in fixture.expected]
        mw = row("mw", None) if (fixture.mw_guard, fixture.mw_verdict) != (None, None) else None
    if mw is not None:  # a row the method table refuses reads "refused" too
        guard = next(s for s, a in MW_APPLICABILITY.items() if a == mw.applicability)
        checks += [FixtureCheck("mw", None, part, "exact", math.nan, math.nan, got == want,
                                f"{what} {got!r}, expected {want!r}")
                   for part, what, got, want in (
                       ("guard", "guard status", guard, fixture.mw_guard),
                       ("verdict", "oracle verdict", mw.verdict, fixture.mw_verdict))
                   if want is not None]
    return FixtureReport(fixture.name, all(c.passed for c in checks), tuple(checks),
                         oracle.max_modulus)


def run_all_fixtures() -> list[FixtureReport]:
    return [run_fixture(name) for name in FIXTURES]


# ---------------------------------------------------------------------------
# rendering


def _f10(value: float | None) -> str:
    return "" if value is None else format(value, ".10g")


def _f12(value: float | None) -> str | None:
    return None if value is None else format(value, ".12g")


def _coefficient_text(c: complex) -> str:
    if c.imag == 0:
        return format(c.real, ".10g")
    return f"{c.real:.10g}{c.imag:+.10g}i"


def format_compare_text(report: CompareReport) -> str:
    coeffs = ", ".join(_coefficient_text(c) for c in report.coefficients)
    lines = [f"monic degree {report.degree}: [{coeffs}]"]
    if report.oracle is not None:
        lines.append(f"oracle max |z| = {_f10(report.oracle.max_modulus)} "
                     f"({report.oracle.iterations} iterations)")
    elif report.oracle_error is not None:
        lines.append(f"oracle failed: {report.oracle_error}")
    else:
        lines.append("oracle disabled")
    if report.reduced:
        lines.append("odd degree with zero constant term: partition bounds use the even quotient")
    lines.append("")

    values = [_f10(row.value) if row.rectangle is None else
              f"[{_f10(row.rectangle.re_lo)}, {_f10(row.rectangle.re_hi)}] x "
              f"[{_f10(row.rectangle.im_lo)}, {_f10(row.rectangle.im_hi)}]"
              for row in report.rows]
    width = max([22, *map(len, values)])
    header = f"{'method':<20} {'variant':<9} {'value':<{width}} {'applicability':<13} " \
             f"{'verdict':<9} {'margin':<13} {'rank':<4} notes"
    lines += [header, "-" * len(header)]
    lines += [f"{row.method:<20} {row.variant or '':<9} {value_text:<{width}} "
              f"{row.applicability:<13} {row.verdict or '':<9} {_f10(row.margin):<13} "
              f"{row.rank if row.rank is not None else '':<4} {'; '.join(row.notes)}"
              for row, value_text in zip(report.rows, values)]
    return "\n".join(lines) + "\n"


_CSV_COLUMNS = ("method", "variant", "value", "applicability",
                "oracle_max_modulus", "verdict", "margin")


def format_compare_csv(report: CompareReport) -> str:
    # every cell is an id, a word or a .12g number, so none needs csv quoting
    maxmod = _f12(report.oracle.max_modulus if report.oracle is not None else None)
    lines = [_CSV_COLUMNS, *((row.method, row.variant, _f12(row.value), row.applicability,
                              maxmod, row.verdict, _f12(row.margin)) for row in report.rows)]
    return "".join(",".join(cell or "" for cell in cells) + "\n" for cells in lines)


def _json(value: str | int | bool | None) -> str:
    """One JSON scalar as json.dumps writes it; a string is ASCII-escaped."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return _quote(value) if isinstance(value, str) else str(value)


def _json12(value: float | None) -> str:
    """_json(_f12(value)): the digits of a float need no escaping."""
    return "null" if value is None else f'"{value:.12g}"'


def _json_list(items: list[str], indent: str) -> str:
    """json.dumps(indent=2)'s layout of an array of rendered items, opened at indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(f"{indent}  {item}" for item in items) + f"\n{indent}]"


def _json_object(keys: str, indent: str) -> str:
    """A str.format template: json.dumps(indent=2)'s layout of an object, opened at indent."""
    return "{{\n" + ",\n".join(f'{indent}  "{k}": {{}}' for k in keys.split()) + f"\n{indent}}}}}"


_COMPARE_JSON = _json_object("degree coefficients oracle oracle_error reduced rows", "") + "\n"
_ORACLE_JSON = _json_object("max_modulus iterations", "  ")
_ROW_JSON = _json_object("method variant value applicability oracle_max_modulus verdict "
                         "margin rank rectangle notes", "    ")
_RECTANGLE_JSON = _json_object("re_lo re_hi im_lo im_hi", "      ")
_FIXTURE_JSON = _json_object("name passed oracle_max_modulus checks", "  ")
_CHECK_JSON = _json_object("method variant component status reference computed passed detail",
                           "      ")
_ROOTS_JSON = _json_object("degree max_modulus iterations roots", "") + "\n"
_ROOT_JSON = _json_object("re im modulus residual", "    ")


def format_compare_json(report: CompareReport) -> str:
    """The report as json.dumps(payload, indent=2) + "\\n" writes it, built from
    fixed templates: numbers are 12-significant-digit strings, and an absent
    oracle, variant, value, verdict, margin, rank or rectangle is null."""
    maxmod = _json12(report.oracle.max_modulus if report.oracle is not None else None)
    oracle = "null" if report.oracle is None else _ORACLE_JSON.format(
        maxmod, _json(report.oracle.iterations))
    rows = [
        _ROW_JSON.format(
            _quote(row.method), "null" if row.variant is None else _quote(row.variant),
            _json12(row.value), _quote(row.applicability), maxmod,
            "null" if row.verdict is None else _quote(row.verdict), _json12(row.margin),
            "null" if row.rank is None else str(row.rank),
            "null" if (rect := row.rectangle) is None else _RECTANGLE_JSON.format(
                *map(_json12, (rect.re_lo, rect.re_hi, rect.im_lo, rect.im_hi))),
            _json_list([_quote(note) for note in row.notes], "      "),
        )
        for row in report.rows
    ]
    return _COMPARE_JSON.format(
        _json(report.degree),
        _json_list([_json(_coefficient_text(c)) for c in report.coefficients], "  "),
        oracle, _json(report.oracle_error), _json(report.reduced), _json_list(rows, "  "),
    )


def format_fixture_text(report: FixtureReport) -> str:
    lines = [f"fixture {report.name}: {'PASS' if report.passed else 'FAIL'} "
             f"(oracle max |z| = {_f10(report.oracle_max_modulus)})"]
    for c in report.checks:
        tag = ("ok*" if c.status == DIVERGENT else "ok ") if c.passed else "FAIL"
        label = c.method
        if c.variant:
            label += f"[{c.variant}]"
        if c.component:
            label += f".{c.component}"
        if math.isnan(c.reference):
            body = c.detail
        else:
            body = f"reference {_f10(c.reference)}  computed {_f10(c.computed)}"
            if c.status != EXACT:
                body += f"  ({c.status})"
            if c.detail:
                body += f"  {c.detail}"
        lines.append(f"  [{tag}] {label:<34} {body}")
    return "\n".join(lines) + "\n"


def format_fixture_json(reports: list[FixtureReport]) -> str:
    """The reports as json.dumps(payload, indent=2) + "\\n" writes them; a NaN
    reference or computed value (a guard or verdict check) is null."""
    return _json_list([
        _FIXTURE_JSON.format(
            _json(r.name), _json(r.passed), _json12(r.oracle_max_modulus),
            _json_list([
                _CHECK_JSON.format(
                    _json(c.method), _json(c.variant), _json(c.component), _json(c.status),
                    *["null" if math.isnan(x) else _json12(x) for x in (c.reference, c.computed)],
                    _json(c.passed), _json(c.detail))
                for c in r.checks
            ], "    "))
        for r in reports
    ], "") + "\n"


def format_roots_json(roots: RootSet) -> str:
    """The roots with their moduli and residuals, in the layout of json.dumps(indent=2)."""
    return _ROOTS_JSON.format(
        len(roots.roots), _json12(roots.max_modulus), roots.iterations,
        _json_list([_ROOT_JSON.format(*map(_json12, (z.real, z.imag, _modulus(z), r)))
                    for z, r in zip(roots.roots, roots.residuals)], "  "))
