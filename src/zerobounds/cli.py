"""Command-line front door.

    zerobounds compare --poly "1, 5/4, 4/3, 1, 2, 3, 4" --methods all
    zerobounds compare @preset.args --poly "1, 0, -1"
    zerobounds fixture all
    zerobounds roots --poly "1, 0, -1"

compare reads @FILE as flags, one argument per line (--format=json,
--variant=kittaneh=plus_one); they meet the same checks as on the command
line, and a later argument wins.

Exit codes: 0 ok; 1 fixture assertion failure; 2 unparseable or out-of-range
input (polynomial, method list, variant, preset file, fixture name); 3 MW bound
refused under --strict-mw; 4 root-oracle failure (bounds are still printed,
without verdicts).
"""

from __future__ import annotations

import argparse
import sys

from .errors import NoConvergenceError, PolynomialParseError, UnknownFixtureError
from .polynomial import _modulus, parse_polynomial
from .report import (
    ALL_METHODS,
    METHODS,
    CompareOptions,
    format_compare_csv,
    format_compare_json,
    format_compare_text,
    format_fixture_json,
    format_fixture_text,
    format_roots_json,
    resolve_methods,
    run_all_fixtures,
    run_compare,
    run_fixture,
)
from .roots import find_roots

__all__ = ["main"]

# --variant family -> (CompareOptions field, allowed values)
_VARIANT_FAMILIES = {
    m.option.removesuffix("_variant"): (m.option, m.variants)
    for m in METHODS.values() if m.option is not None
}


class CliInputError(Exception):
    """Bad user input other than the polynomial text (exit code 2)."""


class _PresetParser(argparse.ArgumentParser):
    """Reads compare's @FILE: a line that is not one argument exits 2 under compare's usage."""

    def convert_arg_line_to_args(self, arg_line):
        if (not arg_line.strip() or arg_line.lstrip().startswith("#")
                or arg_line.startswith("-") and " " in arg_line.partition("=")[0]):
            self.error(f"preset line {arg_line!r} is not one argument; "
                       "write one --flag=value per line, with no comments or blank lines")
        return [arg_line]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerobounds",
        description="Bound the zeros of a monic polynomial and compare the bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_PresetParser)

    compare = sub.add_parser("compare", help="evaluate bounds for one polynomial",
                             fromfile_prefix_chars="@")
    compare.add_argument("--poly", required=True,
                         help="degree-descending coefficients, comma separated; "
                              "entries like 2, -1/3, 2.5e-3, 1/4+1/4i")
    compare.add_argument("--methods", default="all",
                         help=f"comma-separated method ids or 'all' (default); "
                              f"known: {', '.join(ALL_METHODS)}")
    compare.add_argument("--variant", action="append", default=[], metavar="NAME=VALUE",
                         help="formula variant, repeatable: " + ", ".join(
                             f"{family}={'|'.join(allowed)}"
                             for family, (_, allowed) in _VARIANT_FAMILIES.items()))
    compare.add_argument("--strict-mw", action="store_true",
                         help="refuse the MW bound when its guard is not guaranteed")
    compare.add_argument("--format", choices=("text", "csv", "json"), default="text")
    compare.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True,
                         help="validate bounds against computed roots (default on)")

    fixture = sub.add_parser("fixture", help="check bundled reference fixtures")
    fixture.add_argument("name", help="table1..table5, h1, h2, h3, or 'all'")
    fixture.add_argument("--format", choices=("text", "json"), default="text")

    roots = sub.add_parser("roots", help="compute all roots of one polynomial")
    roots.add_argument("--poly", required=True)
    roots.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _compare_options(args: argparse.Namespace) -> CompareOptions:
    variants: dict[str, str] = {}
    for pair in args.variant:
        name, sep, value = pair.partition("=")
        if not sep:
            raise CliInputError(f"--variant wants NAME=VALUE, got {pair!r}")
        name, value = name.strip(), value.strip()
        if name not in _VARIANT_FAMILIES:
            raise CliInputError(
                f"unknown variant family {name!r} ({', '.join(_VARIANT_FAMILIES)})"
            )
        field, allowed = _VARIANT_FAMILIES[name]
        if value not in allowed:
            raise CliInputError(f"variant {name} must be one of {', '.join(allowed)}")
        variants[field] = value
    try:
        methods = resolve_methods(args.methods)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    return CompareOptions(methods=methods, strict_mw=args.strict_mw, oracle=args.oracle,
                          **variants)


def _cmd_compare(args: argparse.Namespace) -> int:
    options = _compare_options(args)
    report = run_compare(args.poly, options)
    render = {"text": format_compare_text, "csv": format_compare_csv,
              "json": format_compare_json}[args.format]
    sys.stdout.write(render(report))
    if options.oracle and report.oracle_error is not None:
        return 4
    if options.strict_mw and any(
        row.method == "mw" and row.applicability == "refused" for row in report.rows
    ):
        return 3
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    reports = run_all_fixtures() if args.name == "all" else [run_fixture(args.name)]
    if args.format == "json":
        sys.stdout.write(format_fixture_json(reports))
    else:
        for report in reports:
            sys.stdout.write(format_fixture_text(report))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_roots(args: argparse.Namespace) -> int:
    p = parse_polynomial(args.poly)
    rootset = find_roots(p)
    if args.format == "json":
        sys.stdout.write(format_roots_json(rootset))
    else:
        sys.stdout.write(f"degree {p.degree}, max |z| = {rootset.max_modulus:.10g}, "
                         f"{rootset.iterations} iterations\n")
        for z, residual in zip(rootset.roots, rootset.residuals):
            sys.stdout.write(f"  {z.real:+.10g} {z.imag:+.10g}i   |z| = {_modulus(z):.10g}   "
                             f"residual {residual:.3g}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "fixture":
            return _cmd_fixture(args)
        return _cmd_roots(args)
    except (PolynomialParseError, UnknownFixtureError, CliInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoConvergenceError as exc:
        print(f"error: root oracle failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
