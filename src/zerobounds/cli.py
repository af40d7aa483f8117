"""Command-line front door.

    zerobounds compare --poly "1, 5/4, 4/3, 1, 2, 3, 4" --methods all
    zerobounds fixture all
    zerobounds roots --poly "1, 0, -1"

Exit codes: 0 ok; 1 fixture assertion failure; 2 unparseable or out-of-range
input (polynomial, method list, variant, config, fixture name); 3 MW bound
refused under --strict-mw; 4 root-oracle failure (bounds are still printed,
without verdicts).
"""

from __future__ import annotations

import argparse
import sys

from .errors import NoConvergenceError, PolynomialParseError, UnknownFixtureError
from .polynomial import parse_polynomial
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

# --variant family (also a config key) -> (CompareOptions field, allowed values)
_VARIANT_FAMILIES = {
    m.option.removesuffix("_variant"): (m.option, m.variants)
    for m in METHODS.values() if m.option is not None
}
_CONFIG_KEYS = ("methods", *_VARIANT_FAMILIES, "strict-mw", "oracle", "format")


class CliInputError(Exception):
    """Bad user input other than the polynomial text (exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerobounds",
        description="Bound the zeros of a monic polynomial and compare the bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="evaluate bounds for one polynomial")
    compare.add_argument("--poly", required=True,
                         help="degree-descending coefficients, comma separated; "
                              "entries like 2, -1/3, 2.5e-3, 1/4+1/4i")
    compare.add_argument("--methods", default=None,
                         help=f"comma-separated method ids or 'all' (default); "
                              f"known: {', '.join(ALL_METHODS)}")
    compare.add_argument("--variant", action="append", default=None, metavar="NAME=VALUE",
                         help="formula variant, repeatable: " + ", ".join(
                             f"{family}={'|'.join(allowed)}"
                             for family, (_, allowed) in _VARIANT_FAMILIES.items()))
    compare.add_argument("--strict-mw", action="store_true", default=None,
                         help="refuse the MW bound when its guard is not guaranteed")
    compare.add_argument("--format", choices=("text", "csv", "json"), default=None)
    compare.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=None,
                         help="validate bounds against computed roots (default on)")
    compare.add_argument("--config", default=None, help="key=value preset file")

    fixture = sub.add_parser("fixture", help="check bundled reference fixtures")
    fixture.add_argument("name", help="table1..table5, h1, h2, h3, or 'all'")
    fixture.add_argument("--format", choices=("text", "json"), default="text")

    roots = sub.add_parser("roots", help="compute all roots of one polynomial")
    roots.add_argument("--poly", required=True)
    roots.add_argument("--format", choices=("text", "json"), default=None)

    return parser


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliInputError(f"cannot read config file: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliInputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("_", "-")
        if key not in _CONFIG_KEYS:
            raise CliInputError(
                f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})"
            )
        values[key] = value.strip()
    return values


def _parse_variants(pairs: list[str] | None) -> dict[str, str]:
    chosen: dict[str, str] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise CliInputError(f"--variant wants NAME=VALUE, got {pair!r}")
        name, value = name.strip(), value.strip()
        if name not in _VARIANT_FAMILIES:
            raise CliInputError(
                f"unknown variant family {name!r} ({', '.join(_VARIANT_FAMILIES)})"
            )
        _, allowed = _VARIANT_FAMILIES[name]
        if value not in allowed:
            raise CliInputError(f"variant {name} must be one of {', '.join(allowed)}")
        chosen[name] = value
    return chosen


_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False)


def _setting(flag, config: dict[str, str], key: str, default):
    """The flag if given, else the config value, else the default. A key whose
    default is a bool reads 1/true/yes/on and 0/false/no/off, in any case."""
    if flag is not None:
        return flag
    if key not in config:
        return default
    text = config[key]
    if not isinstance(default, bool):
        return text
    if text.lower() not in _BOOLEANS:
        raise CliInputError(f"config key {key} wants a boolean, got {text!r}")
    return _BOOLEANS[text.lower()]


def _compare_options(args: argparse.Namespace) -> tuple[CompareOptions, str]:
    config = _load_config(args.config)
    flags = _parse_variants(args.variant)
    variants: dict[str, str] = {}
    for family, (field, allowed) in _VARIANT_FAMILIES.items():
        value = _setting(flags.get(family), config, family, allowed[0])
        if value not in allowed:
            raise CliInputError(f"config: {family} must be one of {', '.join(allowed)}")
        variants[field] = value

    methods_text = _setting(args.methods, config, "methods", None)
    try:
        methods = resolve_methods(methods_text)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc

    options = CompareOptions(
        methods=methods,
        strict_mw=_setting(args.strict_mw, config, "strict-mw", False),
        oracle=_setting(args.oracle, config, "oracle", True),
        **variants,
    )
    out_format = _setting(args.format, config, "format", "text")
    if out_format not in ("text", "csv", "json"):
        raise CliInputError(f"config: format must be text, csv, or json, got {out_format!r}")
    return options, out_format


def _cmd_compare(args: argparse.Namespace) -> int:
    options, out_format = _compare_options(args)
    report = run_compare(args.poly, options)
    if out_format == "csv":
        sys.stdout.write(format_compare_csv(report))
    elif out_format == "json":
        sys.stdout.write(format_compare_json(report))
    else:
        sys.stdout.write(format_compare_text(report))
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
        sys.stdout.write(
            f"degree {p.degree}, max |z| = {rootset.max_modulus:.10g}, "
            f"{rootset.iterations} iterations\n"
        )
        for z, residual in zip(rootset.roots, rootset.residuals):
            sys.stdout.write(
                f"  {z.real:+.10g} {z.imag:+.10g}i   |z| = {abs(z):.10g}   "
                f"residual {residual:.3g}\n"
            )
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
