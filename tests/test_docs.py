"""The README agrees with the code: its method table with the method table
that drives compare, its compare example with real CLI output, its Python
API example with what that code prints, and its flag list with the compare
parser. Every name a module exports exists and reaches the package exactly once,
importing the package loads its library modules but not the CLI, the
runtime dependency is numpy only, and every module parses at the declared
Python floor."""

import argparse
import ast
import contextlib
import importlib
import io
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import zerobounds
from zerobounds.cli import build_parser, main
from zerobounds.report import ALL_METHODS, METHODS

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def _readme_method_rows() -> dict[str, list[str]]:
    """id -> [kind, needs, notes] for each row of the README's Methods table."""
    section = README.read_text(encoding="utf-8").split("\n## Methods\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1:]
    return rows


def test_readme_methods_table_matches_the_method_table():
    rows = _readme_method_rows()
    assert list(rows) == list(ALL_METHODS)
    for name, (kind, needs, notes) in rows.items():
        method = METHODS[name]
        parity = "even " if method.even else ""
        assert (kind, needs) == (method.kind, f"{parity}deg >= {method.min_degree}"), name
        for variant in method.variants:
            assert f"`{variant}`" in notes, (name, variant)


def test_readme_names_the_rectangles_crossover_degree_where_it_describes_the_routes():
    # both places say "below degree N" and "from degree N on", for N the code's switch
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("\n`hermitian_rectangle` scales ", 1)[1].split("\n\n", 1)[0]
    row = _readme_method_rows()["hermitian_rectangle"][2]
    for place in (paragraph, row):
        degrees = re.findall(r"degree (\d+)", place)
        assert degrees and set(degrees) == {str(zerobounds.linalg._SECULAR_ENDS)}, place


def test_readme_names_the_oracles_start_and_stop_degrees_where_it_describes_the_ranges():
    # the first pass switches at one degree, the kernel at another
    text = README.read_text(encoding="utf-8")
    bullet = text.split("\n- an independent root oracle ", 1)[1].split("\n\n", 1)[0]
    degrees = set(re.findall(r"degree (\d+)", bullet))
    assert degrees == {str(zerobounds.roots._HULL_START_DEGREE),
                       str(zerobounds.roots._HIGH_DEGREE)}, bullet


def test_readme_compare_example_matches_the_cli(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    blocks = section.split("```")
    command, shown = blocks[1], blocks[3]  # the ```sh command, then its output block
    argv = shlex.split(command.removeprefix("sh").replace("\\\n", " "))
    assert argv[:2] == ["zerobounds", "compare"]
    assert main(argv[1:]) == 0
    printed = capsys.readouterr().out
    assert [line.rstrip() for line in printed.splitlines()] == shown.strip("\n").splitlines()


def test_readme_flag_list_names_exactly_the_compare_options():
    section = README.read_text(encoding="utf-8").split("\nUseful flags:\n\n", 1)[1]
    named = set(re.findall(r"--[a-z][a-z-]*", section.split("\n\n", 1)[0]))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = [set(a.option_strings) for a in subparsers.choices["compare"]._actions
               if a.option_strings and a.dest not in ("help", "poly")]
    # every option is named (one spelling of --oracle/--no-oracle is enough),
    # and every name is an option
    assert all(names & named for names in options), (options, named)
    assert named <= set().union(*options), named - set().union(*options)


def test_readme_python_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(shown)
    for line, comment in zip(printed, shown):
        assert line.startswith(comment.split("...", 1)[0]), (line, comment)
        if "..." not in comment:
            assert line == comment


def test_every_exported_name_exists():
    modules = [zerobounds] + [importlib.import_module(f"zerobounds.{info.name}")
                              for info in pkgutil.iter_modules(zerobounds.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


# every module but the CLI, which is left out of the package namespace
_LIBRARY = sorted(info.name for info in pkgutil.iter_modules(zerobounds.__path__)
                  if info.name != "cli")


def test_the_package_exports_each_module_export_exactly_once():
    assert len(_LIBRARY) == 9
    for name in _LIBRARY:
        module = importlib.import_module(f"zerobounds.{name}")
        for public in module.__all__:
            assert zerobounds.__all__.count(public) == 1, (name, public)
            assert getattr(zerobounds, public) is getattr(module, public), (name, public)


def _modules_loaded_by_import() -> set[str]:
    """sys.modules after `import zerobounds` and one CSV render in a fresh interpreter."""
    src = str(Path(zerobounds.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, zerobounds; zerobounds.format_compare_csv(zerobounds.run_compare("
            "'1, 2, 3, 4')); print(*sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True, timeout=60)
    return set(result.stdout.split())


def test_import_loads_no_test_only_or_slow_module():
    # scipy, mpmath and hypothesis serve the tests only; fractions, decimal and csv cost
    # import time, and CSV output joins its cells without csv
    banned = {"scipy", "mpmath", "hypothesis", "fractions", "decimal", "csv"}
    assert not banned & _modules_loaded_by_import()


def test_import_loads_the_library_modules_and_not_the_cli():
    loaded = _modules_loaded_by_import()
    own = {name for name in loaded if name.startswith("zerobounds")}
    assert own == {"zerobounds", *(f"zerobounds.{name}" for name in _LIBRARY)}
    assert "argparse" not in loaded


def _regex_syntax_newer_than_3_10(pattern):
    """Atomic groups and possessive quantifiers, which re compiles from Python 3.11 on only.
    Escapes and character classes go first, so that [*+] or \\++ does not count."""
    bare = re.sub(r"\\.|\[\^?\]?(?:\\.|[^\]])*\]", "", pattern)
    return re.findall(r"\(\?>|[*+?}]\+", bare)


def test_the_regex_syntax_check_finds_atomic_groups_and_possessive_quantifiers():
    for newer in ("(?>ab)", "a*+", "a++", "(?:a)?+", r"\d{1,4}+", r"[\]]++"):
        assert _regex_syntax_newer_than_3_10(newer), newer
    for older in (r"a\++", "[*+]+", "[]+?]*", "a+?", "(?:a)?", r"\(\?>", "[?+]+"):
        assert not _regex_syntax_newer_than_3_10(older), older


def test_every_module_parses_at_the_declared_python_floor():
    # syntax only: a call to an API newer than the floor parses all the same; each regex
    # a module hands to re is read for syntax re compiles only from 3.11 on
    floor = re.search(r'requires-python = ">=([\d.]+)"', PYPROJECT.read_text(encoding="utf-8"))[1]
    assert f"Python >= {floor}." in README.read_text(encoding="utf-8")
    major, minor = map(int, floor.split(".")[:2])
    modules = sorted(Path(zerobounds.__file__).parent.glob("*.py"))
    assert len(modules) == len(_LIBRARY) + 2  # the library, the CLI and __init__
    patterns = []
    for path in modules:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, str(path), feature_version=(major, minor))
        module = importlib.import_module(f"zerobounds.{path.stem}".removesuffix(".__init__"))
        namespace = vars(module)
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "re"):
                pattern = eval(compile(ast.Expression(call.args[0]), str(path), "eval"), namespace)
                patterns.append(pattern)
                if (major, minor) < (3, 11):
                    assert not _regex_syntax_newer_than_3_10(pattern), (path.name, pattern)
    grammar = zerobounds.polynomial  # the walk evaluates f-strings built from its constants
    assert {grammar._COEFFICIENT_RE.pattern, grammar._DECIMAL_LIST_RE.pattern} <= set(patterns)
