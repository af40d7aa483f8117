"""The README's method table agrees with the method table that drives compare."""

from pathlib import Path

from zerobounds.report import ALL_METHODS, METHODS

README = Path(__file__).resolve().parent.parent / "README.md"


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
