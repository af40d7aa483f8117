"""Bundled comparison fixtures: eight reference polynomials with published
comparison values for each bound.

Every expectation row carries a status:

- ``exact``: the reference value matches direct evaluation of the default
  formula; asserted at ``report.FIXTURE_TOLERANCE`` (1e-7) relative.
- ``variant-matched``: matches the named variant of the formula; asserted
  the same way.
- ``reference-divergent``: the published value does not match direct
  evaluation of any implemented variant. Reported side by side and checked
  only for validity (disk values must still dominate the root oracle,
  rectangles must still contain all roots), never asserted for equality.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnknownFixtureError
from .polynomial import Polynomial, parse_polynomial

__all__ = ["Expectation", "Fixture", "FIXTURES", "get_fixture"]

EXACT = "exact"
VARIANT = "variant-matched"
DIVERGENT = "reference-divergent"


class Expectation(NamedTuple):
    """One reference value: a bound method's output (or the max root modulus)
    for a fixture polynomial. component selects a rectangle half-extent."""

    method: str
    value: float
    status: str
    variant: str | None = None
    component: str | None = None  # "re_half" / "im_half" for rectangles


class Fixture(NamedTuple):
    name: str
    coefficients: str  # degree-descending, parse_polynomial grammar
    expected: tuple[Expectation, ...]
    mw_guard: str | None = None  # expected mw_bound guard status
    mw_verdict: str | None = None  # expected oracle verdict for the MW value

    def polynomial(self) -> Polynomial:
        return parse_polynomial(self.coefficients)


FIXTURES: dict[str, Fixture] = {
    "table1": Fixture(
        name="table1",
        coefficients="1, 5/4, 4/3, 1, 2, 3, 4",
        expected=(
            Expectation("cauchy", 5.0, EXACT),
            Expectation("carmichael_mason", 5.860057831, EXACT),
            Expectation("montel", 12.58333333, EXACT),
            Expectation("fujii_kubo", 18.19610776, EXACT),
            Expectation("abdurakhmanov", 17.44802607, EXACT),
            Expectation("linden", 5.845408848, VARIANT, variant="table"),
            Expectation("kittaneh_disk", 4.040959271, VARIANT, variant="plus_one"),
            Expectation("abu_omar_kittaneh", 4.916052295, EXACT),
            Expectation("al_dolat", 4.867955746, EXACT),
            Expectation("cartesian_disk", 3.941508802, EXACT),
        ),
    ),
    "table2": Fixture(
        name="table2",
        coefficients="1, 2i, 4i, 0, 0, 1/4, 1/16",
        expected=(
            Expectation("partition_rectangle", 2.476786336, EXACT, component="re_half"),
            Expectation("partition_rectangle", 2.585204772, DIVERGENT, component="im_half"),
            Expectation("kittaneh_rectangle", 3.999737494, DIVERGENT, component="re_half"),
            Expectation("kittaneh_rectangle", 3.576384821, DIVERGENT, component="im_half"),
        ),
    ),
    "table3": Fixture(
        name="table3",
        coefficients="1, 1/2, 0, 0, 1/16, 0, 1",
        expected=(
            Expectation("cauchy", 2.0, EXACT),
            Expectation("carmichael_mason", 1.501301519, EXACT),
            Expectation("montel", 1.5625, EXACT),
            Expectation("fujii_kubo", 1.777921993, EXACT),
            Expectation("abdurakhmanov", 1.701542875, EXACT),
            Expectation("linden", 2.350962955, VARIANT, variant="table"),
            Expectation("kittaneh_disk", 1.455651176, DIVERGENT),
            Expectation("abu_omar_kittaneh", 1.857439836, EXACT),
            Expectation("al_dolat", 2.147748325, EXACT),
            Expectation("partition_disk", 1.307548659, EXACT),
        ),
    ),
    "table4": Fixture(
        name="table4",
        coefficients="1, 1/4, 1/9, 1/16, 1/25, 1/36, 1/49",
        expected=(
            Expectation("cauchy", 1.25, EXACT),
            Expectation("carmichael_mason", 1.039971167, EXACT),
            Expectation("montel", 1.0, EXACT),
            Expectation("fujii_kubo", 1.066738881, EXACT),
            Expectation("abdurakhmanov", 1.198213950, DIVERGENT),
            Expectation("linden", 2.091031073, VARIANT, variant="table"),
            Expectation("kittaneh_disk", 1.152835774, DIVERGENT),
            Expectation("abu_omar_kittaneh", 1.072449189, EXACT),
            Expectation("al_dolat", 1.573586825, EXACT),
            Expectation("partition_disk", 1.219108946, DIVERGENT),
            Expectation("mw", 0.6721175730, EXACT),
            Expectation("max_modulus", 0.5447544053, EXACT),
        ),
        mw_guard="heuristic",
        mw_verdict="holds",
    ),
    "table5": Fixture(
        name="table5",
        coefficients="1, 0, 1/3, 1/4, 1/9, 0, 1/100",
        expected=(
            Expectation("cauchy", 1.333333333, EXACT),
            Expectation("carmichael_mason", 1.089062344, EXACT),
            Expectation("montel", 1.0, EXACT),
            Expectation("fujii_kubo", 0.9939972629, EXACT),
            Expectation("abdurakhmanov", 1.167303296, EXACT),
            Expectation("linden", 2.078873251, EXACT),
            Expectation("kittaneh_disk", 1.325435041, DIVERGENT),
            Expectation("abu_omar_kittaneh", 1.299097566, EXACT),
            Expectation("al_dolat", 1.581696908, EXACT),
            Expectation("partition_disk", 1.351458429, DIVERGENT),
            Expectation("mw", 0.7647166222, EXACT),
            Expectation("max_modulus", 0.7419983061, EXACT),
        ),
        mw_guard="heuristic",
        mw_verdict="holds",
    ),
    "h1": Fixture(
        name="h1",
        coefficients="1, 0, 1/6, 0, 1/5, 0, 1/4",
        expected=(
            Expectation("mw", 0.7685824855, EXACT),
            Expectation("max_modulus", 0.8120242973, EXACT),
        ),
        mw_guard="heuristic",
        mw_verdict="violated",
    ),
    "h2": Fixture(
        name="h2",
        coefficients="1, 1/4+1/4i, 1/9i, 1/16i, 1/25, 1/36, 1/49",
        expected=(
            Expectation("mw", 0.7337440145, EXACT),
            Expectation("max_modulus", 0.6408240287, DIVERGENT),
        ),
        mw_guard="heuristic",
        mw_verdict="holds",
    ),
    "h3": Fixture(
        name="h3",
        coefficients="1, 0, 1/4, 0, 1/3, 0, 1/4",
        expected=(
            Expectation("mw", 0.8671411790, EXACT),
            Expectation("max_modulus", 0.8310538215, EXACT),
        ),
        mw_guard="heuristic",
        mw_verdict="holds",
    ),
}


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(FIXTURES))
        raise UnknownFixtureError(f"unknown fixture {name!r} (known: {known})") from None
