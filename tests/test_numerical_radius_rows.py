"""Rows that bound the numerical radius w(C) of the companion matrix, checked
against w(C) itself, with no root oracle: the sweep's lower end is at most
w(C), up to the rounding of one eigenvalue, and W(C) lies inside
hermitian_rectangle's box. A disk row must reach the lower end, and a
rectangle row must contain the box.

Two rows are not w(C) bounds as printed, and are asserted as errata (README
caveat 5), each passing while its erratum holds and failing when it changes:
cartesian_disk on a widely scaled input and on Wilkinson-10, and
abu_omar_kittaneh on a quadratic. Each still bounds the roots there.
"""

import numpy as np
import pytest

from zerobounds import (
    CompareOptions,
    Polynomial,
    abu_omar_kittaneh,
    build_block_companion,
    build_companion,
    cartesian_disk,
    find_roots,
    numerical_radius_sweep,
    parse_polynomial,
    run_compare,
)

PAD = 16 * np.finfo(float).eps
W_DISKS = ("block_cartesian", "partition_disk", "kittaneh_disk", "linden", "al_dolat",
           "carmichael_mason")
W_RECTANGLES = ("kittaneh_rectangle", "partition_rectangle")
# kittaneh_disk in its plus_one variant, linden in its printed one
OPTIONS = CompareOptions(methods=(*W_DISKS, *W_RECTANGLES, "hermitian_rectangle"),
                         kittaneh_variant="plus_one", oracle=False)


def _widely_scaled():
    """Degrees 2-16, 10 complex then 10 real inputs per degree, each coefficient
    scaled by its own 10^U(-4, 6)."""
    rng = np.random.default_rng(20261021)
    for degree in range(2, 17):
        for real in [False] * 10 + [True] * 10:
            parts = rng.standard_normal(degree) + (0 if real else 1j * rng.standard_normal(degree))
            yield Polynomial(tuple(parts * 10.0 ** rng.uniform(-4, 6, degree)))


def test_w_rows_reach_w_of_the_companion_on_widely_scaled_inputs():
    below, checked = [], dict.fromkeys((*W_DISKS, *W_RECTANGLES), 0)
    for p in _widely_scaled():
        lower, _ = numerical_radius_sweep(build_companion(p))
        rows = {row.method: row for row in run_compare(p, OPTIONS).rows}
        box = rows.pop("hermitian_rectangle").rectangle
        widened = PAD * max(-box.re_lo, box.re_hi, -box.im_lo, box.im_hi)
        for method, row in rows.items():
            if row.applicability == "refused":
                continue
            checked[method] += 1
            if (row.value < lower * (1 - PAD) if row.rectangle is None
                    else not row.rectangle.contains_rectangle(box, widened)):
                below.append(f"{method} at degree {p.degree}: {row.rectangle or row.value}"
                             f" against w(C) >= {lower}")
    assert below == []
    # each row ran wherever its degree allows: the even rows from degree 4
    assert checked == {"block_cartesian": 140, "partition_disk": 140, "kittaneh_disk": 280,
                       "linden": 300, "al_dolat": 300, "carmichael_mason": 300,
                       "kittaneh_rectangle": 280, "partition_rectangle": 140}


WILKINSON_10 = ("1, -55, 1320, -18150, 157773, -902055, 3416930, -8409500, 12753576, "
                "-10628640, 3628800")  # (z - 1)(z - 2)...(z - 10)


@pytest.mark.parametrize("bound, text, value, lower", [
    (lambda p: cartesian_disk(build_block_companion(p)), "1, 0, 0, 1, 1000000",
     1_414.2139, 500_000.0000013),
    (lambda p: cartesian_disk(build_block_companion(p)), WILKINSON_10,
     915_956.84, 9_643_987.7),
    (abu_omar_kittaneh, "1, -0.6004, 0.0096", 0.66031899, 0.87928815),
], ids=["cartesian_disk-scaled", "cartesian_disk-wilkinson10", "abu_omar_kittaneh"])
def test_erratum_a_row_falls_below_w_but_bounds_the_roots(bound, text, value, lower):
    p = parse_polynomial(text)
    row = bound(p).value
    sweep_lower, _ = numerical_radius_sweep(build_companion(p))
    assert row == pytest.approx(value, rel=1e-7)
    assert sweep_lower == pytest.approx(lower, rel=1e-7)
    assert find_roots(p).max_modulus < row < sweep_lower
