"""Classical coefficient bounds: frozen values, anchors, validity."""

import math

import numpy as np
import pytest

from conftest import random_polynomial
from zerobounds import (
    DegreeTooSmallError,
    Polynomial,
    abdurakhmanov,
    abu_omar_kittaneh,
    al_dolat,
    carmichael_mason,
    cauchy,
    find_roots,
    fujii_kubo,
    get_fixture,
    kittaneh_disk,
    linden,
    montel,
    parse_polynomial,
)

# all eleven values for the degree-6 showcase polynomial, pinned from this
# implementation after matching the published comparison table
_TABLE1_PINS = [
    (lambda p: cauchy(p), 5.0),
    (lambda p: carmichael_mason(p), 5.860057830583055),
    (lambda p: montel(p), 12.583333333333334),
    (lambda p: fujii_kubo(p), 18.19610775679131),
    (lambda p: abdurakhmanov(p), 17.448026067810517),
    (lambda p: linden(p, "printed"), 5.841557773438005),
    (lambda p: linden(p, "table"), 5.845408849092402),
    (lambda p: kittaneh_disk(p, "printed"), 3.808401201797733),
    (lambda p: kittaneh_disk(p, "plus_one"), 4.040959270931939),
    (lambda p: abu_omar_kittaneh(p), 4.91605229384127),
    (lambda p: al_dolat(p), 4.867955745380546),
]


@pytest.mark.parametrize("compute,pinned", _TABLE1_PINS,
                         ids=[f"pin{i}" for i in range(len(_TABLE1_PINS))])
def test_table1_values_are_stable(compute, pinned):
    p = get_fixture("table1").polynomial()
    assert abs(compute(p).value - pinned) <= 1e-9 * pinned


def test_pure_power_anchors():
    # z^n has every a_k = 0, so most formulas collapse to handy constants
    for n in (2, 4, 7):
        zn = Polynomial((0,) * n)
        assert cauchy(zn).value == 1.0
        assert carmichael_mason(zn).value == 1.0
        assert montel(zn).value == 1.0
    z2 = Polynomial((0, 0))
    assert abs(fujii_kubo(z2).value - 0.5) < 1e-15
    assert abs(abdurakhmanov(z2).value - 0.5) < 1e-15
    assert abs(abu_omar_kittaneh(z2).value - 0.5) < 1e-15
    z3 = Polynomial((0, 0, 0))
    assert abs(kittaneh_disk(z3, "printed").value - 0.5 * (0.5 + math.sqrt(1.25))) < 1e-15


def test_al_dolat_never_exceeds_the_endpoint_objectives():
    rng = np.random.default_rng(73)
    inputs = [random_polynomial(rng, int(rng.integers(2, 9))) for _ in range(15)]
    # S = 0 puts the minimum on the endpoint t = 0
    inputs.append(Polynomial((0, 0, 2)))
    for p in inputs:
        mods = [abs(c) for c in p.lower]
        a_n = mods[-1]
        head = sum(m * m for m in mods[:-1])
        two_cos = 2.0 * math.cos(math.pi / p.degree)

        def objective(t):
            return 0.5 * (a_n + two_cos + math.sqrt(t * t * a_n * a_n + head)
                          + math.sqrt(1.0 + (1.0 - t) ** 2 * a_n * a_n))

        result = al_dolat(p)
        value = result.value
        assert value <= objective(0.0) + 1e-12
        assert value <= objective(1.0) + 1e-12
        assert all(value <= objective(k / 1024) + 1e-12 for k in range(1025))
        note = next(n for n in result.notes if n.startswith("t_star="))
        assert abs(value - objective(float(note.split("=")[1]))) <= 1e-12


def test_al_dolat_reports_the_minimizing_t():
    r = al_dolat(get_fixture("table1").polynomial())
    note = next(n for n in r.notes if n.startswith("t_star="))
    t_star = float(note.split("=")[1])
    assert abs(t_star - 0.849334) < 1e-5


def test_al_dolat_is_t_independent_when_leading_lower_coeff_vanishes():
    # a_n = 0 makes the objective constant in t
    p = Polynomial((1.5, -0.5, 0.0))
    want = 0.5 * (2 * math.cos(math.pi / 3) + math.sqrt(1.5**2 + 0.5**2) + 1.0)
    assert abs(al_dolat(p).value - want) < 1e-12


def test_scaling_up_coefficients_never_shrinks_the_simple_bounds():
    rng = np.random.default_rng(79)
    for _ in range(10):
        p = random_polynomial(rng, int(rng.integers(2, 7)))
        doubled = Polynomial(tuple(2 * c for c in p.lower))
        assert cauchy(doubled).value >= cauchy(p).value
        assert montel(doubled).value >= montel(p).value
        assert carmichael_mason(doubled).value >= carmichael_mason(p).value


def test_bounds_dominate_the_roots_on_random_polynomials():
    # the printed kittaneh variant is excluded: it is not a valid bound in
    # general (see the documented counterexample below)
    rng = np.random.default_rng(83)
    for trial in range(200):
        degree = int(rng.integers(2, 13))
        p = random_polynomial(rng, degree, complex_coeffs=bool(trial % 2))
        mm = find_roots(p).max_modulus
        slack = mm - 1e-9
        assert cauchy(p).value >= slack
        assert carmichael_mason(p).value >= slack
        assert montel(p).value >= slack
        assert fujii_kubo(p).value >= slack
        assert abdurakhmanov(p).value >= slack
        assert linden(p, "printed").value >= slack
        assert linden(p, "table").value >= slack
        assert abu_omar_kittaneh(p).value >= slack
        assert al_dolat(p).value >= slack
        if degree >= 3:
            assert kittaneh_disk(p, "plus_one").value >= slack


def test_printed_kittaneh_variant_can_undershoot_the_roots():
    # pinned counterexample: the displayed form of the disk radius lands
    # well below the largest root, while the plus_one form stays above
    p = Polynomial((0.436389 - 0.077714j, -0.984198 + 2.015080j, 2.041847 - 2.011400j))
    mm = find_roots(p).max_modulus
    assert abs(mm - 3.465536261139) <= 1e-9
    assert kittaneh_disk(p, "printed").value <= mm - 0.42
    assert kittaneh_disk(p, "plus_one").value >= mm


def test_degree_preconditions():
    p1 = parse_polynomial("1, 2")
    for fn in (abdurakhmanov, abu_omar_kittaneh, al_dolat):
        with pytest.raises(DegreeTooSmallError):
            fn(p1)
    with pytest.raises(DegreeTooSmallError):
        linden(p1)
    with pytest.raises(DegreeTooSmallError):
        kittaneh_disk(parse_polynomial("1, 2, 3"))


def test_unknown_variants_are_rejected():
    p = parse_polynomial("1, 2, 3, 4")
    with pytest.raises(ValueError):
        linden(p, "bogus")
    with pytest.raises(ValueError):
        kittaneh_disk(p, "bogus")


def test_result_metadata():
    p = get_fixture("table1").polynomial()
    r = kittaneh_disk(p, "plus_one")
    assert r.method == "kittaneh_disk"
    assert r.variant == "plus_one"
    assert r.applicability == "valid"
    assert cauchy(p).variant is None
