"""Root oracle: simultaneous iteration, ordering, verdicts."""

import functools
from fractions import Fraction

import numpy as np
import pytest

import zerobounds.roots
from conftest import random_polynomial
from zerobounds import (
    NoConvergenceError,
    Rectangle,
    build_companion,
    find_roots,
    get_fixture,
    make_monic,
    parse_polynomial,
    validate_bound,
    validate_rectangle,
)
from zerobounds.cli import main
from zerobounds.polynomial import horner


@pytest.fixture
def horner_calls(monkeypatch):
    """Count the oracle's Horner evaluations."""
    calls = []

    def counted(*args):
        calls.append(1)
        return horner(*args)

    monkeypatch.setattr(zerobounds.roots, "horner", counted)
    return calls


def _exact_polynomial(factors):
    """Product of exact degree-descending factors, parsed from its fraction text."""
    return parse_polynomial(", ".join(map(str, functools.reduce(np.polymul, factors))))


def _fivefold_cluster():
    # (z - 1)^5 - (1e-8)^5: five roots at distance 1e-8 from 1
    fivefold = functools.reduce(np.polymul, [[Fraction(1), Fraction(-1)]] * 5)
    fivefold[-1] -= Fraction(1, 10**40)
    return [fivefold, [Fraction(1), Fraction(-3, 10)], [Fraction(1), Fraction(1, 2)]]


def test_quadratic_with_known_roots():
    rs = find_roots(parse_polynomial("1, 0, -1"))
    assert np.allclose(sorted(r.real for r in rs.roots), [-1.0, 1.0], atol=1e-12)
    assert max(abs(r.imag) for r in rs.roots) < 1e-12
    assert abs(rs.max_modulus - 1.0) < 1e-12


def test_quartic_roots_of_unity_rotated():
    # z^4 + 1: fourth roots of -1, all on the unit circle
    rs = find_roots(parse_polynomial("1, 0, 0, 0, 1"))
    assert all(abs(abs(r) - 1.0) < 1e-12 for r in rs.roots)
    assert abs(rs.max_modulus - 1.0) < 1e-12


def test_integer_factored_cubic():
    rs = find_roots(parse_polynomial("1, -6, 11, -6"))  # (z-1)(z-2)(z-3)
    assert np.allclose(sorted(r.real for r in rs.roots), [1.0, 2.0, 3.0], atol=1e-10)


def test_roots_agree_with_companion_eigenvalues():
    rng = np.random.default_rng(31)
    for _ in range(12):
        p = random_polynomial(rng, int(rng.integers(2, 9)))
        rs = find_roots(p)
        eigs = np.linalg.eigvals(build_companion(p))
        got = sorted(rs.roots, key=lambda z: (z.real, z.imag))
        want = sorted(map(complex, eigs), key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-7)


def test_find_roots_is_deterministic():
    p = parse_polynomial("1, 2i, -3, 1/2, 1+1i")
    a = find_roots(p)
    b = find_roots(p)
    assert a.roots == b.roots
    assert a.iterations == b.iterations


def test_sort_order_modulus_descending_then_argument():
    rs = find_roots(parse_polynomial("1, 0, 0, 0, -16"))  # roots ±2, ±2i
    mods = [abs(r) for r in rs.roots]
    assert mods == sorted(mods, reverse=True)
    args = [np.angle(r) for r in rs.roots]
    assert args == sorted(args)  # equal moduli, so argument ascending


def test_residuals_are_small_and_reported():
    p = parse_polynomial("1, -1/2, 1/3, -1/4")
    rs = find_roots(p)
    assert len(rs.residuals) == 3
    assert max(rs.residuals) < 1e-10
    for r, res in zip(rs.roots, rs.residuals):
        assert abs(p.evaluate(r)) == res


def test_no_convergence_error_carries_best_effort_roots():
    p = random_polynomial(np.random.default_rng(1), 8)
    with pytest.raises(NoConvergenceError, match=r"did not converge in 1 iterations \(max") as err:
        find_roots(p, max_iterations=1)
    assert len(err.value.best_roots) == 8
    assert len(err.value.residuals) == 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("coefficients", [
    [1, 1e200, 1],
    list(np.poly(np.arange(1, 21))),  # Wilkinson-20: its starting circle overflows Horner
], ids=["1e200", "wilkinson20"])
def test_overflow_to_nan_fails_fast(horner_calls, coefficients):
    with pytest.raises(NoConvergenceError, match=r"overflowed at iteration 1 \(max residual nan"):
        find_roots(make_monic(coefficients))
    assert len(horner_calls) < 10


@pytest.mark.parametrize("factors", [
    [[Fraction(1), Fraction(-1)]] * 4,
    [[Fraction(1), Fraction(1, 2)]] * 3 + [[Fraction(1), Fraction(-2)]] * 3,
    _fivefold_cluster(),
], ids=["repeated4", "repeated3_3", "cluster"])
def test_multiple_roots_stall_at_the_rounding_level_fast(horner_calls, factors):
    with pytest.raises(NoConvergenceError,
                       match=r"stalled at the rounding level after \d+ iterations \(max residual"):
        find_roots(_exact_polynomial(factors))
    assert len(horner_calls) < 150


def test_the_stall_check_costs_early_convergence_nothing(horner_calls):
    rs = find_roots(random_polynomial(np.random.default_rng(16), 16))
    assert rs.iterations < 32  # converged before the first check at 2n
    assert len(horner_calls) == rs.iterations


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_roots_names_the_stall(capsys):
    assert main(["roots", "--poly", "1, -4, 6, -4, 1"]) == 4
    assert "stalled at the rounding level" in capsys.readouterr().err


def test_degree_one_is_solved_directly():
    rs = find_roots(parse_polynomial("1, -3+4i"))
    assert rs.roots == (3 - 4j,)
    assert rs.iterations == 0
    assert abs(rs.max_modulus - 5.0) < 1e-15


# largest root modulus of each bundled fixture polynomial, pinned after
# cross-checking the iteration against companion-matrix eigenvalues
_FIXTURE_MAX_MODULUS = {
    "table1": 1.266287017852,
    "table2": 2.883307583530,
    "table3": 1.088486054571,
    "table4": 0.544754405333,
    "table5": 0.741998306102,
    "h1": 0.812024297138,
    "h2": 0.631976414546,
    "h3": 0.831053821343,
}


@pytest.mark.parametrize("name", sorted(_FIXTURE_MAX_MODULUS))
def test_fixture_max_moduli_are_stable(name):
    p = get_fixture(name).polynomial()
    rs = find_roots(p)
    pinned = _FIXTURE_MAX_MODULUS[name]
    assert abs(rs.max_modulus - pinned) <= 1e-9 * pinned


def test_validate_bound_verdicts_and_margins():
    p = parse_polynomial("1, 0, -4")  # roots ±2
    holds = validate_bound(p, 2.5)
    assert holds.holds and holds.verdict == "holds"
    assert abs(holds.margin - 0.5) < 1e-9
    violated = validate_bound(p, 1.5)
    assert not violated.holds and violated.verdict == "violated"
    assert abs(violated.margin - 0.5) < 1e-9
    # margin is never negative
    assert validate_bound(p, 2.0).margin >= 0.0


def test_validate_rectangle_verdicts():
    p = parse_polynomial("1, 0, -4")
    inside = validate_rectangle(p, Rectangle(-2.5, 2.5, -1.0, 1.0))
    assert inside.holds
    assert abs(inside.margin - 0.5) < 1e-9
    outside = validate_rectangle(p, Rectangle(-1.0, 1.0, -1.0, 1.0))
    assert not outside.holds
    assert abs(outside.margin - 1.0) < 1e-9


def test_validate_accepts_precomputed_roots():
    p = parse_polynomial("1, 0, -4")
    rs = find_roots(p)
    assert validate_bound(p, 3.0, roots=rs).holds
    assert validate_rectangle(p, Rectangle(-3, 3, -3, 3), roots=rs).holds
