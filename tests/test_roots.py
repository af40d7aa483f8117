"""Root oracle: simultaneous iteration, ordering, verdicts."""

import functools
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import zerobounds.roots
from conftest import random_polynomial
from zerobounds import (
    NoConvergenceError,
    Polynomial,
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

EPS = np.finfo(float).eps


@pytest.fixture
def block_calls(monkeypatch):
    """Count the oracle's power-block fills and rounding-level reads."""
    calls = {"terms": 0, "level": 0}
    aberth_terms = zerobounds.roots._aberth_terms

    def counted(descending):
        terms, level = aberth_terms(descending)

        def counted_terms(z):
            calls["terms"] += 1
            return terms(z)

        def counted_level():
            calls["level"] += 1
            return level()

        return counted_terms, counted_level

    monkeypatch.setattr(zerobounds.roots, "_aberth_terms", counted)
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


def _root_arrays():
    rng = np.random.default_rng(23)
    for n in (*range(1, 41), 48, 64, 128):
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield np.roots(rng.standard_normal(n + 1)).astype(complex)  # exact conjugate pairs
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -5e-324, 1e300]
    yield np.array([complex(a, b) for a in special for b in special])


def test_order_keys_are_the_scalar_modulus_and_argument_bit_for_bit():
    # a key one ulp off can swap a conjugate pair, and so the printed roots
    for z in _root_arrays():
        want = [(-abs(z[i]), np.angle(z[i])) for i in range(len(z))]
        got = zerobounds.roots._order_keys(z)
        assert np.array(got).tobytes() == np.array(want).tobytes(), z


def _assert_residuals_are_at_their_roots(p, rs):
    """Each residual within 4n*eps*sum|a_k||r|^k of |p(r)| in 50 digits, r its own root."""
    descending = p.descending()
    with mpmath.workdps(50):
        exact = [mpmath.mpc(c.real, c.imag) for c in descending]
        for r, res in zip(rs.roots, rs.residuals, strict=True):
            want = abs(mpmath.polyval(exact, mpmath.mpc(r.real, r.imag)))
            level = 4 * p.degree * EPS * np.polyval(np.abs(descending), abs(r))
            assert abs(res - want) <= level, (r, res, want, level)


def test_residuals_are_small_and_reported():
    p = parse_polynomial("1, -1/2, 1/3, -1/4")
    rs = find_roots(p)
    assert len(rs.residuals) == 3
    assert max(rs.residuals) < 1e-10
    _assert_residuals_are_at_their_roots(p, rs)


@pytest.mark.parametrize("p", [
    *(random_polynomial(np.random.default_rng(degree), degree) for degree in (4, 16, 64)),
    _exact_polynomial([[1, 0]] * 3 + [[1, Fraction(-3, 2)], [1, Fraction(7, 10)]]),
], ids=["gaussian4", "gaussian16", "gaussian64", "zero_roots"])
def test_each_residual_is_taken_at_its_own_final_root(p):
    # residuals from one fill at the pass's last z, reordered with the roots
    _assert_residuals_are_at_their_roots(p, find_roots(p))


def test_no_convergence_error_carries_best_effort_roots(monkeypatch):
    p = random_polynomial(np.random.default_rng(1), 8)
    monkeypatch.setattr(zerobounds.roots, "_MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergenceError, match=r"did not converge in 1 iterations \(max") as err:
        find_roots(p)
    assert len(err.value.best_roots) == 8
    assert len(err.value.residuals) == 8


@pytest.mark.parametrize("coefficients", [
    [1, 1e200, 1],
    list(np.poly(np.arange(1, 21))),  # Wilkinson-20: its starting circle overflows z^n
], ids=["1e200", "wilkinson20"])
def test_overflow_to_nan_fails_fast(coefficients):
    with pytest.raises(NoConvergenceError, match=r"overflowed at iteration 1 \(max residual nan"):
        find_roots(make_monic(coefficients))


@pytest.mark.parametrize("descending, z", [
    ((1, 0, 0, -1), [1j, 1j, -1j]),  # z^3 - 1 at two equal iterates
    ((1, 0, 1), [0j, 2 + 0j]),  # z^2 + 1 at p'(0) = 0
], ids=["coincident", "zero-slope"])
def test_coincident_iterates_and_a_zero_slope_end_as_an_overflow(descending, z):
    # without a RuntimeWarning, which pytest turns into an error
    terms, level = zerobounds.roots._aberth_terms(descending)
    *_, failure = zerobounds.roots._aberth_pass(terms, level, np.array(z), 1e-13)
    assert failure == "overflowed at iteration 1"


@pytest.mark.parametrize("factors", [
    [[Fraction(1), Fraction(-1)]] * 4,
    [[Fraction(1), Fraction(1, 2)]] * 3 + [[Fraction(1), Fraction(-2)]] * 3,
    _fivefold_cluster(),
], ids=["repeated4", "repeated3_3", "cluster"])
def test_multiple_roots_stall_at_the_rounding_level_fast(factors):
    with pytest.raises(NoConvergenceError,
                       match=r"stalled at the rounding level after \d+ iterations \(max residual"
                       ) as err:
        find_roots(_exact_polynomial(factors))
    assert int(re.search(r"after (\d+) iterations", str(err.value))[1]) < 150


def test_the_stall_check_costs_early_convergence_nothing(block_calls):
    # one fill per iteration and one for the residuals; the level is read only by the
    # stall check and for a root over the absolute guard
    rs = find_roots(random_polynomial(np.random.default_rng(16), 16))
    assert rs.iterations < 32  # converged before the first check at 2n
    assert block_calls == {"terms": rs.iterations + 1, "level": 0}


def test_the_guard_still_refuses_a_root_off_by_1e_3(monkeypatch):
    aberth_pass = zerobounds.roots._aberth_pass

    def planted(terms, level, z, tol):
        z, iterations, failure = aberth_pass(terms, level, z, tol)
        return z + np.eye(len(z))[0] * 1e-3, iterations, failure

    monkeypatch.setattr(zerobounds.roots, "_aberth_pass", planted)
    with pytest.raises(NoConvergenceError,
                       match=r"converged in \d+ iterations but a residual exceeds the guard"):
        find_roots(random_polynomial(np.random.default_rng(16), 16))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_roots_names_the_stall(capsys):
    assert main(["roots", "--poly", "1, -4, 6, -4, 1"]) == 4
    assert "stalled at the rounding level" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 7, 64])
def test_aberth_terms_match_horner_and_a_direct_loop(n):
    rng = np.random.default_rng(n)
    descending = (1, *(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    terms, level = zerobounds.roots._aberth_terms(descending)
    for _ in range(2):  # the second call refills the buffers of the first
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p_values, slopes, sums = terms(z)
        # to rounding: within 4n eps times the sum of the moduli of the terms
        for got, coefficients in ((p_values, descending), (slopes, np.polyder(descending))):
            scale = np.polyval(np.abs(coefficients), np.abs(z))
            assert np.all(abs(got - np.polyval(coefficients, z)) <= 4 * n * EPS * scale)
        for i in range(n):
            addends = [1 / (z[i] - z[j]) for j in range(n) if j != i]
            assert abs(sums[i] - sum(addends)) <= 4 * n * EPS * sum(map(abs, addends))
        # level() reads this call's powers; each way to sum the moduli rounds within 8(n+1) eps
        want = 4 * n * EPS * np.polyval(np.abs(descending), np.abs(z))
        assert np.all(abs(level() - want) <= 8 * (n + 1) * EPS * want)


def test_degree_one_is_solved_directly():
    rs = find_roots(parse_polynomial("1, -3+4i"))
    assert rs.roots == (3 - 4j,)
    assert rs.iterations == 0
    assert abs(rs.max_modulus - 5.0) < 1e-15


# Iteration count of find_roots on monic polynomials with complex Gaussian
# lower coefficients (seeded standard_normal, real parts then imaginary
# parts). A faster kernel for the same iteration must leave every entry as it
# is. (64, 9), (64, 31), (128, 12) and (128, 13) each have one root whose
# residual exceeds the absolute guard 1e-8 * prod(1 + |z_i|) but not its
# rounding level, which the guard also requires before it refuses.
_GAUSSIAN_ITERATIONS = {
    (16, 0): 16, (16, 1): 19, (16, 2): 16, (16, 3): 20, (16, 4): 13,
    (64, 0): 46, (64, 1): 48, (64, 2): 52, (64, 3): 51, (64, 4): 48,
    (128, 0): 96, (128, 1): 95, (128, 2): 91, (128, 3): 99, (128, 4): 93,
    (64, 9): 49, (64, 31): 43, (128, 12): 92, (128, 13): 95,
}


@pytest.mark.parametrize("degree, seed", sorted(_GAUSSIAN_ITERATIONS))
def test_gaussian_iteration_counts_and_failures_are_pinned(degree, seed):
    rng = np.random.default_rng(seed)
    p = Polynomial(tuple(rng.standard_normal(degree) + 1j * rng.standard_normal(degree)))
    rs = find_roots(p)
    assert rs.iterations == _GAUSSIAN_ITERATIONS[degree, seed]
    reference = np.abs(np.roots(p.descending())).max()
    assert abs(rs.max_modulus - reference) <= 1e-12 * reference


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
    rs = find_roots(parse_polynomial("1, 0, -4"))  # roots ±2
    holds = validate_bound(2.5, rs)
    assert holds.holds and holds.verdict == "holds"
    assert abs(holds.margin - 0.5) < 1e-9
    violated = validate_bound(1.5, rs)
    assert not violated.holds and violated.verdict == "violated"
    assert abs(violated.margin - 0.5) < 1e-9
    # margin is never negative
    assert validate_bound(2.0, rs).margin >= 0.0


def test_validate_rectangle_verdicts():
    rs = find_roots(parse_polynomial("1, 0, -4"))
    inside = validate_rectangle(Rectangle(-2.5, 2.5, -1.0, 1.0), rs)
    assert inside.holds
    assert abs(inside.margin - 0.5) < 1e-9
    outside = validate_rectangle(Rectangle(-1.0, 1.0, -1.0, 1.0), rs)
    assert not outside.holds
    assert abs(outside.margin - 1.0) < 1e-9


def test_validate_accepts_precomputed_roots():
    rs = find_roots(parse_polynomial("1, 0, -4"))
    assert validate_bound(3.0, rs).holds
    assert validate_rectangle(Rectangle(-3, 3, -3, 3), rs).holds
