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
    """Count the oracle's power-block fills, Aberth-sum fills and rounding-level reads."""
    calls = {"fills": 0, "sums": 0, "level": 0}
    aberth_terms = zerobounds.roots._aberth_terms

    def counted(descending):
        values, terms, level = aberth_terms(descending)

        def counted_values(z):
            calls["fills"] += 1
            return values(z)

        def counted_terms(z):
            calls["fills"] += 1
            calls["sums"] += 1
            return terms(z)

        def counted_level():
            calls["level"] += 1
            return level()

        return counted_values, counted_terms, counted_level

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
    _, terms, level = zerobounds.roots._aberth_terms(descending)
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
    # one fill per iteration and one for the residuals, which takes no Aberth sums; the
    # level is read only by the stall check and for a root over the absolute guard
    rs = find_roots(random_polynomial(np.random.default_rng(16), 16))
    assert rs.iterations < 32  # converged before the first check at 2n
    assert block_calls == {"fills": rs.iterations + 1, "sums": rs.iterations, "level": 0}


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


# each side of the cutoff between the two fills, an odd and an even degree above it
_HIGH = zerobounds.roots._HIGH_DEGREE


@pytest.mark.parametrize("n", sorted({2, 7, 64, _HIGH - 1, _HIGH, 97, 128}))
def test_aberth_terms_match_horner_and_a_direct_loop(n):
    rng = np.random.default_rng(n)
    descending = (1, *(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    values, terms, level = zerobounds.roots._aberth_terms(descending)
    for _ in range(2):  # the second call refills the buffers of the first
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p_values, slopes, sums = terms(z)
        assert all(map(np.array_equal, values(z), (p_values, slopes)))
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


def _gaussian(degree, seed, spread=0.0):
    """Monic, complex Gaussian lower coefficients, each scaled by 10^U(-spread, spread)."""
    rng = np.random.default_rng(seed)
    lower = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    return Polynomial(tuple(lower * 10.0 ** rng.uniform(-spread, spread, degree)))


def _outcome(p):
    """find_roots' RootSet, or the cause its NoConvergenceError names."""
    try:
        return find_roots(p)
    except NoConvergenceError as err:
        return str(err).partition(" (max residual")[0]


@pytest.mark.parametrize("p", [
    *(_gaussian(degree, seed) for degree in (16, 32, 47, 48) for seed in (0, 1)),
    _gaussian(64, 0, spread=5),  # its start circle overflows z^n
    _gaussian(64, 6, spread=5),  # the first of seeds 0-7 whose run converges
], ids=[*(f"gaussian{d}-{s}" for d in (16, 32, 47, 48) for s in (0, 1)),
        "scaled64-overflow", "scaled64"])
def test_both_fills_reach_the_same_roots(p, monkeypatch):
    # _HIGH_DEGREE also switches find_roots' start, so each fill runs the pass
    # from the same start and stop: the circle and tolerance below the cutoff
    n = p.degree
    scale = 1.0 + max(map(abs, p.lower))
    start = 0.9 * scale * np.exp(1j * (2 * np.pi * np.arange(n) / n + 0.4))
    outcomes = []
    for cutoff in (n + 1, n):  # the accumulate and n x n path, then the other
        monkeypatch.setattr(zerobounds.roots, "_HIGH_DEGREE", cutoff)
        _, terms, level = zerobounds.roots._aberth_terms(p.descending())
        outcomes.append(zerobounds.roots._aberth_pass(terms, level, start, 1e-13 * scale))
    (low, low_iterations, low_failure), (high, high_iterations, high_failure) = outcomes
    assert high_failure == low_failure
    if low_failure is None:
        assert high_iterations == low_iterations
        assert np.all(abs(high - low) <= 1e-13 * np.abs(low))


def _upper_hull(moduli):
    """Vertices (k, log|a_k|) of the upper convex hull, a_n = 1, by brute force: a point is
    a vertex unless it lies on or below a chord between two others on either side of it."""
    points = [(k, np.log(m)) for k, m in enumerate(moduli) if m] + [(len(moduli), 0.0)]
    return [(k, y) for at, (k, y) in enumerate(points) if not any(
        y <= yi + (yj - yi) * (k - i) / (j - i)
        for i, yi in points[:at] for j, yj in points[at + 1:])]


# at and above the cutoff: generic, widely scaled, zero low-order coefficients,
# sparse, z^n - c, and a hull with one interior vertex
def _hull_inputs():
    yield _gaussian(48, 3)
    yield _gaussian(64, 0, spread=5)
    yield _gaussian(97, 2, spread=2)
    for zeros, seed in ((1, 0), (3, 1), (10, 2)):
        yield Polynomial((0j,) * zeros + _gaussian(64 - zeros, seed).lower)
    sparse = np.zeros(80, complex)
    sparse[[0, 7, 31, 55, 79]] = (1e-3, 2j, 50, 3 - 4j, 1e2)
    yield Polynomial(tuple(sparse))
    yield Polynomial((-7.0 + 1j,) + (0j,) * 49)
    yield Polynomial((1e-8,) + (0j,) * 29 + (1e4,) + (0j,) * 19)


@pytest.mark.parametrize("p", _hull_inputs())
def test_each_hull_edge_gets_its_own_count_of_starts_on_its_radius(p):
    moduli = [abs(c) for c in p.lower]
    starts, largest = zerobounds.roots._hull_start(moduli)
    assert starts.shape == (p.degree,)
    hull = _upper_hull(moduli)
    radii = [np.exp((yi - yj) / (j - i)) for (i, yi), (j, yj) in zip(hull, hull[1:])]
    for ((i, _), (j, _)), radius in zip(zip(hull, hull[1:]), radii):
        on_circle = abs(np.abs(starts) - radius) <= 1e-12 * radius
        assert on_circle.sum() == j - i, (i, j, radius)
    zeros = hull[0][0]  # the number of lowest coefficients that vanish
    assert np.sum(np.abs(starts) < min(radii) * (1 - 1e-12)) == zeros
    assert abs(largest - max(radii)) <= 1e-12 * max(radii)
    # the largest radius is max_k |a_k|^(1/(n-k)), half Fujiwara's bound
    fujiwara = max(m ** (1 / (p.degree - k)) for k, m in enumerate(moduli))
    assert abs(largest - fujiwara) <= 1e-12 * fujiwara


@pytest.mark.parametrize("p", _hull_inputs())
def test_hull_starts_are_finite_and_distinct_and_bound_the_roots(p):
    starts, largest = zerobounds.roots._hull_start([abs(c) for c in p.lower])
    assert np.all(np.isfinite(starts))
    gaps = np.abs(starts[:, None] - starts[None, :]) + np.diag(np.full(p.degree, np.inf))
    assert gaps.min() > 0
    # every root lies within twice the largest start radius (Fujiwara)
    assert np.abs(np.roots(p.descending())).max() <= 2 * largest * (1 + 1e-12)


def test_a_widely_scaled_input_whose_start_circle_overflowed_converges():
    p = _gaussian(64, 0, spread=5)  # the circle inside the Cauchy disk overflows z^n
    reference = np.abs(np.roots(p.descending())).max()
    assert abs(find_roots(p).max_modulus - reference) <= 1e-12 * reference


def _known_roots(kind, degree, seed):
    """(distinct roots, multiplicities): doubled or tripled Gaussian roots, or simple
    complex Gaussian roots of modulus about 30."""
    rng = np.random.default_rng([degree, seed])
    gaussian = lambda size: rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if kind == "large":
        return 30 * gaussian(degree) / np.sqrt(2), [1] * degree
    fold = {"double": 2, "triple": 3}[kind]
    rest = degree % fold
    return np.append(gaussian(degree // fold), gaussian(rest)), [fold] * (degree // fold) + [1] * rest


@pytest.mark.parametrize("kind", ["double", "triple", "large"])
@pytest.mark.parametrize("degree", [48, 64, 80, 96])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiple_and_large_roots_fail_loudly_or_come_out_right(kind, degree, seed):
    distinct, multiplicities = _known_roots(kind, degree, seed)
    p = make_monic(np.poly(np.repeat(distinct, multiplicities)))
    outcome = _outcome(p)
    if isinstance(outcome, str):
        assert re.fullmatch(r"root iteration (stalled|overflowed) .*", outcome)
        return
    true = np.abs(distinct).max()
    if kind == "large":  # simple roots
        assert abs(outcome.max_modulus - true) <= 1e-12 * true
        return
    # a root r of multiplicity m moves by about (eps' sum|a_k||r|^k / prod|r - s|^m_s)^(1/m)
    # when the coefficients move by eps' = 8n eps relative
    descending, bound = np.abs(p.descending()), 0.0
    for r, m in zip(distinct, multiplicities):
        others = np.prod([abs(r - s) ** k for s, k in zip(distinct, multiplicities) if s != r])
        bound = max(bound, (8 * degree * EPS * np.polyval(descending, abs(r)) / others) ** (1 / m))
    assert abs(outcome.max_modulus - true) <= bound


def test_degree_one_is_solved_directly():
    rs = find_roots(parse_polynomial("1, -3+4i"))
    assert rs.roots == (3 - 4j,)
    assert rs.iterations == 0
    assert abs(rs.max_modulus - 5.0) < 1e-15


# Iteration count of find_roots on monic polynomials with complex Gaussian
# lower coefficients (seeded standard_normal, real parts then imaginary
# parts). A faster kernel for the same iteration must leave every entry as it
# is. Degree 16 starts on the circle inside the Cauchy disk; degrees 64, 97
# and 128 start on the Newton-polygon circles. (64, 9), (128, 12) and
# (128, 13) each have one root whose residual exceeds the absolute guard
# 1e-8 * prod(1 + |z_i|) but not its rounding level, which the guard also
# requires before it refuses. (97, 0) and (97, 1) take the high-degree fill
# and start at an odd degree.
_GAUSSIAN_ITERATIONS = {
    (16, 0): 16, (16, 1): 19, (16, 2): 16, (16, 3): 20, (16, 4): 13,
    (64, 0): 12, (64, 1): 11, (64, 2): 8, (64, 3): 11, (64, 4): 12,
    (128, 0): 13, (128, 1): 13, (128, 2): 11, (128, 3): 10, (128, 4): 12,
    (64, 9): 10, (64, 31): 11, (128, 12): 13, (128, 13): 11,
    (97, 0): 11, (97, 1): 11,
}


@pytest.mark.parametrize("degree, seed", sorted(_GAUSSIAN_ITERATIONS))
def test_gaussian_iteration_counts_and_failures_are_pinned(degree, seed):
    p = _gaussian(degree, seed)
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
