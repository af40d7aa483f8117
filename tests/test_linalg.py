"""Contracts of the dense linear-algebra helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerobounds.linalg
from conftest import random_matrix
from zerobounds import (
    FIXTURES,
    InternalConsistencyError,
    NegativeEntryError,
    NonSquareError,
    NotHermitianError,
    block_cartesian_radius,
    hermitian_eigs,
    nonneg_numrad,
    numerical_radius_sweep,
    operator_norm,
)
from zerobounds.cartesian import build_companion
from zerobounds.linalg import _companion_peaks, _dense_peaks, as_matrix
from zerobounds.polynomial import Polynomial, make_monic


def test_as_matrix_rejects_non_square_and_non_finite():
    with pytest.raises(NonSquareError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(NonSquareError):
        as_matrix(np.zeros(4))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))
    rect = as_matrix(np.zeros((2, 3)), square=False)
    assert rect.shape == (2, 3)
    for empty, square in ((np.zeros((0, 0)), True), (np.zeros((0, 3)), False)):
        with pytest.raises(NonSquareError, match="nonempty"):
            as_matrix(empty, square=square)
    empty = np.zeros((0, 0))
    for kernel in (hermitian_eigs, numerical_radius_sweep, nonneg_numrad, operator_norm,
                   lambda m: block_cartesian_radius([[m]])):
        with pytest.raises(NonSquareError):
            kernel(empty)


def test_hermitian_eigs_reconstruction_and_invariants():
    rng = np.random.default_rng(7)
    for n in range(2, 17):
        x = random_matrix(rng, n)
        h = (x + x.conj().T) / 2
        eig = hermitian_eigs(h)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        scale = max(np.linalg.norm(h), 1.0)
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * scale
        assert np.all(np.diff(eig.values) >= -1e-12 * scale)  # ascending
        # trace and determinant through the spectrum
        assert abs(eig.values.sum() - np.trace(h).real) <= 1e-9 * scale
        det = np.linalg.det(h).real
        assert abs(np.prod(eig.values) - det) <= 1e-8 * max(abs(det), 1.0)


def test_hermitian_eigs_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):  # the tolerance is relative at every scale
        hermitian_eigs(np.array([[0.0, 1e-13], [0.0, 0.0]]))
    tiny = 1e-300 * np.array([[2.0, 1 - 1j], [1 + 1j, -1.0]])
    assert np.allclose(hermitian_eigs(tiny).values / 1e-300, [-1.5615528128, 2.5615528128])
    assert list(hermitian_eigs(np.zeros((2, 2))).values) == [0.0, 0.0]


def test_operator_norm_matches_largest_singular_value():
    rng = np.random.default_rng(13)
    x = random_matrix(rng, 5)
    assert abs(operator_norm(x) - np.linalg.svd(x, compute_uv=False)[0]) <= 1e-10
    # rectangular blocks are allowed
    r = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    assert abs(operator_norm(r) - np.linalg.svd(r, compute_uv=False)[0]) <= 1e-10


def test_sweep_on_normal_matrices_gives_spectral_radius():
    rng = np.random.default_rng(17)
    d = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
    q, _ = np.linalg.qr(random_matrix(rng, 4))
    t = q @ d @ q.conj().T
    r = max(abs(z) for z in np.diag(d))
    assert abs(numerical_radius_sweep(t)[0] - r) <= 1e-6 * max(r, 1.0)


def test_sweep_nilpotent_two_by_two_is_half():
    w, _ = numerical_radius_sweep(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert abs(w - 0.5) <= 1e-9


def test_sweep_shift_matrix_anchors():
    # w of the size-n shift (ones on the subdiagonal) is cos(pi/(n+1))
    for n in range(2, 9):
        shift = np.zeros((n, n))
        shift[np.arange(1, n), np.arange(n - 1)] = 1.0
        assert abs(numerical_radius_sweep(shift)[0] - math.cos(math.pi / (n + 1))) <= 1e-6


def test_sweep_bracketed_by_operator_norm():
    rng = np.random.default_rng(19)
    for n in (2, 4, 7):
        x = random_matrix(rng, n)
        w, _ = numerical_radius_sweep(x)
        nrm = operator_norm(x)
        assert 0.5 * nrm - 1e-9 <= w <= nrm + 1e-7


def test_nonneg_numrad_rejects_bad_entries():
    with pytest.raises(NegativeEntryError):
        nonneg_numrad(np.array([[1.0, -0.5], [0.0, 1.0]]))
    with pytest.raises(NegativeEntryError):
        nonneg_numrad(np.array([[1.0, 1j], [0.0, 1.0]], dtype=complex))


def test_nonneg_numrad_matches_sweep_on_nonnegative_matrices():
    # for entrywise-nonnegative matrices the radius is attained at theta = 0,
    # so the symmetrized eigenvalue equals the swept value
    rng = np.random.default_rng(23)
    for _ in range(10):
        r = rng.uniform(0.0, 2.0, size=(4, 4))
        direct = nonneg_numrad(r)
        swept, _ = numerical_radius_sweep(r.astype(complex))
        assert abs(direct - swept) <= 1e-6 * max(direct, 1.0)
        assert direct >= swept - 1e-6


# ---------------------------------------------- companion route of the sweep

AGREEMENT_THETAS = np.concatenate([
    np.linspace(0.0, 2 * np.pi, 64, endpoint=False), [0.1234, 5.4321],
])


def _companion(lower):
    """Companion matrix of z^n + a_n z^(n-1) + ... + a_1 from (a_1, ..., a_n)."""
    return build_companion(Polynomial(tuple(lower)))


def _fast_peaks(c, thetas):
    """The companion route at the sweep's scale, max |C_ij|, scaled back."""
    scale = np.max(np.abs(c))
    return scale * _companion_peaks(c[0], scale)(thetas)[0]


def _assert_routes_agree(c):
    fast = _fast_peaks(c, AGREEMENT_THETAS)
    dense, _ = _dense_peaks(c, AGREEMENT_THETAS)
    assert np.all(np.isfinite(fast))
    # relative to the largest peak, about w(C): both routes are accurate to
    # a few eps times the matrix scale, not to each small peak separately
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(dense)


finite_parts = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite_parts, finite_parts), min_size=2, max_size=40))
def test_companion_route_agrees_with_dense_route(parts):
    _assert_routes_agree(_companion([complex(re, im) for re, im in parts]))


def _top_weight_vanishes(n):
    # at theta = 0 the border is g_i = (conj(C[0, i]) + [i == 1]) / 2; choosing
    # g = the second sine vector makes it orthogonal to the top eigenvector of T
    i = np.arange(1, n)
    g = np.sin(2 * i * np.pi / n)
    first_row = np.concatenate([[0.3], np.conj(2 * g - (i == 1))])
    return _companion(-first_row[::-1])


NAMED_COMPANIONS = {
    "z^n": [0.0] * 7,
    "z^n + z^(n-1)": [0.0] * 6 + [1.0],
    "z^n + z^(n-2), zero border at theta 0": [0.0] * 5 + [1.0, 0.0],
    "real coefficients": [float(k) for k in range(1, 10)],
    "scale 1e-150": [1e-150 * complex(k, -k) for k in range(1, 8)],
    "scale 1e+150": [1e150 * complex(k, -k) for k in range(1, 8)],
    "one huge coefficient": list(make_monic([1, 1e150, 1, 2]).lower),
}


@pytest.mark.parametrize("name", sorted(NAMED_COMPANIONS))
def test_companion_route_named_cases(name):
    _assert_routes_agree(_companion(NAMED_COMPANIONS[name]))


def test_companion_route_when_the_top_weight_vanishes():
    for n in (4, 7, 12):
        c = _top_weight_vanishes(n)
        _assert_routes_agree(c)
        assert _fast_peaks(c, np.zeros(1))[0] >= math.cos(math.pi / n)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_companion_route_on_the_fixtures(name):
    _assert_routes_agree(build_companion(FIXTURES[name].polynomial()))


@pytest.mark.parametrize("top_weight, gap", [(1e-20, 1e-10), (1e-30, 1e-14), (1e-16, 1e-8)])
def test_secular_root_next_to_a_nearly_decoupled_top_pole(top_weight, gap):
    # the root sits within about top_weight / gap of the top pole, where
    # the secular function is small and easily lost to cancellation
    mu = np.array([0.9, 0.5, 0.1])
    w = np.array([[top_weight, 0.4, 0.0]])
    h = np.array([0.9 - 1.0 - gap])  # 0.4 / (0.9 - 0.5) = 1: the gap is left over
    arrow = np.diag(np.concatenate([h, mu]))
    arrow[0, 1:] = arrow[1:, 0] = np.sqrt(w[0])
    expected = np.linalg.eigvalsh(arrow)[-1]
    peaks, _ = zerobounds.linalg._largest_secular_root(h, w, mu)
    assert abs(peaks[0] - expected) <= 1e-14


def test_a_non_finite_secular_root_is_an_internal_error():
    # a pole the secular equation drops (weight 0) is still an eigenvalue, and a NaN one
    # reaches lambda_max only there, after Newton has converged on the kept pole
    with pytest.raises(InternalConsistencyError, match="non-finite lambda_max"):
        zerobounds.linalg._largest_secular_root(np.zeros(1), np.array([[0.0, 1.0]]),
                                                np.array([np.nan, 0.0]))


def test_sweep_of_a_huge_coefficient_is_that_coefficient():
    c = build_companion(make_monic([1, 1e150, 1, 2]))
    assert abs(numerical_radius_sweep(c)[0] / 1e150 - 1.0) <= 1e-12


def test_sweep_routes_by_structure(monkeypatch):
    dense_calls = []

    def spy(m, thetas):
        dense_calls.append(len(thetas))
        return _dense_peaks(m, thetas)

    monkeypatch.setattr(zerobounds.linalg, "_dense_peaks", spy)
    c = _companion([complex(k, 1) for k in range(1, 7)])
    swept, _ = numerical_radius_sweep(c)
    assert dense_calls == []
    perturbed = c.copy()
    perturbed[3, 2] = 1.0 + 1e-9
    assert abs(numerical_radius_sweep(perturbed)[0] - swept) <= 1e-6 * swept
    assert sum(dense_calls) > 64


def test_companion_route_raises_when_the_solve_fails(monkeypatch):
    monkeypatch.setattr(zerobounds.linalg, "_SECULAR_MAX_STEPS", 1)
    c = _companion([complex(k, 1) for k in range(1, 7)])
    with pytest.raises(InternalConsistencyError):
        numerical_radius_sweep(c)


# ------------------------------------------------- the sweep's bracket loop

def _record_batches(monkeypatch):
    """Record the angles and lambda_max (of X / max |X_ij|) of every batch on either route."""
    thetas, values = [], []
    companion_peaks, dense_peaks = _companion_peaks, _dense_peaks

    def recorded(batch, out):
        thetas.append(batch)
        values.append(out[0])
        return out

    def companion_spy(first_row, scale):
        peaks = companion_peaks(first_row, scale)
        return lambda batch, start=None: recorded(batch, peaks(batch, start))

    monkeypatch.setattr(zerobounds.linalg, "_companion_peaks", companion_spy)
    monkeypatch.setattr(zerobounds.linalg, "_dense_peaks",
                        lambda m, batch: recorded(batch, dense_peaks(m, batch)))
    return thetas, values


@pytest.mark.parametrize("route", ["companion", "dense"])
def test_sweep_refines_in_a_few_batched_calls(monkeypatch, route):
    thetas, _ = _record_batches(monkeypatch)
    c = _companion([complex(k, 1) for k in range(1, 7)])
    lower, upper = numerical_radius_sweep(c if route == "companion" else c + 0.1 * np.eye(6))
    calls = list(map(len, thetas))
    assert calls[0] == 32
    assert 2 <= len(calls) <= 4
    assert lower <= upper <= lower * (1 + 1e-14)


def _closed(thetas, values):
    """The closing test on the outer polygon of the angles evaluated: no vertex
    beyond max f by over 1e-14 relative plus 16 eps |im| / sin h."""
    order = np.argsort(thetas)
    thetas, values = thetas[order], values[order]
    half = np.diff(thetas, append=2 * np.pi) / 2
    following = np.roll(values, -1)
    re = (values + following) / (2 * np.cos(half))
    im = (values - following) / (2 * np.sin(half))
    excess = np.hypot(re, im) - values.max() * (1 + 1e-14)
    return bool((excess <= 16 * np.finfo(float).eps * np.abs(im) / np.sin(half)).all())


# most angles a sweep may take on Gaussian companions, seeds 0-8: what a sweep
# that splits every wide interval 16-fold takes
SPLIT_SWEEP_ANGLES = {
    6: (172, 187, 187, 217, 187, 172, 202, 187, 172),
    16: (187, 187, 202, 247, 202, 172, 217, 232, 187),
    32: (262, 187, 322, 397, 352, 292, 217, 232, 187),
    64: (427, 277, 412, 292, 262, 412, 262, 262, 367),
    128: (442, 292, 277, 802, 292, 412, 367, 322, 337),
}


def test_sweep_closes_the_ladder_in_three_rounds(monkeypatch):
    rounds = []
    for n, split_angles in SPLIT_SWEEP_ANGLES.items():
        for seed, most in enumerate(split_angles):
            rng = np.random.default_rng(seed)
            c = _companion(rng.normal(size=n) + 1j * rng.normal(size=n))
            thetas, values = _record_batches(monkeypatch)
            lower, upper = numerical_radius_sweep(c)
            rounds.append(len(thetas))
            assert _closed(np.concatenate(thetas), np.concatenate(values)), (n, seed)
            assert len(thetas) <= 4 and sum(map(len, thetas)) <= most, (n, seed)
            assert lower <= upper <= lower * (1 + 1e-13)
    assert np.median(rounds) <= 3


def _eigvalsh_peak(m, theta):
    """lambda_max of the Hermitian part of e^{i theta} M by eigvalsh."""
    turned = np.exp(1j * theta) * m
    return np.linalg.eigvalsh((turned + turned.conj().T) / 2)[-1]


@pytest.mark.parametrize("route", ["companion", "dense"])
def test_slopes_are_the_derivative_of_lambda_max(route):
    # f'(theta) = -Im(e^{i theta} p) for the support point p, and Re(e^{i theta} p) = f
    rng = np.random.default_rng(31)
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False) + 0.1
    if route == "companion":
        matrices = [_companion(rng.normal(size=n) + 1j * rng.normal(size=n))
                    for n in (2, 3, 4, 6, 9, 16, 33, 64)]
    else:
        matrices = [random_matrix(rng, n) for n in range(2, 9)]
    for m in matrices:
        scale = np.max(np.abs(m))
        if route == "companion":
            values, points = _companion_peaks(m[0], scale)(thetas)
        else:
            values, points = _dense_peaks(m / scale, thetas)
        ahead, behind = ([_eigvalsh_peak(m / scale, t + h) for t in thetas] for h in (1e-5, -1e-5))
        difference = (np.array(ahead) - np.array(behind)) / 2e-5
        assert np.max(np.abs(-points.imag - difference)) <= 1e-6 * np.max(values)
        assert np.max(np.abs(points.real - values)) <= 1e-13 * np.max(values)


def test_sweep_solved_in_chunks_matches_one_batch(monkeypatch):
    # each chunk takes its own angles' Newton starts; chunks of 3 angles show it at degree 16
    rng = np.random.default_rng(37)
    c = _companion(rng.normal(size=16) + 1j * rng.normal(size=16))
    whole = numerical_radius_sweep(c)
    monkeypatch.setattr(zerobounds.linalg, "_PEAKS_CHUNK", 3 * 16)
    assert np.allclose(numerical_radius_sweep(c), whole, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("lower_coefficients, radius, budget_spent", [
    ([0.0, 0.0, 0.0], math.cos(math.pi / 4), True),  # 1, 0, 0, 0: W(C) is a disk, f is flat
    ([-np.exp(0.3j)] + [0.0] * 15, 1.0, False),  # z^16 - e^{0.3i}: unitary, 16 corners
], ids=["shift-3", "unitary-16"])
def test_sweep_spends_the_budget_on_flat_profiles(monkeypatch, lower_coefficients, radius,
                                                  budget_spent):
    thetas, _ = _record_batches(monkeypatch)
    lower, upper = numerical_radius_sweep(_companion(lower_coefficients))
    calls = list(map(len, thetas))
    # sampling narrows a disk's bracket only as the angles grow, so the budget
    # is spent; the ladders find the unitary companion's 16 peaks and close it
    assert (sum(calls) == 4096) == budget_spent and sum(calls) <= 4096
    assert upper - lower <= (1e-6 if budget_spent else 1e-13) * lower
    assert radius * (1 - 1e-12) <= upper and lower <= radius * (1 + 1e-12)


@pytest.mark.parametrize("matrix", [
    np.eye(6, k=1),  # a nilpotent Jordan block, dense route; W is a disk about 0, so f is flat
    build_companion(Polynomial((0.0,) * 8)),  # the shift, companion route, also flat
    _companion([-1.0] + [0.0] * 63),  # z^64 - 1, unitary with 64 corners
], ids=["jordan-dense", "shift-companion", "unitary-64"])
def test_sweep_evaluates_at_most_the_angle_budget(monkeypatch, matrix):
    thetas, _ = _record_batches(monkeypatch)
    lower, upper = numerical_radius_sweep(matrix)
    calls = list(map(len, thetas))
    assert sum(calls) <= 4096
    assert lower <= upper <= operator_norm(matrix) * (1 + 1e-14)


def test_sweep_evaluates_no_two_angles_within_the_gap(monkeypatch):
    # two angles under 1e-10 apart give a vertex of rounding noise; on these
    # companions the smallest gap is about 8.6e-9
    lowers = {"shift-3": [0.0] * 3, "unitary-16": [-np.exp(0.3j)] + [0.0] * 15,
              "unitary-64": [-1.0] + [0.0] * 63}
    for n in SPLIT_SWEEP_ANGLES:
        for seed in range(9):
            rng = np.random.default_rng(seed)
            lowers[n, seed] = rng.normal(size=n) + 1j * rng.normal(size=n)
    for name, lower in lowers.items():
        thetas, _ = _record_batches(monkeypatch)
        numerical_radius_sweep(_companion(lower))
        taken = np.sort(np.concatenate(thetas))
        assert np.diff(np.append(taken, taken[0] + 2 * np.pi)).min() > 1e-10, name


def _grid_peak(m, count=4096, chunk=256):
    """Largest eigvalsh lambda_max of the Hermitian part of e^{i theta} M on a uniform grid."""
    best, mh = -np.inf, m.conj().T
    for start in range(0, count, chunk):
        turn = np.exp(2j * np.pi * np.arange(start, start + chunk) / count)[:, None, None]
        best = max(best, float(np.linalg.eigvalsh((turn * m + turn.conj() * mh) / 2)[:, -1].max()))
    return best


def test_sweep_reaches_the_fine_grid_peak_and_stays_below_the_norm():
    rng = np.random.default_rng(29)
    matrices = [
        _companion(rng.normal(size=n) + 1j * rng.normal(size=n)) for n in (2, 3, 5, 9, 17, 33, 64)
    ] + [random_matrix(rng, n) for n in range(2, 9)]
    for m in matrices:
        w, upper = numerical_radius_sweep(m)
        assert _grid_peak(m) * (1 - 1e-12) <= w <= upper <= operator_norm(m)


@pytest.mark.parametrize("phi", [0.1, 1.0, 2.345, 4.0, 5.5])
def test_sweep_is_exact_between_grid_angles(phi):
    # w([[0, b], [c, 0]]) = (|b| + |c|) / 2, attained at 2 theta = arg(c) - arg(b),
    # off the grid for these phi; the companion is on one route, its transpose on the other
    c = _companion([3.0 * np.exp(1j * phi), 0.0])
    assert abs(numerical_radius_sweep(c)[0] - 2.0) <= 1e-14
    assert abs(numerical_radius_sweep(c.T)[0] - 2.0) <= 1e-14
    # a normal matrix: w is the spectral radius
    rng = np.random.default_rng(int(10 * phi))
    d = rng.normal(size=5) + 1j * rng.normal(size=5)
    q, _ = np.linalg.qr(random_matrix(rng, 5))
    r = np.max(np.abs(d))
    lower, upper = numerical_radius_sweep(q @ np.diag(d) @ q.conj().T)
    assert abs(lower - r) <= 1e-14 * r
    # W is a polygon: two angles a rounding error apart would make its
    # vertex noise, far above w
    assert r * (1 - 1e-14) <= upper <= r * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_sweep_closes_a_normal_matrix_without_refining_on_rounding_noise(monkeypatch, seed):
    # W(X) is the polygon of the eigenvalues: two angles inside one corner's
    # normal cone meet at that corner, up to the rounding in f over sin h
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    lam = rng.normal(size=5) + 1j * rng.normal(size=5)
    rho = np.max(np.abs(lam))
    thetas, _ = _record_batches(monkeypatch)
    lower, upper = numerical_radius_sweep(q @ np.diag(lam) @ q.conj().T)
    calls = list(map(len, thetas))
    assert sum(calls) <= 400  # one eigvalsh per angle
    # U diag(lam) U* carries rounding of about eps rho, so w is rho only to that
    assert lower <= rho * (1 + 1e-14)
    assert rho * (1 - 1e-14) <= upper <= rho * (1 + 1e-9)


def test_sweep_upper_end_is_tight_on_unitary_companions():
    # C of z^n - e^{i phi} is unitary: W(C) is the polygon of its n eigenvalues
    # on the unit circle, so w(C) = 1
    for n in range(2, 33):
        lower, upper = numerical_radius_sweep(_companion([-np.exp(0.7j * n)] + [0.0] * (n - 1)))
        assert lower <= 1 + 1e-12 and 1 - 1e-12 <= upper <= 1 + 1e-9, (n, lower, upper)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 64),
    st.floats(0.0, 2 * np.pi),
    st.integers(0, 63),
    st.floats(-12.0, -2.0),
    st.floats(0.0, 2 * np.pi),
)
def test_sweep_upper_end_bounds_near_unitary_spectral_radii(n, phi, k, exponent, turn):
    # z^n - e^{i phi} with one coefficient moved by up to 1e-2: lambda_max(theta)
    # has n nearly equal narrow peaks, where a grid search settles on a low one
    lower = [-np.exp(1j * phi)] + [0.0] * (n - 1)
    lower[k % n] += 10.0**exponent * np.exp(1j * turn)
    c = _companion(lower)
    _, upper = numerical_radius_sweep(c)
    assert upper >= np.max(np.abs(np.linalg.eigvals(c))) * (1 - 1e-12)


def test_sweep_of_a_huge_middle_coefficient_is_finite():
    # 1, 1e200, 1: the sweep runs on C / 1e200, so the vertex moduli cannot overflow
    lower, upper = numerical_radius_sweep(build_companion(make_monic([1, 1e200, 1])))
    assert math.isfinite(upper)
    assert 1e200 * (1 - 1e-12) <= lower <= upper <= 1e200 * (1 + 1e-12)


@pytest.mark.parametrize("b", [1e308, 1.7e308])
def test_sweep_of_a_coefficient_whose_double_overflows(b):
    # z^2 + b: max |C_ij| = b, and twice b is past the float range.
    # w([[0, -b], [1, 0]]) = (b + 1) / 2, and lower = max f carries f's
    # rounding; W(C / b) is nearly a disk, so the sweep ends at the budget
    lower, upper = numerical_radius_sweep(build_companion(make_monic([1, 0, b])))
    w = (b + 1) / 2
    assert lower <= w * (1 + 1e-14) and w <= upper <= lower * (1 + 1e-6)
