"""Tridiagonal Toeplitz closed-form spectra against direct eigensolves."""

import numpy as np
import pytest

from zerobounds import (
    TriToeplitz,
    is_normal,
    numerical_radius_sweep,
    toeplitz_eigenvalues,
    toeplitz_spectral_radius,
)


def _sorted(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_closed_form_matches_direct_eigensolve():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        b = complex(rng.normal(), rng.normal())
        a = complex(rng.normal(), rng.normal())
        c = complex(rng.normal(), rng.normal())
        t = TriToeplitz(n, b, a, c)
        closed = _sorted(toeplitz_eigenvalues(t))
        direct = _sorted(map(complex, np.linalg.eigvals(t.matrix())))
        scale = 1.0 + abs(a) + abs(b) + abs(c)
        assert np.allclose(closed, direct, atol=1e-9 * scale)


@pytest.mark.parametrize("b,c", [(0, 2 + 1j), (1 - 3j, 0), (0, 0)])
def test_triangular_cases_collapse_to_the_diagonal(b, c):
    t = TriToeplitz(5, b, 1.5 - 0.5j, c)
    eigs = toeplitz_eigenvalues(t)
    assert all(abs(z - (1.5 - 0.5j)) < 1e-15 for z in eigs)
    assert abs(toeplitz_spectral_radius(t) - abs(1.5 - 0.5j)) < 1e-15


def test_spectral_radius_is_the_extreme_eigenvalue_modulus():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        t = TriToeplitz(
            n,
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
        )
        r = toeplitz_spectral_radius(t)
        mods = [abs(z) for z in toeplitz_eigenvalues(t)]
        assert abs(r - max(mods)) <= 1e-12 * (1 + r)


def test_eigenvalues_are_symmetric_about_the_diagonal_entry():
    t = TriToeplitz(6, 1 + 2j, 0.5, -3j)
    eigs = toeplitz_eigenvalues(t)
    shifted = _sorted([z - t.a for z in eigs])
    negated = _sorted([-(z - t.a) for z in eigs])
    assert np.allclose(shifted, negated, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 39])
def test_a_zero_diagonal_spectrum_is_exactly_antisymmetric(n):
    eigs = toeplitz_eigenvalues(TriToeplitz(n, 1, 0, 1))
    assert all(z == -w for z, w in zip(eigs, reversed(eigs)))
    if n % 2:
        assert eigs[n // 2] == 0


def test_normality_detection():
    assert is_normal(TriToeplitz(4, 2j, 1, -2))  # |b| = |c| = 2
    assert is_normal(TriToeplitz(4, 0, 1, 0))
    assert not is_normal(TriToeplitz(4, 1, 0, 2))
    assert not is_normal(TriToeplitz(4, 1e-13, 0, 0))  # nonzero and nilpotent


def test_normal_case_numerical_radius_equals_spectral_radius():
    rng = np.random.default_rng(47)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        mod = rng.uniform(0.2, 2.0)
        b = mod * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = mod * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a = complex(rng.normal(), rng.normal())
        t = TriToeplitz(n, b, a, c)
        assert is_normal(t)
        r = toeplitz_spectral_radius(t)
        w, _ = numerical_radius_sweep(t.matrix())
        assert abs(w - r) <= 1e-6 * max(r, 1.0)


def test_size_below_two_is_rejected():
    with pytest.raises(ValueError):
        TriToeplitz(1, 1, 1, 1)


def test_matrix_layout():
    t = TriToeplitz(3, 7, 1, -2j)
    m = t.matrix()
    want = np.array([[1, -2j, 0], [7, 1, -2j], [0, 7, 1]], dtype=complex)
    assert np.array_equal(m, want)
