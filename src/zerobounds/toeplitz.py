"""Tridiagonal Toeplitz matrices: closed-form spectra and normality.

tri(b, a, c) has a on the main diagonal, b on the subdiagonal, c on the
superdiagonal. Its eigenvalues have the closed form

    lambda_k = a + 2 * sqrt(|b c|) * e^{i (theta + phi)/2} * cos(k pi / (n+1)),

k = 1..n, with theta = arg(b), phi = arg(c). When b c = 0 the phase factor
is taken as 1, so every eigenvalue is a. The matrix is normal iff |b| = |c|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TriToeplitz",
    "toeplitz_eigenvalues",
    "toeplitz_spectral_radius",
    "is_normal",
]


@dataclass(frozen=True)
class TriToeplitz:
    """tri(b, a, c) of size n >= 2."""

    n: int
    b: complex
    a: complex
    c: complex

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("TriToeplitz needs size n >= 2")
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "c", complex(self.c))

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=complex)
        for i in range(self.n):
            m[i, i] = self.a
            if i > 0:
                m[i, i - 1] = self.b
            if i < self.n - 1:
                m[i, i + 1] = self.c
        return m


def _offdiag_factor(t: TriToeplitz) -> complex:
    if t.b == 0 or t.c == 0:
        return 0j
    phase = (np.angle(t.b) + np.angle(t.c)) / 2
    return 2 * np.sqrt(abs(t.b * t.c)) * np.exp(1j * phase)


def toeplitz_eigenvalues(t: TriToeplitz) -> tuple[complex, ...]:
    """All n eigenvalues via the closed form, k = 1..n."""
    factor = _offdiag_factor(t)
    return tuple(
        complex(t.a + factor * np.cos(k * np.pi / (t.n + 1))) for k in range(1, t.n + 1)
    )


def toeplitz_spectral_radius(t: TriToeplitz) -> float:
    """Spectral radius: the larger of the k = 1 and k = n eigenvalue moduli.

    cos(k pi/(n+1)) is monotone in k, and the eigenvalues move along a line
    segment through a, so the extreme moduli sit at the endpoints.
    """
    factor = _offdiag_factor(t)
    first = abs(t.a + factor * np.cos(np.pi / (t.n + 1)))
    last = abs(t.a + factor * np.cos(t.n * np.pi / (t.n + 1)))
    return float(max(first, last))


def is_normal(t: TriToeplitz) -> bool:
    """Normality test: |b| = |c| within 1e-12 relative to the larger."""
    return abs(abs(t.b) - abs(t.c)) <= 1e-12 * max(abs(t.b), abs(t.c))
