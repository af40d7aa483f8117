import numpy as np

from zerobounds import Polynomial


def random_polynomial(rng, degree, complex_coeffs=True, scale=3.0):
    """Random monic polynomial with coefficient moduli up to ~scale."""
    re = rng.uniform(-scale, scale, degree)
    im = rng.uniform(-scale, scale, degree) if complex_coeffs else np.zeros(degree)
    return Polynomial(tuple(complex(a, b) for a, b in zip(re, im)))


def random_matrix(rng, n, complex_entries=True):
    m = rng.normal(size=(n, n))
    if complex_entries:
        m = m + 1j * rng.normal(size=(n, n))
    return m


def dense_abs(x, power=1.0):
    """|X|^power = (X* X)^(power/2), from one dense eigendecomposition of the
    Gram matrix, its roundoff-negative eigenvalues clamped to zero: the
    reference the structured kernels are checked against."""
    gram = x.conj().T @ x
    values, vectors = np.linalg.eigh((gram + gram.conj().T) / 2)
    return (vectors * np.clip(values, 0.0, None) ** (power / 2)) @ vectors.conj().T
