import math

import numpy as np
import pytest

import zerobounds.linalg
from zerobounds import Polynomial


@pytest.fixture(params=["dense", "secular"])
def rectangle_route(request, monkeypatch):
    """Runs a test with hermitian_rectangle on one route at every degree: one
    eigvalsh of Re C and Im C (up to a part scale of 2^510), or the secular
    equation on both parts and their negations."""
    threshold = math.inf if request.param == "dense" else 0
    monkeypatch.setattr(zerobounds.linalg, "_SECULAR_ENDS", threshold)
    return request.param


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
    """|X|^power = (X* X)^(power/2) = V S^power V* from one dense SVD
    X = U S V*: the reference the structured kernels are checked against.
    The singular values keep an absolute error of eps ||X||, where the square
    roots of the Gram matrix's eigenvalues would have sqrt(eps) ||X|| at a
    singular X."""
    _, values, vh = np.linalg.svd(x)
    return (vh.conj().T * values ** power) @ vh
