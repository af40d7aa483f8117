"""Dense complex linear-algebra kernels for the bound computations.

Matrices are plain numpy arrays (complex dtype) of modest size, so the
general kernels favor clarity and tight contracts over asymptotic
cleverness. The Hermitian eigensolver is LAPACK's (via ``numpy.linalg.eigh``).
The numerical-radius sweep maximizes
w(X) = max_theta lambda_max((e^{i theta} X + e^{-i theta} X*)/2) over theta;
it takes lambda_max from a dense eigensolve for a general matrix and from
an O(n) secular equation for a companion matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .companion import _bordered_hermitian_part
from .errors import (
    InternalConsistencyError,
    NegativeEntryError,
    NonFiniteMatrixError,
    NonSquareError,
    NotHermitianError,
)

__all__ = [
    "HermitianEigen",
    "as_matrix",
    "hermitian_eigs",
    "psd_abs",
    "psd_power",
    "operator_norm",
    "numerical_radius_sweep",
    "nonneg_numrad",
]

_HERMITIAN_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
_SWEEP_CHUNK = 64  # grid angles per peak evaluation; bounds the companion route's memory
_TINY = float(np.finfo(float).tiny)
_SECULAR_MAX_STEPS = 100  # Newton steps; 1 to 8 suffice on every tested input
_ZOOM_POINTS = 32  # intervals per zoom round, evaluated as one batch; at most _SWEEP_CHUNK
_ZOOM_FINAL = 2.0**-28  # final half-width of the zoom bracket, in grid cells: 7 rounds


def as_matrix(a, square: bool = True) -> np.ndarray:
    """Coerce to a finite complex 2-D array; optionally require squareness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise NonSquareError(f"expected a matrix, got array of rank {m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFiniteMatrixError("matrix entries must be finite")
    return m


class HermitianEigen(NamedTuple):
    """Spectral decomposition A = V diag(values) V*.

    values are real and ascending; the columns of vectors are orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigs(a) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Hermiticity is checked up to 1e-12 relative to the largest entry;
    anything worse raises NotHermitianError rather than silently
    symmetrizing garbage.
    """
    m = as_matrix(a)
    scale = 1.0 + float(np.max(np.abs(m)))
    if float(np.max(np.abs(m - m.conj().T))) > _HERMITIAN_RTOL * scale:
        raise NotHermitianError("matrix is not Hermitian to working precision")
    values, vectors = np.linalg.eigh(m)
    return HermitianEigen(values, vectors)


def psd_abs(x) -> np.ndarray:
    """Matrix absolute value |X| = (X* X)^(1/2), Hermitian PSD.

    Eigenvalues of X*X within -1e-12 * ||X||_F**2 of zero are clamped to
    zero; anything more negative is numerically impossible and raises
    InternalConsistencyError.
    """
    m = as_matrix(x)
    gram = m.conj().T @ m
    eig = hermitian_eigs((gram + gram.conj().T) / 2)
    floor = -1e-12 * float(np.linalg.norm(m, "fro")) ** 2
    if eig.values.size and float(eig.values.min()) < floor:
        raise InternalConsistencyError(
            f"X*X produced eigenvalue {eig.values.min():.3e} below clamp window {floor:.3e}"
        )
    values = np.clip(eig.values, 0.0, None)
    root = (eig.vectors * np.sqrt(values)) @ eig.vectors.conj().T
    return (root + root.conj().T) / 2


def psd_power(h, exponent: float) -> np.ndarray:
    """h^exponent for Hermitian PSD h, via eigendecomposition.

    Tiny negative eigenvalues (roundoff) are clamped to zero first.
    """
    eig = hermitian_eigs(h)
    values = np.clip(eig.values, 0.0, None)
    return (eig.vectors * values**exponent) @ eig.vectors.conj().T


def operator_norm(x) -> float:
    """Largest singular value, i.e. sqrt(lambda_max(X* X))."""
    m = as_matrix(x, square=False)
    return float(np.linalg.norm(m, 2))


def _dense_peaks(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max of the Hermitian part of e^{i theta} M, one eigvalsh per angle."""
    mh = m.conj().T
    return np.array([
        np.linalg.eigvalsh((np.exp(1j * theta) * m + np.exp(-1j * theta) * mh) / 2)[-1]
        for theta in thetas
    ])


def _is_companion(m: np.ndarray) -> bool:
    """Any first row, ones on the subdiagonal, zeros elsewhere; size >= 2."""
    n = m.shape[0]
    return n >= 2 and np.array_equal(m[1:], np.eye(n - 1, n))


def _largest_secular_root(h: np.ndarray, w: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """lambda_max of [[h, v*], [v, diag(mu)]] with |v|^2 = w, one row per angle.

    mu is descending and the matrix is scaled to entries of modulus <= 1.
    Poles with weight <= eps^2 are dropped: that perturbs the matrix by at
    most sqrt(n) eps, the size of a dense eigensolver's backward error, and
    keeps a root next to the top pole far above underflow. With
    base the largest kept pole and d_j = base - mu_j >= 0, lambda_max is
    base + delta for the root delta >= 0 of the secular equation

        delta + base - h - sum_j w_j / (delta + d_j) = 0,

    whose left side is increasing and concave on delta > 0, so the root is
    unique there. Multiplied through by delta it reads

        F(delta) = delta (delta + base - h) - W + sum_j w_j d_j / (delta + d_j),

    W = sum_j w_j, which has no pole on delta > 0 and is convex. Its root lies
    below the root of delta^2 + (base - h) delta - W (all poles moved to base),
    so Newton from that bound decreases monotonically onto it. Dropped poles
    are eigenvalues in their own right, hence the final max with mu_0.
    """
    kept = w > _EPS**2
    top = kept.argmax(axis=1)  # 0 when nothing is kept: then delta = max(h - mu_0, 0)
    base = mu[top]
    c = base - h
    w = np.where(kept, w, 0.0)
    gaps = np.where(kept, base[:, None] - mu, 1.0)  # 1.0: any positive gap, weight 0 there
    wg = w * gaps
    total = w.sum(axis=1)
    root = np.sqrt(c * c + 4 * total)
    delta = np.where(c > 0, 2 * total / np.where(c > 0, c + root, 1.0), (root - c) / 2)
    for _ in range(_SECULAR_MAX_STEPS):
        inv = 1.0 / (delta[:, None] + gaps)
        # F as delta times the secular function: the expanded form subtracts W
        # and keeps an absolute error of eps W, too much when F is O(delta)
        f = delta * (delta + c - (w * inv).sum(axis=1))
        slope = 2 * delta + c - (wg * inv * inv).sum(axis=1)
        step = np.maximum(f, 0.0) / np.maximum(slope, _TINY)
        delta = delta - step
        if (step <= 4 * _EPS * (1 + delta)).all():
            break
    else:
        raise InternalConsistencyError("secular equation for lambda_max did not converge")
    peaks = np.maximum(base + delta, mu[0])
    if not np.isfinite(peaks).all():
        raise InternalConsistencyError("secular equation gave a non-finite lambda_max")
    return peaks


def _companion_peaks(first_row: np.ndarray):
    """thetas -> lambda_max of the Hermitian part of e^{i theta} C, C a companion matrix."""
    scale = max(1.0, float(np.max(np.abs(first_row))))  # max |C_ij|; w(sC) = s w(C)
    mu, bordered = _bordered_hermitian_part(first_row, scale)

    def peaks(thetas: np.ndarray) -> np.ndarray:
        return scale * _largest_secular_root(*bordered(thetas), mu)

    return peaks


def numerical_radius_sweep(x, samples: int = 512) -> float:
    """Numerical radius by sweeping theta over [0, 2*pi).

    Evaluates lambda_max of the Hermitian part of e^{i theta} X on a uniform
    grid, then zooms in on the best grid angle: each round evaluates 33
    equally spaced angles across the bracket in one batch, re-centres on the
    best and shrinks the bracket 16-fold, down to 2**-28 of a grid cell.
    Every evaluation is a lower bound for w(X); the largest is returned. It
    is accurate to rounding level once the grid brackets the highest peak,
    so the grid is the limit: it can miss a narrow highest peak for a lower one.

    lambda_max comes from one of two routes, chosen from X itself:

    - companion route, when X is n x n (n >= 2) with an arbitrary first row,
      ones on the subdiagonal and exact zeros elsewhere: the Hermitian part
      is a tridiagonal Toeplitz matrix bordered by one row and column, so
      lambda_max is the largest root of a rank-one secular equation over the
      known Toeplitz spectrum. The grid costs O(n^2 m) for m angles (one
      sine-basis product per angle, evaluated in chunks of 64 angles) and
      no eigensolver call;
    - dense route, for every other matrix: one ``eigvalsh`` per angle.

    Both routes share the grid and the zoom.
    """
    if samples < 64:
        raise ValueError("samples must be at least 64")
    m = as_matrix(x)
    if _is_companion(m):
        peaks = _companion_peaks(m[0])
    else:
        def peaks(thetas: np.ndarray) -> np.ndarray:
            return _dense_peaks(m, thetas)

    thetas = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    values = np.concatenate([
        peaks(thetas[i:i + _SWEEP_CHUNK]) for i in range(0, samples, _SWEEP_CHUNK)
    ])
    best_index = int(np.argmax(values))
    centre, best = thetas[best_index], float(values[best_index])

    # zoom within the two grid cells around the best sample
    cell = half = 2 * np.pi / samples
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS + 1)
    while half > cell * _ZOOM_FINAL:
        angles = centre + half * offsets
        values = peaks(angles)
        i = int(np.argmax(values))
        centre, best = angles[i], max(best, float(values[i]))
        half *= 2 / _ZOOM_POINTS
    return best


def nonneg_numrad(c) -> float:
    """Numerical radius of an entrywise-nonnegative real matrix.

    For such matrices w(C) equals lambda_max((C + C^T)/2) exactly, so no
    sweep is needed.
    """
    m = as_matrix(c)
    if np.any(m.imag != 0.0):
        raise NegativeEntryError("matrix entries must be real")
    r = m.real
    if np.any(r < 0.0):
        raise NegativeEntryError("matrix entries must be nonnegative")
    return float(np.linalg.eigvalsh((r + r.T) / 2)[-1])
