"""Companion matrices, their 2x2 block partition, and Cartesian parts.

For a monic degree-n polynomial p the companion matrix C(p) has first row
(-a_n, -a_{n-1}, ..., -a_1) and ones on the subdiagonal; its eigenvalues are
exactly the zeros of p. For even degree 2n the matrix is partitioned into
four n x n blocks A11, A12, A21, A22.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooSmallError, OddDegreeError
from .polynomial import Polynomial

__all__ = ["BlockCompanion", "build_companion", "build_block_companion", "cartesian_parts"]


def build_companion(p: Polynomial) -> np.ndarray:
    """The degree x degree companion matrix of p."""
    n = p.degree
    if n < 2:
        raise DegreeTooSmallError("companion matrix needs degree >= 2")
    matrix = np.eye(n, k=-1, dtype=complex)
    matrix[0] = np.negative(p.lower[::-1])
    return matrix


def cartesian_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian parts P = (M + M*)/2 and Q = (M - M*)/(2i), so M = P + iQ."""
    return (m + m.conj().T) / 2, (m - m.conj().T) / 2j


@dataclass(frozen=True)
class BlockCompanion:
    """Companion matrix of an even-degree polynomial in 2x2 block form.

    n is the half-degree; the four n x n blocks are views of companion.
    """

    n: int
    companion: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray


def build_block_companion(q: Polynomial) -> BlockCompanion:
    """Partition C(q) for even degree 2n >= 4 into four n x n blocks."""
    degree = q.degree
    if degree % 2 != 0:
        raise OddDegreeError(f"block partition needs even degree, got {degree}")
    if degree < 4:
        raise DegreeTooSmallError("block partition needs degree >= 4")
    n = degree // 2
    full = build_companion(q)
    return BlockCompanion(n, full, full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:])


def _bordered_hermitian_part(first_row: np.ndarray, scale: float | np.ndarray = 1.0):
    """Hermitian part of e^{i theta} C / scale in bordered form, for C a companion matrix.

    C has the given first row c, ones on the subdiagonal and zeros elsewhere.
    With D = diag(e^{i (k-1) theta}), D* e^{i theta} C D is the companion matrix
    of first row e^{i theta (j+1)} c_j, and its Hermitian part H(theta) is
    [[h, g*], [g, T]] where T is the (n-1) x (n-1) tridiagonal matrix with zero
    diagonal and 1/2 off-diagonals. T has eigenvalues mu_j = cos(j pi/n),
    j = 1..n-1, and orthonormal eigenvectors sqrt(2/n) sin(i j pi/n), so in
    that basis H(theta) is diag(mu) bordered by v = S^T g, and det(z - H) is
    the secular product

        (z - h) prod_j (z - mu_j) - sum_j |v_j|^2 prod_{k != j} (z - mu_k).

    Returns (mu, at) for H(theta) / scale: mu is descending, and at(turns)
    gives h (one entry per angle) and |v|^2 (one row per angle), where
    turns[:, j] = e^{i theta (j+1)}, j = 0..n-1, one row per angle; a caller
    with theta a multiple of pi/2 passes exact powers of i. Dividing by scale
    before squaring keeps |v|^2 finite for huge coefficients. scale is one
    number for every angle, or one per angle; then mu has one row per angle.
    """
    n = first_row.size
    k = np.arange(1, n)
    scale = np.asarray(scale, dtype=float)[..., None]
    # cos(j pi/n) as a sine, so that cos(pi/2) is exactly 0 and mu exactly odd
    mu = np.sin((n - 2 * k) * (np.pi / (2 * n))) / scale
    # reduce k j mod 2n first, so the sine arguments stay in [0, 2 pi); the 2n
    # sines of those arguments are computed once and looked up
    sines = np.sqrt(2.0 / n) * np.sin(np.arange(2 * n) * (np.pi / n))[np.outer(k, k) % (2 * n)]
    corner = first_row[0] / scale[..., 0]
    border = np.conj(first_row[1:]) / (2 * scale)  # g at theta = 0, less the subdiagonal's 1/2

    def at(turns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = (turns[:, 0] * corner).real
        g = np.conj(turns[:, 1:]) * border
        g[:, 0] += 0.5 / scale[..., 0]
        return h, (g.real @ sines) ** 2 + (g.imag @ sines) ** 2

    return mu, at


def _leading_block_gram(r: np.ndarray) -> np.ndarray:
    """(A* A + A A*)/2 - I for A = Z + e_1 r^T, compressed to at most 4 x 4.

    A is the leading n x n block of a companion matrix of degree >= 2n, with
    Z the down-shift and r the first n entries of the first row; n >= 2. As
    Z^T e_1 = 0, A* A = I - e_n e_n^T + conj(r) r^T and
    A A* = I - e_1 e_1^T + |r|^2 e_1 e_1^T + Z conj(r) e_1^T + e_1 (Z conj(r))*,
    so the difference is V B V* with V = [e_1, e_n, conj(r), Z conj(r)] and the
    4 x 4 B below. With V = Q R, Q's columns orthonormal, it is Q (R B R*) Q*,
    so the returned R B R* has the difference's eigenvalues on range(Q), all
    of C^n when n <= 4. When n > 4 the difference also has the eigenvalue 0,
    which never exceeds R B R*'s largest: R B R* is singular, or congruent to
    B, which has two positive eigenvalues. Only |r|^2 is squared, so only it
    can overflow.
    """
    n = r.size
    basis = np.zeros((n, 4), dtype=complex)
    basis[0, 0] = basis[-1, 1] = 1.0
    basis[:, 2] = np.conj(r)
    basis[1:, 3] = np.conj(r[:-1])
    tri = np.linalg.qr(basis, mode="r")
    squared = float(np.vdot(r, r).real)
    b = np.array([[squared - 1, 0, 0, 1], [0, -1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]) / 2
    return tri @ b @ tri.conj().T
