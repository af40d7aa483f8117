"""Builders for companion matrices, their 2x2 block partition, and Cartesian parts.

For a monic degree-n polynomial p the companion matrix C(p) has first row
(-a_n, -a_{n-1}, ..., -a_1) and ones on the subdiagonal; its eigenvalues are
exactly the zeros of p. For even degree 2n the matrix is partitioned into
four n x n blocks A11, A12, A21, A22. This module only builds matrices; the
bounds that read their structure live in ``linalg`` (the secular equation
of the Hermitian part) and ``cartesian`` (the closed forms of the first row).
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

