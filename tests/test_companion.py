"""Companion matrix layout, block partition, and Cartesian parts."""

import numpy as np
import pytest

from conftest import random_polynomial
from zerobounds import (
    DegreeTooSmallError,
    OddDegreeError,
    build_block_companion,
    build_companion,
    find_roots,
    parse_polynomial,
)
from zerobounds.cartesian import cartesian_parts


def test_companion_layout():
    p = parse_polynomial("1, 5, -2i, 7")  # z^3 + 5z^2 - 2i z + 7
    c = build_companion(p)
    assert np.array_equal(c[0], [-5, 2j, -7])
    assert np.array_equal(c[1], [1, 0, 0])
    assert np.array_equal(c[2], [0, 1, 0])


def test_companion_needs_degree_two():
    with pytest.raises(DegreeTooSmallError):
        build_companion(parse_polynomial("1, 4"))


def test_companion_eigenvalues_are_the_roots():
    rng = np.random.default_rng(53)
    for _ in range(8):
        p = random_polynomial(rng, int(rng.integers(2, 8)))
        eigs = sorted(map(complex, np.linalg.eigvals(build_companion(p))),
                      key=lambda z: (z.real, z.imag))
        roots = sorted(find_roots(p).roots, key=lambda z: (z.real, z.imag))
        assert np.allclose(eigs, roots, atol=1e-7)


def test_block_partition_reassembles_the_companion():
    p = random_polynomial(np.random.default_rng(59), 6)
    bc = build_block_companion(p)
    assert bc.n == 3
    top = np.hstack([bc.a11, bc.a12])
    bottom = np.hstack([bc.a21, bc.a22])
    assert np.array_equal(np.vstack([top, bottom]), bc.companion)


def test_blocks_are_views_and_cartesian_parts_recombine():
    p = random_polynomial(np.random.default_rng(61), 8)
    bc = build_block_companion(p)
    for block in (bc.a11, bc.a12, bc.a21, bc.a22):
        assert np.shares_memory(block, bc.companion)
    big_p, big_q = cartesian_parts(bc.companion)
    assert np.allclose(big_p, big_p.conj().T, atol=1e-14)
    assert np.allclose(big_q, big_q.conj().T, atol=1e-14)
    assert np.allclose(big_p + 1j * big_q, bc.companion, atol=1e-14)


def test_block_partition_rejects_odd_and_small_degrees():
    with pytest.raises(OddDegreeError):
        build_block_companion(parse_polynomial("1, 0, 0, 0, 0, 1"))
    with pytest.raises(DegreeTooSmallError):
        build_block_companion(parse_polynomial("1, 0, 1"))
