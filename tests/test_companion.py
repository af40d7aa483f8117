"""Companion matrix layout, block partition, and real-part charpoly."""

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
    real_part_charpoly,
)


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


def test_cartesian_blocks_match_global_slices():
    p = random_polynomial(np.random.default_rng(61), 8)
    bc = build_block_companion(p)

    def h(m):
        return m.conj().T

    # each block equals the blockwise Cartesian part of the partition
    assert np.allclose(bc.p11, (bc.a11 + h(bc.a11)) / 2, atol=1e-14)
    assert np.allclose(bc.p12, (bc.a12 + h(bc.a21)) / 2, atol=1e-14)
    assert np.allclose(bc.p21, h(bc.p12), atol=1e-14)
    assert np.allclose(bc.p22, (bc.a22 + h(bc.a22)) / 2, atol=1e-14)
    assert np.allclose(bc.q11, (bc.a11 - h(bc.a11)) / 2j, atol=1e-14)
    assert np.allclose(bc.q12, (bc.a12 - h(bc.a21)) / 2j, atol=1e-14)
    assert np.allclose(bc.q21, h(bc.q12), atol=1e-14)
    assert np.allclose(bc.q22, (bc.a22 - h(bc.a22)) / 2j, atol=1e-14)
    # the blocks reassemble P and Q, which recombine to the companion
    p_full = np.block([[bc.p11, bc.p12], [bc.p21, bc.p22]])
    q_full = np.block([[bc.q11, bc.q12], [bc.q21, bc.q22]])
    assert np.allclose(p_full, h(p_full), atol=1e-14)
    assert np.allclose(q_full, h(q_full), atol=1e-14)
    assert np.allclose(p_full + 1j * q_full, bc.companion, atol=1e-14)


def test_block_partition_rejects_odd_and_small_degrees():
    with pytest.raises(OddDegreeError):
        build_block_companion(parse_polynomial("1, 0, 0, 0, 0, 1"))
    with pytest.raises(DegreeTooSmallError):
        build_block_companion(parse_polynomial("1, 0, 1"))


def test_real_part_charpoly_vanishes_on_the_spectrum():
    rng = np.random.default_rng(67)
    for _ in range(6):
        p = random_polynomial(rng, int(rng.integers(3, 9)))
        re_c = (build_companion(p) + build_companion(p).conj().T) / 2
        eigs = np.linalg.eigvalsh(re_c)
        scale = (1 + float(np.max(np.abs(eigs)))) ** p.degree
        for lam in eigs:
            assert abs(real_part_charpoly(p, complex(lam))) <= 1e-10 * scale


def test_real_part_charpoly_matches_determinant():
    rng = np.random.default_rng(71)
    p = random_polynomial(rng, 5)
    re_c = (build_companion(p) + build_companion(p).conj().T) / 2
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        det = complex(np.linalg.det(z * np.eye(5) - re_c))
        assert abs(real_part_charpoly(p, z) - det) <= 1e-9 * (1 + abs(det))


def test_real_part_charpoly_needs_degree_three():
    with pytest.raises(DegreeTooSmallError):
        real_part_charpoly(parse_polynomial("1, 1, 1"), 0.0)
