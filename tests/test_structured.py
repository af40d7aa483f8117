"""compare's three Cartesian rows on a companion matrix: the structured kernels
(hermitian_rectangle, cartesian_disk_parts, block_cartesian_radius's companion
route) against the dense compositions they replace, which are kept here as
the reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zerobounds.linalg
from conftest import dense_abs
from zerobounds import (
    Polynomial,
    block_cartesian_radius,
    build_block_companion,
    build_companion,
    hermitian_rectangle,
    make_monic,
    operator_norm,
    parse_polynomial,
)
from zerobounds.cartesian import cartesian_disk_parts
from zerobounds.report import CompareOptions, run_compare

ROWS = ("hermitian_rectangle", "cartesian_disk", "block_cartesian")
SWITCH = zerobounds.linalg._SECULAR_ENDS  # hermitian_rectangle's secular route from here


def _parts(a):
    return (a + a.conj().T) / 2, (a - a.conj().T) / 2j


def _dense_disk_parts(bc):
    """cartesian_disk_parts as first written: w_k from the squared blocks,
    N from the moduli of the global off-diagonal blocks of P and Q."""
    def coupling(a):
        p, q = _parts(a)
        return np.linalg.eigvalsh(p @ p + q @ q)[-1]

    n, (p, q) = bc.n, _parts(bc.companion)
    coupling_n = (operator_norm(dense_abs(p[:n, n:]) + dense_abs(q[:n, n:]))
                  + operator_norm(dense_abs(p[n:, :n]) + dense_abs(q[n:, :n])))
    return coupling(bc.a11), coupling(bc.a22), coupling_n


def _dense_block_radius(bc):
    """block_cartesian_radius's dense route on the companion's 2 x 2 grid."""
    grid = [[bc.a11, bc.a12], [bc.a21, bc.a22]]
    weights = np.zeros((2, 2))
    for k in range(2):
        for j in range(2):
            p, q = _parts(grid[k][j])
            if k == j:
                weights[k, k] = 2 * np.linalg.eigvalsh(p @ p + q @ q)[-1]
                continue
            mixed = 0
            for h in (p, q):
                values, vectors = np.linalg.eigh(h)
                mods = np.abs(values)
                mixed = mixed + (vectors * (2 * mods)) @ vectors.conj().T
            weights[k, j] = operator_norm(mixed) ** 2 / 2
    return math.sqrt(np.linalg.eigvalsh((weights + weights.T) / 2)[-1])


def _dense_rectangle(p):
    """Extents of Re C and Im C from eigvalsh, and each part's largest entry."""
    c = build_companion(p)
    re_part, im_part = _parts(c)
    re, im = np.linalg.eigvalsh(re_part), np.linalg.eigvalsh(im_part)
    return ((re[0], re[-1]), (im[0], im[-1])), (np.abs(re_part).max(), np.abs(im_part).max())


def _assert_rectangle_matches(p):
    want, scales = _dense_rectangle(p)
    r = hermitian_rectangle(p)
    for got, extents, scale in zip(((r.re_lo, r.re_hi), (r.im_lo, r.im_hi)), want, scales):
        for g, e in zip(got, extents):
            assert abs(g - e) <= 1e-12 * scale, (got, extents)


def _assert_equivalent(p):
    bc = build_block_companion(p)
    for got, want in zip(cartesian_disk_parts(bc), _dense_disk_parts(bc)):
        assert abs(got - want) <= 1e-12 * want, (got, want)
    got, want = block_cartesian_radius(bc), _dense_block_radius(bc)
    assert abs(got - want) <= 1e-12 * want, (got, want)
    _assert_rectangle_matches(p)


def _lower(n, seed, complex_coeffs, zero_half):
    """2n lower coefficients (a_1, ..., a_2n) of a random scale; zero_half
    "r" clears a_{n+1..2n} (r = 0), "s" clears a_{1..n} (s = 0)."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    lower = scale * rng.normal(size=2 * n)
    if complex_coeffs:
        lower = lower + 1j * scale * rng.normal(size=2 * n)
    if zero_half == "r":
        lower[n:] = 0
    elif zero_half == "s":
        lower[:n] = 0
    return Polynomial(tuple(complex(a) for a in lower))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 64),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([None, "r", "s"]),
)
@example(2, 0, True, None)
@example(3, 1, True, "r")
@example(4, 2, False, "r")
@example(5, 3, True, "s")
@example(2, 4, False, "s")
def test_structured_rows_match_the_dense_compositions(n, seed, complex_coeffs, zero_half):
    _assert_equivalent(_lower(n, seed, complex_coeffs, zero_half))


@pytest.mark.parametrize("poly", [
    "1, 0, 0, 0, 1",  # r = 0 and s = (0, -1)
    "1, 0, 0, 0, 0",  # z^4, the shift: r = s = 0
    "1, 2, 0, 0, 0, 0, 0, 0, 3",  # r and s with one entry each
    "1, 1/2i, -3, 0, 1, 0, 2i, 0, 0, 1, 1, 0, -1",
    "1, 0, 0, 3, 0",  # t = 0 and s_1 real
    "1, 0, 0, 2i, 0",  # t = 0 and s_1 imaginary
    "1, 1, 1, 0, 5",  # s_1 = 0
])
def test_structured_rows_match_on_sparse_rows(poly):
    _assert_equivalent(parse_polynomial(poly))


def test_each_rectangle_part_is_scaled_by_its_own_largest_entry(rectangle_route):
    # Re C has the entry -1e200 and Im C entries of modulus 1: at Re C's scale
    # Im C's extents would be lost below the dropped secular weights
    _assert_rectangle_matches(make_monic([1, 1e200, 1]))
    r = hermitian_rectangle(make_monic([1, 1e200, 1]))
    assert (r.im_lo, r.im_hi) == (-1.0, 1.0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(name, shape) of every eigh, eigvalsh and norm call: the LAPACK kernels
    the benchmark tracer counts."""
    calls = []
    for name in ("eigh", "eigvalsh", "norm"):
        def spy(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _gaussian(degree=128):
    rng = np.random.default_rng(10)
    return Polynomial(tuple(rng.normal(size=degree) + 1j * rng.normal(size=degree)))


@pytest.mark.parametrize("degree", [2, SWITCH - 1, SWITCH, 128])
def test_the_rectangle_takes_one_eigvalsh_below_the_switch_and_none_from_it(
        kernel_calls, monkeypatch, degree):
    solves = []
    original = zerobounds.linalg._largest_secular_root
    monkeypatch.setattr(zerobounds.linalg, "_largest_secular_root",
                        lambda *args: solves.append(args) or original(*args))
    options = CompareOptions(methods=("hermitian_rectangle",), oracle=False)
    assert run_compare(_gaussian(degree), options).rows[0].applicability == "valid"
    if degree < SWITCH:
        assert (kernel_calls, len(solves)) == ([("eigvalsh", (2, degree, degree))], 0)
    else:
        assert (kernel_calls, len(solves)) == ([], 1)


def test_compare_rows_solve_nothing_larger_than_4x4_from_the_switch_on(kernel_calls):
    # below it the rectangle's one eigvalsh is of Re C and Im C, degree x degree
    assert SWITCH <= 128
    report = run_compare(_gaussian(), CompareOptions(methods=ROWS, oracle=False))
    assert [row.applicability for row in report.rows] == ["valid"] * 3
    assert kernel_calls and max(max(shape) for _, shape in kernel_calls) <= 4


def test_block_cartesian_on_a_companion_makes_one_eigensolve(kernel_calls):
    # w1's compressed 4 x 4 eigh; the A12 weight and the 2 x 2 coupling are closed forms
    report = run_compare(_gaussian(), CompareOptions(methods=("block_cartesian",), oracle=False))
    assert report.rows[0].applicability == "valid"
    assert kernel_calls == [("eigh", (4, 4))]


def test_a_block_companion_takes_the_closed_form(kernel_calls):
    block_cartesian_radius(build_block_companion(_gaussian()))
    assert kernel_calls == [("eigh", (4, 4))]


def test_a_grid_of_companion_blocks_takes_the_dense_route(kernel_calls):
    bc = build_block_companion(_gaussian())
    closed = block_cartesian_radius(bc)
    kernel_calls.clear()
    dense = block_cartesian_radius([[bc.a11, bc.a12], [bc.a21, bc.a22]])
    assert any(name == "eigh" and max(shape) > 4 for name, shape in kernel_calls), kernel_calls
    assert abs(dense - closed) <= 1e-12 * closed, (dense, closed)
