"""Cartesian-decomposition bounds: couplings, block radius, disks, rectangles."""

import math

import numpy as np
import pytest

import zerobounds.cartesian
import zerobounds.linalg
from conftest import dense_abs, random_matrix, random_polynomial
from zerobounds import (
    BlockShapeMismatchError,
    DegreeTooSmallError,
    HypothesisViolatedError,
    InternalConsistencyError,
    NegativeInputError,
    NoConvergenceError,
    OddDegreeError,
    Polynomial,
    Rectangle,
    block_cartesian_radius,
    build_block_companion,
    build_companion,
    cartesian_disk,
    cartesian_parts,
    diagonal_block_radius,
    find_roots,
    get_fixture,
    hermitian_eigs,
    hermitian_rectangle,
    kittaneh_rectangle,
    mw_bound,
    nonneg_numrad,
    numerical_radius_sweep,
    operator_norm,
    parse_polynomial,
    partition_disk,
    partition_rectangle,
    radius_from_norm_coupling,
    radius_from_pm_coupling,
    unit_tail_disk,
    validate_bound,
    validate_rectangle,
)
from zerobounds.cartesian import cartesian_disk_parts, partition_disk_parts


# ---------------------------------------------------------------- rectangle


def test_rectangle_rejects_inverted_extents():
    with pytest.raises(ValueError):
        Rectangle(1.0, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 0.0, 2.0, 1.0)


def test_rectangle_contains_points_and_rectangles():
    r = Rectangle(-1.0, 1.0, -2.0, 2.0)
    assert r.contains(0.5 - 1.5j)
    assert not r.contains(1.5)
    assert r.contains(1.0 + 1e-12j, slack=1e-9)
    assert r.contains_rectangle(Rectangle(-0.5, 0.5, -1.0, 1.0))
    assert not r.contains_rectangle(Rectangle(-0.5, 1.5, -1.0, 1.0))
    assert r.contains_rectangle(Rectangle(-1.0 - 1e-12, 1.0, 0.0, 0.0), slack=1e-9)


# ------------------------------------------------------- scalar couplings


def test_coupling_trivial_anchors():
    # pure diagonal: radius is the larger diagonal radius
    assert radius_from_norm_coupling(1.0, 1.0, 0.0, 0.0) == 1.0
    assert radius_from_pm_coupling(1.0, 1.0, 0.0, 0.0) == 1.0
    assert radius_from_norm_coupling(2.0, 0.0, 0.0, 0.0) == 2.0
    # pure off-diagonal: radius is half the coupling sum
    assert radius_from_norm_coupling(0.0, 0.0, 1.0, 1.0) == 1.0
    assert radius_from_pm_coupling(0.0, 0.0, 1.0, 1.0) == 1.0


def test_coupling_is_symmetric_and_dominates_the_diagonal():
    rng = np.random.default_rng(89)
    for _ in range(25):
        wa, wd, nb, nc = rng.uniform(0.0, 3.0, 4)
        forward = radius_from_norm_coupling(wa, wd, nb, nc)
        assert abs(forward - radius_from_norm_coupling(wd, wa, nc, nb)) < 1e-12
        assert forward >= max(wa, wd) - 1e-12
        assert radius_from_pm_coupling(wa, wd, nb, nc) >= max(wa, wd) - 1e-12


def test_coupling_rejects_negative_inputs():
    with pytest.raises(NegativeInputError):
        radius_from_norm_coupling(-0.1, 1.0, 0.0, 0.0)
    with pytest.raises(NegativeInputError):
        radius_from_pm_coupling(1.0, 1.0, -1.0, 0.0)


def test_couplings_dominate_the_numerical_radius_of_block_matrices():
    rng = np.random.default_rng(97)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        c, d = random_matrix(rng, n), random_matrix(rng, n)
        t = np.block([[a, b], [c, d]])
        w_t, _ = numerical_radius_sweep(t)
        w_a, _ = numerical_radius_sweep(a)
        w_d, _ = numerical_radius_sweep(d)
        by_norms = radius_from_norm_coupling(w_a, w_d, operator_norm(b), operator_norm(c))
        by_pm = radius_from_pm_coupling(
            w_a,
            w_d,
            numerical_radius_sweep(b + c)[0],
            numerical_radius_sweep(b - c)[0],
        )
        assert by_norms >= w_t - 1e-6
        assert by_pm >= w_t - 1e-6


# ---------------------------------------------------- block Cartesian radius


def test_block_radius_single_hermitian_block_gives_its_norm():
    rng = np.random.default_rng(101)
    x = random_matrix(rng, 4)
    h = (x + x.conj().T) / 2
    nrm = operator_norm(h)
    assert abs(block_cartesian_radius([[h]]) - nrm) <= 1e-10 * (1 + nrm)


def test_block_radius_nilpotent_scalar_grid():
    blocks = [[np.array([[0.0]]), np.array([[1.0]])],
              [np.array([[0.0]]), np.array([[0.0]])]]
    value = block_cartesian_radius(blocks)
    assert abs(value - 1.0) < 1e-12
    assert value >= 0.5  # true numerical radius of [[0,1],[0,0]]


def test_block_radius_table1_pin():
    bc = build_block_companion(get_fixture("table1").polynomial())
    value = block_cartesian_radius([[bc.a11, bc.a12], [bc.a21, bc.a22]])
    assert abs(value - 6.626141399975017) <= 1e-9


def test_block_radius_dominates_sweep_on_companion_partitions():
    rng = np.random.default_rng(103)
    for _ in range(10):
        degree = 2 * int(rng.integers(2, 6))
        p = random_polynomial(rng, degree)
        bc = build_block_companion(p)
        value = block_cartesian_radius([[bc.a11, bc.a12], [bc.a21, bc.a22]])
        assert value >= numerical_radius_sweep(bc.companion)[0] - 1e-6


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_block_radius_dominates_sweep_on_generic_grids(s):
    # the paper's bound holds at every s in (0, 1); the library computes s = 1/2
    rng = np.random.default_rng(107)
    for _ in range(6):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        grid = [[random_matrix(rng, k) for _ in range(m)] for _ in range(m)]
        floor = numerical_radius_sweep(np.block(grid))[0] - 1e-6
        assert _psd_composition_radius(grid, s) >= floor
        assert block_cartesian_radius(grid) >= floor


def _psd_composition_radius(grid, s):
    """The paper's per-block bound at exponent s, as block_cartesian_radius was
    first written: each power of |P| and |Q| from its own eigensolve of the
    Gram matrix (4 per off-diagonal block)."""
    m = len(grid)
    weights = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            p = (grid[k][j] + grid[k][j].conj().T) / 2
            q = (grid[k][j] - grid[k][j].conj().T) / 2j
            if k == j:
                weights[k, k] = m * np.linalg.eigvalsh(p @ p + q @ q)[-1]
                continue
            mixed = sum(dense_abs(x, e) for x in (p, q) for e in (2 * s, 2 * (1 - s)))
            weights[k, j] = (m / 4) * operator_norm(mixed) ** 2
    return math.sqrt(nonneg_numrad(weights))


@pytest.mark.parametrize("m", [2, 3])
def test_block_radius_equals_the_psd_composition_with_two_eigensolves_per_block(m, monkeypatch):
    calls = []

    def spy(h):
        calls.append(h.shape)
        return hermitian_eigs(h)

    rng = np.random.default_rng(109 + m)
    for trial in range(8):
        k = int(rng.integers(1, 5))
        grid = [[random_matrix(rng, k) for _ in range(m)] for _ in range(m)]
        want = _psd_composition_radius(grid, 0.5)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(zerobounds.cartesian, "hermitian_eigs", spy)
            patch.setattr(zerobounds.linalg, "hermitian_eigs", spy)
            got = block_cartesian_radius(grid)
        assert abs(got - want) <= 1e-12 * want, (trial, got, want)
        # one per diagonal block for w(P^2 + Q^2), then 2 per off-diagonal block
        assert len(calls) == m + 2 * m * (m - 1)


def test_block_radius_rejects_bad_grids():
    one = np.eye(2)
    with pytest.raises(BlockShapeMismatchError):
        block_cartesian_radius([[one, one]])  # ragged 1x2 grid
    with pytest.raises(BlockShapeMismatchError):
        block_cartesian_radius([[one, one], [one, np.eye(3)]])  # size mismatch
    with pytest.raises(BlockShapeMismatchError):
        block_cartesian_radius([])


def _dominance_grids():
    rng = np.random.default_rng(113)
    for m in (1, 2, 3):
        for _ in range(4):
            k = int(rng.integers(1, 5))
            yield [[random_matrix(rng, k) for _ in range(m)] for _ in range(m)]
    for degree in (4, 8, 16, 32, 64):
        bc = build_block_companion(random_polynomial(rng, degree))
        yield [[bc.a11, bc.a12], [bc.a21, bc.a22]]


def test_block_radius_is_the_least_of_the_s_family():
    # x^{2s} + x^{2(1-s)} >= 2x (AM-GM), so no exponent s beats s = 1/2
    for grid in _dominance_grids():
        value = block_cartesian_radius(grid)
        assert abs(_psd_composition_radius(grid, 0.5) - value) <= 1e-12 * value
        for s in (0.05, 0.25, 0.45, 0.55, 0.75, 0.95):
            assert _psd_composition_radius(grid, s) >= value * (1 - 1e-12), (s, value)


# ------------------------------------------------------------ cartesian disk


_CART_DISK_PINS = {
    "table1": 3.941508802190745,
    "table2": 5.5653005017035815,
    "table3": 2.047821577511597,
    "table4": 2.0083854045780245,
    "table5": 2.015016339355315,
    "h1": 2.005599998516139,
    "h2": 2.0162459539760245,
    "h3": 2.0136871466352813,
}


@pytest.mark.parametrize("name", sorted(_CART_DISK_PINS))
def test_cartesian_disk_values_are_stable(name):
    bc = build_block_companion(get_fixture(name).polynomial())
    r = cartesian_disk(bc)
    assert abs(r.value - _CART_DISK_PINS[name]) <= 1e-9 * _CART_DISK_PINS[name]
    # it is an actual zero bound
    assert validate_bound(r.value, find_roots(get_fixture(name).polynomial())).holds


def test_cartesian_disk_parts_for_the_showcase_polynomial():
    bc = build_block_companion(get_fixture("table1").polynomial())
    w1, w2, coupling = cartesian_disk_parts(bc)
    assert abs(w1 - 3.479620596279324) <= 1e-9
    assert abs(w2 - 1.0) <= 1e-12
    assert abs(coupling - 10.774217659954417) <= 1e-9
    notes = dict(n.split("=") for n in cartesian_disk(bc).notes)
    assert float(notes["w1"]) == pytest.approx(w1, rel=1e-9)
    assert float(notes["N"]) == pytest.approx(coupling, rel=1e-9)


def test_cartesian_disk_dominates_the_companion_numerical_radius():
    rng = np.random.default_rng(109)
    for _ in range(10):
        p = random_polynomial(rng, 2 * int(rng.integers(2, 6)))
        bc = build_block_companion(p)
        assert cartesian_disk(bc).value >= numerical_radius_sweep(bc.companion)[0] - 1e-6


def test_cartesian_disk_covers_unit_circle_roots():
    bc = build_block_companion(parse_polynomial("1, 0, 0, 0, 1"))
    assert cartesian_disk(bc).value >= 1.0


def test_cartesian_disk_collapses_without_coupling(monkeypatch):
    bc = build_block_companion(get_fixture("table1").polynomial())
    w1, w2, _ = cartesian_disk_parts(bc)
    monkeypatch.setattr(zerobounds.cartesian, "cartesian_disk_parts", lambda _: (w1, w2, 0.0))
    assert abs(cartesian_disk(bc).value - math.sqrt(2 * max(w1, w2))) <= 1e-12


# ----------------------------------------------------- diagonal block radius


def test_diagonal_block_radius_anchors():
    z = np.zeros((3, 3))
    assert diagonal_block_radius(z, z) == 0.0
    rng = np.random.default_rng(113)
    x = random_matrix(rng, 3)
    h = (x + x.conj().T) / 2
    # Hermitian block: P = H, Q = 0, so the weight is ||H||^2 (squared units)
    assert abs(diagonal_block_radius(h, z) - operator_norm(h) ** 2) <= 1e-9


def test_diagonal_block_radius_consistent_with_block_radius():
    rng = np.random.default_rng(127)
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    z = np.zeros((3, 3))
    combined = block_cartesian_radius([[a, z], [z, b]])
    assert abs(combined**2 - 2 * diagonal_block_radius(a, b)) <= 1e-9


# --------------------------------------------------------------- rectangles


def test_kittaneh_rectangle_showcase_pins():
    r = kittaneh_rectangle(get_fixture("table2").polynomial())
    assert abs(r.re_hi - 2.5434869525051) <= 1e-9
    assert abs(r.im_hi - 3.574992197292575) <= 1e-9
    assert r.re_lo == -r.re_hi and r.im_lo == -r.im_hi
    r1 = kittaneh_rectangle(get_fixture("table1").polynomial())
    assert abs(r1.re_hi - 3.808401201797733) <= 1e-9
    assert abs(r1.im_hi - 3.4411036431888933) <= 1e-9


def test_kittaneh_rectangle_needs_degree_three():
    with pytest.raises(DegreeTooSmallError):
        kittaneh_rectangle(parse_polynomial("1, 1, 1"))


def test_kittaneh_rectangle_contains_all_roots():
    rng = np.random.default_rng(131)
    for _ in range(50):
        p = random_polynomial(rng, 6)
        assert validate_rectangle(kittaneh_rectangle(p), find_roots(p)).holds


def test_partition_rectangle_showcase_pins():
    r = partition_rectangle(get_fixture("table2").polynomial())
    assert abs(r.re_hi - 2.4767863346699546) <= 1e-9
    assert abs(r.im_hi - 3.53760535344055) <= 1e-9
    r1 = partition_rectangle(get_fixture("table1").polynomial())
    assert abs(r1.re_hi - 4.2712106671779555) <= 1e-9
    assert abs(r1.im_hi - 4.283558770067491) <= 1e-9


def test_partition_rectangle_is_square_for_real_symmetric_input():
    r = partition_rectangle(parse_polynomial("1, 0, 0, 0, 1"))
    assert abs(r.re_hi - r.im_hi) < 1e-12


def test_partition_rectangle_contains_all_roots():
    rng = np.random.default_rng(137)
    for _ in range(25):
        p = random_polynomial(rng, 2 * int(rng.integers(2, 6)))
        assert validate_rectangle(partition_rectangle(p), find_roots(p)).holds


def test_partition_rectangle_degree_preconditions():
    with pytest.raises(OddDegreeError):
        partition_rectangle(parse_polynomial("1, 0, 0, 0, 0, 1"))
    with pytest.raises(DegreeTooSmallError):
        partition_rectangle(parse_polynomial("1, 0, 1"))


# ------------------------------------------------------------ partition disk


def test_partition_disk_showcase_parts():
    value, big_l, d1, d2 = partition_disk_parts(get_fixture("table3").polynomial())
    assert abs(value - 1.307548658992222) <= 1e-12
    assert abs(big_l - 0.8090169943749475) <= 1e-12
    assert abs(d1 - 0.0625) <= 1e-12
    assert abs(d2 - 1.0317381620988826) <= 1e-12
    r = partition_disk(get_fixture("table3").polynomial())
    assert r.notes == ("L=0.8090169944", "D1=0.0625", "D2=1.031738162")


@pytest.mark.parametrize(
    "name,pinned",
    [
        ("table1", 5.2826639809885725),
        ("table4", 1.2169435653568526),
        ("table5", 1.3214673313442582),
    ],
)
def test_partition_disk_values_are_stable(name, pinned):
    p = get_fixture(name).polynomial()
    assert abs(partition_disk(p).value - pinned) <= 1e-9 * pinned
    assert validate_bound(partition_disk(p).value, find_roots(p)).holds


def test_partition_disk_is_tight_for_unit_quartic():
    # z^4 + 1 has all roots on the unit circle and the bound collapses to 1
    assert abs(partition_disk(parse_polynomial("1, 0, 0, 0, 1")).value - 1.0) <= 1e-14


def test_partition_disk_dominates_roots_on_random_even_polynomials():
    rng = np.random.default_rng(139)
    for _ in range(25):
        p = random_polynomial(rng, 2 * int(rng.integers(2, 6)))
        assert validate_bound(partition_disk(p).value, find_roots(p)).holds


# ------------------------------------------------------------ unit tail disk


def test_unit_tail_matches_partition_disk_on_its_premise():
    for text, sign in [
        ("1, 0, 0, 0, 1", 1),
        ("1, 0, 0, 0, 0, 0, 1", 1),
        ("1, 3/10, 7/10, 1/5, 0, 0, 1", 1),
        ("1, 0, 0, 0, -1", -1),
    ]:
        q = parse_polynomial(text)
        u = unit_tail_disk(q)
        assert abs(u.value - partition_disk(q).value) <= 1e-14
        assert f"sign={sign:+d}" in u.notes


def test_unit_tail_pins():
    assert abs(unit_tail_disk(parse_polynomial("1, 0, 0, 0, 1")).value - 1.0) <= 1e-14
    z6 = unit_tail_disk(parse_polynomial("1, 0, 0, 0, 0, 0, 1"))
    assert abs(z6.value - 1.1141641079733176) <= 1e-12
    assert "sign=+1" in z6.notes


def test_unit_tail_rejects_premise_violations():
    with pytest.raises(HypothesisViolatedError):
        unit_tail_disk(parse_polynomial("1, 0, 0, 0, 2"))  # constant is not +-1
    with pytest.raises(HypothesisViolatedError):
        unit_tail_disk(parse_polynomial("1, 0, 0, 1, 1"))  # a_2 nonzero
    with pytest.raises(OddDegreeError):
        unit_tail_disk(parse_polynomial("1, 0, 0, 0, 0, 1"))


# ------------------------------------------------------------------ mw bound


_MW_PINS = {
    "table4": (0.6721175728442039, ["tail sum 0.4913888889 < 2/3"]),
    "table5": (0.7647166220604665, ["moduli not strictly increasing"]),
    "h1": (0.7685824854416045,
           ["moduli not strictly increasing", "tail sum 0.3666666667 < 2/3"]),
    "h2": (0.7337440144498567,
           ["coefficients not all real", "tail sum 0.5949422795 < 2/3"]),
    "h3": (0.8671411792017457,
           ["moduli not strictly increasing", "tail sum 0.5833333333 < 2/3"]),
}


@pytest.mark.parametrize("name", sorted(_MW_PINS))
def test_mw_values_and_guard_reasons(name):
    pinned, reasons = _MW_PINS[name]
    result = mw_bound(get_fixture(name).polynomial())
    assert abs(result.value - pinned) <= 1e-9 * pinned
    assert result.applicability == "conditional"
    assert list(result.notes) == reasons + ["guard=heuristic"]


def test_mw_guard_grants_guarantee_for_large_coefficients():
    result = mw_bound(Polynomial((0.5, 1.5)))
    assert result.notes == ("|c_2| >= 1", "guard=guaranteed")
    assert result.applicability == "valid"
    assert validate_bound(result.value, find_roots(Polynomial((0.5, 1.5)))).holds


def test_mw_guard_grants_guarantee_for_increasing_real_moduli():
    p = Polynomial((0.1, 0.2, 0.3, 0.4))
    result = mw_bound(p)
    assert result.applicability == "valid"
    assert result.notes == ("real, strictly increasing moduli below 1, tail sum 0.9 >= 2/3",
                            "guard=guaranteed")
    assert validate_bound(result.value, find_roots(p)).holds


def test_mw_strict_mode_refuses_heuristic_cases_only():
    heuristic = mw_bound(get_fixture("h1").polynomial(), strict=True)
    assert heuristic.notes[-2:] == ("strict mode refuses heuristic use", "guard=refused")
    assert heuristic.applicability == "refused"
    assert heuristic.value > 0  # value still computed for context
    still_ok = mw_bound(Polynomial((0.5, 1.5)), strict=True)
    assert still_ok.applicability == "valid"


def test_mw_needs_degree_two():
    with pytest.raises(DegreeTooSmallError):
        mw_bound(Polynomial((1.0,)))


def test_mw_heuristic_value_can_undershoot_the_roots():
    # the h1 polynomial's largest root modulus exceeds the heuristic value:
    # exactly why the guard refuses to call it guaranteed
    p = get_fixture("h1").polynomial()
    result = mw_bound(p)
    assert result.applicability == "conditional"
    verdict = validate_bound(result.value, find_roots(p))
    assert verdict.verdict == "violated"
    assert verdict.margin > 0.04


# ------------------------------------------------------- hermitian rectangle


def test_hermitian_rectangle_for_real_quadratic():
    r = hermitian_rectangle(parse_polynomial("1, 0, -1"))
    assert abs(r.re_lo + 1.0) <= 1e-12 and abs(r.re_hi - 1.0) <= 1e-12
    assert abs(r.im_lo) <= 1e-12 and abs(r.im_hi) <= 1e-12


def test_hermitian_rectangle_of_a_zero_part_is_an_unsigned_zero():
    # z^2 + 1: Re C is the zero matrix, and its extents print as 0, not -0
    r = hermitian_rectangle(parse_polynomial("1, 0, 1"))
    assert (r.re_lo, r.re_hi) == (0.0, 0.0)
    assert math.copysign(1.0, r.re_lo) == math.copysign(1.0, r.re_hi) == 1.0


def test_hermitian_rectangle_imaginary_part_symmetric_for_real_input():
    rng = np.random.default_rng(149)
    for _ in range(10):
        p = random_polynomial(rng, int(rng.integers(2, 8)), complex_coeffs=False)
        r = hermitian_rectangle(p)
        assert abs(r.im_lo + r.im_hi) <= 1e-10


def test_hermitian_rectangle_is_the_tightest_of_the_three():
    p = get_fixture("table2").polynomial()
    h = hermitian_rectangle(p)
    assert partition_rectangle(p).contains_rectangle(h, slack=1e-9)
    assert kittaneh_rectangle(p).contains_rectangle(h, slack=1e-9)
    assert abs(h.re_lo + 2.1290837604154724) <= 1e-9
    assert abs(h.im_hi - 1.4478092226711765) <= 1e-9


def test_hermitian_rectangle_contains_all_roots():
    rng = np.random.default_rng(151)
    for _ in range(25):
        p = random_polynomial(rng, int(rng.integers(2, 9)))
        assert validate_rectangle(hermitian_rectangle(p), find_roots(p)).holds


@pytest.mark.parametrize("chunk", [1, 3])
def test_hermitian_rectangle_solved_in_chunks_matches_one_batch(monkeypatch, rectangle_route, chunk):
    # past degree 2048 the four angles are solved in chunks of 8192 // n < 4,
    # each with its own angles' scales; a smaller chunk size shows it at low
    # degree on the secular route, and the dense route takes no chunks
    rng = np.random.default_rng(157)
    polys = [random_polynomial(rng, n) for n in (2, 3, 5, 8, 13)]
    polys.append(Polynomial((1e6, 1e-3, 0.0, 2j)))  # Re C and Im C scaled far apart
    extents = lambda r: [r.re_lo, r.re_hi, r.im_lo, r.im_hi]
    whole = [extents(hermitian_rectangle(p)) for p in polys]
    for p, expected in zip(polys, whole):
        monkeypatch.setattr(zerobounds.linalg, "_PEAKS_CHUNK", chunk * p.degree)
        # each chunk stops Newton on its own angles, so the last bit may differ
        assert np.allclose(extents(hermitian_rectangle(p)), expected, rtol=1e-15, atol=0.0)


def _rectangle_input(family, rng, n):
    """n lower coefficients of one seeded family."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z = {"real": z.real + 0j, "sparse": np.where(rng.random(n) < 0.7, 0, z),
         "scaled": z * 10.0 ** rng.uniform(-5, 5, n), "1e+200": z * 1e200,
         "1e-200": z * 1e-200}.get(family, z)
    return Polynomial(tuple(complex(a) for a in z))


@pytest.mark.parametrize("family", ["gaussian", "real", "sparse", "scaled", "1e+200", "1e-200"])
def test_hermitian_rectangle_routes_agree_and_contain_the_roots(monkeypatch, family):
    # every degree on both routes, up to four past the switch between them
    rng = np.random.default_rng(33)
    for n in range(2, zerobounds.cartesian._SECULAR_RECTANGLE + 5):
        p = _rectangle_input(family, rng, n)
        scales = np.repeat([np.abs(part).max() for part in cartesian_parts(build_companion(p))], 2)
        rects = []
        for threshold in (math.inf, 0):  # dense, then secular
            monkeypatch.setattr(zerobounds.cartesian, "_SECULAR_RECTANGLE", threshold)
            rects.append(hermitian_rectangle(p))
        dense, secular = (np.array([r.re_lo, r.re_hi, r.im_lo, r.im_hi]) for r in rects)
        assert (np.abs(dense - secular) <= 1e-14 * scales).all(), (n, dense, secular)
        try:
            roots = find_roots(p)
        except NoConvergenceError:
            # the oracle overflows on 1e200-scale coefficients, a known defect:
            # there the companion matrix's eigenvalues stand in for its roots
            assert family == "1e+200"
            roots = np.linalg.eigvals(build_companion(p))
            assert all(r.contains(z, slack=1e-13 * scales.max()) for r in rects for z in roots)
            continue
        assert all(validate_rectangle(r, roots).holds for r in rects), n


def test_a_non_finite_dense_extent_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    with pytest.raises(InternalConsistencyError, match="non-finite"):
        hermitian_rectangle(parse_polynomial("1, 2, 3"))
