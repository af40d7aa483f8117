"""Finite input, finite answer: the closed forms at coefficient scales from
1e-300 to 1e300, and the CLI on inputs whose intermediates overflow.

Each closed form is checked against the same formula written out naively in
mpmath at 50 digits, where nothing overflows or underflows.
"""

import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerobounds import (
    Polynomial,
    abdurakhmanov,
    abu_omar_kittaneh,
    al_dolat,
    build_companion,
    carmichael_mason,
    cauchy,
    fujii_kubo,
    hermitian_rectangle,
    kittaneh_disk,
    kittaneh_rectangle,
    linden,
    montel,
    mw_bound,
    parse_polynomial,
    partition_disk,
    partition_rectangle,
    radius_from_norm_coupling,
    radius_from_pm_coupling,
)
from zerobounds.cli import main
from zerobounds.report import ALL_METHODS, CompareOptions, run_compare

FLOAT_MAX = mpmath.mpf(sys.float_info.max)
EPS = sys.float_info.epsilon


def _coupled(x, y, off_sq):
    """(x + y + sqrt((x - y)^2 + off_sq)) / 2 in mpmath."""
    return (x + y + mpmath.sqrt((x - y) ** 2 + off_sq)) / 2


def _sq(values):
    return mpmath.fsum(v * v for v in values)


def _reference(a):
    """name -> (float-side callable, mpmath value) for every closed form that
    applies to the lower coefficients a (a[k-1] is a_k)."""
    p = Polynomial(tuple(a))
    n = p.degree
    z = [mpmath.mpc(c.real, c.imag) for c in a]
    m = [abs(c) for c in z]
    pi = mpmath.pi
    out = {
        "cauchy": (lambda: cauchy(p).value, 1 + max(m)),
        "carmichael_mason": (lambda: carmichael_mason(p).value, mpmath.sqrt(1 + _sq(m))),
        "montel": (lambda: montel(p).value, max(mpmath.mpf(1), mpmath.fsum(m))),
        "fujii_kubo": (lambda: fujii_kubo(p).value,
                       mpmath.cos(pi / (n + 1)) + (m[-1] + _sq(m)) / 2),
    }
    if n >= 2:
        cos_n, cos_n1 = mpmath.cos(pi / n), mpmath.cos(pi / (n + 1))
        head = _sq(m[:-1])
        out["abdurakhmanov"] = (lambda: abdurakhmanov(p).value,
                                _coupled(m[-1], cos_n, (1 + head) ** 2))
        for variant, t in (("printed", m[-1] ** 2 / n), ("table", m[-1] / n)):
            out[f"linden[{variant}]"] = (
                lambda v=variant: linden(p, v).value,
                m[-1] / n + mpmath.sqrt(mpmath.mpf(n - 1) / n * (n - 1 + _sq(m) - t)))
        mid = (m[-1] + mpmath.sqrt(_sq(m))) / 2
        out["abu_omar_kittaneh"] = (lambda: abu_omar_kittaneh(p).value,
                                    _coupled(mid, cos_n1, 4 * mpmath.sqrt(head)))
        out["al_dolat"] = (
            lambda: al_dolat(p).value,
            (m[-1] + 2 * cos_n + mpmath.sqrt(m[-1] ** 2 + (mpmath.sqrt(head) + 1) ** 2)) / 2)
        tail = _sq(m[1:])
        out["mw"] = (lambda: mw_bound(p).value,
                     (mpmath.sqrt(tail) + mpmath.sqrt(tail + (m[0] + 1) ** 2)) / 2)
    if n >= 3:
        tail = _sq(m[:n - 2])
        for variant, edge in (("printed", m[-2] - 1), ("plus_one", m[-2] + 1)):
            out[f"kittaneh_disk[{variant}]"] = (lambda v=variant: kittaneh_disk(p, v).value,
                                                _coupled(m[-1], cos_n, edge ** 2 + tail))
        for part, sign, half in (("re", -1, lambda r: r.re_hi), ("im", 1, lambda r: r.im_hi)):
            lead = abs(mpmath.re(z[-1]) if part == "re" else mpmath.im(z[-1]))
            out[f"kittaneh_rectangle.{part}"] = (
                lambda half=half: half(kittaneh_rectangle(p)),
                _coupled(lead, cos_n, abs(z[-2] + sign) ** 2 + tail))
    if n >= 4 and n % 2 == 0:
        h = n // 2
        coef = [None, *z]  # coef[k] is a_k
        mod = [None, *m]
        cos_h, cos_h1 = mpmath.cos(pi / h), mpmath.cos(pi / (h + 1))
        head = _sq(mod[h + 2:])
        big_l = (mpmath.sqrt(head) + mpmath.sqrt(head + (mod[h + 1] + 1) ** 2)) / 2
        low = _sq(mod[2:h])
        d1 = (mod[h] + mpmath.sqrt(mod[h] ** 2 + abs(1 - coef[1]) ** 2 + low)) / 2
        d2 = (mod[h] + mpmath.sqrt(mod[h] ** 2 + abs(1 + coef[1]) ** 2 + low)) / 2
        out["partition_disk"] = (lambda: partition_disk(p).value,
                                 _coupled(big_l, cos_h1, (d1 + d2) ** 2))
        mid = _sq(mod[h + 1:2 * h - 1])
        re_h, im_h = abs(mpmath.re(coef[h])), abs(mpmath.im(coef[h]))
        off = (re_h + mpmath.sqrt(re_h ** 2 + abs(1 - coef[1]) ** 2 + low)
               + im_h + mpmath.sqrt(im_h ** 2 + abs(1 + coef[1]) ** 2 + low)) / 2
        for part, sign, half in (("re", -1, lambda r: r.re_hi), ("im", 1, lambda r: r.im_hi)):
            lead = abs(mpmath.re(coef[n]) if part == "re" else mpmath.im(coef[n]))
            top = _coupled(lead, cos_h, abs(1 + sign * coef[n - 1]) ** 2 + mid)
            out[f"partition_rectangle.{part}"] = (lambda half=half: half(partition_rectangle(p)),
                                                  _coupled(top, cos_h1, off ** 2))
    return out


def _assert_close_or_inf(name, got, want):
    assert not math.isnan(got), name
    if want > FLOAT_MAX:
        assert got == math.inf, (name, got, want)
    elif mpmath.mpf("1e-300") <= want <= mpmath.mpf("1e300"):
        assert abs(got - want) <= 1e-12 * want, (name, got, want)
    elif want > 1:  # representable, but intermediate squares may overflow
        assert abs(got - want) <= 1e-12 * want, (name, got, want)
    else:
        assert math.isfinite(got), (name, got, want)


_SCALED = st.builds(
    lambda re, im, e: complex(re, im) * 10.0**e,
    st.floats(-1, 1), st.floats(-1, 1), st.integers(-300, 300),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SCALED, min_size=2, max_size=16))
def test_closed_forms_match_mpmath_at_every_scale(lower):
    with mpmath.workdps(50):
        for name, (compute, want) in _reference(lower).items():
            _assert_close_or_inf(name, compute(), want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(lambda x, e: abs(x) * 10.0**e, st.floats(0, 1), st.integers(-300, 300)),
                min_size=4, max_size=4))
def test_coupling_radii_match_mpmath_at_every_scale(args):
    w_a, w_d, b, c = args
    with mpmath.workdps(50):
        x, y, u, v = map(mpmath.mpf, args)
        want = _coupled(x, y, (u + v) ** 2)
        _assert_close_or_inf("norm", radius_from_norm_coupling(w_a, w_d, b, c), want)
        _assert_close_or_inf("pm", radius_from_pm_coupling(w_a, w_d, b, c), want)


def test_huge_quadratic_gives_finite_closed_forms_except_fujii_kubo(capsys):
    code = main(["compare", "--poly", "1, 1e200, 1", "--format", "json"])
    assert code == 4  # the oracle overflows; the bounds are still reported
    report = json.loads(capsys.readouterr().out)
    rows = {row["method"]: row for row in report["rows"]}
    assert list(rows) == list(ALL_METHODS)
    assert rows["fujii_kubo"]["value"] == "inf"  # true value about 5e399
    for name, row in rows.items():
        if row["applicability"] == "refused" or name == "fujii_kubo":
            continue
        cells = [row["value"]] if row["rectangle"] is None else row["rectangle"].values()
        assert all(math.isfinite(float(cell)) for cell in cells), (name, row)


@pytest.mark.parametrize("poly", ["1, 1e200, 1, 1, 1", "1e200, 1, 1, 1, 1"])
@pytest.mark.parametrize("out_format", ["text", "csv", "json"])
def test_overflowing_intermediates_print_every_row(poly, out_format, capsys):
    code = main(["compare", "--poly", poly, "--format", out_format])
    assert code in (0, 4)
    printed = capsys.readouterr().out
    for name in ALL_METHODS:
        assert name in printed, name
    if poly.startswith("1, 1e200") and out_format != "csv":
        # the dense Cartesian rows square entries of 1e200 and refuse
        assert printed.count("overflow: matrix entries must be finite") == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("poly", ["1, 1e200, 1", "1, 1e200, 1, 1, 1", "1e200, 1, 1, 1, 1"])
def test_overflowing_inputs_write_no_runtime_warnings(poly, capsys):
    # the oracle failure and the refused rows already report these overflows
    assert main(["compare", "--poly", poly]) in (0, 4)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("poly, method", [
    ("1, 1e200, 1", "fujii_kubo"),
    ("1, 1e200, 1e200, 1e200, 1e200", "fujii_kubo"),
    ("1, 1e200, 1e200, 1e200, 1e200", "abdurakhmanov"),
])
def test_an_infinite_value_on_finite_input_carries_a_note(poly, method, capsys):
    main(["compare", "--poly", poly, "--format", "json"])
    rows = {row["method"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    assert rows[method]["value"] == "inf"
    assert rows[method]["notes"] == ["overflow: true value exceeds the float range"]
    finite = [row for row in rows.values() if row["value"] not in (None, "inf")]
    assert finite and all("float range" not in note for row in finite for note in row["notes"])


@pytest.mark.parametrize("poly, infinite", [
    ("1, 1.7e308, 1.7e308", "re_lo"),  # Re C's smallest eigenvalue is about -2.05e308
    ("1, 1.7e308i, 1.7e308i", "im_lo"),
    ("1, 1.7e308, 0, 0", None),  # extents up to 1.7e308, all finite
    ("1, 1e300, 1e300", None),
])
def test_an_infinite_rectangle_extent_carries_a_note(poly, infinite, capsys):
    assert main(["compare", "--poly", poly, "--methods", "hermitian_rectangle",
                 "--no-oracle", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert [k for k, v in row["rectangle"].items() if not math.isfinite(float(v))] == (
        [infinite] if infinite else [])
    assert row["notes"] == (["overflow: true value exceeds the float range"] if infinite else [])


@pytest.mark.parametrize("poly, refused", [
    ("1, 1, 1, 1e200, 1", True),  # |s|^2 overflows
    ("1, 1e160, 1, 1, 1", True),  # |r|^2 overflows
    ("1, 1, 1, 1e150, 1", False),  # |s|^2 = 1e300 is finite
    ("1, 0, 0, 0, 9e153", False),  # the A12 weight 2 t^2 = 1.62e308 is finite, twice it not
])
def test_the_cartesian_rows_refuse_exactly_when_a_squared_half_row_overflows(poly, refused, capsys):
    assert main(["compare", "--poly", poly, "--no-oracle", "--format", "json",
                 "--methods", "cartesian_disk,block_cartesian,hermitian_rectangle"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    for row in rows[:2]:
        assert (row["notes"] == ["overflow: matrix entries must be finite"]) == refused, row
    extents = [float(v) for v in rows[2]["rectangle"].values()]
    assert all(math.isfinite(v) for v in extents)


def _mp_matrix(a):
    return mpmath.matrix([[mpmath.mpc(complex(x).real, complex(x).imag) for x in row] for row in a])


def _mp_parts(x):
    return (x + x.H) / 2, (x - x.H) / 2j


def _mp_top(h):
    return max(mpmath.eigh(h, eigvals_only=True))


def _mp_abs(x):
    """(X* X)^{1/2} from an eigendecomposition."""
    values, vectors = mpmath.eigh(x.H * x)
    return vectors * mpmath.diag([mpmath.sqrt(max(v, 0)) for v in values]) * vectors.H


def _mp_cartesian_rows(c):
    """(cartesian_disk, block_cartesian) of the companion matrix c from dense
    mpmath matrices, as their docstrings define them."""
    n = c.rows // 2
    block = {(k, j): c[k * n:(k + 1) * n, j * n:(j + 1) * n] for k in (0, 1) for j in (0, 1)}
    w = [_mp_top(p * p + q * q) for p, q in (_mp_parts(block[k, k]) for k in (0, 1))]
    p, q = _mp_parts(c)
    coupling = (_mp_top(_mp_abs(p[:n, n:]) + _mp_abs(q[:n, n:]))
                + _mp_top(_mp_abs(p[n:, :n]) + _mp_abs(q[n:, :n])))
    disk = mpmath.sqrt(2 * _coupled(w[0], w[1], coupling ** 2))
    off = [_mp_top(2 * _mp_abs(p) + 2 * _mp_abs(q)) ** 2 / 2
           for p, q in (_mp_parts(block[0, 1]), _mp_parts(block[1, 0]))]
    weights = mpmath.matrix([[2 * w[0], (off[0] + off[1]) / 2], [(off[0] + off[1]) / 2, 2 * w[1]]])
    return disk, mpmath.sqrt(_mp_top(weights))


@pytest.mark.parametrize("poly, method", [
    ("1, 0, 0, 0, 1.3e154", "cartesian_disk"),  # |s|^2 = 1.69e308 is finite, 2 |s|^2 not
    ("1, 0, 0, 0, 9e153", "block_cartesian"),  # ||M||^2 / 2 = 1.62e308 is finite, ||M||^2 not
])
def test_the_cartesian_rows_halve_before_they_sum(poly, method):
    p = parse_polynomial(poly)
    (row,) = run_compare(p, CompareOptions(methods=(method,), oracle=False)).rows
    assert not any(note.startswith("overflow") for note in row.notes), row
    with mpmath.workdps(50):
        disk, block = _mp_cartesian_rows(_mp_matrix(build_companion(p)))
        want = disk if method == "cartesian_disk" else block
        assert abs(row.value - want) <= 1e-12 * want, (row.value, want)


@pytest.mark.parametrize("poly, name", [
    ("1, 1.2e154, 1.2e154", "fujii_kubo"),  # sum |a_k|^2 = 2.88e308, half of it is finite
    ("1, 1e308, 1.5e308, 0", "kittaneh_disk[plus_one]"),  # the coupling's hypot is 1.8e308
    ("1, 1.5e308, 0, 0, 1", "abu_omar_kittaneh"),  # |a_n| + alpha = 3e308
    ("1, 1, 1.5e308, 1.2e308", "abu_omar_kittaneh"),  # alpha and beta are 1.92e308
    ("1, 1.5e308, 0, 0, 1", "al_dolat"),  # |a_n| + hypot(|a_n|, 1) = 3e308
    ("1, 1, 1.5e308, 1.2e308", "al_dolat"),  # sqrt(S) = 1.92e308
    ("1, 0, 0, 1.5e308, 1", "partition_disk"),  # D1 + D2 = 3e308
    ("1, 0, 0, 1.2e308+1.2e308i, 1", "partition_disk"),  # D1 + D2 = 3.39e308
    ("1, 0, 0, 1.5e308, 1", "partition_rectangle.re"),  # the coupling term is 3e308 / 2
    ("1, 0, 0, 1.5e308, 1", "partition_rectangle.im"),
    ("1, 0, 0, 1.2e308+1.2e308i, 1", "partition_rectangle.re"),  # and here 4.8e308 / 2
    ("1, 0, 0, 1.2e308+1.2e308i, 1", "partition_rectangle.im"),
    ("1, 0, 0, 0, 1.2e308, 1.5e308, 1", "partition_rectangle.re"),  # one row norm is 1.92e308
    ("1, 1.4e154, 1.4e154, 1", "abdurakhmanov"),  # 1 + S is 3.92e308, the value 9.8e307
    ("1, 1, 1.5e308, 1.2e308", "linden[printed]"),  # the root is 1.92e308, the value 1.57e308
    ("1, 1, 1.5e308, 1.2e308", "linden[table]"),
])
def test_the_closed_forms_halve_before_they_sum(poly, name):
    with mpmath.workdps(50):
        compute, want = _reference(parse_polynomial(poly).lower)[name]
        assert want <= FLOAT_MAX
        got = compute()
        assert abs(got - want) <= 1e-12 * want, (got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("poly", [
    "1, 1e-310, 1",  # Re C's scale is subnormal
    "1, 5e-324i, -1",  # Im C's scale is subnormal
    "1, 1.7e308, 0, 0",  # Re c_0 overflows Im C's scale of 1/2
    "1, 1.7e308i, 0, 1",  # Im c_0 overflows Re C's scale of 1/2
    "1, 1e300+1e-310i, -1",  # both: Im C's scale is subnormal, and Re c_0 overflows it
])
def test_hermitian_rectangle_scales_each_part_after_its_turn(poly, rectangle_route, capsys):
    # each extent is lambda_max of one part, exact to a few eps of that part's largest entry
    p = parse_polynomial(poly)
    rect = hermitian_rectangle(p)
    with mpmath.workdps(50):
        parts = _mp_parts(_mp_matrix(build_companion(p)))
        for part, lo, hi in zip(parts, (rect.re_lo, rect.im_lo), (rect.re_hi, rect.im_hi)):
            values = mpmath.eigh(part, eigvals_only=True)
            size = max(abs(x) for x in part)
            assert abs(min(values) - lo) <= 1e-15 * size and abs(max(values) - hi) <= 1e-15 * size
    assert main(["compare", "--poly", poly, "--no-oracle", "--methods", "hermitian_rectangle"]) == 0


def _mp_extents(c):
    """(lambda_min, lambda_max) of Re C and of Im C, each to 50 digits of itself:
    the working precision adds the digits by which C's largest part exceeds 1,
    as an eigensolve's error is relative to the largest entry."""
    top = max(max(abs(x.real), abs(x.imag)) for x in c.ravel())
    with mpmath.workdps(50 + max(0, math.ceil(math.log10(top)))):
        return [f(mpmath.eigh(part, eigvals_only=True))
                for part in _mp_parts(_mp_matrix(c)) for f in (min, max)]


def _assert_each_extent_to_a_few_eps_of_itself(p):
    rect = hermitian_rectangle(p)
    got = (rect.re_lo, rect.re_hi, rect.im_lo, rect.im_hi)
    want = _mp_extents(build_companion(p))
    assert all(abs(g - w) <= 8 * EPS * abs(w) for g, w in zip(got, want)), (got, want)


@pytest.mark.parametrize("poly", [
    *(f"1, {a_n}, 0, 0" for a_n in ("1e150", "1e154", "1e200", "1.7e308")),
    *(f"1, {a_n}i, 0, 0" for a_n in ("1e150", "1e154", "1e200", "1.7e308")),
    "1, 1.5e308+1.5e308i, 1, 0, 2",  # both parts huge, each with extents near 0.7
    "1, 1, 1.5e308+1.5e308i, 0",  # |c_1 +- 1| overflows, each part's scale from its half
])
def test_hermitian_rectangle_keeps_a_huge_parts_small_extents(poly):
    # the small extents are about 1/2 and 1/sqrt(2) where the part's scale is
    # up to 1.7e308: an eigvalsh that squares T's 1/2 / scale below the normal
    # range read re_hi 0 for 1, 1.7e308, 0, 0
    _assert_each_extent_to_a_few_eps_of_itself(parse_polynomial(poly))


@pytest.mark.parametrize("past", [False, True])
@pytest.mark.parametrize("unit", [1, 1j])
def test_hermitian_rectangle_takes_eigvalsh_up_to_a_part_scale_of_2_to_the_510(
        monkeypatch, past, unit):
    # at scale 2^510, (1/2 / scale)^2 is 2^-1022, the least normal number; one
    # step past it the rectangle takes the secular equation, degree 4 as it is
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    scale = 2.0**510 * (1 + EPS if past else 1)
    _assert_each_extent_to_a_few_eps_of_itself(Polynomial((2, -1 + 1j, 0.5, unit * scale)))
    assert calls == ([] if past else [(2, 4, 4)])


@pytest.mark.parametrize("poly", [
    "1, 1, 1.5e308+1.5e308i, 0",  # |a_2| exceeds the float range, where abs raises
    "1, 1.5e308+1.5e308i, 1, 0, 2",  # the companion matrix's corner entry does
])
@pytest.mark.parametrize("args, code", [
    (["compare", "--format", "json"], 4),
    (["compare", "--no-oracle", "--format", "json"], 0),
    (["roots"], 4),
])
def test_a_coefficient_modulus_past_the_float_range_reads_inf_or_fails_loudly(
        poly, args, code, capsys):
    assert main([*args, "--poly", poly]) == code
    out, err = capsys.readouterr()
    if args[0] == "roots":
        assert "error: root oracle failed: root iteration overflowed" in err
        return
    report = json.loads(out)
    assert (report["oracle_error"] is None) == ("--no-oracle" in args)
    for row in report["rows"]:
        if row["applicability"] == "refused":
            continue
        cells = [float(cell) for cell in ([row["value"]] if row["rectangle"] is None
                                          else row["rectangle"].values())]
        assert not any(map(math.isnan, cells)), row
        assert all(map(math.isfinite, cells)) or (
            "overflow: true value exceeds the float range" in row["notes"]), row
