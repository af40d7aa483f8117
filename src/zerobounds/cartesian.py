"""Zero-inclusion regions built from Cartesian decompositions of the companion
matrix: coupling inequalities for 2x2 operator matrices, a general m x m block
bound, the partitioned-companion disk and rectangle bounds, and the MW
closed-form bound with its applicability guard.

Conventions: for a monic polynomial of even degree 2n the companion matrix is
split into four n x n blocks; P and Q denote the Hermitian real/imaginary
parts of the full matrix (or of an individual block where stated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .companion import BlockCompanion, build_companion, cartesian_parts
from .classical import BoundResult
from .errors import (
    BlockShapeMismatchError,
    DegreeTooSmallError,
    ExponentOutOfRangeError,
    HypothesisViolatedError,
    NegativeInputError,
    OddDegreeError,
)
from .linalg import as_matrix, hermitian_eigs, nonneg_numrad, operator_norm, psd_abs, psd_power
from .polynomial import Polynomial

__all__ = [
    "Rectangle",
    "MwApplicability",
    "radius_from_norm_coupling",
    "radius_from_pm_coupling",
    "block_cartesian_radius",
    "cartesian_disk",
    "cartesian_disk_parts",
    "diagonal_block_radius",
    "kittaneh_rectangle",
    "partition_rectangle",
    "partition_disk",
    "partition_disk_parts",
    "unit_tail_disk",
    "mw_bound",
    "hermitian_rectangle",
]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned zero-inclusion rectangle [re_lo, re_hi] x [im_lo, im_hi]."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self) -> None:
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise ValueError("rectangle has inverted extents")

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (
            self.re_lo - slack <= z.real <= self.re_hi + slack
            and self.im_lo - slack <= z.imag <= self.im_hi + slack
        )

    def contains_rectangle(self, other: "Rectangle", slack: float = 0.0) -> bool:
        return (
            self.re_lo - slack <= other.re_lo
            and other.re_hi <= self.re_hi + slack
            and self.im_lo - slack <= other.im_lo
            and other.im_hi <= self.im_hi + slack
        )


@dataclass(frozen=True)
class MwApplicability:
    """Guard outcome for mw_bound: guaranteed, heuristic, or refused."""

    status: str
    reasons: tuple[str, ...] = ()


def _require_nonneg(**named: float) -> None:
    for name, value in named.items():
        if value < 0:
            raise NegativeInputError(f"{name} must be nonnegative, got {value}")


def radius_from_norm_coupling(w_a: float, w_d: float, norm_b: float, norm_c: float) -> float:
    """Numerical-radius bound for [[A,B],[C,D]] from w(A), w(D), ||B||, ||C||:
    (w(A) + w(D) + sqrt((w(A) - w(D))^2 + (||B|| + ||C||)^2)) / 2."""
    _require_nonneg(w_a=w_a, w_d=w_d, norm_b=norm_b, norm_c=norm_c)
    return 0.5 * (w_a + w_d + math.sqrt((w_a - w_d) ** 2 + (norm_b + norm_c) ** 2))


def radius_from_pm_coupling(w_a: float, w_d: float, w_plus: float, w_minus: float) -> float:
    """Same coupling shape with the off-diagonal measured by w(B+C) and w(B-C)."""
    _require_nonneg(w_a=w_a, w_d=w_d, w_plus=w_plus, w_minus=w_minus)
    return 0.5 * (w_a + w_d + math.sqrt((w_a - w_d) ** 2 + (w_plus + w_minus) ** 2))


def _lam_max(h: np.ndarray) -> float:
    return float(hermitian_eigs(h).values[-1])


def _diag_coupling(block: np.ndarray) -> float:
    """w(P^2 + Q^2) for the Cartesian parts of one square block."""
    p, q = cartesian_parts(block)
    return _lam_max(p @ p + q @ q)


def block_cartesian_radius(blocks, s_exponent: float = 0.5) -> float:
    """Numerical-radius bound for an m x m block matrix via per-block Cartesian
    decomposition.

    Diagonal weight: c_kk = m * w(P_kk^2 + Q_kk^2). Off-diagonal weight:
    c_kj = (m/4) * || |P_kj|^{2s} + |P_kj|^{2(1-s)} + |Q_kj|^{2s} + |Q_kj|^{2(1-s)} ||^2.
    Returns sqrt(w([c_kj])) with w of the nonnegative matrix.
    """
    if not 0.0 < s_exponent < 1.0:
        raise ExponentOutOfRangeError(f"s_exponent must lie in (0, 1), got {s_exponent}")
    grid = [[as_matrix(b) for b in row] for row in blocks]
    m = len(grid)
    if m == 0 or any(len(row) != m for row in grid):
        raise BlockShapeMismatchError("blocks must form a nonempty square grid")
    size = grid[0][0].shape[0]
    if any(b.shape != (size, size) for row in grid for b in row):
        raise BlockShapeMismatchError("all blocks must be square and of equal size")

    weights = np.zeros((m, m))
    for k in range(m):
        weights[k, k] = m * _diag_coupling(grid[k][k])
    for k in range(m):
        for j in range(m):
            if k == j:
                continue
            p, q = cartesian_parts(grid[k][j])
            pa, qa = psd_abs(p), psd_abs(q)
            mixed = (
                psd_power(pa, 2 * s_exponent)
                + psd_power(pa, 2 * (1 - s_exponent))
                + psd_power(qa, 2 * s_exponent)
                + psd_power(qa, 2 * (1 - s_exponent))
            )
            weights[k, j] = (m / 4) * operator_norm(mixed) ** 2
    return math.sqrt(nonneg_numrad(weights))


def cartesian_disk_parts(bc: BlockCompanion) -> tuple[float, float, float]:
    """(w1, w2, N) ingredients of cartesian_disk, using the global-decomposition
    blocks carried by the BlockCompanion."""
    w1 = _lam_max(bc.p11 @ bc.p11 + bc.q11 @ bc.q11)
    w2 = _lam_max(bc.p22 @ bc.p22 + bc.q22 @ bc.q22)
    coupling = operator_norm(psd_abs(bc.p12) + psd_abs(bc.q12)) + operator_norm(
        psd_abs(bc.p21) + psd_abs(bc.q21)
    )
    return w1, w2, coupling


def cartesian_disk(bc: BlockCompanion) -> BoundResult:
    """Zero-bound disk radius sqrt(w1 + w2 + sqrt((w1 - w2)^2 + N^2)) where
    w_k = w(P_kk^2 + Q_kk^2) of the global Cartesian blocks and
    N = || |P12| + |Q12| || + || |P21| + |Q21| ||."""
    w1, w2, coupling = cartesian_disk_parts(bc)
    value = math.sqrt(w1 + w2 + math.sqrt((w1 - w2) ** 2 + coupling**2))
    return BoundResult(
        "cartesian_disk",
        value,
        notes=(f"w1={w1:.10g}", f"w2={w2:.10g}", f"N={coupling:.10g}"),
    )


def diagonal_block_radius(a11, a22) -> float:
    """max(w(P11^2 + Q11^2), w(P22^2 + Q22^2)) for a block-diagonal operator
    matrix, exactly as displayed (note: squared bound units, no square root)."""
    return max(_diag_coupling(as_matrix(a11)), _diag_coupling(as_matrix(a22)))


def kittaneh_rectangle(p: Polynomial) -> Rectangle:
    """Rectangle [-c, c] x [-d, d] from |Re a_n| / |Im a_n| couplings.

    The half-height d uses the |a_{n-1} + 1|^2 radicand term (the sign-flipped
    analogue of c's |a_{n-1} - 1|^2): the imaginary part of the companion
    matrix couples the shift block with +a_{n-1}, not -a_{n-1}, and the
    minus-sign variant fails root containment on random inputs.
    """
    n = p.degree
    if n < 3:
        raise DegreeTooSmallError("kittaneh_rectangle needs degree >= 3")
    a_n = p.coefficient(n)
    a_n1 = p.coefficient(n - 1)
    tail = sum(abs(p.coefficient(k)) ** 2 for k in range(1, n - 1))
    cos_n = math.cos(math.pi / n)
    re, im = abs(a_n.real), abs(a_n.imag)
    c = 0.5 * (re + cos_n + math.sqrt((re - cos_n) ** 2 + abs(a_n1 - 1) ** 2 + tail))
    d = 0.5 * (im + cos_n + math.sqrt((im - cos_n) ** 2 + abs(a_n1 + 1) ** 2 + tail))
    return Rectangle(-c, c, -d, d)


def _even_half(q: Polynomial) -> int:
    if q.degree % 2 != 0:
        raise OddDegreeError(f"even degree required, got {q.degree}")
    if q.degree < 4:
        raise DegreeTooSmallError("partition bounds need even degree >= 4")
    return q.degree // 2


def partition_rectangle(q: Polynomial) -> Rectangle:
    """Rectangle [-s, s] x [-t, t] for even degree 2n, from the 2x2-partitioned
    companion matrix's real/imaginary parts bounded row by row."""
    n = _even_half(q)
    a = q.coefficient
    re2n, im2n = abs(a(2 * n).real), abs(a(2 * n).imag)
    cos_n = math.cos(math.pi / n)
    cos_n1 = math.cos(math.pi / (n + 1))
    mid = sum(abs(a(k)) ** 2 for k in range(n + 1, 2 * n - 1))
    tail = sum(abs(a(k)) ** 2 for k in range(2, n))
    f_term = math.sqrt((re2n - cos_n) ** 2 + abs(1 - a(2 * n - 1)) ** 2 + mid)
    j_term = math.sqrt((im2n - cos_n) ** 2 + abs(1 + a(2 * n - 1)) ** 2 + mid)
    g_term = math.sqrt(abs(a(n).real) ** 2 + abs(1 - a(1)) ** 2 + tail)
    h_term = math.sqrt(abs(a(n).imag) ** 2 + abs(1 + a(1)) ** 2 + tail)
    off = (abs(a(n).real) + g_term + abs(a(n).imag) + h_term) / 2
    s_top = 0.5 * (re2n + cos_n + f_term)
    t_top = 0.5 * (im2n + cos_n + j_term)
    s = 0.5 * s_top + 0.5 * cos_n1 + 0.5 * math.sqrt((s_top - cos_n1) ** 2 + off**2)
    t = 0.5 * t_top + 0.5 * cos_n1 + 0.5 * math.sqrt((t_top - cos_n1) ** 2 + off**2)
    return Rectangle(-s, s, -t, t)


def partition_disk_parts(q: Polynomial) -> tuple[float, float, float, float]:
    """(value, L, D1, D2) for partition_disk."""
    n = _even_half(q)
    a = q.coefficient
    head = sum(abs(a(k)) ** 2 for k in range(n + 2, 2 * n + 1))
    big_l = 0.5 * (math.sqrt(head) + math.sqrt(head + (abs(a(n + 1)) + 1) ** 2))
    tail = sum(abs(a(k)) ** 2 for k in range(2, n))
    a_n = abs(a(n))
    d1 = 0.5 * (a_n + math.sqrt(a_n**2 + abs(1 - a(1)) ** 2 + tail))
    d2 = 0.5 * (a_n + math.sqrt(a_n**2 + abs(1 + a(1)) ** 2 + tail))
    cos_n1 = math.cos(math.pi / (n + 1))
    value = 0.5 * (big_l + cos_n1 + math.sqrt((big_l - cos_n1) ** 2 + (d1 + d2) ** 2))
    return value, big_l, d1, d2


def partition_disk(q: Polynomial) -> BoundResult:
    """Disk radius (L + cos(pi/(n+1)) + sqrt((L - cos(pi/(n+1)))^2 + (D1+D2)^2))/2
    for even degree 2n, coupling the partitioned companion's half-norms."""
    value, big_l, d1, d2 = partition_disk_parts(q)
    return BoundResult(
        "partition_disk",
        value,
        notes=(f"L={big_l:.10g}", f"D1={d1:.10g}", f"D2={d2:.10g}"),
    )


def unit_tail_disk(q: Polynomial, sign: int = 1) -> BoundResult:
    """partition_disk specialized to a_1 = sign (+1 or -1) and a_k = 0 for
    k = 2..n, where (D1 + D2)^2 collapses to 1 exactly."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = _even_half(q)
    a = q.coefficient
    if a(1) != sign:
        raise HypothesisViolatedError(f"constant coefficient must equal {sign:+d} exactly")
    bad = [k for k in range(2, n + 1) if a(k) != 0]
    if bad:
        raise HypothesisViolatedError(f"coefficients a_{bad} must vanish")
    value, big_l, _, _ = partition_disk_parts(q)  # D1 + D2 is exactly 1.0 here
    return BoundResult("unit_tail_disk", value, notes=(f"L={big_l:.10g}", f"sign={sign:+d}"))


def mw_bound(g: Polynomial, strict: bool = False) -> tuple[BoundResult, MwApplicability]:
    """MW closed form (sqrt(S) + sqrt(S + (|c_1| + 1)^2))/2 with
    S = sum_{k=2}^{n} |c_k|^2 over the coefficients c_k of g, plus the guard
    that decides whether the bound is guaranteed:

    guaranteed when (i) some |c_k| >= 1 with k >= 2, or (ii) all c_k real with
    strictly increasing moduli below 1 and sum_{k=2}^{n} |c_k| >= 2/3;
    otherwise heuristic (strict=True turns heuristic into refused). The value
    is computed regardless of status.
    """
    n = g.degree
    if n < 2:
        raise DegreeTooSmallError("mw_bound needs degree >= 2")
    c = g.lower
    mods = [abs(x) for x in c]
    tail_sq = sum(m * m for m in mods[1:])
    value = 0.5 * (math.sqrt(tail_sq) + math.sqrt(tail_sq + (mods[0] + 1.0) ** 2))

    some_ge1 = any(m >= 1.0 for m in mods[1:])
    all_real = all(x.imag == 0 for x in c)
    all_lt1 = all(m < 1.0 for m in mods)
    increasing = all(mods[k + 1] > mods[k] for k in range(n - 1))
    tail_sum = sum(mods[1:])

    reasons: list[str] = []
    if some_ge1:
        status = "guaranteed"
        big = next(k for k in range(2, n + 1) if mods[k - 1] >= 1.0)
        reasons.append(f"|c_{big}| >= 1")
    elif all_real and all_lt1 and increasing and tail_sum >= 2 / 3:
        status = "guaranteed"
        reasons.append(
            f"real, strictly increasing moduli below 1, tail sum {tail_sum:.10g} >= 2/3"
        )
    else:
        status = "heuristic"
        if not all_real:
            reasons.append("coefficients not all real")
        if not all_lt1:
            reasons.append("some modulus not below 1")
        if not increasing:
            reasons.append("moduli not strictly increasing")
        if tail_sum < 2 / 3:
            reasons.append(f"tail sum {tail_sum:.10g} < 2/3")
    if strict and status == "heuristic":
        status = "refused"
        reasons.append("strict mode refuses heuristic use")

    applic = {"guaranteed": "valid", "heuristic": "conditional", "refused": "refused"}[status]
    result = BoundResult("mw", value, applicability=applic, notes=(f"guard={status}",))
    return result, MwApplicability(status, tuple(reasons))


def hermitian_rectangle(p: Polynomial) -> Rectangle:
    """[lam_min(Re C), lam_max(Re C)] x [lam_min(Im C), lam_max(Im C)] for the
    unpartitioned companion matrix C."""
    re_part, im_part = cartesian_parts(build_companion(p))
    ev_re = hermitian_eigs(re_part).values
    ev_im = hermitian_eigs(im_part).values
    return Rectangle(float(ev_re[0]), float(ev_re[-1]), float(ev_im[0]), float(ev_im[-1]))
