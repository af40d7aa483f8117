"""The companion matrix, its 2x2 block partition and Cartesian parts, and the
zero-inclusion regions built from them: coupling inequalities for 2x2 operator
matrices, a general m x m block bound, the partitioned-companion disk and
rectangle bounds, and the MW closed-form bound with its applicability guard.

Conventions: for a monic polynomial p of degree m the companion matrix C(p)
has first row (-a_m, -a_{m-1}, ..., -a_1) and ones on the subdiagonal, so its
eigenvalues are the zeros of p. For even degree 2n it is split into four
n x n blocks A11, A12, A21, A22 (a BlockCompanion); P and Q denote the
Hermitian real/imaginary parts of the full matrix (or of an individual block
where stated).

The companion blocks are a shift plus rank-one terms (A11 = Z + e_1 r^T,
A12 = e_1 s^T, A21 = e_1 e_n^T, A22 = Z, with (r, s) the first row), so
compare's Cartesian disk rows are closed forms of the first row whose one
eigensolve, for w1, has size <= 4. It runs once per polynomial: every
partition of a polynomial carries the polynomial's one memo, and
_shared_row_parts keeps w1 there. block_cartesian_radius takes that closed
form when it is handed a BlockCompanion; the dense eigensolves serve general
grids of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import BoundResult, coupled, halved_coupled
from .errors import (
    BlockShapeMismatchError,
    DegreeTooSmallError,
    HypothesisViolatedError,
    NegativeInputError,
    OddDegreeError,
)
from .linalg import _companion_ends, as_matrix, hermitian_eigs, nonneg_numrad, operator_norm
from .polynomial import Polynomial, _modulus

__all__ = [
    "BlockCompanion",
    "build_companion",
    "build_block_companion",
    "cartesian_parts",
    "Rectangle",
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

    n is the half-degree; the four n x n blocks are views of companion. _memo
    holds what the Cartesian rows share (w1); one built by hand has its own.
    """

    n: int
    companion: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    _memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)


def build_block_companion(q: Polynomial) -> BlockCompanion:
    """Partition C(q) for even degree 2n >= 4 into four n x n blocks. Its arrays are
    read-only, and its memo is q's one memo, so every partition of q shares q's w1."""
    degree = q.degree
    if degree % 2 != 0:
        raise OddDegreeError(f"block partition needs even degree, got {degree}")
    if degree < 4:
        raise DegreeTooSmallError("block partition needs degree >= 4")
    n = degree // 2
    full = build_companion(q)
    full.flags.writeable = False
    blocks = BlockCompanion(n, full, full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:])
    object.__setattr__(blocks, "_memo", vars(q).setdefault("_companion_memo", {}))
    return blocks


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


# mw_bound's guard status -> the applicability of its result, one to one
MW_APPLICABILITY = {"guaranteed": "valid", "heuristic": "conditional", "refused": "refused"}


def _require_nonneg(**named: float) -> None:
    for name, value in named.items():
        if value < 0:
            raise NegativeInputError(f"{name} must be nonnegative, got {value}")


def radius_from_norm_coupling(w_a: float, w_d: float, norm_b: float, norm_c: float) -> float:
    """Numerical-radius bound for [[A,B],[C,D]] from w(A), w(D), ||B||, ||C||:
    (w(A) + w(D) + sqrt((w(A) - w(D))^2 + (||B|| + ||C||)^2)) / 2."""
    _require_nonneg(w_a=w_a, w_d=w_d, norm_b=norm_b, norm_c=norm_c)
    return coupled(w_a, w_d, norm_b + norm_c)


def radius_from_pm_coupling(w_a: float, w_d: float, w_plus: float, w_minus: float) -> float:
    """Same coupling shape with the off-diagonal measured by w(B+C) and w(B-C)."""
    _require_nonneg(w_a=w_a, w_d=w_d, w_plus=w_plus, w_minus=w_minus)
    return coupled(w_a, w_d, w_plus + w_minus)


def _diag_coupling(block: np.ndarray) -> float:
    """w(P^2 + Q^2) for the Cartesian parts of one square block."""
    p, q = cartesian_parts(block)
    return float(hermitian_eigs(p @ p + q @ q).values[-1])


def _twice_abs(h: np.ndarray) -> np.ndarray:
    """2|H| for Hermitian H: |H| has H's eigenvectors and the moduli of its
    eigenvalues."""
    eig = hermitian_eigs(h)
    mods = np.abs(eig.values)
    return (eig.vectors * (mods + mods)) @ eig.vectors.conj().T


def _shared_row_parts(bc: BlockCompanion) -> tuple[float, float, complex, float]:
    """_companion_row_parts of bc, kept in bc's memo."""
    memo = bc._memo
    if "row_parts" not in memo:
        memo["row_parts"] = _companion_row_parts(bc.companion[0], bc.n)
    return memo["row_parts"]


def _companion_row_parts(row: np.ndarray, n: int) -> tuple[float, float, complex, float]:
    """(w1, w2, s_1, t = |(s_2, ..., s_n)|) of a companion matrix with first
    row (r, s) in n x n blocks, n >= 2. w_k = w(P_kk^2 + Q_kk^2) is lambda_max
    of the PSD (A_kk* A_kk + A_kk A_kk*)/2: diag(1/2, 1, ..., 1, 1/2) for
    A22 = Z, and I plus a difference compressed to at most 4 x 4 for
    A11 = Z + e_1 r^T, with Z the down-shift. It runs once per polynomial:
    _shared_row_parts keeps it in the memo every partition of the polynomial carries.

    As Z^T e_1 = 0, A11* A11 = I - e_n e_n^T + conj(r) r^T and
    A11 A11* = I - e_1 e_1^T + |r|^2 e_1 e_1^T + Z conj(r) e_1^T + e_1 (Z conj(r))*,
    so the difference is V B V* with V = [e_1, e_n, conj(r), Z conj(r)] and the
    4 x 4 B below. With V = Q R, Q's columns orthonormal, it is Q (R B R*) Q*,
    so R B R* has the difference's eigenvalues on range(Q), all of C^n when
    n <= 4. When n > 4 the difference also has the eigenvalue 0, which never
    exceeds R B R*'s largest: R B R* is singular, or congruent to B, which has
    two positive eigenvalues. Only |r|^2 is squared, so only it can overflow.
    """
    r = row[:n]
    basis = np.zeros((n, 4), dtype=complex)
    basis[0, 0] = basis[-1, 1] = 1.0
    basis[:, 2] = np.conj(r)
    basis[1:, 3] = np.conj(r[:-1])
    tri = np.linalg.qr(basis, mode="r")
    squared = float(np.vdot(r, r).real)
    b = np.array([[squared - 1, 0, 0, 1], [0, -1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]) / 2
    w1 = 1.0 + float(hermitian_eigs(tri @ b @ tri.conj().T).values[-1])
    return w1, 1.0 if n > 2 else 0.5, complex(row[n]), math.hypot(*np.abs(row[n + 1:]))


def _companion_block_cartesian(bc: BlockCompanion) -> float:
    """block_cartesian_radius on a companion matrix with first row (r, s) in
    n x n blocks, n >= 2. A12 = e_1 s^T acts as [[s_1, t], [0, 0]] on
    span{e_1, (0, conj(s_2), ..., conj(s_n)) / t} and, with A12*, as 0 off it.
    There a Cartesian part H with trace x (Re s_1 or Im s_1) has determinant
    -t^2/4 and eigenvalue gap g = hypot(x, t), so |H| = (H^2 + (t^2/4) I) / g =
    (x/g) H + (t^2/2g) I (0 when g = 0, where x = t = 0). M = 2|P12| + 2|Q12|
    is thus (t^2/g_P + t^2/g_Q) I + 2 (x_P/g_P) P12 + 2 (x_Q/g_Q) Q12. A21 =
    e_1 e_n^T weighs 2^2 / 2 = 2; w of [[2 w1, ||M||^2 / 2], [2, 2 w2]] is the
    lambda_max of its symmetric part."""
    w1, w2, s1, t = _shared_row_parts(bc)
    x, y = s1.real, s1.imag
    p, q = math.atan2(t, x), math.atan2(t, y)  # x/g = cos, t/g = sin without forming g
    norm12 = t * (math.sin(p) + math.sin(q)) + coupled(
        2 * (x * math.cos(p) + y * math.cos(q)), 0.0, 2 * t * math.hypot(math.cos(p), math.cos(q)))
    weight12 = norm12 * (norm12 / 2)  # halved first: the square may overflow, the weight not
    as_matrix([[2 * w1, weight12]], square=False)  # refuses an overflowed weight
    return math.sqrt(coupled(2 * w1, 2 * w2, weight12 + 2))


def block_cartesian_radius(blocks) -> float:
    """Numerical-radius bound for an m x m block matrix via per-block Cartesian
    decomposition, at s = 1/2.

    Diagonal weight: c_kk = m * w(P_kk^2 + Q_kk^2). Off-diagonal weight:
    c_kj = (m/4) * || 2|P_kj| + 2|Q_kj| ||^2. Returns sqrt(w([c_kj])) with w
    of the nonnegative matrix. The paper's family has |X|^{2s} + |X|^{2(1-s)}
    in place of 2|X|, which it dominates in the PSD order (x^{2s} + x^{2(1-s)}
    >= 2x by AM-GM); the diagonal weights do not depend on s, and w of a
    nonnegative matrix grows with its entries, so s = 1/2 is the least bound.
    blocks is a BlockCompanion, which takes the closed form of
    _companion_block_cartesian from its first row, or any square grid of
    equal square blocks, which takes dense eigensolves of its blocks (also
    when it happens to assemble to a companion matrix).
    """
    if isinstance(blocks, BlockCompanion):
        return _companion_block_cartesian(blocks)
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
            norm = operator_norm(_twice_abs(p) + _twice_abs(q))
            weights[k, j] = (m / 4) * norm * norm
    return math.sqrt(nonneg_numrad(weights))


def cartesian_disk_parts(bc: BlockCompanion) -> tuple[float, float, float]:
    """(w1, w2, N) ingredients of cartesian_disk, from the first row (r, s) of
    the companion matrix (P11, Q11 are the Cartesian parts of A11).

    P12 = (e_1 s^T + e_n e_1^T)/2 and Q12 = (e_1 s^T - e_n e_1^T)/(2i), so
    |P12| + |Q12| = (conj(s) s^T + e_1 e_1^T)^{1/2}, whose norm is the square
    root of lambda_max of X = [[|s|^2, s_1], [conj(s_1), 1]], the Gram matrix
    of (conj(s), e_1). P21 = P12* and Q21 = Q12*, and P12 P12*, Q12 Q12* are X/4
    and X/4 with s_1 negated, on span{e_1, e_n}. Both have trace (|s|^2 + 1)/4
    and determinant t^2/16, t = |(s_2, ..., s_n)|; as Y^{1/2} =
    (Y + det(Y)^{1/2} I) / (tr Y + 2 det(Y)^{1/2})^{1/2} for a 2 x 2 PSD Y,
    |P21| + |Q21| = diag(|s|^2 + t, 1 + t) / (|s|^2 + 1 + 2t)^{1/2} there.
    """
    w1, w2, s1, t = _shared_row_parts(bc)
    s = bc.companion[0, bc.n:]
    squared = float(np.vdot(s, s).real)
    as_matrix([[squared]])  # refuses an overflowed |s|^2
    coupling = math.sqrt(coupled(squared, 1.0, 2 * abs(s1))) + (
        (max(squared, 1.0) + t) / math.sqrt(squared + 1.0 + 2 * t))
    return w1, w2, coupling


def cartesian_disk(bc: BlockCompanion) -> BoundResult:
    """Zero-bound disk radius sqrt(w1 + w2 + sqrt((w1 - w2)^2 + N^2)) where
    w_k = w(P_kk^2 + Q_kk^2) of the global Cartesian blocks and
    N = || |P12| + |Q12| || + || |P21| + |Q21| ||."""
    w1, w2, coupling = cartesian_disk_parts(bc)
    value = math.sqrt(2 * coupled(w1, w2, coupling))
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
    if p.degree < 3:
        raise DegreeTooSmallError("kittaneh_rectangle needs degree >= 3")
    c, d = _rectangle_halves(p.lower, p.moduli)
    return Rectangle(-c, c, -d, d)


def _rectangle_halves(lower, moduli) -> tuple[float, float]:
    """kittaneh_rectangle's (c, d) for the coefficients a_1..a_m in lower and their moduli:
    coupled(|Re a_m|, cos(pi/m), |a_{m-1} - 1|, |a_1|, ..., |a_{m-2}|) and its twin with
    |Im a_m| and |a_{m-1} + 1|. partition_rectangle's top half is this on a_{n+1}..a_{2n}."""
    lead, edge, tail = lower[-1], lower[-2], moduli[:-2]
    cos_m = math.cos(math.pi / len(lower))
    return (coupled(abs(lead.real), cos_m, _modulus(edge - 1), *tail),
            coupled(abs(lead.imag), cos_m, _modulus(edge + 1), *tail))


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
    a_1, a_n = q.lower[0], q.lower[n - 1]
    cos_n1 = math.cos(math.pi / (n + 1))
    # quarters: half_off sums them, so it is finite whenever half the coupling term is
    tail = [m / 4 for m in q.moduli[1:n - 1]]
    re_n, im_n = abs(a_n.real) / 4, abs(a_n.imag) / 4
    half_off = (re_n + math.hypot(re_n, _modulus(1 - a_1) / 4, *tail)
                + im_n + math.hypot(im_n, _modulus(1 + a_1) / 4, *tail))
    s_top, t_top = _rectangle_halves(q.lower[n:], q.moduli[n:])
    s = halved_coupled(s_top / 2, cos_n1 / 2, half_off)
    t = halved_coupled(t_top / 2, cos_n1 / 2, half_off)
    return Rectangle(-s, s, -t, t)


def partition_disk_parts(q: Polynomial) -> tuple[float, float, float, float]:
    """(value, L, D1, D2) for partition_disk."""
    n = _even_half(q)
    mods, a_1 = q.moduli, q.lower[0]
    big_l = coupled(math.hypot(*mods[n + 1:]), 0.0, mods[n] + 1)
    tail = mods[1:n - 1]
    d1 = coupled(mods[n - 1], 0.0, _modulus(1 - a_1), *tail)
    d2 = coupled(mods[n - 1], 0.0, _modulus(1 + a_1), *tail)
    value = halved_coupled(big_l / 2, math.cos(math.pi / (n + 1)) / 2, d1 / 2 + d2 / 2)
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


def unit_tail_disk(q: Polynomial) -> BoundResult:
    """partition_disk specialized to a_1 = sign and a_k = 0 for k = 2..n, where
    (D1 + D2)^2 collapses to 1 exactly. The sign is read from a_1: -1 when
    a_1 == -1, else +1, so any other a_1 is refused as not equal to +1."""
    n = _even_half(q)
    a = q.coefficient
    sign = -1 if a(1) == -1 else 1
    if a(1) != sign:
        raise HypothesisViolatedError(f"constant coefficient must equal {sign:+d} exactly")
    bad = [k for k in range(2, n + 1) if a(k) != 0]
    if bad:
        raise HypothesisViolatedError(f"coefficients a_{bad} must vanish")
    value, big_l, _, _ = partition_disk_parts(q)  # D1 + D2 is exactly 1.0 here
    return BoundResult("unit_tail_disk", value, notes=(f"L={big_l:.10g}", f"sign={sign:+d}"))


def mw_bound(g: Polynomial, strict: bool = False) -> BoundResult:
    """MW closed form (sqrt(S) + sqrt(S + (|c_1| + 1)^2))/2 with
    S = sum_{k=2}^{n} |c_k|^2 over the coefficients c_k of g, plus the guard
    that decides whether the bound is guaranteed:

    guaranteed when (i) some |c_k| >= 1 with k >= 2, or (ii) all c_k real with
    strictly increasing moduli below 1 and sum_{k=2}^{n} |c_k| >= 2/3;
    otherwise heuristic (strict=True turns heuristic into refused). The value
    is computed regardless of status; the applicability maps the status
    through MW_APPLICABILITY, and the notes are the guard's reasons followed
    by guard=<status>.
    """
    n = g.degree
    if n < 2:
        raise DegreeTooSmallError("mw_bound needs degree >= 2")
    mods = g.moduli
    value = coupled(math.hypot(*mods[1:]), 0.0, mods[0] + 1.0)

    some_ge1 = any(m >= 1.0 for m in mods[1:])
    all_real = all(x.imag == 0 for x in g.lower)
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

    return BoundResult("mw", value, applicability=MW_APPLICABILITY[status],
                       notes=(*reasons, f"guard={status}"))


def hermitian_rectangle(p: Polynomial) -> Rectangle:
    """[lam_min(Re C), lam_max(Re C)] x [lam_min(Im C), lam_max(Im C)] for the
    unpartitioned companion matrix C, from linalg._companion_ends on its first
    row: each part scaled by its own largest entry, and its ends from one eigvalsh
    below degree linalg._SECULAR_ENDS, else from one secular equation.
    """
    (re_lo, re_hi), (im_lo, im_hi) = _companion_ends(build_companion(p)[0]).tolist()
    return Rectangle(re_lo + 0.0, re_hi, im_lo + 0.0, im_hi)  # -0.0 + 0.0 is +0.0
