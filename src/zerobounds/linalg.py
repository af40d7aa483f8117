"""Dense complex linear-algebra kernels for the bound computations.

Matrices are plain numpy arrays (complex dtype) of modest size, so the
general kernels favor clarity and tight contracts over asymptotic
cleverness. The Hermitian eigensolver is LAPACK's (via ``numpy.linalg.eigh``);
it serves general matrices and blocks, while compare's rows on a companion
matrix reach it for sizes of 4 or less, and below a crossover degree for the
rectangle's two Cartesian parts (``_companion_ends``).
The numerical-radius sweep brackets
w(X) = max_theta lambda_max((e^{i theta} X + e^{-i theta} X*)/2) between the
best sampled value and the farthest vertex of the outer polygon the sampled
support lines cut out; it takes lambda_max, and its slope from the top
eigenvector, from a dense eigensolve for a general matrix and from a secular
equation for a companion matrix, and places its angles on ladders graded by
the curvature of lambda_max about each peak. ``_companion_border`` is the one
place where a companion matrix's first row becomes that Hermitian part's
bordered form; ``_companion_peaks`` solves it as a secular equation for the
sweep, and ``_companion_ends`` scales the rectangle's two parts and gives their ends.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

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
    "operator_norm",
    "numerical_radius_sweep",
    "nonneg_numrad",
]

_HERMITIAN_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_SECULAR_MAX_STEPS = 100  # Newton steps; 1 to 8 suffice on every tested input
_SECULAR_ENDS = 33  # from this degree _companion_ends' secular solve beats eigvalsh
_DENSE_ENDS_SCALE = 0.5 / math.sqrt(_TINY)  # 2^510: to here eigvalsh's (1/2 / scale)^2 is normal
_PEAKS_CHUNK = 8192  # most angles times matrix size in one secular solve
_SWEEP_START = 32  # equally spaced angles of the first round
_SWEEP_SPLIT = 16  # a wide interval is split into this many
_SWEEP_RTOL = 1e-14  # an interval is closed once its vertex is this close to max f
_SWEEP_NOISE = 16 * _EPS  # relative rounding error allowed in each f, for the closing test
_SWEEP_MIN_GAP = 1e-10  # radians; closer angles give a vertex of rounding noise
_SWEEP_BUDGET = 4096  # most angles one sweep evaluates
_SWEEP_RUNGS = 32  # most ladder rungs on each side of a peak


def as_matrix(a, square: bool = True) -> np.ndarray:
    """Coerce to a finite, nonempty complex 2-D array; optionally require squareness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise NonSquareError(f"expected a matrix, got array of rank {m.ndim}")
    if m.size == 0:
        raise NonSquareError(f"expected a nonempty matrix, got shape {m.shape}")
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

    Hermiticity is checked up to 1e-12 relative to the largest entry, at
    any scale; anything worse raises NotHermitianError rather than silently
    symmetrizing garbage.
    """
    m = as_matrix(a)
    scale = float(np.max(np.abs(m)))
    if float(np.max(np.abs(m - m.conj().T))) > _HERMITIAN_RTOL * scale:
        raise NotHermitianError("matrix is not Hermitian to working precision")
    values, vectors = np.linalg.eigh(m)
    return HermitianEigen(values, vectors)


def operator_norm(x) -> float:
    """Largest singular value, i.e. sqrt(lambda_max(X* X))."""
    m = as_matrix(x, square=False)
    return float(np.linalg.norm(m, 2))


def _dense_peaks(m: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_max of the Hermitian part of e^{i theta} M and its slope in theta,
    -Im(e^{i theta} u*Mu) for its top unit eigenvector u, one eigh per angle."""
    values, slopes = [], []
    for theta in thetas:
        turned = np.exp(1j * theta) * m
        vals, vecs = np.linalg.eigh((turned + turned.conj().T) / 2)
        values.append(vals[-1])
        slopes.append(-(vecs[:, -1].conj() @ turned @ vecs[:, -1]).imag)
    return np.array(values), np.array(slopes)


def _is_companion(m: np.ndarray) -> bool:
    """Any first row, ones on the subdiagonal, zeros elsewhere; size >= 2."""
    n = m.shape[0]
    return n >= 2 and np.array_equal(m[1:], np.eye(n - 1, n))


def _largest_secular_root(h, w, mu) -> tuple[np.ndarray, np.ndarray]:
    """lambda_max of [[h, v*], [v, diag(mu)]] with |v|^2 = w, one row per angle,
    and the resolvent 1/(lambda_max - mu_j) at the last Newton step.

    mu is descending, one row for every angle or one row per angle, and the
    matrix is scaled to entries of modulus <= sqrt(2).
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
    below the upper root of delta^2 + (base - h) delta - W (all poles moved to
    base), so Newton from there decreases monotonically onto it. Dropped poles
    are eigenvalues in their own right, hence the final max with mu_0.
    """
    mu = np.broadcast_to(mu, w.shape)
    kept = w > _EPS**2
    top = kept.argmax(axis=1)  # 0 when nothing is kept: then delta = max(h - mu_0, 0)
    base = mu[np.arange(len(w)), top]
    c = base - h
    w = np.where(kept, w, 0.0)
    gaps = np.where(kept, base[:, None] - mu, 1.0)  # 1.0: any positive gap, weight 0 there
    wg = w * gaps
    total = w.sum(axis=1)
    root = np.sqrt(c * c + 4 * total)
    delta = np.where(c > 0, 2 * total / np.where(c > 0, c + root, 1.0), (root - c) / 2)
    # F as delta times the secular function: the expanded form subtracts W
    # and keeps an absolute error of eps W, too much when F is O(delta)
    for _ in range(_SECULAR_MAX_STEPS):
        inv = 1.0 / (delta[:, None] + gaps)
        f = delta * (delta + c - (w * inv).sum(axis=1))
        slope = 2 * delta + c - (wg * inv * inv).sum(axis=1)
        step = np.maximum(f, 0.0) / np.maximum(slope, _TINY)
        delta = delta - step
        if (step <= 4 * _EPS * (1 + delta)).all():
            break
    else:
        raise InternalConsistencyError("secular equation for lambda_max did not converge")
    peaks = np.maximum(base + delta, mu[:, 0])
    if not np.isfinite(peaks).all():
        raise InternalConsistencyError("secular equation gave a non-finite lambda_max")
    return peaks, inv


def _companion_border(first_row: np.ndarray, turns: np.ndarray, scale: np.ndarray):
    """(e^{i theta} c_0, h, g) of H(theta) = [[h, g*], [g, T]] (_companion_peaks) for
    each row of turns[:, j] = e^{i theta (j+1)}, h and g over its scale: the row is
    halved past the corner and turned, and the subdiagonal's 1/2 added, before each
    entry is divided in real arithmetic (complex division would take 1/scale = inf)."""
    turned = turns * np.concatenate((first_row[:1], first_row[1:] / 2))
    top, g = turned[:, 0].copy(), np.conj(turned[:, 1:]) + (np.arange(1, first_row.size) == 1) / 2
    g.view(float)[...] /= scale
    return top, top.real / scale[..., 0], g  # the real part alone: the other may overflow


def _shift_cosines(n: int) -> np.ndarray:
    """mu_j = cos(j pi/n), j = 1..n-1, as sin((n - 2j) pi/(2n)): exactly -mu reversed, 0 at pi/2."""
    return np.sin((n - 2 * np.arange(1, n)) * (np.pi / (2 * n)))


def _toeplitz_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, S) of T (_companion_peaks): its eigenvalues mu = _shift_cosines(n) and
    orthonormal eigenvectors S_ij = sqrt(2/n) sin(i j pi/n), i, j = 1..n-1."""
    k = np.arange(1, n)
    # k j is reduced mod 2n first, and the 2n sines of [0, 2 pi) computed once and looked up
    sines = np.sin(np.arange(2 * n) * (np.pi / n))
    return _shift_cosines(n), np.sqrt(2.0 / n) * sines[np.outer(k, k) % (2 * n)]


def _companion_ends(first_row: np.ndarray) -> np.ndarray:
    """[[lambda_min, lambda_max]] of Re C = H(0) and of Im C = H(-pi/2) (_companion_border),
    C the companion matrix of first row c. Each part is solved over its largest entry, so
    a huge Re C cannot wash out Im C, read from halved entries, finite wherever the part's
    are: |Re c_0| or |Im c_0|, |(c_1 +- 1)/2|, |c_j|/2, and T's 1/2 from degree 3. The ends
    come from one eigvalsh below degree _SECULAR_ENDS and up to a part scale of
    _DENSE_ENDS_SCALE, else from lambda_max of H and -H in one secular equation: in T's
    basis -H is diag(-mu) bordered by -v, its poles reversed are mu, and its weights are
    H's |v_j|^2 reversed."""
    n, c_0, c_1 = first_row.size, first_row[0], first_row[1]
    rest = np.abs(first_row[2:] / 2).max(initial=float(n > 2) / 2)
    # np.hypot gives a scalar abs's bits; np.abs's vector loop can round an ulp away
    re_near, im_near = np.hypot((c_1.real + np.array([1.0, -1.0])) / 2, c_1.imag / 2).tolist()
    scale = np.array([[max(abs(c_0.real), re_near, rest) or 1.0],
                      [max(abs(c_0.imag), im_near, rest) or 1.0]])
    # e^{i theta (j+1)} at theta = 0 and -pi/2: 1 and the powers of -i, exactly
    turns = np.array([1, -1j, -1, 1j])[np.outer([0, 1], np.arange(1, n + 1)) % 4]
    _, h, g = _companion_border(first_row, turns, scale)
    if n < _SECULAR_ENDS and scale.max() <= _DENSE_ENDS_SCALE:
        parts = np.zeros((h.size, n, n), dtype=complex)
        parts[:, 0, 0], parts[:, 1:, 0] = h, g
        parts[:, np.arange(2, n), np.arange(1, n - 1)] = np.full(n - 2, 0.5) / scale  # T
        values = np.linalg.eigvalsh(parts)
        if not np.isfinite(values).all():
            raise InternalConsistencyError("dense eigensolve gave a non-finite eigenvalue")
        return scale * values[:, [0, -1]]
    mu, sines = _toeplitz_basis(n)
    w = (g.real @ sines) ** 2 + (g.imag @ sines) ** 2
    peaks, _ = _largest_secular_root(np.concatenate((h, -h)), np.concatenate((w, w[:, ::-1])),
                                     mu / np.concatenate((scale, scale)))
    return scale * np.stack((-peaks[h.size:], peaks[:h.size]), axis=1)


def _companion_peaks(first_row: np.ndarray, scale: float):
    """thetas -> (lambda_max of the Hermitian part of e^{i theta} C / scale, and
    its slope in theta), one per angle, for C the companion matrix with the
    given first row c: the sweep's route to its secular equation.

    With D = diag(e^{i (k-1) theta}), D* e^{i theta} C D is the companion matrix
    of first row e^{i theta (j+1)} c_j, and its Hermitian part H(theta) is
    [[h, g*], [g, T]] where T is the (n-1) x (n-1) tridiagonal matrix with zero
    diagonal and 1/2 off-diagonals. In T's basis (_toeplitz_basis) H(theta) is
    diag(mu) bordered by v = S^T g, and det(z - H) is the secular product

        (z - h) prod_j (z - mu_j) - sum_j |v_j|^2 prod_{k != j} (z - mu_k),

    whose largest root _largest_secular_root finds. The returned function
    takes a batch of angles and solves it in chunks of at most 8192 / n
    angles. scale is max |C_ij|, or C's largest part where that overflows, so
    H(theta)'s entries reach sqrt(2) at most; _companion_border divides by it.
    By Hellmann-Feynman the slope is -Im(e^{i theta} u*Cu) / (scale u*u) for
    the top eigenvector u = D (1, x), x = S y, y_j = v_j / (lambda_max - mu_j).
    """
    n = first_row.size
    scale = np.array([scale])
    cosines, sines = _toeplitz_basis(n)
    poles, powers = cosines / scale, np.arange(1, n + 1)

    def solve(thetas: np.ndarray):
        top, h, g = _companion_border(first_row, np.exp(1j * thetas[:, None] * powers), scale)
        v_re, v_im = g.real @ sines, g.imag @ sines
        del g  # freed before the Newton steps allocate theirs
        w = v_re**2 + v_im**2
        values, inv = _largest_secular_root(h, w, poles)
        # Im(u* D* e^{i theta} C D u) / scale, u = (1, x): the corner gives Im(e^{i theta} c_0),
        # the first row past it (2 conj(g) less the subdiagonal's 1/2) -Im x_0, as conj(g) x =
        # sum w_j / (lambda - mu_j) is real, the subdiagonal -Im x_0 + Im sum conj(x_{k+1}) x_k
        x_re, x_im = (v_re * inv) @ sines, (v_im * inv) @ sines
        shifted = (x_re[:, 1:] * x_im[:, :-1] - x_im[:, 1:] * x_re[:, :-1]).sum(axis=1)
        turning = (top.imag + shifted - 2 * x_im[:, 0]) / scale[0]
        return values, -turning / (1 + (w * inv * inv).sum(axis=1))  # u*u = 1 + |y|^2

    def peaks(thetas: np.ndarray):
        # in chunks, which bound the Newton steps' arrays of angles x n
        chunk = max(1, _PEAKS_CHUNK // n)
        parts = [solve(thetas[first:first + chunk]) for first in range(0, thetas.size, chunk)]
        return tuple(map(np.concatenate, zip(*parts)))

    return peaks


def _sweep_ladders(thetas, values, slopes, half, wide, lower):
    """Rungs theta_hat -+ d_k about the peak of f in each wide interval where
    f' turns from + to -, out through the run of wide intervals f descends
    through from there and one rung past it, and the intervals of those runs;
    no ladder where a 16-fold split does as well."""
    count, rungs, spanned = thetas.size, [np.empty(0)], np.zeros_like(wide)
    peaks = np.flatnonzero(wide & (slopes > 0) & (np.concatenate((slopes[1:], slopes[:1])) <= 0))
    thetas, values, slopes, half, wide = (a.tolist() for a in (thetas, values, slopes, half, wide))
    for i in peaks.tolist():
        span, sa, sb = 2 * half[i], slopes[i], slopes[(i + 1) % count]
        mean = (values[(i + 1) % count] - values[i]) / span
        # the cubic Hermite fit of (f, f') has f' = sa + b t + a t^2 on [0, 1];
        # its root's distance e to the secant root of f' gauges the secant's
        # error, and e^2 / span the fit's
        a, b = 3 * (sa + sb) - 6 * mean, 6 * mean - 4 * sa - 2 * sb
        t = 2 * sa / max(math.sqrt(max(b * b - 4 * a * sa, 0.0)) - b, 2 * sa)
        # near the peak W(X) is a disk of radius f + f'': lines at theta_hat + d
        # and + d r meet inside it while (r - 1) / (r + 1) < sqrt(-f''/f), and
        # lines 1e-7 either side of the peak close the interval between them;
        # the first rung is also far enough out for 32 to get past the interval
        q = 0.8 * math.sqrt(min(max((sa - sb) / (span * lower), 0.0), 1.0))
        ratio = (1 + q) / (1 - q)
        first = max(4 * (t - sa / (sa - sb)) ** 2 * span, _SWEEP_RTOL**0.5,
                    max(t, 1 - t) * span / ratio ** (_SWEEP_RUNGS - 1))
        if 2 * _SWEEP_SPLIT * first > span:
            continue
        right, left = i + 1, i  # the run, as interval indices left..right-1
        while right < i + count and wide[right % count] and slopes[right % count] <= 0:
            right += 1
        while left > right - count and wide[(left - 1) % count] and slopes[left % count] > 0:
            left -= 1
        spanned[np.arange(left, right) % count] = True
        centre = thetas[i] + t * span
        reach = [centre - thetas[left % count] - 2 * np.pi * (left // count),
                 thetas[right % count] + 2 * np.pi * (right // count) - centre]
        d = first * ratio ** np.arange(_SWEEP_RUNGS)
        rungs += [centre + sign * d[d <= ratio * end] for sign, end in zip((-1, 1), reach)]
    return np.concatenate(rungs), spanned


def numerical_radius_sweep(x) -> tuple[float, float]:
    """Bracket (lower, upper) of the numerical radius w(X) by Johnson's outer
    polygon (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).

    At each angle theta, f = lambda_max of the Hermitian part of e^{i theta} X
    is at most w(X), and W(X) lies in the half-plane Re(e^{i theta} z) <= f.
    The lines at theta_c -+ h meet at a vertex of modulus
    sqrt((f1 - f2)^2 + 4 f1 f2 sin^2 h) / sin 2h, the hypot of (f1 + f2) /
    (2 cos h) and (f1 - f2) / (2 sin h). The farthest point of the polygon is
    such a vertex, so lower = max f <= w(X) <= upper = max vertex.

    On X / max |X_ij|, from 32 equally spaced angles, each round evaluates one
    batch in the wide intervals, those whose vertex exceeds max f by over 1e-14
    relative plus 16 eps |im| / sin h, the rounding of f that the vertex formula
    amplifies. Each angle also gives the slope f', from its top eigenvector:
    ladders graded by the curvature of f close in on the peaks (_sweep_ladders),
    a wide interval no ladder reaches is split 16-fold, and one angle is aimed
    where the farthest vertex points (at a corner of W(X), f there is w(X)). One
    sorted batch holds them all, and an angle within 1e-10 of one taken, or of
    the one before it, is dropped: their vertex would be rounding noise. The
    sweep stops when no angle is left or at 4096 angles, where a batch is
    thinned to fewer splits and then to the angles nearest the farthest vertex;
    a flat f (W(X) a disk) ends there, about 4e-7 wide.

    A companion matrix (any first row, ones on the subdiagonal, exact zeros
    elsewhere, n >= 2) gets f from a rank-one secular equation over the known
    Toeplitz spectrum, O(n^2) per angle; any other X, one ``eigh`` per angle.
    Past the float range X is scaled by its largest part, or, with a diagonal
    modulus there, is (inf, inf): w(X) >= |X_kk|.
    """
    m = as_matrix(x)
    scale = float(np.max(np.abs(m))) or 1.0
    if scale == math.inf:
        if np.abs(m.diagonal()).max() == math.inf:
            return math.inf, math.inf
        scale = float(max(np.abs(m.real).max(), np.abs(m.imag).max()))
    peaks = (_companion_peaks(m[0], scale) if _is_companion(m)
             else lambda thetas: _dense_peaks(m / scale, thetas))
    thetas = np.linspace(0.0, 2 * np.pi, _SWEEP_START, endpoint=False)
    values, slopes = peaks(thetas)
    while True:
        order = np.argsort(thetas)
        thetas, values, slopes = thetas[order], values[order], slopes[order]
        half = (np.concatenate((thetas[1:], [2 * np.pi])) - thetas) / 2  # thetas[0] is 0
        following = np.concatenate((values[1:], values[:1]))
        re = (values + following) / (2 * np.cos(half))
        im = (values - following) / (2 * np.sin(half))
        vertex = np.hypot(re, im)
        lower, far = float(values.max()), int(np.argmax(vertex))
        # f carries a rounding error of a few eps max f, which the vertex
        # formula divides by sin h; only the share along im reaches the modulus
        wide = vertex > lower * (1 + _SWEEP_RTOL) + _SWEEP_NOISE * np.abs(im) / np.sin(half)
        if not wide.any():
            break
        rungs, reached = _sweep_ladders(thetas, values, slopes, half, wide, lower)
        split = wide & ~reached  # where the budget binds, fewer pieces
        room = _SWEEP_BUDGET - thetas.size - rungs.size - 1  # 1 for the aimed angle
        pieces = min(_SWEEP_SPLIT, max(2, 1 + room // max(split.sum(), 1)))
        cuts = (thetas[split, None] + 2 * half[split, None] * np.arange(1, pieces) / pieces).ravel()
        aim = np.mod(thetas[far] + half[far] - np.arctan2(im[far], re[far]), 2 * np.pi)
        fresh = np.sort(np.mod(np.concatenate([rungs, cuts, [aim]]), 2 * np.pi))
        at = np.searchsorted(thetas, fresh, "right") - 1
        turn = fresh - thetas[at] - half[at]
        # one spacing rule: no angle within 1e-10 of one taken or of the one before it
        keep = np.flatnonzero((half[at] - np.abs(turn) > _SWEEP_MIN_GAP)
                              & (fresh - np.concatenate(([-1.0], fresh[:-1])) > _SWEEP_MIN_GAP))
        room = _SWEEP_BUDGET - thetas.size
        if keep.size > room:  # spend what is left, nearest the farthest vertex first
            off = np.mod(fresh[keep] - aim + np.pi, 2 * np.pi) - np.pi
            keep = keep[np.argsort(np.abs(off))[:room]]
        if keep.size == 0:
            break
        found = (fresh[keep], *peaks(fresh[keep]))
        thetas, values, slopes = map(np.concatenate, zip((thetas, values, slopes), found))
    # the farthest vertex can round below max f by an ulp; the bracket is never inverted
    return scale * lower, scale * max(float(vertex[far]), lower)


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
