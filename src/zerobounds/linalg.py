"""Dense complex linear-algebra kernels for the bound computations.

Matrices are plain numpy arrays (complex dtype) of modest size, so the
general kernels favor clarity and tight contracts over asymptotic
cleverness. The Hermitian eigensolver is LAPACK's (via ``numpy.linalg.eigh``);
it serves general matrices and blocks, while compare's rows on a companion
matrix reach it only for matrices of size 4 or less (see ``cartesian``).
The numerical-radius sweep brackets
w(X) = max_theta lambda_max((e^{i theta} X + e^{-i theta} X*)/2) between the
best sampled value and the farthest vertex of the outer polygon the sampled
support lines cut out; it takes lambda_max from a dense eigensolve for a
general matrix and from a secular equation for a companion matrix.
``_companion_peaks`` is the one place where a companion matrix's first row
becomes that secular equation; the sweep and ``cartesian.hermitian_rectangle``
both reach it there.
"""

from __future__ import annotations

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
_SWEEP_START = 32  # equally spaced angles of the first round
_SWEEP_SPLIT = 16  # a wide interval is split into this many
_SWEEP_RTOL = 1e-14  # an interval is closed once its vertex is this close to max f
_SWEEP_NOISE = 16 * _EPS  # relative rounding error allowed in each f, for the closing test
_SWEEP_MIN_GAP = 1e-10  # radians; closer angles give a vertex of rounding noise
_SWEEP_BUDGET = 4096  # most angles one sweep evaluates


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


def _dense_peaks(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max of the Hermitian part of e^{i theta} M, one eigvalsh per angle."""
    mh = m.conj().T
    return np.array([
        np.linalg.eigvalsh((np.exp(1j * theta) * m + np.exp(-1j * theta) * mh) / 2)[-1]
        for theta in thetas
    ])


def _is_companion(m: np.ndarray) -> bool:
    """Any first row, ones on the subdiagonal, zeros elsewhere; size >= 2."""
    n = m.shape[0]
    return n >= 2 and np.array_equal(m[1:], np.eye(n - 1, n))


def _largest_secular_root(h: np.ndarray, w: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """lambda_max of [[h, v*], [v, diag(mu)]] with |v|^2 = w, one row per angle.

    mu is descending, one row for every angle or one row per angle, and the
    matrix is scaled to entries of modulus <= 1.
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
    below the root of delta^2 + (base - h) delta - W (all poles moved to base),
    so Newton from that bound decreases monotonically onto it. Dropped poles
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
    for _ in range(_SECULAR_MAX_STEPS):
        inv = 1.0 / (delta[:, None] + gaps)
        # F as delta times the secular function: the expanded form subtracts W
        # and keeps an absolute error of eps W, too much when F is O(delta)
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
    return peaks


def _companion_peaks(first_row: np.ndarray, scale: float | np.ndarray, turns=None):
    """thetas -> lambda_max of the Hermitian part of e^{i theta} C / scale, one
    per angle, for C the companion matrix with the given first row c: the one
    route from a companion matrix to its secular equation.

    With D = diag(e^{i (k-1) theta}), D* e^{i theta} C D is the companion matrix
    of first row e^{i theta (j+1)} c_j, and its Hermitian part H(theta) is
    [[h, g*], [g, T]] where T is the (n-1) x (n-1) tridiagonal matrix with zero
    diagonal and 1/2 off-diagonals. T has eigenvalues mu_j = cos(j pi/n),
    j = 1..n-1, and orthonormal eigenvectors sqrt(2/n) sin(i j pi/n), so in
    that basis H(theta) is diag(mu) bordered by v = S^T g, and det(z - H) is
    the secular product

        (z - h) prod_j (z - mu_j) - sum_j |v_j|^2 prod_{k != j} (z - mu_k),

    whose largest root _largest_secular_root finds. The returned function
    takes a batch of angles and builds turns[:, j] = e^{i theta (j+1)},
    j = 0..n-1, one row per angle, with np.exp; a caller whose angles are
    multiples of pi/2 passes its own turns, a function of the batch giving
    exact powers of i. Dividing by scale before
    squaring keeps |v|^2 finite for huge coefficients, and scale >= max |C_ij|
    meets _largest_secular_root's contract. scale is one number for every
    angle, or one per angle.
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
    if turns is None:
        powers = np.arange(1, n + 1)
        turns = lambda thetas: np.exp(1j * thetas[:, None] * powers)

    def bordered(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        batch = turns(thetas)
        h = (batch[:, 0] * corner).real
        g = np.conj(batch[:, 1:]) * border
        g[:, 0] += 0.5 / scale[..., 0]
        return h, (g.real @ sines) ** 2 + (g.imag @ sines) ** 2

    # the turns and g are freed with bordered's frame, before the Newton steps allocate theirs
    return lambda thetas: _largest_secular_root(*bordered(thetas), mu)


def numerical_radius_sweep(x) -> tuple[float, float]:
    """Bracket (lower, upper) of the numerical radius w(X) by Johnson's outer
    polygon (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).

    At each angle theta, f = lambda_max of the Hermitian part of e^{i theta} X
    is at most w(X), and W(X) lies in the half-plane Re(e^{i theta} z) <= f.
    The lines at theta_c -+ h meet at a vertex of modulus
    sqrt((f1 - f2)^2 + 4 f1 f2 sin^2 h) / sin 2h, the hypot of (f1 + f2) /
    (2 cos h) and (f1 - f2) / (2 sin h). The farthest point of the polygon is
    such a vertex, so lower = max f <= w(X) <= upper = max vertex.

    On X / max |X_ij|, from 32 equally spaced angles, each round evaluates
    one batch: 16-fold splits of every interval whose vertex exceeds max f
    by over 1e-14 relative plus 16 eps |im| / sin h, the rounding of f that
    the vertex formula amplifies, and one angle aimed where the farthest
    vertex points (at a corner of W(X), f there is w(X)). Without that
    allowance a polygon W(X), as for a normal X, is refined on rounding noise
    until the budget binds. Angles within 1e-10 of
    one taken are dropped; their vertex would be rounding noise. The sweep
    stops when no angle is left or before a batch would pass 4096 angles;
    a flat f (W(X) a disk) leaves a bracket about 2e-5 wide.

    A companion matrix (any first row, ones on the subdiagonal, exact zeros
    elsewhere, n >= 2) gets f from a rank-one secular equation over the known
    Toeplitz spectrum, O(n^2) per angle; any other X one ``eigvalsh`` per angle.
    """
    m = as_matrix(x)
    scale = float(np.max(np.abs(m))) or 1.0
    if _is_companion(m):
        peaks = _companion_peaks(m[0], scale)
    else:
        peaks = lambda thetas: _dense_peaks(m / scale, thetas)
    steps = np.arange(1, _SWEEP_SPLIT) / _SWEEP_SPLIT
    thetas = np.linspace(0.0, 2 * np.pi, _SWEEP_START, endpoint=False)
    values = peaks(thetas)
    while True:
        order = np.argsort(thetas)
        thetas, values = thetas[order], values[order]
        half = np.diff(thetas, append=2 * np.pi) / 2  # thetas[0] is 0
        following = np.roll(values, -1)
        re = (values + following) / (2 * np.cos(half))
        im = (values - following) / (2 * np.sin(half))
        vertex = np.hypot(re, im)
        lower, far = float(values.max()), int(np.argmax(vertex))
        # f carries a rounding error of a few eps max f, which the vertex
        # formula divides by sin h; only the share along im reaches the modulus
        wide = vertex > lower * (1 + _SWEEP_RTOL) + _SWEEP_NOISE * np.abs(im) / np.sin(half)
        if not wide.any():
            break
        split = wide & (half > _SWEEP_SPLIT * _SWEEP_MIN_GAP / 2)  # keeps new angles apart
        fresh = (thetas[split, None] + 2 * half[split, None] * steps).ravel()
        aim = np.mod(thetas[far] + half[far] - np.arctan2(im[far], re[far]), 2 * np.pi)
        gaps = np.mod(np.append(thetas, fresh) - aim + np.pi, 2 * np.pi) - np.pi
        if np.abs(gaps).min() > _SWEEP_MIN_GAP:
            fresh = np.append(fresh, aim)
        if fresh.size == 0 or thetas.size + fresh.size > _SWEEP_BUDGET:
            break
        thetas = np.concatenate([thetas, fresh])
        values = np.concatenate([values, peaks(fresh)])
    return scale * lower, scale * float(vertex[far])


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
