"""Independent root oracle: simultaneous iteration, verdicts.

This is the ground truth the matrix bounds are validated against, so it
deliberately avoids any companion-matrix eigenvalue route: Ehrlich-Aberth
simultaneous iteration, given up as soon as it overflows or stalls at the
rounding level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NoConvergenceError
from .polynomial import Polynomial, _modulus

__all__ = ["RootSet", "Verdict", "find_roots", "validate_bound", "validate_rectangle"]

_VALIDATION_SLACK = 1e-9
_MAX_ITERATIONS = 2000
_HULL_START_DEGREE = 11  # from here find_roots runs a pass from _hull_start's circles first
_HIGH_DEGREE = 48  # from here _aberth_terms fills its powers by doubling


class RootSet(NamedTuple):
    """All roots of a monic polynomial, sorted (modulus desc, argument asc)."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    max_modulus: float
    iterations: int


class Verdict(NamedTuple):
    """Outcome of checking a bound or rectangle against the roots.

    margin is the distance to the boundary: how much slack remains when the
    verdict is "holds", or how far outside the worst root lies when it is
    "violated". Always nonnegative.
    """

    verdict: str
    margin: float

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@np.errstate(over="ignore")  # an overflowed p' or |a_k| ends the pass as an overflow
def _aberth_terms(descending):
    """(values, terms, level) on one (n+1) x n block of powers z_i^k, which values(z) refills.

    values(z) is (p(z_i), p'(z_i)), i = 0..n-1: one matmul of their ascending coefficients with
    the block. terms(z) adds S_i = sum_{j != i} 1/(z_i - z_j). level() is 4n*eps*sum|a_k||z_i|^k
    at the last z, from the same block: the |p(z_i)| that rounding alone can leave.
    Below degree _HIGH_DEGREE the block is a multiply-accumulate down its rows, and S reduces
    diff[j, i] = z_i - z_j (inf on the diagonal). From _HIGH_DEGREE on, rows k+1..2k are rows
    1..k times row k, and S takes each pair's reciprocal once: row k-1 of diff is
    z_i - z_{i+k mod n}, k = 1..n//2, and 1/(z_i - z_{i-k}) = -1/(z_{i-k} - z_i) is read
    through behind, a skewed view of the reciprocals written twice per row (at even n, the
    pairs k = n/2 count once). A find_roots iteration costs the same on both paths near degree
    40-44, and 0.8 times as much on the second at 48, 0.7 at 64 and 0.55 at 128.
    """
    n = len(descending) - 1
    coefficients = np.zeros((2, n + 1), dtype=complex)
    coefficients[0] = descending[::-1]
    coefficients[1, :n] = coefficients[0, 1:] * np.arange(1, n + 1)
    moduli = np.abs(coefficients[0])
    powers = np.ones((n + 1, n), dtype=complex)
    if n < _HIGH_DEGREE:
        diff = np.empty((n, n), dtype=complex)
        diagonal = diff.reshape(-1)[::n + 1]

        def fill(z):
            powers[1:] = z
            np.multiply.accumulate(powers, out=powers)

        def sums(z):
            diff[:] = z
            np.subtract(diff, z[:, None], out=diff)
            diagonal[:] = np.inf
            return np.add.reduce(np.reciprocal(diff, out=diff))
    else:
        plan = [(powers[1:min(k, n - k) + 1], powers[k], powers[k + 1:2 * k + 1])
                for k in (1 << j for j in range((n - 1).bit_length()))]
        half, item = n // 2, np.dtype(complex).itemsize
        twice = np.empty((2, n), dtype=complex)
        ahead = as_strided(twice.reshape(-1)[1:], (half, n), (item, item))
        diff = np.empty((half, n), dtype=complex)
        wrapped = np.empty((half, 2, n), dtype=complex)
        behind = as_strided(wrapped.reshape(-1)[n - 1:], (n - 1 - half, n),
                            (wrapped.strides[0] - item, item))

        def fill(z):
            powers[1] = z
            for rows, factor, out in plan:
                np.multiply(rows, factor, out=out)

        def sums(z):
            twice[:] = z
            np.reciprocal(np.subtract(z, ahead, out=diff), out=diff)
            wrapped[:] = diff[:, None]
            return np.add.reduce(diff) - np.add.reduce(behind)

    def values(z):
        fill(z)
        return coefficients @ powers

    def terms(z):
        p_values, slopes = values(z)
        return p_values, slopes, sums(z)

    def level():
        return 4 * n * np.finfo(float).eps * (moduli @ np.abs(powers))

    return values, terms, level


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # reported as an overflow
def _aberth_pass(terms, level, z, tol):
    """Steps z_i -= N_i / (1 - N_i S_i), N = p/p' and S from _aberth_terms, until all <= tol.

    Returns (z, iterations, failure); failure is None on convergence, else the cause.
    A non-finite step ends the pass at once (NaN and inf iterates never recover; a
    zero p' or coincident iterates give one), and so does a stall: every |p(z_i)|
    within level(), past which no step can meet tol. The stall is checked at
    iterations 2^j >= 2n only, after generic input has converged (in about
    0.7-0.95n), and so costs at most the iterations already spent.
    """
    n = len(z)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        p_values, slopes, sums = terms(z)
        newton = p_values / slopes
        step = newton / (1.0 - newton * sums)
        largest = float(np.abs(step).max())
        if largest <= tol:
            return z - step, iteration, None
        if not math.isfinite(largest):
            return z - step, iteration, f"overflowed at iteration {iteration}"
        if (iteration >= 2 * n and iteration & (iteration - 1) == 0
                and np.all(np.abs(p_values) <= level())):
            return z, iteration, f"stalled at the rounding level after {iteration} iterations"
        z = z - step
    return z, _MAX_ITERATIONS, f"did not converge in {_MAX_ITERATIONS} iterations"


@np.errstate(over="ignore", invalid="ignore")  # a modulus past the float range: inf starts
def _hull_start(moduli):
    """(starts, r) on the upper convex hull of (k, log|a_k|), a_n = 1 (Bini 1996).

    An edge from vertex i to vertex j puts j - i starts evenly on the circle of radius
    (|a_i|/|a_j|)^(1/(j-i)), turned by 2*pi*i/n + 0.4 so that no two edges share a start;
    the k0 zero roots of a polynomial whose k0 lowest coefficients vanish start on half
    the smallest circle. r, the largest radius, is max_k |a_k|^(1/(n-k)): 2r bounds |z|.
    The monotone chain skips each point strictly below a point on each side: none is a vertex.
    """
    n, top, hull = len(moduli), np.maximum.accumulate, []
    heights = np.array([*map(math.log, filter(None, moduli)), 0.0])
    kept = (heights == top(heights)) | (heights == top(heights[::-1])[::-1])
    for k, height in zip(np.flatnonzero([*moduli, 1.0])[kept].tolist(), heights[kept].tolist()):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (height - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()  # hull[-1] lies on or below the chord from hull[-2] to (k, height)
        hull.append((k, height))
    vertices, levels = zip(*hull)
    counts = [vertices[0]] + [j - i for i, j in zip(vertices, vertices[1:])]
    radii = np.exp(np.subtract(levels[:-1], levels[1:]) / counts[1:]).tolist()
    # one column per circle, the zero roots' first: radius, count, first index and turn
    circles = np.array([[min(radii, default=1.0) / 2, *radii], counts, [0, *vertices[:-1]],
                        [0.4, *[2 * np.pi * i / n + 0.4 for i in vertices[:-1]]]])
    radius, count, first, turn = circles.repeat(counts, axis=1)
    starts = radius * np.exp(1j * (2 * np.pi * (np.arange(n) - first) / count + turn))
    return starts, max(radii, default=0.0)


def _order_keys(z):
    """(-abs(z_i), np.angle(z_i)) bit for bit; np.abs's vector loop can round an ulp away."""
    return list(zip((-np.hypot(z.real, z.imag)).tolist(), np.arctan2(z.imag, z.real).tolist()))


def find_roots(p: Polynomial) -> RootSet:
    """All roots of p by Ehrlich-Aberth simultaneous iteration.

    The circle pass starts on the circle of radius 0.9(1 + max|a_k|), inside the Cauchy disk, at
    angles 2*pi*k/degree + 0.4 to break symmetry, and stops when the max step is <= 1e-13 *
    (1 + max|a_k|). From degree _HULL_START_DEGREE on a pass from _hull_start's Newton-polygon
    circles runs first, stopping at 1e-13 * (1 + 2r), where 2r is Fujiwara's bound on |z|, and the
    circle pass only if it fails. The first pass to converge gives the roots; iterations counts
    every pass run. A pass fails when it overflows, stalls at the rounding level (checked at
    iterations 2^j >= 2*degree) or hits _MAX_ITERATIONS, or when a converged residual |p(z_i)|,
    from one more fill of the power block, exceeds both 1e-8 * prod(1 + |z_i|) and its rounding
    level 4n*eps*sum|a_k||z_i|^k; NoConvergenceError names each pass's cause in order.
    Deterministic for fixed input; Python's sorted orders the roots on _order_keys, as NaNs need.
    """
    n = p.degree
    if n == 1:
        root = 0.0 - p.lower[0]  # not -x, which turns a zero part into -0
        return RootSet((complex(root),), (0.0,), _modulus(root), 0)  # p(root) = (0 - a) + a = 0

    def passes():  # (start, tol) of each pass, built only when the pass before it has failed
        if n >= _HULL_START_DEGREE:
            hull, largest = _hull_start(p.moduli)
            yield hull, 1e-13 * (1.0 + 2 * largest)
        scale = 1.0 + max(p.moduli)
        yield 0.9 * scale * np.exp(1j * (2 * np.pi * np.arange(n) / n + 0.4)), 1e-13 * scale

    values, terms, level = _aberth_terms(p.descending())
    spent, causes = 0, []
    for start, tol in passes():
        z, iterations, failure = _aberth_pass(terms, level, start, tol)
        spent += iterations
        order = sorted(range(n), key=_order_keys(z).__getitem__)
        roots = z[order]
        with np.errstate(all="ignore"):  # an overflowed pass leaves inf and NaN in z
            moduli = np.hypot(roots.real, roots.imag)  # abs(root) bit for bit, inf past the range
            guard = 1e-8 * float(np.prod(1.0 + moduli))
            residuals = np.abs(values(z)[0])
            over = residuals > guard
            if failure is None and over.any() and np.any(residuals[over] > level()[over]):
                failure = f"converged in {iterations} iterations but a residual exceeds the guard"
        if failure is None:
            break
        causes.append(failure)
    roots, residuals = tuple(roots.tolist()), tuple(residuals[order].tolist())
    if failure is not None:
        raise NoConvergenceError(f"root iteration {', then '.join(causes)} (max residual "
                                 f"{max(residuals):.3e}, guard {guard:.3e})",
                                 best_roots=roots, residuals=residuals)
    return RootSet(roots, residuals, float(moduli.max()), spent)


def validate_bound(value: float, roots: RootSet) -> Verdict:
    """Check roots.max_modulus <= value (+1e-9 slack). A value at or below the max
    modulus holds with margin 0, also when both are inf (where inf - inf is NaN)."""
    if roots.max_modulus <= value + _VALIDATION_SLACK:
        return Verdict("holds", 0.0 if value <= roots.max_modulus else value - roots.max_modulus)
    return Verdict("violated", roots.max_modulus - value)


def validate_rectangle(rect, roots: RootSet) -> Verdict:
    """Check every root in roots lies in rect (each edge expanded by 1e-9).

    rect needs re_lo/re_hi/im_lo/im_hi attributes.
    """
    re = [root.real for root in roots.roots]
    im = [root.imag for root in roots.roots]
    # rounded subtraction is monotone, so the extreme parts give each root's least slack
    worst = min(min(re) - rect.re_lo, rect.re_hi - max(re),
                min(im) - rect.im_lo, rect.im_hi - max(im))
    if worst >= -_VALIDATION_SLACK:
        return Verdict("holds", max(worst, 0.0))
    return Verdict("violated", -worst)
