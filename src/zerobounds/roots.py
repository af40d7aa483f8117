"""Independent root oracle: simultaneous iteration, verdicts.

This is the ground truth the matrix bounds are validated against, so it
deliberately avoids any companion-matrix eigenvalue route: Ehrlich-Aberth
simultaneous iteration, given up as soon as it overflows or stalls at the
rounding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .polynomial import Polynomial

__all__ = ["RootSet", "Verdict", "find_roots", "validate_bound", "validate_rectangle"]

_VALIDATION_SLACK = 1e-9
_MAX_ITERATIONS = 2000


@dataclass(frozen=True)
class RootSet:
    """All roots of a monic polynomial, sorted (modulus desc, argument asc)."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    max_modulus: float
    iterations: int


@dataclass(frozen=True)
class Verdict:
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


def _aberth_terms(descending):
    """(terms, level) on one (n+1) x n block of powers z_i^k, which terms(z) refills.

    terms(z) is (p(z_i), p'(z_i), sum_{j != i} 1/(z_i - z_j)) for i = 0..n-1: p and p' are
    one matmul of their ascending coefficients with the block, a multiply-accumulate down
    its rows; the sums reduce diff[j, i] = z_i - z_j (z copied into every row, z subtracted
    as a column in place, inf on the diagonal). level() is 4n*eps*sum|a_k||z_i|^k at the
    last z, from the same block: the |p(z_i)| that rounding alone can leave.
    """
    n = len(descending) - 1
    coefficients = np.zeros((2, n + 1), dtype=complex)
    coefficients[0] = descending[::-1]
    coefficients[1, :n] = coefficients[0, 1:] * np.arange(1, n + 1)
    moduli = np.abs(coefficients[0])
    powers = np.ones((n + 1, n), dtype=complex)
    diff = np.empty((n, n), dtype=complex)
    diagonal = diff.reshape(-1)[::n + 1]

    def terms(z):
        powers[1:] = z
        p_values, slopes = coefficients @ np.multiply.accumulate(powers, out=powers)
        diff[:] = z
        np.subtract(diff, z[:, None], out=diff)
        diagonal[:] = np.inf
        return p_values, slopes, np.add.reduce(np.reciprocal(diff, out=diff))

    def level():
        return 4 * n * np.finfo(float).eps * (moduli @ np.abs(powers))

    return terms, level


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


def _order_keys(z):
    """(-abs(z_i), np.angle(z_i)) bit for bit; np.abs's vector loop can round an ulp away."""
    return list(zip((-np.hypot(z.real, z.imag)).tolist(), np.arctan2(z.imag, z.real).tolist()))


def find_roots(p: Polynomial) -> RootSet:
    """All roots of p by Ehrlich-Aberth simultaneous iteration.

    Initial guesses sit on a circle of radius (1 + max|a_k|) * 0.9 (inside
    the Cauchy disk) at angles 2*pi*k/degree + 0.4 to break symmetry.
    Convergence when the max step is <= 1e-13 * (1 + max|a_k|), with no
    restart. NoConvergenceError names the cause when the iteration
    overflows, stalls at the rounding level (checked at iterations
    2^j >= 2*degree) or hits _MAX_ITERATIONS, or when a converged residual
    |p(z_i)|, from one more fill of the pass's power block, exceeds both
    1e-8 * prod(1 + |z_i|) and its rounding level 4n*eps*sum|a_k||z_i|^k.
    Deterministic for fixed input. Python's sorted orders the roots on
    _order_keys, as NaN-bearing failures need.
    """
    n = p.degree
    scale = 1.0 + max(abs(c) for c in p.lower)
    tol = 1e-13 * scale

    if n == 1:
        root = 0.0 - p.lower[0]  # not -x, which turns a zero part into -0
        return RootSet((complex(root),), (0.0,), abs(root), 0)  # p(root) = (0 - a) + a = 0

    angles = 2 * np.pi * np.arange(n) / n + 0.4
    terms, level = _aberth_terms(p.descending())
    z, iterations, failure = _aberth_pass(terms, level, 0.9 * scale * np.exp(1j * angles), tol)
    order = sorted(range(n), key=_order_keys(z).__getitem__)
    roots = tuple(complex(z[i]) for i in order)

    guard = 1e-8 * float(np.prod([1.0 + abs(r) for r in roots]))
    with np.errstate(all="ignore"):  # an overflowed pass leaves inf and NaN in z
        residuals = np.abs(terms(z)[0])
        over = residuals > guard
        if failure is None and over.any() and np.any(residuals[over] > level()[over]):
            failure = f"converged in {iterations} iterations but a residual exceeds the guard"
    residuals = tuple(residuals[order].tolist())
    if failure is not None:
        raise NoConvergenceError(
            f"root iteration {failure} (max residual {max(residuals):.3e}, guard {guard:.3e})",
            best_roots=roots, residuals=residuals)
    return RootSet(roots, residuals, max(abs(r) for r in roots), iterations)


def validate_bound(value: float, roots: RootSet) -> Verdict:
    """Check roots.max_modulus <= value (+1e-9 slack)."""
    if roots.max_modulus <= value + _VALIDATION_SLACK:
        return Verdict("holds", value - roots.max_modulus)
    return Verdict("violated", roots.max_modulus - value)


def validate_rectangle(rect, roots: RootSet) -> Verdict:
    """Check every root in roots lies in rect (each edge expanded by 1e-9).

    rect needs re_lo/re_hi/im_lo/im_hi attributes.
    """
    worst = float("inf")
    for root in roots.roots:
        slack = min(
            root.real - rect.re_lo,
            rect.re_hi - root.real,
            root.imag - rect.im_lo,
            rect.im_hi - root.imag,
        )
        worst = min(worst, slack)
    if worst >= -_VALIDATION_SLACK:
        return Verdict("holds", max(worst, 0.0))
    return Verdict("violated", -worst)
