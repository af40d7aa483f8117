"""Independent root oracle: simultaneous iteration, verdicts.

This is the ground truth the matrix bounds are validated against, so it
deliberately avoids any companion-matrix eigenvalue route: Durand-Kerner
(Weierstrass) simultaneous iteration, given up as soon as it overflows or
stalls at the rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .polynomial import Polynomial, horner

__all__ = ["RootSet", "Verdict", "find_roots", "validate_bound", "validate_rectangle"]

_VALIDATION_SLACK = 1e-9


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


def _durand_kerner_pass(descending, z, tol, max_iterations):
    """Weierstrass updates until the max step is <= tol.

    Returns (z, iterations, failure); failure is None on convergence, else
    the cause. A non-finite step ends the pass at once (NaN and inf iterates
    never recover), and so does a stall: every |p(z_i)| within the rounding
    level 4n*eps*sum|a_k||z_i|^k, past which no step can meet tol. The stall
    is checked only at iterations 2^j >= 2n, after generic input has
    converged (in about 1.2-1.5n), and so costs at most the iterations
    already spent.
    """
    n = len(z)
    magnitudes = np.abs(descending)
    rounding = 4 * n * np.finfo(float).eps
    for iteration in range(1, max_iterations + 1):
        p_values = horner(descending, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        step = p_values / diff.prod(axis=1)
        largest = float(np.max(np.abs(step)))
        if largest <= tol:
            return z - step, iteration, None
        if not np.isfinite(largest):
            return z - step, iteration, f"overflowed at iteration {iteration}"
        if (iteration >= 2 * n and iteration & (iteration - 1) == 0
                and np.all(np.abs(p_values) <= rounding * horner(magnitudes, np.abs(z)).real)):
            return z, iteration, f"stalled at the rounding level after {iteration} iterations"
        z = z - step
    return z, max_iterations, f"did not converge in {max_iterations} iterations"


def find_roots(p: Polynomial, max_iterations: int = 2000) -> RootSet:
    """All roots of p by Durand-Kerner simultaneous iteration.

    Initial guesses sit on a circle of radius (1 + max|a_k|) * 0.9 (inside
    the Cauchy disk) at angles 2*pi*k/degree + 0.4 to break symmetry.
    Convergence when the max step is <= 1e-13 * (1 + max|a_k|), with no
    restart. NoConvergenceError names the cause when the iteration
    overflows, stalls at the rounding level (checked at iterations
    2^j >= 2*degree) or reaches max_iterations, or when a converged residual
    exceeds 1e-8 * prod(1 + |z_i|). Deterministic for fixed input.
    """
    n = p.degree
    descending = np.asarray(p.descending())
    scale = 1.0 + max(abs(c) for c in p.lower)
    tol = 1e-13 * scale

    if n == 1:
        root = -p.lower[0]
        residual = abs(p.evaluate(root))
        return RootSet((complex(root),), (residual,), abs(root), 0)

    angles = 2 * np.pi * np.arange(n) / n + 0.4
    z = 0.9 * scale * np.exp(1j * angles)

    with np.errstate(over="ignore", invalid="ignore"):  # the pass reports an overflow
        z, iterations, failure = _durand_kerner_pass(descending, z, tol, max_iterations)

    order = sorted(range(n), key=lambda i: (-abs(z[i]), np.angle(z[i])))
    roots = tuple(complex(z[i]) for i in order)
    residuals = tuple(abs(p.evaluate(r)) for r in roots)

    guard = 1e-8 * float(np.prod([1.0 + abs(r) for r in roots]))
    if failure is None and max(residuals) > guard:
        failure = f"converged in {iterations} iterations but a residual exceeds the guard"
    if failure is not None:
        raise NoConvergenceError(
            f"root iteration {failure} (max residual {max(residuals):.3e}, "
            f"guard {guard:.3e})",
            best_roots=roots,
            residuals=residuals,
        )
    return RootSet(roots, residuals, max(abs(r) for r in roots), iterations)


def validate_bound(p: Polynomial, value: float, roots: RootSet | None = None) -> Verdict:
    """Check max root modulus <= value (+1e-9 slack)."""
    rootset = roots if roots is not None else find_roots(p)
    if rootset.max_modulus <= value + _VALIDATION_SLACK:
        return Verdict("holds", value - rootset.max_modulus)
    return Verdict("violated", rootset.max_modulus - value)


def validate_rectangle(p: Polynomial, rect, roots: RootSet | None = None) -> Verdict:
    """Check every root lies in rect (each edge expanded by 1e-9).

    rect needs re_lo/re_hi/im_lo/im_hi attributes.
    """
    rootset = roots if roots is not None else find_roots(p)
    worst = float("inf")
    for root in rootset.roots:
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
