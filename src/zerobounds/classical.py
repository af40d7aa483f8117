"""Nine classical zero-modulus bounds computed from coefficient data.

Each bound maps a monic polynomial p(z) = z^n + a_n z^{n-1} + ... + a_1 to a
radius R such that every zero satisfies |z| <= R. Each reads the moduli |a_k|
from p.moduli and halves its terms before a sum or math.hypot sees them, so R
is finite wherever its true value is representable. Two of the formulas
(linden, kittaneh_disk) ship in two variants because the displayed form and
the form that reproduces the published comparison tables differ; the default
is the displayed form and fixtures select variants explicitly.

Note: the displayed kittaneh_disk variant is retained exactly as printed even
though it can dip below the true max root modulus on some inputs (the
plus_one variant is the safe one), and so are fujii_kubo and abdurakhmanov,
which can at degree 1-3; see the validity tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegreeTooSmallError
from .polynomial import Polynomial

__all__ = [
    "LINDEN_VARIANTS",
    "KITTANEH_VARIANTS",
    "BoundResult",
    "cauchy",
    "carmichael_mason",
    "montel",
    "fujii_kubo",
    "abdurakhmanov",
    "linden",
    "kittaneh_disk",
    "abu_omar_kittaneh",
    "al_dolat",
]

# formula variants; the first of each is the displayed form and the default
LINDEN_VARIANTS = ("printed", "table")
KITTANEH_VARIANTS = ("printed", "plus_one")


class BoundResult(NamedTuple):
    """A computed zero bound with its provenance knobs.

    applicability: "valid" for unconditional bounds, "conditional" when the
    formula's guarantee depends on unverified hypotheses, "refused" when the
    inputs fail a hard premise (value may still be reported for context).
    """

    method: str
    value: float
    variant: str | None = None
    applicability: str = "valid"
    notes: tuple[str, ...] = ()


def coupled(x: float, y: float, *off: float) -> float:
    """(x + y + sqrt((x - y)^2 + sum off^2)) / 2, the coupling root that ends every
    partitioned bound; hypot scales the squares, and each term is halved before
    hypot or the sum sees it (exactly, for normal floats), so it is finite when
    representable."""
    return halved_coupled(x / 2, y / 2, *[o / 2 for o in off])


def halved_coupled(x: float, y: float, *off: float) -> float:
    """coupled(2x, 2y, *2off), for a caller whose off term is a sum that may
    overflow before it is halved."""
    return x + y + math.hypot(x - y, *off)


def cauchy(p: Polynomial) -> BoundResult:
    """1 + max|a_k|."""
    return BoundResult("cauchy", 1.0 + max(p.moduli))


def carmichael_mason(p: Polynomial) -> BoundResult:
    """sqrt(1 + sum |a_k|^2)."""
    return BoundResult("carmichael_mason", math.hypot(1.0, *p.moduli))


def montel(p: Polynomial) -> BoundResult:
    """max(1, sum |a_k|)."""
    return BoundResult("montel", max(1.0, sum(p.moduli)))


def fujii_kubo(p: Polynomial) -> BoundResult:
    """cos(pi/(n+1)) + (|a_n| + sum_{k=1}^{n} |a_k|^2) / 2, the form the published
    tables use. It can undershoot at low degree: 0.375 on z + 1/2, whose root has
    modulus 0.5 (a checked erratum in the acceptance tests)."""
    n = p.degree
    mods = p.moduli
    value = math.cos(math.pi / (n + 1)) + (mods[-1] / 2 + sum(m * (m / 2) for m in mods))
    return BoundResult("fujii_kubo", value)


def abdurakhmanov(p: Polynomial) -> BoundResult:
    """(|a_n| + cos(pi/n) + sqrt((|a_n| - cos(pi/n))^2 + (1 + S)^2)) / 2,
    where S = sum_{k=1}^{n-1} |a_k|^2, the form the published tables use. It can
    undershoot at low degree: 0.625 on z^2 + 1/2, whose roots have modulus
    0.7071067812 (a checked erratum in the acceptance tests)."""
    n = p.degree
    if n < 2:
        raise DegreeTooSmallError("abdurakhmanov needs degree >= 2")
    mods = p.moduli
    half_off = 0.5 + sum(m * (m / 2) for m in mods[:-1])  # (1 + S)/2: 1 + S may overflow
    value = halved_coupled(mods[-1] / 2, math.cos(math.pi / n) / 2, half_off)
    return BoundResult("abdurakhmanov", value)


def linden(p: Polynomial, variant: str = "printed") -> BoundResult:
    """|a_n|/n + sqrt(((n-1)/n) (n - 1 + sum|a_k|^2 - T)).

    printed: T = |a_n|^2/n. table: T = |a_n|/n (the substitution that
    reproduces the published comparison tables). The bracket is a sum of squares:
    (n-1) + sum_{k<n} |a_k|^2 + ((n-1)/n) |a_n|^2 for printed and
    (n-1-1/(4n^2)) + sum_{k<n} |a_k|^2 + (|a_n| - 1/(2n))^2 for table.
    """
    if variant not in LINDEN_VARIANTS:
        raise ValueError(f"unknown linden variant {variant!r}")
    n = p.degree
    if n < 2:
        raise DegreeTooSmallError("linden needs degree >= 2")
    mods = p.moduli
    a_n = mods[-1]
    ratio = math.sqrt((n - 1) / n)
    if variant == "printed":
        first, last = math.sqrt(n - 1), ratio * a_n
    else:
        first, last = math.sqrt(n - 1 - 1 / (4 * n * n)), a_n - 1 / (2 * n)
    # halved: the root may overflow where ratio times it does not
    half_root = math.hypot(first / 2, *[m / 2 for m in mods[:-1]], last / 2)
    return BoundResult("linden", a_n / n + 2 * (ratio * half_root), variant=variant)


def kittaneh_disk(p: Polynomial, variant: str = "printed") -> BoundResult:
    """(|a_n| + cos(pi/n) + sqrt((|a_n| - cos(pi/n))^2 + E + S)) / 2,
    with S = sum_{j=1}^{n-2} |a_j|^2.

    printed: E = (|a_{n-1}| - 1)^2. plus_one: E = (1 + |a_{n-1}|)^2 (the form
    the published tables use; also the only variant that is a valid bound in
    general).
    """
    if variant not in KITTANEH_VARIANTS:
        raise ValueError(f"unknown kittaneh_disk variant {variant!r}")
    n = p.degree
    if n < 3:
        raise DegreeTooSmallError("kittaneh_disk needs degree >= 3")
    mods = p.moduli
    edge = mods[-2] - 1.0 if variant == "printed" else mods[-2] + 1.0
    value = coupled(mods[-1], math.cos(math.pi / n), edge, *mods[: n - 2])
    return BoundResult("kittaneh_disk", value, variant=variant)


def abu_omar_kittaneh(p: Polynomial) -> BoundResult:
    """(m + cos(pi/(n+1)) + sqrt((m - cos(pi/(n+1)))^2 + 4 beta)) / 2, with
    m = (|a_n| + alpha)/2, alpha = sqrt(sum_{k<=n} |a_k|^2),
    beta = sqrt(sum_{k<=n-1} |a_k|^2)."""
    n = p.degree
    if n < 2:
        raise DegreeTooSmallError("abu_omar_kittaneh needs degree >= 2")
    mods = p.moduli
    mid = mods[-1] / 2 + math.hypot(*[m / 2 for m in mods])
    quarter_beta = math.hypot(*[m / 4 for m in mods[:-1]])  # finite where beta may not be
    value = coupled(mid, math.cos(math.pi / (n + 1)), 4.0 * math.sqrt(quarter_beta))
    return BoundResult("abu_omar_kittaneh", value)


def al_dolat(p: Polynomial) -> BoundResult:
    """min over t in [0,1] of
    (|a_n| + 2 cos(pi/n) + sqrt(t^2 |a_n|^2 + S) + sqrt(1 + (1-t)^2 |a_n|^2)) / 2,
    S = sum_{k<=n-1} |a_k|^2.

    The two square roots are the distances from (t |a_n|, 0) to (0, sqrt(S))
    and to (|a_n|, -1), so their sum is least where the straight line between
    those points crosses the axis: at t* = sqrt(S) / (1 + sqrt(S)), with sum
    hypot(|a_n|, sqrt(S) + 1). t* is reported in notes.
    """
    n = p.degree
    if n < 2:
        raise DegreeTooSmallError("al_dolat needs degree >= 2")
    mods = p.moduli
    a_n = mods[-1]
    half_head = math.hypot(*[m / 2 for m in mods[:-1]])
    value = a_n / 2 + math.cos(math.pi / n) + math.hypot(a_n / 2, half_head + 0.5)
    t_star = half_head / (0.5 + half_head)
    return BoundResult("al_dolat", value, notes=(f"t_star={t_star:.6f}",))
