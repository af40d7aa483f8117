"""Monic polynomial model and coefficient parsing.

A degree-n polynomial is stored by its lower coefficients (a_1, ..., a_n)
against the convention

    p(z) = z**n + a_n * z**(n-1) + ... + a_2 * z + a_1,

i.e. a_k multiplies z**(k-1) and the leading coefficient is always 1.
Boundary input is degree-descending (human-friendly) and converted here, at
a single point, to the ascending a_k indexing every formula uses.

Coefficient literals accept decimals and exact fractions: ``a``, ``bi``,
``a+bi``, ``a-bi`` where each part is a decimal number in ASCII digits,
optionally with an exponent (``1e-3``, ``-1.5E+2``), or a fraction ``p/q``.
Each part rounds once, from its exact value, to the nearest float, so tests
like "a_1 is literally zero" in odd_reduce are algebraic, not numerical.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass, field

from .errors import (
    DegreeTooSmallError,
    PolynomialParseError,
    ZeroLeadingCoefficientError,
)

__all__ = [
    "Polynomial",
    "make_monic",
    "odd_reduce",
    "parse_complex",
    "parse_polynomial",
]


def _modulus(c: complex) -> float:
    """abs(c), or inf where abs raises: a modulus past the float range."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial; ``lower[k-1]`` is a_k, the coefficient of z**(k-1), and
    ``moduli[k-1]`` is |a_k|, or inf past the float range (as for 1.5e308+1.5e308i).
    ``degree``, len(lower), is stored once; like moduli it is not in repr, == or hash."""

    lower: tuple[complex, ...]
    moduli: tuple[float, ...] = field(init=False, repr=False, compare=False)
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # tuples from lists: one grown from an iterator by resizing fragments the heap
        coeffs = tuple([*map(complex, self.lower)])
        if len(coeffs) < 1:
            raise DegreeTooSmallError("a polynomial needs degree at least 1")
        if not all(map(cmath.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        try:
            moduli = tuple([*map(abs, coeffs)])
        except OverflowError:  # past the float range, as 1.5e308+1.5e308i's modulus is
            moduli = tuple([*map(_modulus, coeffs)])
        object.__setattr__(self, "lower", coeffs)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "degree", len(coeffs))
        object.__setattr__(self, "_descending", (1.0 + 0j, *reversed(coeffs)))

    def coefficient(self, k: int) -> complex:
        """a_k for k = 1..degree."""
        if not 1 <= k <= self.degree:
            raise IndexError(f"coefficient index {k} outside 1..{self.degree}")
        return self.lower[k - 1]

    def descending(self) -> tuple[complex, ...]:
        """(1, a_n, ..., a_1): coefficients from z**n down to the constant, built once."""
        return self._descending


def make_monic(coeffs_desc) -> Polynomial:
    """Build a Polynomial from degree-descending coefficients.

    The first entry is the leading coefficient; everything is divided
    through by it.
    """
    coeffs = list(map(complex, coeffs_desc))
    if len(coeffs) < 2:
        raise DegreeTooSmallError("need at least a degree-1 polynomial (two coefficients)")
    leading = coeffs[0]
    if leading == 0:
        raise ZeroLeadingCoefficientError("leading coefficient is zero")
    return Polynomial(tuple([c / leading for c in reversed(coeffs[1:])]))


def odd_reduce(p: Polynomial) -> tuple[Polynomial, bool]:
    """Factor out the root at the origin for odd degree with a_1 = 0.

    When the degree is odd and the constant term is exactly zero,
    p(z) = z * p1(z) with p1 of even degree; returns (p1, True).
    Otherwise returns (p, False). The a_1 test is exact: fraction input
    parses exactly, so this is an algebraic reduction, not a tolerance.
    """
    if p.degree % 2 == 1 and p.degree >= 3 and p.coefficient(1) == 0:
        return Polynomial(p.lower[1:]), True
    return p, False


# at most 4 exponent digits, as grammar: 10**4 is past float range, so a longer one "cannot parse"
_DECIMAL = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?0*\d{1,4})?"
_NUMBER = rf"(?:\d+/\d+|{_DECIMAL})"
# a, bi or a+bi in one match: patterns tried in turn backtrack through the digits of each miss
_COEFFICIENT_RE = re.compile(rf"([+-]?)({_NUMBER})(?:([+-])({_NUMBER})i|(i?))", re.ASCII)
# a list of them in decimals, between optional ASCII whitespace; groups would slow its scan by half
_DECIMALS = rf"\s*[+-]?{_DECIMAL}(?:[+-]{_DECIMAL}i|i?)\s*"
_DECIMAL_LIST_RE = re.compile(rf"{_DECIMALS}(?:,{_DECIMALS})+", re.ASCII)


def _signed(sign: str, magnitude: str, token: str) -> float:
    numerator, _, denominator = magnitude.partition("/")
    try:
        if 0 < sys.get_int_max_str_digits() < len(magnitude):  # float() has no digit limit:
            list(map(int, re.findall(r"\d+", magnitude)))  # hold each digit run to int()'s
        value = int(numerator) / int(denominator) if denominator else float(magnitude)
        if value > sys.float_info.max:  # both round correctly, but float(str) overflows to inf
            raise OverflowError
    except ZeroDivisionError:
        raise PolynomialParseError(f"zero denominator in {magnitude!r}") from None
    except OverflowError:
        raise PolynomialParseError(f"coefficient {token!r} overflows a float") from None
    except ValueError:  # Python's limit on the digits of an int (4300 by default)
        raise PolynomialParseError(f"too many digits in {token!r}") from None
    return -value if sign == "-" else value


def parse_complex(token: str) -> complex:
    """Parse one coefficient literal: ``a``, ``bi``, ``a+bi``, or ``a-bi``.

    Each part is a decimal number with an optional exponent of at most four
    digits (``2.5e-3``) or an exact fraction ``p/q``; it is rounded to a float
    once, from its exact value. A part beyond float range raises
    PolynomialParseError.
    """
    match = _COEFFICIENT_RE.fullmatch(token.strip())
    if match is None:
        raise PolynomialParseError(f"cannot parse coefficient {token!r}")
    sign, first, op, second, imaginary = match.groups()
    value = _signed(sign, first, token)
    if op:
        return complex(value, _signed(op, second, token))
    return complex(0.0, value) if imaginary else complex(value, 0.0)


def parse_polynomial(text: str) -> Polynomial:
    """Parse a comma-separated degree-descending coefficient list. A zero leading coefficient,
    or a quotient by it beyond float range, is an error. A decimal list shorter than the int
    digit limit takes one scan; other text, or a part past float range, goes token by token."""
    coeffs, limit = None, sys.get_int_max_str_digits()
    if not 0 < limit < len(text) and _DECIMAL_LIST_RE.fullmatch(text):
        coeffs = list(map(complex, text.replace("i", "j").split(",")))  # rounds as float() does
    if coeffs is None or not all(map(cmath.isfinite, coeffs)):
        tokens = [piece.strip() for piece in text.split(",")]
        if any(t == "" for t in tokens):
            # an empty slot is almost certainly a typo; dropping it would
            # silently change the degree
            raise PolynomialParseError("empty coefficient slot in input")
        if len(tokens) < 2:
            raise PolynomialParseError(
                "need at least two comma-separated coefficients (degree >= 1)"
            )
        coeffs = [parse_complex(t) for t in tokens]
    try:
        return make_monic(coeffs)
    except ZeroLeadingCoefficientError as exc:
        raise PolynomialParseError(str(exc)) from None
    except ValueError:  # Polynomial refuses a quotient that left the float range
        raise PolynomialParseError(
            f"dividing by the leading coefficient {text.split(',')[0].strip()!r} overflows a float"
        ) from None
