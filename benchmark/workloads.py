"""Seeded inputs for the three benchmark workloads, and the operation each
input drives.

Inputs reach the library the way a user hands them over: as coefficient
text in the ``parse_polynomial`` grammar, written as fixed-point decimals or
exact fractions because that grammar has no exponent form, or, for the
1e+-200 family that no short text can express, as a coefficient list for
``make_monic``. Each ``Op`` also carries the exact coefficient values (and
for the hard families the root set they were built from), which only the
output checker reads.

A workload is an endless sequence of blocks. Each block holds a fixed mix of
input classes in seeded order, and a run takes a whole number of blocks, so
every run sees the classes in the same proportion whatever its length.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator

import numpy as np
import zerobounds
import zerobounds.report
from zerobounds import get_fixture
from zerobounds.report import ALL_METHODS

LADDER_DEGREES = (6, 16, 32, 64, 128)
TABLE_DEGREES = tuple(range(4, 17))
# 27 generic degrees evenly spread over 16..128: with the 8 hard inputs a
# block holds 35 operations, so p90 (3.5 operations from the top of each
# block) falls in the middle of the four ~150 ms failure classes, between
# Wilkinson-20 above them and the generic inputs below.
ROOTS_GENERIC_DEGREES = tuple(round(16 + 112 * k / 26) for k in range(27))

FIXTURE_NAMES = ("table1", "table2", "table3", "table4", "table5", "h1", "h2", "h3")
# Relative coefficient error the hard-family tolerances allow for: rounding
# at parse time (half an ulp) plus the oracle's own backward error, with a
# margin of about 36x, which is a factor 2 at a 5-fold root.
COEFFICIENT_EPS = 4e-15


@dataclass(frozen=True)
class HardReference:
    """Root set a hard input was built from: distinct roots and multiplicities."""

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class Op:
    """One operation: a polynomial taken from its input to a rendered result.

    kind is "compare" (run_compare + format_compare_json), "fixture"
    (run_fixture + format_fixture_json) or "roots" (find_roots).
    values holds the degree-descending coefficients the input denotes.
    known_defect names how the library mishandles this input at the
    commit the benchmark was defined on; the checker still scores it.
    """

    kind: str
    label: str
    values: tuple[complex, ...]
    text: str | None = None
    monic_input: tuple[complex, ...] | None = None
    methods: tuple[str, ...] | None = None
    hard: HardReference | None = None
    known_defect: str | None = None


def execute(op: Op):
    """Run one operation through the library's public functions; returns the
    rendered JSON (compare, fixture) or the max root modulus (roots).

    Every call goes through a module attribute, so that the traced run's
    wrappers see it.
    """
    if op.kind == "fixture":
        report = zerobounds.report.run_fixture(op.label)
        return zerobounds.report.format_fixture_json([report])
    if op.monic_input is not None:
        p = zerobounds.make_monic(op.monic_input)
    else:
        p = zerobounds.parse_polynomial(op.text)
    if op.kind == "roots":
        return zerobounds.find_roots(p).max_modulus
    report = zerobounds.run_compare(p, zerobounds.CompareOptions(methods=op.methods))
    return zerobounds.report.format_compare_json(report)


def attempt(op: Op, raised: Counter):
    """execute(op), or None when it raised; the exception type is counted."""
    try:
        return execute(op)
    except Exception as exc:  # noqa: BLE001 - every failure is scored, the loop goes on
        raised[type(exc).__name__] += 1
        return None


# ---------------------------------------------------------------------------
# coefficient text


def _fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _complex_text(re: str, im: str | None) -> str:
    if im is None:
        return re
    sign = "-" if im.startswith("-") else "+"
    return f"{re}{sign}{im.lstrip('+-')}i"


def parse_coefficient_text(text: str) -> tuple[complex, ...]:
    """Exact values of a comma-separated coefficient list.

    Independent of the library's parser: it only reads the forms this module
    writes and the bundled fixtures use (``a``, ``bi``, ``a+bi``, ``a-bi``
    with decimal or ``p/q`` parts).
    """
    values = []
    for token in (t.strip() for t in text.split(",")):
        if not token.endswith("i"):
            values.append(complex(float(Fraction(token)), 0.0))
            continue
        body = token[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        if split <= 0:
            values.append(complex(0.0, float(Fraction(body))))
        else:
            re, im = body[:split], body[split:]
            values.append(complex(float(Fraction(re)), float(Fraction(im))))
    return tuple(values)


# ---------------------------------------------------------------------------
# generic inputs


def _gaussian_compare(rng: np.random.Generator, degree: int, label: str) -> Op:
    """Monic polynomial with complex Gaussian lower coefficients."""
    tokens = ["1"]
    for re, im in zip(rng.standard_normal(degree), rng.standard_normal(degree)):
        tokens.append(_complex_text(f"{re:.12f}", f"{im:+.12f}"))
    text = ", ".join(tokens)
    return Op("compare", label, parse_coefficient_text(text), text=text)


def _fraction_coefficient(rng: np.random.Generator, complex_part: bool) -> str:
    def part() -> str:
        sign = "-" if rng.integers(2) else ""
        return f"{sign}{rng.integers(1, 21)}/{rng.integers(1, 10)}"

    return _complex_text(part(), part() if complex_part else None)


def _table_compare(rng: np.random.Generator, degree: int, methods: tuple[str, ...]) -> Op:
    """Small polynomial with exact-fraction coefficients and a non-unit leading
    coefficient; odd degrees d = 1 mod 4 get a zero constant term, so the
    partition methods run on the even quotient."""
    complex_part = bool(rng.integers(2))
    tokens = [_fraction_coefficient(rng, complex_part) for _ in range(degree + 1)]
    if degree % 4 == 1:
        tokens[-1] = "0"
    text = ", ".join(tokens)
    return Op("compare", f"deg{degree}", parse_coefficient_text(text), text=text, methods=methods)


def _generic_roots(rng: np.random.Generator, degree: int) -> Op:
    op = _gaussian_compare(rng, degree, f"deg{degree}")
    return Op("roots", "generic", op.values, text=op.text)


# ---------------------------------------------------------------------------
# hard families, built from known roots


def _poly_from_roots(roots: list[Fraction]) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = coeffs + [Fraction(0)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] -= r * c
        coeffs = nxt
    return coeffs


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_op(label: str, coeffs: list[Fraction], roots: dict[complex, int],
              known_defect: str | None) -> Op:
    text = ", ".join(_fraction(c) for c in coeffs)
    hard = HardReference(tuple(roots), tuple(roots.values()))
    return Op("roots", label, parse_coefficient_text(text), text=text, hard=hard,
              known_defect=known_defect)


def hard_family() -> list[Op]:
    """The eight inputs with known roots; the same in every block and seed."""
    half, two = Fraction(1, 2), Fraction(2)
    # prod_k (z - 1 - d w^k) over the fifth roots of unity w is exactly
    # (z - 1)^5 - d^5: a cluster of five roots of radius d = 1e-8 around 1.
    # Coefficient rounding already moves a 5-fold root by far more than 1e-8,
    # so the tolerance treats the cluster as one root of multiplicity 5.
    fivefold = _poly_from_roots([Fraction(1)] * 5)
    fivefold[-1] -= Fraction(1, 10**8) ** 5
    cluster = _poly_mul(fivefold, _poly_from_roots([Fraction(3, 10), Fraction(-1, 2)]))
    ops = [
        _exact_op("repeated4", _poly_from_roots([Fraction(1)] * 4), {1: 4},
                  "NoConvergenceError on (z-1)^4"),
        _exact_op("repeated3_3", _poly_from_roots([-half] * 3 + [two] * 3), {-0.5: 3, 2: 3},
                  "NoConvergenceError on (z+1/2)^3 (z-2)^3"),
        _exact_op("cluster", cluster, {1: 5, 0.3: 1, -0.5: 1},
                  "NoConvergenceError on a 1e-8 cluster of five roots"),
        _exact_op("zero_roots",
                  _poly_from_roots([Fraction(0)] * 3 + [Fraction(3, 2), Fraction(-7, 10)]),
                  {0: 3, 1.5: 1, -0.7: 1}, None),
        _exact_op("wilkinson10", _poly_from_roots([Fraction(k) for k in range(1, 11)]),
                  {k: 1 for k in range(1, 11)}, None),
        _exact_op("wilkinson20", _poly_from_roots([Fraction(k) for k in range(1, 21)]),
                  {k: 1 for k in range(1, 21)}, "NoConvergenceError (overflow) on Wilkinson-20"),
    ]
    # z^2 + b z + b with b real and b^2 < 4b has |z| = sqrt(b) for both roots;
    # with b > 4 the roots are real, about -b and -1.
    tiny_roots = {1e-100j: 1, -1e-100j: 1}
    huge_roots = {-1e200: 1, -1.0: 1}
    for label, leading, roots, defect in (
        ("scaled_1e-200", 1e200, tiny_roots, "max |z| about 5e-14 where the truth is 1e-100"),
        ("scaled_1e+200", 1e-200, huge_roots, "NoConvergenceError (overflow) at 1e+200"),
    ):
        monic_input = (complex(leading), 1 + 0j, 1 + 0j)
        values = tuple(c / leading for c in monic_input)
        hard = HardReference(tuple(roots), tuple(roots.values()))
        ops.append(Op("roots", label, values, monic_input=monic_input, hard=hard,
                      known_defect=defect))
    return ops


# ---------------------------------------------------------------------------
# workloads


def blocks(workload: str, seed: int, stream: int = 0) -> Iterator[list[Op]]:
    """Endless seeded blocks of operations for one workload.

    stream selects an independent sequence for the same seed; the timed run
    uses stream 0 and warm-up uses stream 1, so warm-up never replays a
    timed input.
    """
    rng = np.random.default_rng([seed, stream])
    if workload == "compare_ladder":
        for _ in count():
            block = [_gaussian_compare(rng, d, f"deg{d}") for d in LADDER_DEGREES]
            yield [block[i] for i in rng.permutation(len(block))]
    elif workload == "tables_small":
        methods = tuple(m for m in ALL_METHODS if m != "radius_sweep")
        for _ in count():
            block = [Op("fixture", name, fixture_values(name)) for name in FIXTURE_NAMES]
            block += [_table_compare(rng, d, methods) for d in TABLE_DEGREES]
            yield [block[i] for i in rng.permutation(len(block))]
    elif workload == "roots_hard":
        hard = hard_family()
        for _ in count():
            block = hard + [_generic_roots(rng, d) for d in ROOTS_GENERIC_DEGREES]
            yield [block[i] for i in rng.permutation(len(block))]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def fixture_values(name: str) -> tuple[complex, ...]:
    """Exact coefficient values of a bundled fixture, read from its text."""
    return parse_coefficient_text(get_fixture(name).coefficients)


def hard_tolerance(values: tuple[complex, ...], hard: HardReference) -> tuple[float, float]:
    """Interval that must contain the computed max root modulus.

    A root r of multiplicity m moves by about
    (eps * sum_k |c_k| |r|^k / prod_{s != r} |r - s|^{m_s})^(1/m)
    when the coefficients c_k move by a relative eps. Logarithms keep the
    1e+-200 inputs from overflowing.
    """
    log_coeffs = [(k, math.log(abs(c))) for k, c in enumerate(reversed(values)) if c]
    lo = hi = 0.0
    for r, m in zip(hard.roots, hard.multiplicities):
        modulus = abs(r)
        if modulus == 0:
            terms = [lc for k, lc in log_coeffs if k == 0]
        else:
            terms = [lc + k * math.log(modulus) for k, lc in log_coeffs]
        if not terms:
            shift = 0.0
        else:
            top = max(terms)
            log_size = top + math.log(sum(math.exp(t - top) for t in terms))
            log_gap = sum(ms * math.log(abs(r - s))
                          for s, ms in zip(hard.roots, hard.multiplicities) if s != r)
            shift = math.exp((math.log(COEFFICIENT_EPS) + log_size - log_gap) / m)
        lo = max(lo, modulus - shift)
        hi = max(hi, modulus + shift)
    return lo, hi
