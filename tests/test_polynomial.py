"""Parsing, normalization, and evaluation of monic polynomials."""

import cmath
import math
import re
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerobounds.polynomial
from zerobounds import (
    DegreeTooSmallError,
    Polynomial,
    PolynomialParseError,
    ZeroLeadingCoefficientError,
    make_monic,
    odd_reduce,
    parse_complex,
    parse_polynomial,
)


def test_parse_plain_real_tokens():
    p = parse_polynomial("1, -6, 11, -6")
    assert p.degree == 3
    assert p.descending() == (1, -6 + 0j, 11 + 0j, -6 + 0j)


def test_parse_fractions_decimals_and_imaginary_tokens():
    p = parse_polynomial("1, -1/3, .5, 2i, 1/4+1/4i, 3-2i")
    assert p.degree == 5
    want = (
        complex(-Fraction(1, 3)),
        0.5 + 0j,
        2j,
        complex(0.25, 0.25),
        complex(3, -2),
    )
    assert np.allclose(p.descending()[1:], want, atol=0, rtol=0)


def test_parse_normalizes_non_monic_input():
    p = parse_polynomial("2, 4, -6")
    assert p.descending() == (1, 2 + 0j, -3 + 0j)


@pytest.mark.parametrize(
    "text",
    ["1, bogus", "1, 1+j", "", "1", "1, 2,, 3", "1, 1/0", "1, i", "1, 1+2", "1, 1e", "1, 1e2.5",
     # digits outside ASCII, which a Unicode \d matches: "1, ３" parsed as 3, "1, ٣/٤" as 0.75
     "1, ３", "1, ٣/٤", "1, 1.５", "1, 2e٣", "1, 1+２i"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(PolynomialParseError):
        parse_polynomial(text)


def test_parse_error_names_the_offending_token():
    with pytest.raises(PolynomialParseError, match="bogus"):
        parse_polynomial("1, 2, bogus")
    with pytest.raises(PolynomialParseError, match="1/0"):
        parse_polynomial("1, 1/0")


@pytest.mark.parametrize("token, want", [
    ("1e200", complex(1e200, 0.0)),
    ("2.5e-3", complex(float(Fraction(5, 2000)), 0.0)),
    ("-1.5E+2", complex(-150.0, 0.0)),
    ("1e-3-2e-4i", complex(float(Fraction(1, 1000)), -float(Fraction(2, 10000)))),
    ("3.e1i", complex(0.0, 30.0)),
    (".5e1+1/3i", complex(5.0, float(Fraction(1, 3)))),
    ("1e-400", 0j),
    ("1E-0009999", 0j),
])
def test_parse_exponent_notation(token, want):
    assert parse_complex(token) == want
    assert parse_polynomial(f"1, {token}").descending()[1] == want


@pytest.mark.parametrize("text", ["1, 1e400", "1, 2-1e400i", "1, -1E+309", "1, 1e99999"])
def test_parse_rejects_magnitudes_beyond_float_range(text):
    token = text.split(", ")[1]
    with pytest.raises(PolynomialParseError, match=re.escape(repr(token))):
        parse_polynomial(text)


def test_parse_rejects_more_digits_than_python_converts():
    with pytest.raises(PolynomialParseError, match="too many digits"):
        parse_polynomial("1, 0." + "1" * 5000)


def test_parse_refuses_huge_exponents_before_exact_arithmetic(monkeypatch):
    # the grammar refuses these before any part is converted: exact arithmetic
    # would build 10**exponent, a 1e+20-digit integer here
    def refuse(sign, magnitude, token):
        raise AssertionError(f"_signed({magnitude!r}) called")

    monkeypatch.setattr(zerobounds.polynomial, "_signed", refuse)
    for token in ("1e" + "9" * 20, "1e-" + "9" * 20, "-2.5E+" + "1" * 12 + "i"):
        with pytest.raises(PolynomialParseError, match="cannot parse"):
            parse_complex(token)


_INT_DIGITS = sys.get_int_max_str_digits() or 4300


def _fraction_reference(sign, part, token):
    """One part as exact arithmetic rounds it (float(Fraction(part))), or the
    message of the refusal that conversion maps to."""
    try:
        value = float(Fraction(part))
    except ZeroDivisionError:
        return f"zero denominator in {part!r}"
    except OverflowError:
        return f"coefficient {token!r} overflows a float"
    except ValueError:  # a digit run past Python's limit on the digits of an int
        return f"too many digits in {token!r}"
    return -value if sign == "-" else value


def _exact_texts(fr):
    """A dyadic rational exactly, as a decimal with exponent and as p/q."""
    k = fr.denominator.bit_length() - 1
    return [f"{fr.numerator * 5**k}e-{k}", f"{fr.numerator}/{fr.denominator}"]


@st.composite
def _parts(draw):
    """Grammar-valid parts: decimals, with exponents near the ends of the float
    range among others; p/q; floats (subnormals, -0's magnitude and the largest
    float included) and the exact midpoints to their upper neighbours, where
    rounding ties, nudged either way; and digit runs of exactly Python's
    int-digit limit and of one more, in every position."""
    kind = draw(st.sampled_from(["decimal", "fraction", "float", "long"]))
    digits = st.text("0123456789", min_size=1, max_size=20)
    if kind == "decimal":
        whole, frac = draw(digits), draw(digits)
        body = draw(st.sampled_from([whole, f"{whole}.", f"{whole}.{frac}", f".{frac}"]))
        if not draw(st.booleans()):
            return body
        power = draw(st.one_of(st.integers(0, 9999), st.integers(290, 340)))
        mark = draw(st.sampled_from(["e", "E", "e+", "E+", "e-", "E-"]))
        return f"{body}{mark}{'0' * draw(st.integers(0, 3))}{power}"
    if kind == "fraction":
        return f"{draw(digits)}/{draw(st.one_of(digits, st.sampled_from(['0', '000'])))}"
    if kind == "float":
        x = draw(st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                           st.floats(0.0, 2.2250738585072014e-308),
                           st.floats(1e300, sys.float_info.max)))
        # the largest float's upper neighbour is 2**1024, where the float range ends
        upper = Fraction(2**1024 if x == sys.float_info.max else math.nextafter(x, math.inf))
        mid = (Fraction(x) + upper) / 2
        nudge = Fraction(1, 2 ** (mid.denominator.bit_length() + 60))
        near = draw(st.sampled_from([Fraction(x), mid, mid - nudge, mid + nudge]))
        return draw(st.sampled_from([repr(x), *_exact_texts(near)]))
    size = draw(st.sampled_from([_INT_DIGITS, _INT_DIGITS + 1]))
    run = draw(st.sampled_from("0139")) * size
    exponent = "0" * (size - 1) + draw(st.sampled_from("0139"))  # the grammar's leading zeros
    return draw(st.sampled_from([
        run, f"{run}.5", f"1.{run}", f"1e-{exponent}", f"{run}/7", f"7/{run}"]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_parts(), st.sampled_from(["", "+", "-"]), st.booleans())
def test_parse_rounds_each_part_as_exact_arithmetic_does(part, sign, imaginary):
    token = f"0{sign or '+'}{part}i" if imaginary else f"{sign}{part}"
    want = _fraction_reference(sign, part, token)
    if isinstance(want, str):
        with pytest.raises(PolynomialParseError) as refusal:
            parse_complex(token)
        assert str(refusal.value) == want
    else:
        got = parse_complex(token)
        pair = (0.0, want) if imaginary else (want, 0.0)
        assert struct.pack("<2d", got.real, got.imag) == struct.pack("<2d", *pair)


def _bits(values):
    return struct.pack(f"<{2 * len(values)}d", *(x for c in values for x in (c.real, c.imag)))


@pytest.mark.parametrize("text, lower", [
    ("-1, 0, 2", (complex(-2.0, -0.0), complex(-0.0, -0.0))),  # 0 / -1 is -0 in both parts
    ("1, 0-0i", (complex(0.0, -0.0),)),
    ("1, -2i", (complex(0.0, -2.0),)),
    ("1, -0, -0i", (complex(0.0, -0.0), complex(0.0, 0.0))),  # -0 + 0 * 0 is +0
])
def test_parse_keeps_the_signed_zeros_of_complex_division(text, lower):
    assert _bits(parse_polynomial(text).lower) == _bits(lower)


_BAD_TOKENS = ("1+2", "i", "+i", "1+i", "1e12345", "1e-00012345", "1.2.3", "--1", "1 2", "1j",
               "2ii", "1/2.5", "1/2i3", "0x10", "1_000", "inf", "nan", ".e1", "1e+", "(1)",
               "1/-2", "bogus", "+", "３", "1e2.5")
_SPACES = ("", " ", "  ", "\t", "\n ", "\u00a0", "\u2003 ")  # no-break and em spaces too


@st.composite
def _grammar_texts(draw):
    """(text, tokens): a coefficient list in the grammar, and per token its parts as
    (sign, magnitude, imaginary) or, for a malformed token, None."""
    digits = st.text("0123456789", min_size=1, max_size=6)

    def magnitude():
        if draw(st.integers(0, 4)) == 0:
            return f"{draw(digits)}/{draw(st.integers(1, 999))}"
        whole, frac = draw(digits), draw(digits)
        body = draw(st.sampled_from([whole, f"{whole}.", f"{whole}.{frac}", f".{frac}"]))
        if draw(st.booleans()):
            mark = draw(st.sampled_from(["e", "E", "e+", "E+", "e-", "E-"]))
            body += f"{mark}{'0' * draw(st.integers(0, 3))}{draw(st.integers(0, 9999))}"
        return body

    tokens, parts = [], []
    for at in range(draw(st.integers(2, 8))):
        if at and draw(st.integers(0, 14)) == 0:
            tokens.append(draw(st.sampled_from(_BAD_TOKENS)))
            parts.append(None)
            continue
        form = draw(st.sampled_from(["a", "bi", "a+bi"]))
        first = (draw(st.sampled_from(["", "+", "-"])), magnitude(), form == "bi")
        token = f"{first[0]}{first[1]}{'i' if form == 'bi' else ''}"
        these = [first]
        if form == "a+bi":
            these.append((draw(st.sampled_from(["+", "-"])), magnitude(), True))
            token += f"{these[1][0]}{these[1][1]}i"
        tokens.append(token)
        parts.append(these)
    pad = draw(st.sampled_from(["", "", "", " " * (_INT_DIGITS + 1)]))  # past the digit limit
    text = ",".join(draw(st.sampled_from(_SPACES)) + t + draw(st.sampled_from(_SPACES))
                    for t in tokens) + pad
    return text, tokens, parts


def _reference(tokens, parts):
    """The lower coefficients by exact arithmetic, each part rounded once, the leading
    coefficient divided out as make_monic divides; or the refusal's message."""
    values = []
    for token, these in zip(tokens, parts):
        if these is None:
            return f"cannot parse coefficient {token!r}"
        re_part, im_part = 0.0, 0.0
        for sign, magnitude, imaginary in these:
            try:
                value = float(Fraction(magnitude))
            except OverflowError:
                return f"coefficient {token!r} overflows a float"
            value = -value if sign == "-" else value
            re_part, im_part = (re_part, value) if imaginary else (value, im_part)
        values.append(complex(re_part, im_part))
    if values[0] == 0:
        return "leading coefficient is zero"
    lower = tuple(c / values[0] for c in reversed(values[1:]))
    if not all(map(cmath.isfinite, lower)):
        return f"dividing by the leading coefficient {tokens[0]!r} overflows a float"
    return lower


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_grammar_texts())
def test_parse_polynomial_is_exact_arithmetic_bit_for_bit(drawn):
    text, tokens, parts = drawn
    want = _reference(tokens, parts)
    if isinstance(want, str):
        with pytest.raises(PolynomialParseError) as refusal:
            parse_polynomial(text)
        assert str(refusal.value) == want
    else:
        assert _bits(parse_polynomial(text).lower) == _bits(want)


def test_make_monic_divides_through_by_leading_coefficient():
    p = make_monic([2j, 2, -4j])
    assert np.allclose(p.descending(), (1, -1j, -2), atol=1e-15)


def test_make_monic_rejects_zero_leading_and_constants():
    with pytest.raises(ZeroLeadingCoefficientError):
        make_monic([0, 1, 2])
    with pytest.raises(DegreeTooSmallError):
        make_monic([5])


def test_a_polynomial_without_coefficients_is_refused():
    with pytest.raises(DegreeTooSmallError, match="degree at least 1"):
        Polynomial(())


def _fraction_token(fr):
    return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(fr.numerator)


def _complex_token(re, im):
    if im == 0:
        return _fraction_token(re)
    if re == 0:
        return f"{_fraction_token(im)}i"
    sign = "+" if im > 0 else "-"
    return f"{_fraction_token(re)}{sign}{_fraction_token(abs(im))}i"


small_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(small_fractions, small_fractions), min_size=1, max_size=8))
def test_parse_round_trips_fraction_tokens(pairs):
    # leading coefficient fixed at 1 so the parsed values survive unscaled
    tokens = ["1"] + [_complex_token(re, im) for re, im in pairs]
    p = parse_polynomial(", ".join(tokens))
    want = [complex(float(re), float(im)) for re, im in pairs]
    assert list(p.descending()[1:]) == want


def test_odd_reduce_strips_one_zero_root():
    p = parse_polynomial("1, 0, -4, 0")  # z^3 - 4z = z (z^2 - 4)
    q, reduced = odd_reduce(p)
    assert reduced
    assert q.degree == 2
    assert np.allclose(q.descending(), (1, 0, -4), atol=0)
    # every root of the quotient is a root of the original
    for z in (2, -2):
        assert abs(np.polyval(p.descending(), z)) < 1e-12
        assert abs(np.polyval(q.descending(), z)) < 1e-12


@pytest.mark.parametrize("text", ["1, 2, 3", "1, 0, 3, 1", "1, 1, 0, 0, 1"])
def test_odd_reduce_leaves_ineligible_polynomials_alone(text):
    p = parse_polynomial(text)
    q, reduced = odd_reduce(p)
    assert not reduced
    assert q is p


def test_coefficient_is_one_indexed_from_the_constant_term():
    p = parse_polynomial("1, 5, 7, 9")  # z^3 + 5z^2 + 7z + 9
    assert p.coefficient(1) == 9 + 0j
    assert p.coefficient(2) == 7 + 0j
    assert p.coefficient(3) == 5 + 0j
    with pytest.raises(IndexError):
        p.coefficient(0)
    with pytest.raises(IndexError):
        p.coefficient(4)


def test_descending_returns_monic_leading_one():
    p = Polynomial((1 + 1j, 2 - 1j))
    desc = p.descending()
    assert desc[0] == 1
    assert len(desc) == p.degree + 1
