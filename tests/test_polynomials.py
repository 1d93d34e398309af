"""Algebra core: canonical term order, serialization round trips."""

from fractions import Fraction
from random import Random

import pytest

from hyperdet.polynomials import (
    IntPolynomial,
    cells,
    exps_from_digits,
    exps_to_digits,
    flat_index,
    from_json_bytes,
    letters_for,
    term_to_letters,
    to_json_bytes,
    to_letter_text,
)

from helpers import coefficient, from_letter_text, monomial, monomials

SHAPE = (2, 2, 3)


def random_poly(rng: Random, shape=SHAPE, n_terms=6, max_exp=3) -> IntPolynomial:
    n_cells = shape[0] * shape[1] * shape[2]
    terms = []
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n_cells))
        terms.append((exps, rng.randint(-9, 9)))
    return IntPolynomial(shape, terms)


def test_flat_index_order():
    assert flat_index(SHAPE, 1, 1, 1) == 0
    assert flat_index(SHAPE, 1, 2, 1) == 1
    assert flat_index(SHAPE, 2, 1, 1) == 2
    assert flat_index(SHAPE, 2, 2, 1) == 3
    assert flat_index(SHAPE, 1, 1, 2) == 4
    assert flat_index(SHAPE, 2, 2, 3) == 11
    listed = list(cells(SHAPE))
    assert listed[0] == (1, 1, 1)
    assert listed[1] == (1, 2, 1)
    assert listed[-1] == (2, 2, 3)
    assert [flat_index(SHAPE, *c) for c in listed] == list(range(12))


def test_digit_round_trip():
    digits = "200001100002"
    exps = exps_from_digits(digits)
    assert exps == (2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 2)
    assert exps_to_digits(exps) == digits
    with pytest.raises(ValueError):
        exps_from_digits("20x")
    with pytest.raises(ValueError):
        exps_to_digits((10, 0))


@pytest.mark.parametrize(
    "bad",
    ["", "-1", "1_0", " 12", "12 ", "\u0662\u0660\u0660", "\uff12", "1.0"],
    ids=["empty", "sign", "underscore", "space", "trailing-space", "arabic", "fullwidth", "dot"],
)
def test_digits_malformed(bad):
    with pytest.raises(ValueError):
        exps_from_digits(bad)


def test_constructor_collects_and_sorts():
    m1 = (1, 0) + (0,) * 10
    m2 = (0, 1) + (0,) * 10
    p = IntPolynomial(SHAPE, [(m2, 3), (m1, 1), (m2, -1), (m1, 2)])
    # canonical order is descending lex, so m1 > m2 comes first
    assert p.terms == ((m1, 3), (m2, 2))
    q = IntPolynomial(SHAPE, [(m1, 5), (m1, -5)])
    assert q.is_zero and len(q) == 0


def test_constructor_validates():
    with pytest.raises(ValueError):
        IntPolynomial(SHAPE, [((1, 0), 1)])
    with pytest.raises(ValueError):
        IntPolynomial(SHAPE, [((-1,) + (0,) * 11, 1)])
    with pytest.raises(ValueError):
        IntPolynomial((2, 2), [])


ONE_EXPS = (1,) + (0,) * 11


@pytest.mark.parametrize(
    "shape, exps, coeff",
    [
        (SHAPE, ONE_EXPS, 1.5),
        (SHAPE, ONE_EXPS, 2.0),
        (SHAPE, ONE_EXPS, True),
        (SHAPE, ONE_EXPS, "1"),
        (SHAPE, ONE_EXPS, Fraction(1)),
        (SHAPE, (1.0,) + (0,) * 11, 1),
        (SHAPE, (True,) + (0,) * 11, 1),
        ((2.0, 2, 3), ONE_EXPS, 1),
        ((True, 2, 3), ONE_EXPS, 1),
        (("2", 2, 3), ONE_EXPS, 1),
    ],
    ids=[
        "float-coeff", "integral-float-coeff", "bool-coeff", "str-coeff", "fraction-coeff",
        "float-exponent", "bool-exponent", "float-shape", "bool-shape", "str-shape",
    ],
)
def test_constructor_refuses_non_int(shape, exps, coeff):
    """API values are ints exactly; nothing is converted."""
    with pytest.raises(ValueError):
        IntPolynomial(shape, [(exps, coeff)])


def test_immutable():
    p = monomial(SHAPE, (1,) * 12)
    with pytest.raises(AttributeError):
        p.terms = ()


def test_arithmetic():
    rng = Random(7)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        assert p + q == q + p
        assert p + IntPolynomial.zero(SHAPE) == p
        for e, _ in p.terms + q.terms:
            assert coefficient(p + q, e) == coefficient(p, e) + coefficient(q, e)
    assert coefficient(p, p.terms[0][0]) == p.terms[0][1]
    assert coefficient(p, (9,) * 12) == 0


def test_shape_mismatch_add():
    p = monomial(SHAPE, (1,) + (0,) * 11)
    q = monomial((2, 2, 2), (1,) + (0,) * 7)
    with pytest.raises(ValueError):
        p + q


def canonical_compare(a, b) -> int:
    """Total order on exponent vectors: lexicographic on the flat entries.

    Returns -1, 0 or +1.  "Greater" vectors sort first in term lists, so the
    canonical term order is descending in this comparison.
    """
    if len(a) != len(b):
        raise ValueError(f"shape mismatch: {len(a)} vs {len(b)} exponents")
    if a == b:
        return 0
    return 1 if a > b else -1


def test_canonical_compare():
    a = (1, 0, 0)
    b = (0, 1, 0)
    assert canonical_compare(a, b) == 1
    assert canonical_compare(b, a) == -1
    assert canonical_compare(a, a) == 0
    with pytest.raises(ValueError):
        canonical_compare((1,), (1, 0))
    # the constructor's term order is strictly descending in this comparison
    rng = Random(5)
    terms = [(tuple(rng.randint(0, 2) for _ in range(12)), 1) for _ in range(40)]
    exps = monomials(IntPolynomial(SHAPE, terms))
    assert all(canonical_compare(x, y) == 1 for x, y in zip(exps, exps[1:]))


def test_json_round_trip_deterministic():
    rng = Random(11)
    for _ in range(25):
        p = random_poly(rng)
        data = to_json_bytes(p)
        assert data.endswith(b"\n")
        assert from_json_bytes(data) == p
        assert to_json_bytes(from_json_bytes(data)) == data


def test_json_input_order_not_trusted():
    m1 = (1, 0) + (0,) * 10
    m2 = (0, 1) + (0,) * 10
    scrambled = (
        b'{"shape":[2,2,3],"terms":['
        b'{"exps":[0,1,0,0,0,0,0,0,0,0,0,0],"coeff":"2"},'
        b'{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":"3"}]}'
    )
    assert from_json_bytes(scrambled).terms == ((m1, 3), (m2, 2))


@pytest.mark.parametrize(
    "bad",
    [
        b"not json",
        b"{}",
        b'{"shape":[2,2,3]}',
        b'{"shape":[2,2,3],"terms":[{"exps":[1,0],"coeff":"1"}]}',
        b'{"shape":[2,2,3],"terms":[{"coeff":"1"}]}',
        b'{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":"x"}]}',
        b'{"shape":[2,2],"terms":[]}',
        b'{"shape":[2.7,2,3],"terms":[]}',
        b'{"shape":[true,2,3],"terms":[]}',
        b'{"shape":["2",2,3],"terms":[]}',
        '{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":"\u0661"}]}'.encode(),
        b'{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":"1_0"}]}',
        b'{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":" 1"}]}',
        b'{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":"+1"}]}',
        b'{"shape":[2,2,3],"terms":[{"exps":[1,0,0,0,0,0,0,0,0,0,0,0],"coeff":true}]}',
        b'{"shape":[2,2,3],"terms":[["exps","coeff"]]}',
        b'[]',
    ],
)
def test_json_malformed(bad):
    with pytest.raises(ValueError):
        from_json_bytes(bad)


def test_letter_rendering():
    assert letters_for(SHAPE) == "abcdefghijkl"
    assert letters_for((2, 2, 2)) == "abcdefgh"
    exps = exps_from_digits("200001100002")
    assert term_to_letters(exps, 1) == "+ a^2 f g l^2"
    assert term_to_letters(exps, -2) == "- 2 a^2 f g l^2"
    p = IntPolynomial(SHAPE, [(exps, 1)])
    assert to_letter_text(p) == "+ a^2 f g l^2\n"
    assert to_letter_text(IntPolynomial.zero(SHAPE)) == "0\n"


def test_letter_round_trip():
    rng = Random(13)
    for _ in range(25):
        p = random_poly(rng)
        assert from_letter_text(to_letter_text(p)) == p
    assert from_letter_text("0") == IntPolynomial.zero(SHAPE)
    cayley_shape = (2, 2, 2)
    q = IntPolynomial(cayley_shape, [((2, 0, 0, 0, 0, 0, 0, 2), 1)])
    assert from_letter_text(to_letter_text(q), cayley_shape) == q


@pytest.mark.parametrize(
    "bad",
    [
        "a b",
        "+ 2",
        "+ z",
        "+ a^x",
        "* a",
        "+ a^",
        "+ ^2 f",
        "+ ab f",
        "+ bc^2",
        "+ \u0662 a",
        "+ a^\u0663",
        "+ -2 a",
        "+ 0 a",
        "+ a^0",
        "+ a^-1 a^2",
    ],
)
def test_letter_malformed(bad):
    with pytest.raises(ValueError):
        from_letter_text(bad)
