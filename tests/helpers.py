"""Helpers that only the tests call, kept out of the package.

`zeros` builds an all-zero array, `from_letter_text` parses the letter-text
display back into a polynomial, `mode_matrix_to_json_bytes` writes a mode
matrix as JSON, `index_map` maps a basis's monomials to their positions, and
`raise_monomial` applies a raising operator to a single monomial.
`monomial` builds a one-term polynomial, `coefficient` reads the coefficient
of one monomial, and `monomials` lists a polynomial's monomials in order.
"""

from __future__ import annotations

from fractions import Fraction

from hyperdet.arrays import HyperArray, Matrix, _entry_out
from hyperdet.operators import RaisingOp, _raise, _transfer_pairs
from hyperdet.polynomials import (
    _TEXT_INT,
    Exponents,
    IntPolynomial,
    cell_count,
    check_shape,
    json_line,
    letters_for,
    parse_int,
)
from hyperdet.weights import WeightSpaceBasis


def zeros(shape) -> HyperArray:
    shape = check_shape(shape)
    return HyperArray(shape, (Fraction(0),) * cell_count(shape))


def mode_matrix_to_json_bytes(matrix: Matrix) -> bytes:
    doc = {"matrix": [[_entry_out(v) for v in row] for row in matrix]}
    return json_line(doc)


def index_map(basis: WeightSpaceBasis) -> dict[Exponents, int]:
    return {m: i for i, m in enumerate(basis.monomials)}


def raise_monomial(shape, op: RaisingOp, exps) -> list[tuple[int, tuple[int, ...]]]:
    """Image of a single monomial: list of (coefficient, exponents), in the
    flat order of the cell each unit moves from."""
    return list(_raise(_transfer_pairs(check_shape(shape), op), tuple(exps)))


def monomial(shape, exps: Exponents, coeff: int = 1) -> IntPolynomial:
    return IntPolynomial(shape, [(tuple(exps), coeff)])


def coefficient(p: IntPolynomial, exps: Exponents) -> int:
    exps = tuple(exps)
    for e, c in p.terms:
        if e == exps:
            return c
    return 0


def monomials(p: IntPolynomial) -> tuple[Exponents, ...]:
    return tuple(e for e, _ in p.terms)


def from_letter_text(text: str, shape=(2, 2, 3)) -> IntPolynomial:
    """Parse letter text back into a polynomial of the given shape.

    Whitespace and line breaks are insignificant; every term must start with
    an explicit sign.  A magnitude or power is a text integer >= 1, and a
    variable token is one letter of the shape, optionally with '^' and a
    power.  "0" parses to the zero polynomial.
    """
    shape = check_shape(shape)
    index = {letter: pos for pos, letter in enumerate(letters_for(shape))}
    tokens = text.split()
    if tokens == ["0"]:
        return IntPolynomial.zero(shape)
    terms: list[tuple[Exponents, int]] = []
    pos = 0
    while pos < len(tokens):
        sign_tok = tokens[pos]
        if sign_tok not in ("+", "-"):
            raise ValueError(f"expected sign, got {sign_tok!r}")
        sign = 1 if sign_tok == "+" else -1
        pos += 1
        magnitude = 1
        if pos < len(tokens) and _TEXT_INT.fullmatch(tokens[pos]):
            magnitude = _positive(tokens[pos], "magnitude")
            pos += 1
        exps = [0] * len(index)
        while pos < len(tokens) and tokens[pos] not in ("+", "-"):
            tok = tokens[pos]
            letter, caret, power = tok.partition("^")
            if letter not in index:
                raise ValueError(f"bad variable token {tok!r}")
            exps[index[letter]] += _positive(power, f"power in {tok!r}") if caret else 1
            pos += 1
        if not any(exps):
            raise ValueError("term with no variables")
        terms.append((tuple(exps), sign * magnitude))
    return IntPolynomial(shape, terms)


def _positive(text: str, what: str) -> int:
    """A magnitude or a power in letter text: a text integer >= 1."""
    value = parse_int(text) if _TEXT_INT.fullmatch(text) else 0
    if value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {text!r}")
    return value
