"""Signed orbits of monomials under slice permutations of a (2,2,3) array.

The group S2 x S2 x S3 permutes row, column and frontal-slice indices.  A
group element carries a sign: the product of the parities of its first two
components (frontal permutations contribute no sign).  The signed orbit of
a monomial is the 24-term sum of signed images, like terms collected.

The degree-6 invariant is a five-orbit combination: half the orbits of the
first, third and fourth seed, minus the orbit of the second, minus half the
orbit of the fifth.  The halvings are exact because those orbits carry even
coefficients; `theorem_decomposition` checks this as it divides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .polynomials import (
    Exponents,
    IntPolynomial,
    check_shape,
    exps_from_digits,
    flat_index,
)

Permutation = tuple[int, ...]


def parity(p: Permutation) -> int:
    """+1 for even permutations, -1 for odd; p is an image tuple on 1..len."""
    inv = sum(
        1
        for x in range(len(p))
        for y in range(x + 1, len(p))
        if p[x] > p[y]
    )
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class GroupElement:
    """Row, column and frontal-slice permutations, as 1-based image tuples."""

    rows: Permutation
    cols: Permutation
    fronts: Permutation

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.rows), len(self.cols), len(self.fronts))

    @property
    def sign(self) -> int:
        """Parities of the first two components only; the frontal part is unsigned."""
        return parity(self.rows) * parity(self.cols)


def group_elements(shape=(2, 2, 3)) -> tuple[GroupElement, ...]:
    """The full product group; 2 * 2 * 6 = 24 elements for shape (2,2,3)."""
    a, b, c = check_shape(shape)
    return tuple(
        GroupElement(pi, pj, pk)
        for pi in permutations(range(1, a + 1))
        for pj in permutations(range(1, b + 1))
        for pk in permutations(range(1, c + 1))
    )


def act(g: GroupElement, exps) -> Exponents:
    """Relabel cells: the exponent at (i,j,k) moves to (rows(i), cols(j), fronts(k))."""
    shape = g.shape
    a, b, c = shape
    exps = tuple(exps)
    new = [0] * len(exps)
    pos = 0
    for k in range(1, c + 1):
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                dst = flat_index(shape, g.rows[i - 1], g.cols[j - 1], g.fronts[k - 1])
                new[dst] = exps[pos]
                pos += 1
    return tuple(new)


def signed_orbit(seed, shape=(2, 2, 3)) -> IntPolynomial:
    """Sum of sign(g) * (g applied to the seed monomial) over the whole group.

    Like terms collect, so a seed with a stabilizer of size s comes out with
    coefficients of magnitude s (or cancels entirely when the stabilizer
    mixes signs).
    """
    shape = check_shape(shape)
    seed = tuple(seed)
    terms = [(act(g, seed), g.sign) for g in group_elements(shape)]
    return IntPolynomial(shape, terms)


# The five seed monomials of the decomposition, with their exact weights in
# the combination.  Digit strings are exponents in flat cell order.
DECOMPOSITION_SEEDS: tuple[tuple[str, str, Fraction], ...] = (
    ("M1", "200001100002", Fraction(1, 2)),
    ("M2", "200001010011", Fraction(-1)),
    ("M3", "110010010011", Fraction(1, 2)),
    ("M4", "101010010101", Fraction(1, 2)),
    ("M5", "100110010110", Fraction(-1, 2)),
)


def seed_exponents(name: str) -> Exponents:
    for label, digits, _ in DECOMPOSITION_SEEDS:
        if label == name:
            return exps_from_digits(digits)
    raise KeyError(name)


def scale_exact(poly: IntPolynomial, factor: Fraction) -> IntPolynomial:
    """Multiply by a rational factor that must leave every coefficient integral."""
    terms = []
    for exps, coeff in poly:
        scaled = coeff * factor
        if scaled.denominator != 1:
            raise ArithmeticError(
                f"coefficient {coeff} is not divisible by {factor.denominator}"
            )
        terms.append((exps, int(scaled)))
    return IntPolynomial(poly.shape, terms)


def theorem_decomposition() -> IntPolynomial:
    """The five-orbit combination that yields the degree-6 invariant.

    Raises ArithmeticError if a halved orbit turns out to have an odd
    coefficient, which would mean the orbit construction is broken.
    """
    shape = (2, 2, 3)
    total = IntPolynomial.zero(shape)
    for _, digits, factor in DECOMPOSITION_SEEDS:
        orbit = signed_orbit(exps_from_digits(digits), shape)
        total = total + scale_exact(orbit, factor)
    return total
