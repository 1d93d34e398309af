"""Group action, signed orbits, and the five-orbit decomposition."""

from fractions import Fraction
from random import Random

import pytest

from hyperdet.operators import find_invariant
from hyperdet.orbits import (
    DECOMPOSITION_SEEDS,
    GroupElement,
    act,
    group_elements,
    parity,
    scale_exact,
    seed_exponents,
    signed_orbit,
    theorem_decomposition,
)
from hyperdet.polynomials import IntPolynomial, exps_from_digits, flat_index
from hyperdet.weights import weight_of

from helpers import coefficient, monomial

SHAPE = (2, 2, 3)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """g after h: (g * h) acting as g(h(index))."""

    def chain(p, q):
        return tuple(p[q[i] - 1] for i in range(len(p)))

    return GroupElement(*(chain(p, q) for p, q in zip(g.perms, h.perms)))


def test_parity():
    assert parity((1, 2, 3)) == 1
    assert parity((2, 1, 3)) == -1
    assert parity((2, 3, 1)) == 1
    assert parity((3, 2, 1)) == -1
    assert parity((1, 2)) == 1
    assert parity((2, 1)) == -1


def test_group_has_24_distinct_elements():
    elements = group_elements(SHAPE)
    assert len(elements) == 24
    assert len(set(elements)) == 24
    identity = GroupElement((1, 2), (1, 2), (1, 2, 3))
    assert identity in elements
    assert identity.sign == 1
    signs = [g.sign for g in elements]
    assert signs.count(1) == 12 and signs.count(-1) == 12


def test_sign_multiplicative_and_ignores_fronts():
    rng = Random(41)
    elements = group_elements(SHAPE)
    for _ in range(30):
        g, h = rng.choice(elements), rng.choice(elements)
        assert compose(g, h).sign == g.sign * h.sign
    # a pure frontal 3-cycle is odd as a permutation but carries sign +1
    tau = GroupElement((1, 2), (1, 2), (2, 3, 1))
    sigma = GroupElement((1, 2), (1, 2), (2, 1, 3))
    assert tau.sign == 1 and sigma.sign == 1


def test_act_identity_and_law():
    rng = Random(43)
    elements = group_elements(SHAPE)
    identity = GroupElement((1, 2), (1, 2), (1, 2, 3))
    for name, digits, _ in DECOMPOSITION_SEEDS:
        seed = exps_from_digits(digits)
        assert act(identity, seed) == seed
    for _ in range(30):
        g, h = rng.choice(elements), rng.choice(elements)
        m = tuple(rng.randint(0, 2) for _ in range(12))
        assert act(compose(g, h), m) == act(g, act(h, m))
        assert sum(act(g, m)) == sum(m)


def test_act_row_swap_swaps_horizontal_slices():
    alpha = GroupElement((2, 1), (1, 2), (1, 2, 3))
    x111 = exps_from_digits("100000000000")
    x211 = exps_from_digits("001000000000")
    assert act(alpha, x111) == x211
    assert act(alpha, x211) == x111


def test_orbit_sizes_and_magnitudes():
    expected = {
        "M1": (12, {2}),
        "M2": (24, {1}),
        "M3": (12, {2}),
        "M4": (12, {2}),
        "M5": (6, {4}),
    }
    for name, digits, _ in DECOMPOSITION_SEEDS:
        orbit = signed_orbit(exps_from_digits(digits))
        size, mags = expected[name]
        assert len(orbit) == size, name
        assert {abs(c) for _, c in orbit} == mags, name
        for m, _ in orbit:
            assert weight_of(SHAPE, m) == (0, 0, 0, 0)


def test_orbit_can_cancel_to_zero():
    # x111 * x211 is fixed by the odd row swap, so signed images cancel
    assert signed_orbit(exps_from_digits("101000000000")).is_zero


@pytest.mark.parametrize("seed", [(1, 2, 3), (0,) * 13, ()])
def test_signed_orbit_checks_seed_length(seed):
    with pytest.raises(ValueError):
        signed_orbit(seed)


def test_seed_leading_coefficients():
    inv = find_invariant(SHAPE, 6)
    assert coefficient(inv, seed_exponents("M1")) == 1
    assert coefficient(inv, seed_exponents("M2")) == -1
    assert coefficient(inv, seed_exponents("M3")) == 1
    assert coefficient(inv, seed_exponents("M4")) == 1
    assert coefficient(inv, seed_exponents("M5")) == -2
    with pytest.raises(KeyError):
        seed_exponents("M6")


def test_decomposition_equals_invariant():
    combo = theorem_decomposition()
    assert combo == find_invariant(SHAPE, 6)
    assert len(combo) == 66
    assert 12 + 24 + 12 + 12 + 6 == 66


def test_transposing_first_two_modes_swaps_middle_orbits():
    def transpose(exps):
        new = [0] * 12
        for k in range(1, 4):
            for i in range(1, 3):
                for j in range(1, 3):
                    new[flat_index(SHAPE, j, i, k)] = exps[flat_index(SHAPE, i, j, k)]
        return tuple(new)

    o3 = signed_orbit(seed_exponents("M3"))
    o4 = signed_orbit(seed_exponents("M4"))
    transposed = IntPolynomial(SHAPE, [(transpose(e), c) for e, c in o3])
    assert transposed == o4


def test_scale_exact_guards_halving():
    p = monomial(SHAPE, (1,) + (0,) * 11, 3)
    with pytest.raises(ArithmeticError):
        scale_exact(p, Fraction(1, 2))
    assert scale_exact(p + p, Fraction(1, 2)) == p
