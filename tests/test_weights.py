"""Weight maps, forced slice sums, basis enumeration, and the counting DP."""

from itertools import product
from random import Random

import pytest

from hyperdet import reference
from hyperdet.polynomials import exps_from_digits, exps_to_digits, flat_index
from hyperdet.weights import (
    count_dim,
    enumerate_basis,
    feasible_degree,
    mode_slice_sums,
    slice_sums_for,
    weight_length,
    weight_of,
    zero_weight,
)

SHAPE = (2, 2, 3)


def brute_monomials(shape, n, weight):
    """Reference enumeration: all compositions of n, filtered by weight."""
    n_cells = shape[0] * shape[1] * shape[2]
    found = []

    def rec(pos, remaining, acc):
        if pos == n_cells - 1:
            m = tuple(acc + [remaining])
            if weight_of(shape, m) == tuple(weight):
                found.append(m)
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, acc + [e])

    rec(0, n, [])
    return sorted(found, reverse=True)


def test_variable_weights():
    x111 = (1,) + (0,) * 11
    x223 = (0,) * 11 + (1,)
    assert weight_of(SHAPE, x111) == (1, 1, 1, 0)
    assert weight_of(SHAPE, x223) == (-1, -1, 0, -1)
    assert weight_of(SHAPE, (0,) * 12) == (0, 0, 0, 0)


def basis_product_weights(shape, exps):
    """Weight of a monomial as the exponent-weighted sum of variable weights.

    Used as an independent cross-check of weight_of: the weight map is
    additive over exponents.
    """
    total = [0] * weight_length(shape)
    pos = 0
    a, b, c = shape
    for k in range(1, c + 1):
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                e = exps[pos]
                if e:
                    unit = [0] * len(exps)
                    unit[flat_index(shape, i, j, k)] = 1
                    var_w = weight_of(shape, tuple(unit))
                    total = [t + e * w for t, w in zip(total, var_w)]
                pos += 1
    return tuple(total)


def test_weight_additive():
    rng = Random(3)
    for _ in range(30):
        exps = tuple(rng.randint(0, 3) for _ in range(12))
        assert weight_of(SHAPE, exps) == basis_product_weights(SHAPE, exps)


def test_slice_sums_weight_zero():
    assert slice_sums_for(SHAPE, 6, (0, 0, 0, 0)) == ((3, 3), (3, 3), (2, 2, 2))
    assert slice_sums_for(SHAPE, 6, (2, 0, 0, 0)) == ((4, 2), (3, 3), (2, 2, 2))
    assert slice_sums_for(SHAPE, 6, (0, 0, 2, -1)) == ((3, 3), (3, 3), (3, 1, 2))
    assert slice_sums_for(SHAPE, 0, (0, 0, 0, 0)) == ((0, 0), (0, 0), (0, 0, 0))


def test_weight_zero_feasibility_needs_lcm():
    # all three mode sizes must divide n, so n must be a multiple of 6
    feasible = [n for n in range(0, 19) if feasible_degree(SHAPE, n, (0, 0, 0, 0))]
    assert feasible == [0, 6, 12, 18]
    # negative forced slice sums are also rejected
    assert slice_sums_for(SHAPE, 2, (4, 0, 0, 0)) is None


def test_basis_is_golden_80():
    basis = enumerate_basis(SHAPE, 6, zero_weight(SHAPE))
    assert len(basis) == 80
    digits = tuple(exps_to_digits(m) for m in basis.monomials)
    assert digits == reference.BASIS_DEG6_WEIGHT0
    assert digits[0] == "200010010002"
    assert digits[-1] == "000201102000"
    # canonical: strictly descending lexicographic
    assert all(a > b for a, b in zip(basis.monomials, basis.monomials[1:]))
    for m in basis.monomials:
        assert sum(m) == 6
        assert weight_of(SHAPE, m) == (0, 0, 0, 0)
    index = basis.index_map()
    assert index[exps_from_digits("200001100002")] == 1


def test_basis_infeasible_is_empty():
    assert len(enumerate_basis(SHAPE, 3, zero_weight(SHAPE))) == 0
    assert len(enumerate_basis(SHAPE, 6, (1, 0, 0, 0))) == 0


def test_enumeration_matches_brute_force():
    cases = [
        (SHAPE, 6, (0, 0, 0, 0)),
        (SHAPE, 6, (2, 0, 0, 0)),
        (SHAPE, 6, (0, 0, 2, -1)),
        (SHAPE, 4, (0, 0, 1, 1)),
        ((2, 2, 2), 4, (0, 0, 0)),
        ((2, 2, 2), 2, (0, 2, 0)),
        ((3, 2, 2), 6, (0, 0, 0, 0)),
    ]
    for shape, n, weight in cases:
        got = enumerate_basis(shape, n, weight).monomials
        assert list(got) == brute_monomials(shape, n, weight), (shape, n, weight)


def test_count_matches_enumeration_random():
    rng = Random(5)
    for shape in [SHAPE, (2, 2, 2), (3, 2, 2), (2, 3, 4)]:
        n_comp = sum(d - 1 for d in shape)
        for _ in range(20):
            n = rng.randint(0, 8)
            weight = tuple(rng.randint(-2, 2) for _ in range(n_comp))
            assert count_dim(shape, n, weight) == len(
                enumerate_basis(shape, n, weight)
            ), (shape, n, weight)


def test_count_exhaustive_small_weights():
    for w in product(range(-2, 3), repeat=4):
        for n in (0, 3, 6):
            assert count_dim(SHAPE, n, w) == len(enumerate_basis(SHAPE, n, w))


def test_count_reaches_table_scale():
    assert count_dim(SHAPE, 96, (0, 0, 0, 0)) == 244344689
    assert count_dim(SHAPE, 96, (2, 0, 0, 0)) == 243704520
    assert count_dim(SHAPE, 96, (0, 0, 2, -1)) == 243539280


def test_symmetric_weights_share_dimensions():
    for n in (6, 12, 18, 24):
        assert count_dim(SHAPE, n, (2, 0, 0, 0)) == count_dim(SHAPE, n, (0, 2, 0, 0))
        assert count_dim(SHAPE, n, (0, 0, 2, -1)) == count_dim(SHAPE, n, (0, 0, -1, 2))


def test_mode_slice_sums():
    exps = exps_from_digits("200010010002")
    assert mode_slice_sums(SHAPE, exps) == ((3, 3), (3, 3), (2, 2, 2))


def test_weight_validation():
    with pytest.raises(ValueError):
        count_dim(SHAPE, 6, (0, 0, 0))
    with pytest.raises(ValueError):
        slice_sums_for(SHAPE, -1, (0, 0, 0, 0))
