"""Raising operators, matrix assembly, and the exact integer kernel."""

from fractions import Fraction
from random import Random

import pytest

from hyperdet import reference
from hyperdet.operators import (
    RaisingOp,
    apply_raising,
    assemble_matrix,
    exact_kernel,
    find_invariant,
    integer_kernel,
    matrix_to_json_bytes,
    primitive_vector,
    raise_monomial,
    raising_ops,
    weight_shift,
)
from hyperdet.polynomials import IntPolynomial, exps_from_digits, from_json_bytes
from hyperdet.verify import _rref_kernel
from hyperdet.weights import weight_of

SHAPE = (2, 2, 3)


def test_raising_ops_order():
    assert raising_ops(SHAPE) == (
        RaisingOp(1, 1),
        RaisingOp(2, 1),
        RaisingOp(3, 1),
        RaisingOp(3, 2),
    )
    assert raising_ops((2, 2, 2)) == (
        RaisingOp(1, 1),
        RaisingOp(2, 1),
        RaisingOp(3, 1),
    )


def test_weight_shifts():
    shifts = [weight_shift(SHAPE, op) for op in raising_ops(SHAPE)]
    assert shifts == [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)]
    with pytest.raises(ValueError):
        weight_shift(SHAPE, RaisingOp(3, 3))


def test_raise_monomial_moves_one_unit():
    # x112 -> x111 under the first frontal raise, coefficient = source exponent
    x112 = exps_from_digits("000010000000")
    out = raise_monomial(SHAPE, RaisingOp(3, 1), x112)
    assert out == [(1, exps_from_digits("100000000000"))]
    # squared source exponent doubles the coefficient
    sq = exps_from_digits("000020000000")
    out = raise_monomial(SHAPE, RaisingOp(3, 1), sq)
    assert out == [(2, exps_from_digits("100010000000"))]
    # nothing in the source slice -> empty image
    x111 = exps_from_digits("100000000000")
    assert raise_monomial(SHAPE, RaisingOp(3, 1), x111) == []


def test_apply_raising_shifts_weight():
    rng = Random(23)
    for op in raising_ops(SHAPE):
        shift = weight_shift(SHAPE, op)
        for _ in range(10):
            exps = tuple(rng.randint(0, 2) for _ in range(12))
            p = IntPolynomial.monomial(SHAPE, exps)
            image = apply_raising(op, p)
            w = weight_of(SHAPE, exps)
            for m, _ in image:
                assert weight_of(SHAPE, m) == tuple(a + b for a, b in zip(w, shift))
                assert sum(m) == sum(exps)


def test_apply_raising_linear():
    rng = Random(29)
    op = RaisingOp(3, 2)
    for _ in range(10):
        e1 = tuple(rng.randint(0, 2) for _ in range(12))
        e2 = tuple(rng.randint(0, 2) for _ in range(12))
        p = IntPolynomial(SHAPE, [(e1, 3)])
        q = IntPolynomial(SHAPE, [(e2, -2)])
        assert apply_raising(op, p + q) == apply_raising(op, p) + apply_raising(op, q)


def test_matrix_dimensions():
    matrix = assemble_matrix(SHAPE, 6)
    assert (matrix.nrows, matrix.ncols) == (246, 80)
    assert tuple(len(b.codomain) for b in matrix.blocks) == (63, 63, 60, 60)
    offsets = [b.row_offset for b in matrix.blocks]
    assert offsets == [0, 63, 126, 186]


def test_matrix_zero_degree():
    matrix = assemble_matrix(SHAPE, 0)
    assert (matrix.nrows, matrix.ncols) == (0, 1)
    kern = exact_kernel(matrix)
    assert (kern.rank, kern.nullity) == (0, 1)
    assert kern.basis == ((1,),)


def test_matrix_columns_match_operator_application():
    """Stacked matrix column c = coordinates of the operator images of monomial c."""
    matrix = assemble_matrix(SHAPE, 6)
    rng = Random(31)
    for c in rng.sample(range(matrix.ncols), 20):
        mono = matrix.domain.monomials[c]
        column = [row[c] for row in matrix.rows]
        expected = [0] * matrix.nrows
        for block in matrix.blocks:
            index = block.codomain.index_map()
            image = apply_raising(
                block.op, IntPolynomial.monomial(SHAPE, mono)
            )
            for m, coeff in image:
                expected[block.row_offset + index[m]] += coeff
        assert column == expected


def test_matrix_json_dump():
    matrix = assemble_matrix(SHAPE, 6)
    import json

    doc = json.loads(matrix_to_json_bytes(matrix))
    assert doc["rows"] == 246 and doc["cols"] == 80
    entries = doc["entries"]
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))
    assert all(v != 0 for _, _, v in entries)
    dense = [[0] * 80 for _ in range(246)]
    for r, c, v in entries:
        dense[r][c] = v
    assert [tuple(r) for r in dense] == list(matrix.rows)


def test_integer_kernel_small_cases():
    kern = integer_kernel([[1, 2]], 2)
    assert (kern.rank, kern.nullity) == (1, 1)
    assert kern.basis == ((2, -1),)

    kern = integer_kernel([[1, 0], [0, 1]], 2)
    assert (kern.rank, kern.nullity) == (2, 0)
    assert kern.basis == ()

    # no rows at all: everything is free
    kern = integer_kernel([], 3)
    assert (kern.rank, kern.nullity) == (0, 3)
    assert kern.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    # dependent rows collapse
    kern = integer_kernel([[2, 4, 6], [1, 2, 3]], 3)
    assert (kern.rank, kern.nullity) == (1, 2)
    for vec in kern.basis:
        assert 2 * vec[0] + 4 * vec[1] + 6 * vec[2] == 0


def test_integer_kernel_random_matches_rational_oracle():
    """Bareiss kernel and a plain Fraction RREF agree on random matrices."""
    rng = Random(37)
    for _ in range(40):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        kern = integer_kernel(mat, cols)
        oracle = _rref_kernel(mat, cols)
        assert kern.nullity == len(oracle)
        assert kern.rank + kern.nullity == cols
        assert sorted(kern.basis) == sorted(oracle)
        for vec in kern.basis:
            for row in mat:
                assert sum(r * v for r, v in zip(row, vec)) == 0


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive_vector([-2, 4, -6]) == (1, -2, 3)
    assert primitive_vector([0, 0]) == (0, 0)
    assert primitive_vector([Fraction(0), Fraction(-5)]) == (0, 1)


def test_kernel_matches_reference_table():
    matrix = assemble_matrix(SHAPE, 6)
    kern = exact_kernel(matrix)
    assert (kern.rank, kern.nullity) == (79, 1)
    assert kern.basis[0] == reference.COEFFICIENTS


def test_find_invariant():
    poly = find_invariant(SHAPE, 6)
    assert len(poly) == 66
    assert {sum(e) for e, _ in poly} == {6}
    for op in raising_ops(SHAPE):
        assert apply_raising(op, poly).is_zero
    assert find_invariant(SHAPE, 3) is None
    fixture = from_json_bytes(reference.hyperdet_file_bytes())
    assert poly == fixture
