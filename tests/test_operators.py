"""Raising operators, matrix assembly, and the exact integer kernel."""

import hashlib
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from hyperdet import operators, reference
from hyperdet.operators import (
    RaisingOp,
    apply_raising,
    assemble_matrix,
    exact_kernel,
    find_invariant,
    integer_kernel,
    matrix_to_json_bytes,
    primitive_vector,
    raising_ops,
    weight_shift,
)
from hyperdet.polynomials import IntPolynomial, exps_from_digits, from_json_bytes
from hyperdet.verify import _rref_kernel
from hyperdet.weights import enumerate_basis, weight_of

from helpers import index_map, monomial, raise_monomial

SHAPE = (2, 2, 3)


def sparse(mat):
    """Dense rows to the (column, value) pairs `integer_kernel` takes."""
    return [tuple((c, v) for c, v in enumerate(row) if v) for row in mat]


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
    with pytest.raises(ValueError, match=r"^U4,1 is not a raising operator of shape \(2, 2, 3\)$"):
        weight_shift(SHAPE, RaisingOp(4, 1))


# Not operators of (2, 2, 3): mode outside 1..3, or step outside 1..d_m - 1.
INVALID_OPS = [
    RaisingOp(0, 1),
    RaisingOp(1, 0),
    RaisingOp(3, -1),
    RaisingOp(4, 1),
    RaisingOp(1, 2),
    RaisingOp(3, 3),
]


@pytest.mark.parametrize("op", INVALID_OPS, ids=str)
def test_invalid_raising_ops_refused(op):
    ones = (1,) * 12
    with pytest.raises(ValueError):
        weight_shift(SHAPE, op)
    with pytest.raises(ValueError):
        raise_monomial(SHAPE, op, ones)
    with pytest.raises(ValueError):
        apply_raising(op, monomial(SHAPE, ones))
    with pytest.raises(ValueError):
        apply_raising(op, IntPolynomial.zero(SHAPE))


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
            p = monomial(SHAPE, exps)
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


CODOMAIN_CASES = [
    (shape, n) for shape in product((1, 2, 3), repeat=3) for n in range(5)
] + [((2, 2, 3), 6), ((2, 2, 3), 12), ((3, 3, 3), 6)]


def test_codomains_are_the_enumerated_weight_spaces():
    """The operator images of the weight-zero basis are exactly the shifted
    weight space, in canonical order, one nonempty row per monomial."""
    for shape, n in CODOMAIN_CASES:
        matrix = assemble_matrix(shape, n)
        offset = 0
        for block in matrix.blocks:
            expected = enumerate_basis(shape, n, weight_shift(shape, block.op))
            assert block.codomain == expected, (shape, n, block.op)
            assert block.row_offset == offset, (shape, n, block.op)
            offset += len(block.codomain)
        assert offset == matrix.nrows
        assert all(matrix.rows), (shape, n)


def test_assemble_matrix_enumerates_only_the_domain(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return enumerate_basis(*args)

    monkeypatch.setattr(operators, "enumerate_basis", spy)
    matrix = assemble_matrix(SHAPE, 6)
    assert calls == [(SHAPE, 6, (0, 0, 0, 0))]
    assert (matrix.nrows, matrix.ncols) == (246, 80)


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
        column = [dict(row).get(c, 0) for row in matrix.rows]
        expected = [0] * matrix.nrows
        for block in matrix.blocks:
            index = index_map(block.codomain)
            image = apply_raising(
                block.op, monomial(SHAPE, mono)
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
    rows = [[] for _ in range(246)]
    for r, c, v in entries:
        rows[r].append((c, v))
    assert [tuple(r) for r in rows] == list(matrix.rows)


# SHA-256 of matrix_to_json_bytes: pins the cell layout, the enumeration order
# and the codomain order of every case the derive benchmark runs.
MATRIX_SHA256 = {
    ((2, 2, 3), 6): "739c14fc98b2d644ac7bfd6a65db0104fb3989bb802051617269f63177b092fc",
    ((2, 2, 2), 4): "333f80cdc0ea389ba131fba9cd1f2ffc8bba7bcaa7329d34b1232e1329eb8e9b",
    ((2, 2, 2), 8): "d72426699699c926f970eb379572142776f21e3c0e7fb0889d91e87cab5faaeb",
    ((2, 2, 2), 12): "232f8002b2e024c2f2b882ab2defc40791e28c453735a7643440929fe305d433",
    ((2, 2, 4), 4): "77b00b40fe2c77ee2173497a4c18f91c9eab39c16d140b97d71c884a6b5163d4",
    ((2, 3, 3), 6): "d896c85a1a5457ee8895b25c8b52754928c085b580d960572aa0fc7bafdf3949",
}


@pytest.mark.parametrize("case", MATRIX_SHA256, ids=lambda c: "x".join(map(str, c[0])) + f"-{c[1]}")
def test_matrix_bytes_fixed(case):
    data = matrix_to_json_bytes(assemble_matrix(*case))
    assert hashlib.sha256(data).hexdigest() == MATRIX_SHA256[case]


def test_matrix_rows_sparse_sorted_nonzero():
    matrix = assemble_matrix(SHAPE, 6)
    for row in matrix.rows:
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols))
        assert all(0 <= c < matrix.ncols and v for c, v in row)
    assert sum(len(row) for row in matrix.rows) == 680


def test_integer_kernel_small_cases():
    kern = integer_kernel(sparse([[1, 2]]), 2)
    assert (kern.rank, kern.nullity) == (1, 1)
    assert kern.basis == ((2, -1),)

    kern = integer_kernel(sparse([[1, 0], [0, 1]]), 2)
    assert (kern.rank, kern.nullity) == (2, 0)
    assert kern.basis == ()

    # no rows at all: everything is free
    kern = integer_kernel([], 3)
    assert (kern.rank, kern.nullity) == (0, 3)
    assert kern.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    # dependent rows collapse
    kern = integer_kernel(sparse([[2, 4, 6], [1, 2, 3]]), 3)
    assert (kern.rank, kern.nullity) == (1, 2)
    for vec in kern.basis:
        assert 2 * vec[0] + 4 * vec[1] + 6 * vec[2] == 0

    # the lead 2 does not divide the back-substituted sum 3: x is rescaled
    assert integer_kernel([((0, 2), (1, 3))], 2).basis == ((3, -2),)

    # lead 2 does not divide the entry 3 below it: the row is rescaled
    kern = integer_kernel([((0, 2), (1, 3)), ((0, 3), (2, 1))], 3)
    assert (kern.rank, kern.nullity, kern.basis) == (2, 1, ((3, -2, -9),))

    # a zero pair is not an entry
    kern = integer_kernel([((0, 0), (1, 1))], 2)
    assert (kern.rank, kern.nullity, kern.basis) == (1, 1, ((1, 0),))


def assert_matches_oracle(mat, cols):
    kern = integer_kernel(sparse(mat), cols)
    oracle = _rref_kernel(mat, cols)
    assert kern.nullity == len(oracle)
    assert kern.rank + kern.nullity == cols
    assert list(kern.basis) == oracle
    for vec in kern.basis:
        for row in mat:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_integer_kernel_random_matches_rational_oracle():
    """Integer elimination and a plain Fraction RREF agree on random matrices."""
    rng = Random(37)
    for _ in range(40):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert_matches_oracle(mat, cols)


def test_integer_kernel_random_sparse_large_entries():
    """Entries up to 10**6 give kernel entries of many digits; dependent
    rows are mixed in so the rank drops."""
    rng = Random(41)
    for _ in range(30):
        cols = rng.randint(1, 8)
        mat = [
            [rng.randint(-10**6, 10**6) if rng.random() < 0.4 else 0 for _ in range(cols)]
            for _ in range(rng.randint(0, 8))
        ]
        if len(mat) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(mat, 2)
            mat.append([3 * x - 7 * y for x, y in zip(a, b)])
        assert_matches_oracle(mat, cols)


def test_integer_kernel_rank_drop_mod_first_prime():
    """Every entry is a multiple of the prime 1073741789, so the matrix is
    zero modulo it but not over the integers."""
    p = 1073741789
    for mat in ([[p, 2 * p], [3 * p, 5 * p]], [[p, 2 * p, 3 * p]], [[2 * p, 0, -p], [0, p, p]]):
        assert_matches_oracle(mat, len(mat[0]))


def test_integer_kernel_needs_crt_over_two_primes():
    """Kernel entry 10**6 is past the bound one word-size prime could
    reconstruct (about 23170)."""
    assert_matches_oracle([[1, 10**6]], 2)
    assert integer_kernel([((0, 1), (1, 10**6))], 2).basis == ((10**6, -1),)


SECOND_PRIME = 1073741783


@pytest.mark.parametrize(
    "mat",
    [
        # modulo the prime row 2 vanishes and the rank drops
        pytest.param([[1, 0, 10**6], [0, SECOND_PRIME, 5 * SECOND_PRIME]], id="lower-rank"),
        # modulo the prime the pivot moves from column 1 to 2; the kernel
        # entry over Q is 1/SECOND_PRIME before scaling
        pytest.param([[1, 0, 0], [0, SECOND_PRIME, 1]], id="later-pivot"),
    ],
)
def test_integer_kernel_discards_unlucky_second_prime(mat):
    """Matrices whose rank or pivots differ modulo the prime 1073741783
    have the kernel exact elimination over Q gives."""
    assert_matches_oracle(mat, 3)


@pytest.mark.parametrize("shape, n", [((2, 2, 2), 4), ((2, 2, 2), 8), ((2, 2, 4), 4)])
def test_integer_kernel_matches_rational_oracle_on_operator_matrices(shape, n):
    matrix = assemble_matrix(shape, n)
    dense = [[0] * matrix.ncols for _ in matrix.rows]
    for out, row in zip(dense, matrix.rows):
        for c, v in row:
            out[c] = v
    kern = integer_kernel(matrix.rows, matrix.ncols)
    assert list(kern.basis) == _rref_kernel(dense, matrix.ncols)


def test_certificate_rejects_each_violation():
    """Row x0 = x1 leaves columns 1 and 2 free over Q."""
    rows = [((0, 1), (1, -1))]
    assert operators._certified(rows, 3, [1, 2], [(1, 1, 0), (0, 0, 1)])
    # annihilated, but nonzero on free column 2, right of its own column 1
    assert not operators._certified(rows, 3, [1, 2], [(1, 1, 1), (0, 0, 1)])
    # zero on its own free column
    assert not operators._certified(rows, 3, [1, 2], [(0, 0, 0), (0, 0, 1)])
    # not annihilated
    assert not operators._certified(rows, 3, [1, 2], [(1, 2, 0), (0, 0, 1)])


def test_integer_kernel_gives_up_without_proof(monkeypatch):
    """A kernel the certificate rejects raises instead of being returned."""
    monkeypatch.setattr(operators, "_certified", lambda rows, ncols, free, vectors: False)
    with pytest.raises(ArithmeticError):
        integer_kernel([((0, 1), (1, 10**6))], 2)


def test_primitive_vector():
    assert primitive_vector([-2, 4, -6]) == (1, -2, 3)
    assert primitive_vector([0, 0]) == (0, 0)
    assert primitive_vector([0, -5]) == (0, 1)


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
