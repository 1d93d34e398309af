"""Exact evaluation, mode transforms, and the randomized invariance checks."""

from fractions import Fraction
from random import Random

import pytest

from hyperdet import reference
from hyperdet.arrays import (
    HyperArray,
    ModeMatrix,
    ShapeMismatchError,
    array_from_json_bytes,
    array_to_json_bytes,
    covariance_exponents,
    evaluate,
    invariance_check,
    mode_matrix_from_json_bytes,
    mode_transform,
    random_unimodular,
)
from hyperdet.operators import find_invariant
from hyperdet.polynomials import IntPolynomial
from hyperdet.verify import fixture_invariant

from helpers import mode_matrix_to_json_bytes, monomial, zeros

SHAPE = (2, 2, 3)
LETTER_VALUES = "abcdefghijkl"


def letter_display_value(values: dict[str, int]) -> Fraction:
    """Independent oracle: evaluate the transcribed letter display directly.

    Parses each fixture line by hand (sign, optional magnitude, letter^power
    tokens) without going through the polynomial code under test.
    """
    total = Fraction(0)
    for line in reference.LETTER_DISPLAY.splitlines():
        tokens = line.split()
        sign = 1 if tokens[0] == "+" else -1
        term = Fraction(sign)
        for tok in tokens[1:]:
            if tok.isdigit():
                term *= int(tok)
                continue
            letter, _, power = tok.partition("^")
            term *= Fraction(values.get(letter, 0)) ** (int(power) if power else 1)
        total += term
    return total


def array_from_letters(**letters: int) -> HyperArray:
    flat = [Fraction(letters.get(ch, 0)) for ch in LETTER_VALUES]
    return HyperArray(SHAPE, tuple(flat))


def identity(size: int) -> tuple:
    return tuple(
        tuple(Fraction(int(r == c)) for c in range(size)) for r in range(size)
    )


def matmul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum(a[r][m] * b[m][c] for m in range(n)) for c in range(n))
        for r in range(n)
    )


def unit_shear(size: int, r: int, c: int, amount: int) -> tuple:
    rows = [
        [Fraction(int(x == y)) for y in range(size)] for x in range(size)
    ]
    rows[r][c] = Fraction(amount)
    return tuple(tuple(row) for row in rows)


def shear_product(size: int, rng: Random) -> tuple:
    """`random_unimodular`'s draws, each shear multiplied in as a full matrix."""
    mat = identity(size)
    if size < 2:
        return mat
    for _ in range(rng.randint(3, 6)):
        r = rng.randrange(size)
        c = rng.randrange(size - 1)
        if c >= r:
            c += 1
        mat = matmul(unit_shear(size, r, c, rng.choice((-3, -2, -1, 1, 2, 3))), mat)
    return mat


def det(matrix) -> Fraction:
    """Fraction Gaussian elimination determinant, coded here as an oracle."""
    mat = [list(row) for row in matrix]
    n = len(mat)
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            result = -result
        result *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for i in range(col + 1, n):
            f = mat[i][col] * inv
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return result


def test_array_construction_and_access():
    arr = HyperArray.from_slices(
        SHAPE,
        [[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 10], [11, 12]]],
    )
    assert arr.item(1, 1, 1) == 1
    assert arr.item(1, 2, 1) == 2
    assert arr.item(2, 1, 1) == 3
    assert arr.item(2, 2, 3) == 12
    assert arr.flat == tuple(Fraction(v) for v in range(1, 13))
    assert arr.slices()[2][0][1] == 10
    assert zeros(SHAPE).flat == (Fraction(0),) * 12


@pytest.mark.parametrize("cell", [(0, 1, 1), (3, 1, 1), (1, 3, 1), (1, 1, 0), (1, 1, 4)])
def test_item_refuses_cells_outside_the_shape(cell):
    arr = HyperArray(SHAPE, tuple(Fraction(v) for v in range(1, 13)))
    with pytest.raises(IndexError, match=r"cell \(\d, \d, \d\) is outside shape \(2, 2, 3\)"):
        arr.item(*cell)


def test_array_validation():
    with pytest.raises(ValueError):
        HyperArray(SHAPE, (Fraction(1),) * 11)
    with pytest.raises(ValueError):
        HyperArray(SHAPE, (0.5,) * 12)
    with pytest.raises(ValueError):
        HyperArray.from_slices(SHAPE, [[[1, 2], [3, 4]]])
    arr = zeros(SHAPE)
    with pytest.raises(AttributeError):
        arr.flat = ()


def test_array_json_round_trip():
    arr = HyperArray.from_slices(
        SHAPE,
        [
            [[Fraction(1, 3), 2], [3, 4]],
            [[5, "6/7"], [7, 8]],
            [["9", 10], [11, -12]],
        ],
    )
    data = array_to_json_bytes(arr)
    assert array_from_json_bytes(data) == arr
    assert b'"1/3"' in data and b'"6/7"' in data and b"-12" in data


@pytest.mark.parametrize(
    "bad",
    [
        b"nope",
        b"{}",
        b'{"shape":[2,2,3],"slices":[]}',
        b'{"shape":[2,2,3],"slices":[[[0.5,0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[2,2,3],"slices":[[[true,0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[2,2,3],"slices":[[["1/0",0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        '{"shape":[2,2,3],"slices":[[["\u0663/\u0664",0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}'.encode(),
        b'{"shape":[2,2,3],"slices":[[["1_0",0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[2,2,3],"slices":[[[" 1/2 ",0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[2,2,3],"slices":[[["1/-2",0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[2,2,3],"slices":[[["+1",0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[2,2,3],"slices":[[[1.0,0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[true,2,3],"slices":[[[0,0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":["2",2,3],"slices":[[[0,0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[2.0,2,3],"slices":[[[0,0],[0,0]],[[0,0],[0,0]],[[0,0],[0,0]]]}',
        b'{"shape":[1,1,3],"slices":"123"}',
        b'{"shape":[1,1,3],"slices":["1","2","3"]}',
        b'{"shape":[2,1,1],"slices":[{"a":1,"b":2}]}',
    ],
)
def test_array_json_malformed(bad):
    with pytest.raises(ValueError):
        array_from_json_bytes(bad)


def test_evaluate_zero_array():
    assert evaluate(fixture_invariant(), zeros(SHAPE)) == 0


def test_evaluate_single_surviving_terms():
    """Two sparse arrays that isolate one 66-term summand each.

    The expected values come from an independent line-by-line evaluation of
    the transcribed display, not from the polynomial code.
    """
    inv = fixture_invariant()
    plus = dict(a=1, f=1, g=1, l=1)
    arr = array_from_letters(**plus)
    assert letter_display_value(plus) == 1
    assert evaluate(inv, arr) == 1

    minus = dict(a=1, f=1, h=1, k=1, l=1)
    arr = array_from_letters(**minus)
    assert letter_display_value(minus) == -1
    assert evaluate(inv, arr) == -1


def test_evaluate_matches_display_on_random_arrays():
    inv = fixture_invariant()
    rng = Random(47)
    for _ in range(15):
        values = {ch: rng.randint(-3, 3) for ch in LETTER_VALUES}
        arr = array_from_letters(**values)
        assert evaluate(inv, arr) == letter_display_value(values)


def test_evaluate_linear_and_shape_checked():
    rng = Random(53)
    p = fixture_invariant()
    q = monomial(SHAPE, (2,) + (0,) * 11, 5)
    for _ in range(5):
        arr = HyperArray.random_int(SHAPE, rng)
        assert evaluate(p + q, arr) == evaluate(p, arr) + evaluate(q, arr)
    with pytest.raises(ShapeMismatchError):
        evaluate(p, zeros((2, 2, 2)))


def test_mode_transform_identity_and_composition():
    rng = Random(59)
    arr = HyperArray.random_int(SHAPE, rng)
    for mode in (1, 2, 3):
        size = SHAPE[mode - 1]
        ident = ModeMatrix(mode, identity(size))
        assert mode_transform(arr, ident) == arr
        g = ModeMatrix(mode, random_unimodular(size, rng))
        h = ModeMatrix(mode, random_unimodular(size, rng))
        once = mode_transform(mode_transform(arr, g), h)
        combined = ModeMatrix(mode, matmul(h.entries, g.entries))
        assert once == mode_transform(arr, combined)


def test_mode_transform_diagonal_scales_one_slice():
    arr = HyperArray.from_slices(
        SHAPE, [[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 10], [11, 12]]]
    )
    diag = ModeMatrix(
        3,
        (
            (Fraction(7), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ),
    )
    moved = mode_transform(arr, diag)
    assert moved.slices()[0] == [[7, 14], [21, 28]]
    assert moved.slices()[1] == arr.slices()[1]
    assert moved.slices()[2] == arr.slices()[2]


def test_mode_transform_size_mismatch():
    arr = zeros(SHAPE)
    with pytest.raises(ShapeMismatchError):
        mode_transform(arr, ModeMatrix(1, identity(3)))


def test_random_unimodular_is_determinant_one():
    rng = Random(61)
    for size in (2, 3, 4):
        for _ in range(20):
            mat = random_unimodular(size, rng)
            assert det(mat) == 1
            assert all(v.denominator == 1 for row in mat for v in row)
    assert random_unimodular(1, rng) == ((Fraction(1),),)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_random_unimodular_is_the_shear_product(size):
    rows, full = Random(size), Random(size)
    for _ in range(200):
        assert random_unimodular(size, rows) == shear_product(size, full)
    assert rows.random() == full.random()  # the same draws, in the same order


def test_invariance_of_the_invariant():
    report = invariance_check(fixture_invariant(), trials=10, seed=99)
    assert report.ok and report.passes == 10


@pytest.mark.parametrize("trials", [0, -3, 2.0, True, "4"])
def test_invariance_check_refuses_bad_trial_counts(trials):
    with pytest.raises(ValueError):
        invariance_check(fixture_invariant(), trials=trials, seed=1)


def test_non_invariant_fails():
    # x111 changes under a shear adding row 2 into row 1 when x211 != 0
    x111 = monomial(SHAPE, (1,) + (0,) * 11)
    arr = array_from_letters(c=1)  # c is x211
    shear = ModeMatrix(1, unit_shear(2, 0, 1, 1))
    assert evaluate(x111, mode_transform(arr, shear)) != evaluate(x111, arr)
    report = invariance_check(x111, trials=10, seed=99)
    assert not report.ok


def test_covariance_exponents():
    assert covariance_exponents(fixture_invariant()) == ((3, 3), (3, 3), (2, 2, 2))
    const = monomial(SHAPE, (0,) * 12, 1)
    assert covariance_exponents(const) == ((0, 0), (0, 0), (0, 0, 0))
    cayley = find_invariant((2, 2, 2), 4)
    assert covariance_exponents(cayley) == ((2, 2), (2, 2), (2, 2))
    mixed = IntPolynomial(
        SHAPE, [((1,) + (0,) * 11, 1), ((0, 1) + (0,) * 10, 1)]
    )
    with pytest.raises(ValueError):
        covariance_exponents(mixed)


def test_diagonal_covariance_factors():
    inv = fixture_invariant()
    rng = Random(67)
    arr = HyperArray.random_int(SHAPE, rng)
    base = evaluate(inv, arr)
    diag3 = ModeMatrix(
        3,
        (
            (Fraction(2), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(3), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(5)),
        ),
    )
    assert evaluate(inv, mode_transform(arr, diag3)) == (2 * 3 * 5) ** 2 * base
    diag1 = ModeMatrix(1, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3))))
    assert evaluate(inv, mode_transform(arr, diag1)) == 6**3 * base
    diag2 = ModeMatrix(2, ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(4))))
    assert evaluate(inv, mode_transform(arr, diag2)) == (-4) ** 3 * base


def test_mode_matrix_json():
    mat = (
        (Fraction(1), Fraction(1, 2)),
        (Fraction(0), Fraction(1)),
    )
    data = mode_matrix_to_json_bytes(mat)
    assert mode_matrix_from_json_bytes(data) == mat
    with pytest.raises(ValueError):
        mode_matrix_from_json_bytes(b'{"matrix":[[1,2]]}')
    with pytest.raises(ValueError):
        mode_matrix_from_json_bytes(b'{"rows":[[1]]}')


@pytest.mark.parametrize(
    "bad",
    [
        b'{"matrix":["10","01"]}',
        b'{"matrix":{"1":[1]}}',
        b'{"matrix":[[1,0.5],[0,1]]}',
        b'{"matrix":[[1,"1/0"],[0,1]]}',
        b'{"matrix":5}',
    ],
)
def test_mode_matrix_json_malformed(bad):
    with pytest.raises(ValueError, match="malformed matrix JSON"):
        mode_matrix_from_json_bytes(bad)
