"""Property tests: the cell layout, serialization round trips, the exact
kernel, the weight-space count and the CLI exit-code contract.

Every example is derandomized and no example database is kept, so the run
is the same on every machine.  Fuzzed CLI runs never ask for a degree or a
degree range: that work has no bound yet.
"""

import contextlib
import io
import json
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdet.arrays import (
    HyperArray,
    ModeMatrix,
    array_from_json_bytes,
    array_to_json_bytes,
    mode_transform,
)
from hyperdet.cli import main
from hyperdet.operators import _transfer_pairs, integer_kernel, raising_ops
from hyperdet.orbits import GroupElement, act
from hyperdet.polynomials import (
    IntPolynomial,
    cells,
    exps_from_digits,
    exps_to_digits,
    fibers,
    flat_index,
    from_json_bytes,
    to_json_bytes,
    to_letter_text,
)
from hyperdet.verify import _rref_kernel
from hyperdet.weights import (
    _count_dim_cached,
    _margin_count,
    count_dim,
    mode_slice_sums,
    slice_sums_for,
    weight_of,
)

from helpers import from_letter_text

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40)

SHAPES = st.tuples(*[st.integers(1, 3)] * 3)


@st.composite
def polynomials(draw, shapes=SHAPES):
    shape = draw(shapes)
    n_cells = shape[0] * shape[1] * shape[2]
    exps = st.tuples(*[st.integers(0, 12)] * n_cells)
    terms = draw(st.lists(st.tuples(exps, st.integers(-(10**30), 10**30)), max_size=6))
    return IntPolynomial(shape, terms)


@PROPERTY
@given(polynomials())
def test_json_round_trip(poly):
    data = to_json_bytes(poly)
    assert from_json_bytes(data) == poly
    assert to_json_bytes(from_json_bytes(data)) == data


@PROPERTY
@given(polynomials(SHAPES.filter(lambda s: s[0] * s[1] * s[2] <= 26)))
def test_letter_round_trip(poly):
    assert from_letter_text(to_letter_text(poly), poly.shape) == poly


@PROPERTY
@given(st.lists(st.integers(0, 9), min_size=1, max_size=30).map(tuple))
def test_digit_round_trip(exps):
    assert exps_from_digits(exps_to_digits(exps)) == exps


@st.composite
def arrays(draw):
    shape = draw(SHAPES)
    n_cells = shape[0] * shape[1] * shape[2]
    entries = st.fractions(max_denominator=10**12) | st.integers(-(10**30), 10**30).map(Fraction)
    return HyperArray(shape, tuple(draw(st.lists(entries, min_size=n_cells, max_size=n_cells))))


@PROPERTY
@given(arrays())
def test_array_json_round_trip(arr):
    data = array_to_json_bytes(arr)
    assert array_from_json_bytes(data) == arr
    assert array_to_json_bytes(array_from_json_bytes(data)) == data


# -- the cell layout, against brute force over flat_index ---------------------

def all_cells(shape):
    return product(*(range(1, d + 1) for d in shape))


def moved(cell, mode, index):
    """The cell with its mode-`mode` index replaced."""
    return cell[: mode - 1] + (index,) + cell[mode:]


def test_layout_closed_formula():
    """Every SHAPES shape: cell (i, j, k) of (a, b, c) sits at ((k-1)a + (i-1))b + (j-1)."""
    for shape in product(range(1, 4), repeat=3):
        a, b, c = shape
        by_formula = {
            ((k - 1) * a + (i - 1)) * b + (j - 1): (i, j, k) for i, j, k in all_cells(shape)
        }
        assert list(cells(shape)) == [by_formula[pos] for pos in range(a * b * c)]
        for pos, cell in by_formula.items():
            assert flat_index(shape, *cell) == pos


def test_fibers_refuse_modes_the_shape_lacks():
    for mode in (0, 4):
        with pytest.raises(ValueError, match=rf"^mode must be 1\.\.3, got {mode}$"):
            fibers((2, 2, 3), mode)


@PROPERTY
@given(SHAPES)
def test_fibers_partition_cells(shape):
    n_cells = shape[0] * shape[1] * shape[2]
    for mode, d in enumerate(shape, start=1):
        fibs = fibers(shape, mode)
        assert sorted(pos for f in fibs for pos in f) == list(range(n_cells))
        expected = {
            tuple(flat_index(shape, *moved(cell, mode, t)) for t in range(1, d + 1))
            for cell in all_cells(shape)
        }
        # fibers in flat order of their cells, each of length d_m, by mode index
        assert list(fibs) == sorted(expected)


@st.composite
def monomials(draw):
    shape = draw(SHAPES)
    return shape, draw(st.tuples(*[st.integers(0, 12)] * (shape[0] * shape[1] * shape[2])))


@PROPERTY
@given(monomials())
def test_mode_slice_sums_brute_force(monomial):
    shape, exps = monomial
    expected = tuple(
        tuple(
            sum(exps[flat_index(shape, *cell)] for cell in all_cells(shape) if cell[mode] == t)
            for t in range(1, d + 1)
        )
        for mode, d in enumerate(shape)
    )
    assert mode_slice_sums(shape, exps) == expected


@st.composite
def permuted_weight_spaces(draw):
    """A shape, a degree n <= 6, the weight of a random monomial of that
    degree, and a permutation of the modes."""
    shape = draw(SHAPES)
    n_cells = shape[0] * shape[1] * shape[2]
    n = draw(st.integers(0, 6))
    exps = [0] * n_cells
    for pos in draw(st.lists(st.integers(0, n_cells - 1), min_size=n, max_size=n)):
        exps[pos] += 1
    return shape, n, weight_of(shape, tuple(exps)), draw(st.permutations(range(3)))


@PROPERTY
@given(permuted_weight_spaces())
def test_count_ignores_mode_order(case):
    shape, n, weight, perm = case
    cuts = list(accumulate((d - 1 for d in shape), initial=0))
    blocks = [weight[cuts[m] : cuts[m + 1]] for m in range(3)]
    moved_shape = tuple(shape[m] for m in perm)
    moved_weight = tuple(w for m in perm for w in blocks[m])
    _count_dim_cached.cache_clear()
    want = count_dim(shape, n, weight)
    _count_dim_cached.cache_clear()
    assert count_dim(moved_shape, n, moved_weight) == want
    # the recursion itself, with the modes in the permuted order
    sums = slice_sums_for(shape, n, weight)
    assert _margin_count(tuple(sums[m] for m in perm)) == want


@PROPERTY
@given(SHAPES)
def test_transfer_pairs_brute_force(shape):
    for op in raising_ops(shape):
        expected = [
            (flat_index(shape, *cell), flat_index(shape, *moved(cell, op.mode, op.step)))
            for cell in all_cells(shape)
            if cell[op.mode - 1] == op.step + 1
        ]
        # sources in flat order
        assert _transfer_pairs(shape, op) == sorted(expected)


@st.composite
def permutations_in_one_mode(draw):
    arr = draw(arrays())
    mode = draw(st.integers(1, 3))
    perm = tuple(draw(st.permutations(range(1, arr.shape[mode - 1] + 1))))
    return arr, mode, perm


@PROPERTY
@given(permutations_in_one_mode())
def test_permutation_transform_matches_act(case):
    arr, mode, perm = case
    d = len(perm)
    # new slice s is old slice t exactly when act moves t to s
    matrix = [[int(perm[t] == s) for t in range(d)] for s in range(1, d + 1)]
    perms = [tuple(range(1, size + 1)) for size in arr.shape]
    perms[mode - 1] = perm
    moved_array = HyperArray(arr.shape, act(GroupElement(*perms), arr.flat))
    assert mode_transform(arr, ModeMatrix(mode, matrix)) == moved_array


# -- the exact kernel, against a Fraction RREF --------------------------------


@st.composite
def matrices_with_a_dependent_row(draw):
    """Up to 5 rows of up to 7 integer entries in +-10**6, plus one row that
    is an integer combination of two of them, inserted at a drawn position."""
    ncols = draw(st.integers(1, 7))
    entries = st.integers(-(10**6), 10**6)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    if rows:
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        x, y = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        rows.insert(draw(st.integers(0, len(rows))), [x * u + y * v for u, v in zip(a, b)])
    return rows, ncols


@PROPERTY
@given(matrices_with_a_dependent_row())
def test_integer_kernel_matches_rational_rref(case):
    rows, ncols = case
    sparse = [tuple((c, v) for c, v in enumerate(row) if v) for row in rows]
    kern = integer_kernel(sparse, ncols)
    oracle = _rref_kernel(rows, ncols)
    assert list(kern.basis) == oracle
    assert (kern.rank, kern.nullity) == (ncols - len(oracle), len(oracle))


# -- exit codes on fuzzed input ----------------------------------------------

# Values a strict reader must tell apart: small ints, floats, bools, null,
# and text with ASCII, non-ASCII, padded and separated digits.
INT_TEXT = st.text(alphabet="0123456789-/_ +\u0663\uff12", max_size=6)
LEAVES = st.integers(-3, 12) | st.floats(allow_nan=False) | st.booleans() | st.none() | INT_TEXT
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
SMALL_SHAPES = st.sampled_from([(2, 2, 3), (2, 2, 2)])


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def near_valid(draw, valid_docs):
    """JSON bytes of a valid document, of one with a single value replaced
    by a fuzzed one, of a truncated one, or raw bytes."""
    doc = draw(valid_docs)
    kind = draw(st.sampled_from(["valid", "valid", "replace", "truncate", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    if kind == "replace":
        *parents, last = draw(st.sampled_from(list(_paths(doc))[1:]))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = draw(VALUES)
    data = json.dumps(doc).encode()
    return data[: draw(st.integers(0, len(data) - 1))] if kind == "truncate" else data


def small_arrays(shapes=SMALL_SHAPES):
    entries = st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=9)
    return shapes.flatmap(
        lambda s: st.lists(entries, min_size=s[0] * s[1] * s[2], max_size=s[0] * s[1] * s[2]).map(
            lambda flat: HyperArray(s, tuple(Fraction(v) for v in flat))
        )
    )


POLY_FILES = near_valid(polynomials(SMALL_SHAPES).map(lambda p: json.loads(to_json_bytes(p))))
ARRAY_FILES = near_valid(small_arrays().map(lambda a: json.loads(array_to_json_bytes(a))))
MATRIX_FILES = near_valid(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(lambda rows: {"matrix": rows})
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_quietly(argv) -> int:
    out = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ
@given(poly=POLY_FILES, array=ARRAY_FILES)
def test_eval_exit_codes(workdir, poly, array):
    (workdir / "poly.json").write_bytes(poly)
    (workdir / "array.json").write_bytes(array)
    argv = ["eval", "--poly", str(workdir / "poly.json"), "--array", str(workdir / "array.json")]
    assert run_quietly(argv) in {0, 3, 4}


@FUZZ
@given(array=ARRAY_FILES, mode=st.sampled_from("123") | INT_TEXT, matrix=MATRIX_FILES)
def test_transform_exit_codes(workdir, array, mode, matrix):
    (workdir / "array.json").write_bytes(array)
    (workdir / "matrix.json").write_bytes(matrix)
    argv = [
        "transform", "--array", str(workdir / "array.json"),
        f"--mode={mode}", "--matrix", str(workdir / "matrix.json"),
    ]
    assert run_quietly(argv) in {0, 3, 4}


SEEDS = st.text(max_size=14) | st.text(alphabet="0123456789\u0662", min_size=12, max_size=12)
WEIGHTS = st.text(max_size=12) | st.lists(st.integers(-6, 6), min_size=4, max_size=4).map(
    lambda w: ",".join(map(str, w))
)


@FUZZ
@given(seed=SEEDS, weight=WEIGHTS)
def test_flag_exit_codes(seed, weight):
    assert run_quietly(["orbit", f"--seed={seed}"]) in {0, 2, 4}
    assert run_quietly(["dims", "--shape", "2x2x3", "--degrees", "6", f"--weight={weight}"]) in {0, 4}
