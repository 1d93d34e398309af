"""Exact evaluation of polynomials on concrete arrays and mode transforms.

Arrays hold exact rational entries in the same flat cell order as monomial
exponent vectors, so evaluation is a direct zip of the two.  Mode transforms
multiply one mode by a square rational matrix; products of integer shears
give the determinant-1 transforms used by the randomized invariance checks,
which therefore compare exact rationals and never use a tolerance.

Array JSON lists entries slice by slice to mirror how such arrays are
written on paper:

    {"shape":[2,2,3],"slices":[[[x111,x121],[x211,x221]], ...]}

with entries as integers or ASCII "p" or "p/q" strings (q >= 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .polynomials import (
    IntPolynomial,
    Shape,
    cell_count,
    cells,
    check_int,
    check_shape,
    fibers,
    flat_index,
    json_line,
    malformed,
    parse_int,
)
from .weights import mode_slice_sums


class ShapeMismatchError(ValueError):
    """Operands of an evaluation or transform have incompatible shapes."""


def _exact(value) -> Fraction:
    """An entry as an exact rational: a Fraction, an int, or a "p" or "p/q"
    string of text integers with q >= 1.  Bools, floats and any other text
    are refused."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, str):
        return Fraction(check_int(value))
    num, slash, den = value.partition("/")
    try:
        q = parse_int(den) if slash else 1
        if q >= 1:
            return Fraction(parse_int(num), q)
    except ValueError:
        pass
    raise ValueError(f"entry {value!r} is not an exact rational")


def _nested(value, size: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == size


@dataclass(frozen=True)
class HyperArray:
    """Immutable array of exact rationals, stored in flat cell order."""

    shape: Shape
    flat: tuple[Fraction, ...]

    def __post_init__(self):
        shape = check_shape(self.shape)
        flat = tuple(_exact(v) for v in self.flat)
        if len(flat) != cell_count(shape):
            raise ValueError(
                f"shape {shape} needs {cell_count(shape)} entries, got {len(flat)}"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_slices(cls, shape, slices) -> HyperArray:
        """Build from nested lists: slices[k-1][i-1][j-1]."""
        shape = check_shape(shape)
        a, b, c = shape
        if not _nested(slices, c) or not all(
            _nested(sl, a) and all(_nested(row, b) for row in sl) for sl in slices
        ):
            raise ValueError(f"slice nesting does not match shape {shape}")
        return cls(shape, tuple(slices[k - 1][i - 1][j - 1] for i, j, k in cells(shape)))

    @classmethod
    def random_int(cls, shape, rng: Random) -> HyperArray:
        shape = check_shape(shape)
        return cls(shape, tuple(Fraction(rng.randint(-5, 5)) for _ in range(cell_count(shape))))

    def item(self, *cell: int) -> Fraction:
        """Entry at a cell, one 1-based index per mode."""
        return self.flat[flat_index(self.shape, *cell)]

    def slices(self) -> list[list[list[Fraction]]]:
        a, b, c = self.shape
        return [
            [[self.item(i, j, k) for j in range(1, b + 1)] for i in range(1, a + 1)]
            for k in range(1, c + 1)
        ]


def evaluate(p: IntPolynomial, arr: HyperArray) -> Fraction:
    """Exact value of the polynomial at the array."""
    if p.shape != arr.shape:
        raise ShapeMismatchError(
            f"polynomial shape {p.shape} vs array shape {arr.shape}"
        )
    total = Fraction(0)
    for exps, coeff in p:
        v = Fraction(coeff)
        for x, e in zip(arr.flat, exps):
            if e:
                v *= x**e
        total += v
    return total


Matrix = tuple[tuple[Fraction, ...], ...]


def _check_square(matrix) -> Matrix:
    size = len(matrix) if isinstance(matrix, (list, tuple)) else 0
    if not size or not all(_nested(row, size) for row in matrix):
        raise ValueError("matrix must be square and non-empty")
    return tuple(tuple(_exact(v) for v in row) for row in matrix)


@dataclass(frozen=True)
class ModeMatrix:
    """A square rational matrix for one mode; `mode_transform` checks that the mode exists."""

    mode: int
    entries: Matrix

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_square(self.entries))

    @property
    def size(self) -> int:
        return len(self.entries)


def mode_transform(arr: HyperArray, g: ModeMatrix) -> HyperArray:
    """Multiply the array along g.mode: new slice s = sum_t g[s][t] * slice t."""
    shape = arr.shape
    fibs = fibers(shape, g.mode)  # refuses a mode the shape lacks
    d = shape[g.mode - 1]
    if g.size != d:
        raise ShapeMismatchError(
            f"mode {g.mode} of shape {shape} has size {d}, matrix is {g.size}x{g.size}"
        )
    new = list(arr.flat)
    for fiber in fibs:
        column = [arr.flat[pos] for pos in fiber]
        for pos, row in zip(fiber, g.entries):
            new[pos] = sum(x * y for x, y in zip(row, column))
    return HyperArray(shape, tuple(new))


def random_unimodular(size: int, rng: Random) -> Matrix:
    """Product of 3..6 integer shears: determinant 1, nontrivial mixing.

    Each shear is the identity plus a nonzero c in [-3,3] at one
    off-diagonal position (r, col); multiplying it in from the left is the
    row operation row r += c * row col, applied in the order drawn.
    """
    mat = [[int(r == c) for c in range(size)] for r in range(size)]
    if size >= 2:
        for _ in range(rng.randint(3, 6)):
            r = rng.randrange(size)
            c = rng.randrange(size - 1)
            if c >= r:
                c += 1
            coeff = rng.choice((-3, -2, -1, 1, 2, 3))
            mat[r] = [x + coeff * y for x, y in zip(mat[r], mat[c])]
    return tuple(tuple(Fraction(v) for v in row) for row in mat)


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    ok: bool
    original: Fraction
    transformed: Fraction


@dataclass(frozen=True)
class InvarianceReport:
    seed: int
    trials: tuple[TrialOutcome, ...]

    @property
    def passes(self) -> int:
        return sum(1 for t in self.trials if t.ok)

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.trials)


def invariance_check(p: IntPolynomial, trials: int, seed: int) -> InvarianceReport:
    """Evaluate p before and after random determinant-1 transforms.

    Each trial draws a random integer array (entries in [-5, 5]) and one
    random unimodular matrix per mode, applies them in mode order, and
    compares the two exact values.  Failures are recorded, not raised;
    `trials` must be an int >= 1, else ValueError.
    """
    if check_int(trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = Random(seed)
    outcomes = []
    for idx in range(trials):
        arr = HyperArray.random_int(p.shape, rng)
        moved = arr
        for mode in range(1, len(p.shape) + 1):
            g = ModeMatrix(mode, random_unimodular(p.shape[mode - 1], rng))
            moved = mode_transform(moved, g)
        before = evaluate(p, arr)
        after = evaluate(p, moved)
        outcomes.append(TrialOutcome(idx, before == after, before, after))
    return InvarianceReport(seed=seed, trials=tuple(outcomes))


def covariance_exponents(p: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Common slice sums of every term, grouped by mode.

    For a weight-homogeneous polynomial parallel slices of the exponent
    array have fixed entry sums; this returns them ((3,3),(3,3),(2,2,2) for
    the degree-6 invariant).  Raises if the terms disagree, which means p
    mixes weights.
    """
    first = None
    for exps, _ in p:
        sums = mode_slice_sums(p.shape, exps)
        if first is None:
            first = sums
        elif sums != first:
            raise ValueError("terms have differing slice sums; not weight-homogeneous")
    if first is None:
        return tuple((0,) * d for d in p.shape)
    return first


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def _entry_out(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def array_to_json_bytes(arr: HyperArray) -> bytes:
    doc = {
        "shape": list(arr.shape),
        "slices": [
            [[_entry_out(v) for v in row] for row in sl] for sl in arr.slices()
        ],
    }
    return json_line(doc)


def array_from_json_bytes(data: bytes | str) -> HyperArray:
    with malformed("array"):
        doc = json.loads(data)
        return HyperArray.from_slices(doc["shape"], doc["slices"])


def mode_matrix_from_json_bytes(data: bytes | str) -> Matrix:
    with malformed("matrix"):
        return _check_square(json.loads(data)["matrix"])
