"""Raising operators, their matrices on weight spaces, and exact kernels.

A raising operator is indexed by a mode m and a step t: it moves one
exponent unit from slice t+1 of mode m to slice t, scaling by the exponent
it draws from.  Applied to a weight space it lands in the weight space
shifted by +2 in component (m, t) and -1 in the neighbouring components of
the same mode.

A polynomial is invariant exactly when every raising operator kills it, so
invariants of a given degree are the integer nullspace of the stacked
operator matrix on the weight-zero space, the only space enumerated: each
operator's rows are the images of its monomials.  The matrix has a few
nonzeros per row and is stored as sparse rows.  `integer_kernel` computes
its kernel by sparse fraction-free elimination over the integers and returns
it only with an exact certificate, so the rank, nullity and primitive kernel
vectors are exact at any size, and the basis is the one exact elimination
over Q gives.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

from .polynomials import Exponents, IntPolynomial, Shape, check_shape, fibers, json_line
from .weights import (
    Weight,
    WeightSpaceBasis,
    _mode_component_slices,
    enumerate_basis,
    weight_length,
    zero_weight,
)

# One matrix row: (column, value) pairs, columns increasing, values nonzero.
SparseRow = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RaisingOp:
    """Mode m in 1..(number of modes), step t in 1..(size of mode m) - 1;
    operators that take a shape refuse any other with ValueError."""

    mode: int
    step: int

    def __str__(self) -> str:
        return f"U{self.mode},{self.step}"


def raising_ops(shape) -> tuple[RaisingOp, ...]:
    """All raising operators of the shape, mode-major then step order."""
    shape = check_shape(shape)
    return tuple(
        RaisingOp(m, t)
        for m, d in enumerate(shape, start=1)
        for t in range(1, d)
    )


def _check_op(shape: Shape, op: RaisingOp) -> None:
    """Refuse an operator the shape does not have: mode 1..k, step 1..d_m - 1."""
    if not 1 <= op.mode <= len(shape) or not 1 <= op.step < shape[op.mode - 1]:
        raise ValueError(f"{op} is not a raising operator of shape {shape}")


def weight_shift(shape, op: RaisingOp) -> Weight:
    """Weight displacement caused by the operator: +2 on its own component,
    -1 on the adjacent components of the same mode."""
    shape = check_shape(shape)
    _check_op(shape, op)
    off, cnt = _mode_component_slices(shape)[op.mode - 1]
    shift = [0] * weight_length(shape)
    shift[off + op.step - 1] = 2
    if op.step >= 2:
        shift[off + op.step - 2] = -1
    if op.step < cnt:
        shift[off + op.step] = -1
    return tuple(shift)


def _transfer_pairs(shape: Shape, op: RaisingOp) -> list[tuple[int, int]]:
    """Flat (source, destination) cell pairs the operator can act on: in
    every fiber of its mode, the cell at index step+1 and the one at step."""
    _check_op(shape, op)
    return [(f[op.step], f[op.step - 1]) for f in fibers(shape, op.mode)]


def _raise(pairs, exps: tuple[int, ...]):
    """(coefficient, exponents) terms of one monomial's image, given the
    operator's transfer pairs."""
    for src, dst in pairs:
        e = exps[src]
        if e:
            moved = list(exps)
            moved[src] -= 1
            moved[dst] += 1
            yield e, tuple(moved)


def apply_raising(op: RaisingOp, poly: IntPolynomial) -> IntPolynomial:
    """Operator applied term by term; refuses an operator the shape lacks, even on zero."""
    pairs = _transfer_pairs(poly.shape, op)
    terms = []
    for exps, coeff in poly:
        for e, moved in _raise(pairs, exps):
            terms.append((moved, coeff * e))
    return IntPolynomial(poly.shape, terms)


@dataclass(frozen=True)
class OperatorBlock:
    """An operator's rows, from `row_offset`; its codomain is the images of the domain."""

    op: RaisingOp
    codomain: WeightSpaceBasis
    row_offset: int


@dataclass(frozen=True)
class OperatorMatrix:
    """Stacked matrix of all raising operators on the weight-zero space.

    Row r of block i is the r-th codomain monomial of operator i; column c
    is the c-th domain monomial.  Each row is stored sparse, as a tuple of
    (column, value) pairs with nonzero int values, sorted by column.
    """

    shape: Shape
    degree: int
    domain: WeightSpaceBasis
    blocks: tuple[OperatorBlock, ...]
    rows: tuple[SparseRow, ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.domain)


def assemble_matrix(shape, n: int) -> OperatorMatrix:
    """Build the stacked raising-operator matrix on the weight-zero space of
    degree n, the only weight space that can hold invariants.  Operator i
    maps it onto the space of weight `weight_shift(shape, op_i)`, whose basis
    is therefore the images, in canonical order, and is never enumerated.
    Onto: for U_{m,t} and a monomial m' of that weight, slice t of mode m
    has sum s+1 >= 1, so some cell in it has a positive exponent; moving a
    unit from it to slice t+1 of its fiber gives a weight-zero monomial that
    U_{m,t} maps to m' with coefficient >= 1.  No coefficient is negative,
    so nothing cancels and no row is empty.
    """
    shape = check_shape(shape)
    domain = enumerate_basis(shape, n, zero_weight(shape))

    blocks: list[OperatorBlock] = []
    rows: list[SparseRow] = []
    for op in raising_ops(shape):
        pairs = _transfer_pairs(shape, op)
        # image -> {column: coefficient}, sorted by column as columns are
        # visited in order; one monomial's images are all distinct.
        images: dict[Exponents, dict[int, int]] = {}
        for c, mono in enumerate(domain.monomials):
            for coeff, moved in _raise(pairs, mono):
                images.setdefault(moved, {})[c] = coeff
        monos = tuple(sorted(images, reverse=True))
        codomain = WeightSpaceBasis(shape, n, weight_shift(shape, op), monos)
        blocks.append(OperatorBlock(op, codomain, len(rows)))
        rows.extend(tuple(images[m].items()) for m in monos)
    return OperatorMatrix(
        shape=shape,
        degree=n,
        domain=domain,
        blocks=tuple(blocks),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class KernelResult:
    rank: int
    nullity: int
    basis: tuple[tuple[int, ...], ...]


def primitive_vector(vec) -> tuple[int, ...]:
    """Divide an integer vector by its content, first nonzero entry positive."""
    g = gcd(*vec)
    if next((v for v in vec if v), 0) < 0:
        g = -g
    return tuple(v // g for v in vec) if g else tuple(vec)


def _certified(rows, ncols: int, free, vectors) -> bool:
    """The exact certificate for candidate kernel vectors over the integers.

    Vector i is the candidate for free column free[i]; it must be nonzero
    there, zero on every other free column and on every column to the right
    of its own, and annihilated by every row.
    """
    free_set = set(free)
    for f, vec in zip(free, vectors):
        if not vec[f]:
            return False
        if any(vec[c] for c in range(f + 1, ncols)):
            return False
        if any(vec[g] for g in free_set if g != f):
            return False
        for row in rows:
            if sum(v * vec[c] for c, v in row):
                return False
    return True


def integer_kernel(rows, ncols: int) -> KernelResult:
    """Exact rank and primitive kernel basis of a sparse integer matrix.

    `rows` holds each row as (column, value) pairs; zero values are ignored.
    The basis has one vector per free column (a column that is a combination
    of the columns to its left), ordered by free column, each primitive with
    its first nonzero entry positive.

    Fraction-free elimination (Bareiss 1968) over the integers, on sparse
    rows, shortest first.  A row is reduced at its smallest column against
    the echelon row leading there: by an integer multiple of it when its lead
    divides the entry, else after scaling the row by lead/g (g their gcd).
    A row that reaches a new leading column is divided by its content, made
    positive at its lead and stored.  The vector for free column f starts as
    1 at f and is solved by integer back-substitution over the pivots left of
    f, right to left, scaling the whole vector where a lead does not divide.

    The basis is the one elimination over Q gives: the leading columns of any
    echelon form depend only on the row space, and the kernel vector that is
    1 at f, 0 on the other free columns and 0 right of f is unique up to
    scale, so its primitive form is unique too.  `_certified` proves that
    shape and the annihilation of every row over the integers before the
    result is returned; ArithmeticError means it did not, which only an
    elimination bug can cause.
    """
    echelon: dict[int, dict[int, int]] = {}  # leading column -> row, lead > 0
    rows = sorted(rows, key=len)
    for row in rows:
        if len(echelon) == ncols:
            break  # full column rank: every further row reduces to zero
        r = {c: v for c, v in row if v}
        while r:
            lead = min(r)
            b = r[lead]
            piv = echelon.get(lead)
            if piv is None:
                g = gcd(*r.values())
                g = -g if b < 0 else g
                echelon[lead] = {c: v // g for c, v in r.items()}
                break
            a = piv[lead]
            g = gcd(a, b)
            if g != a:  # a does not divide b: scale the row by a/g first
                r = {c: a // g * v for c, v in r.items()}
            q = b // g
            for c, v in piv.items():
                x = r.get(c, 0) - q * v
                if x:
                    r[c] = x
                else:
                    r.pop(c, None)
    pivots = sorted(echelon)
    free = [c for c in range(ncols) if c not in echelon]
    basis = []
    for f in free:
        x = {f: 1}
        for lead in reversed(pivots[: bisect_left(pivots, f)]):
            piv = echelon[lead]
            s = sum(v * x[c] for c, v in piv.items() if c in x)
            if s:
                d = piv[lead]
                g = gcd(s, d)
                if g != d:  # d does not divide s: scale x by d/g first
                    x = {c: d // g * v for c, v in x.items()}
                x[lead] = -s // g
        vec = [0] * ncols
        for c, v in x.items():
            vec[c] = v
        basis.append(primitive_vector(vec))
    if not _certified(rows, ncols, free, basis):
        raise ArithmeticError(f"kernel of a {len(rows)}x{ncols} matrix not certified")
    return KernelResult(rank=len(pivots), nullity=len(free), basis=tuple(basis))


def exact_kernel(matrix: OperatorMatrix) -> KernelResult:
    return integer_kernel(matrix.rows, matrix.ncols)


def kernel_polynomials(matrix: OperatorMatrix, kernel: KernelResult) -> list[IntPolynomial]:
    """Each kernel basis vector as a polynomial over the domain monomials."""
    monos = matrix.domain.monomials
    return [
        IntPolynomial(matrix.shape, [(m, c) for m, c in zip(monos, vec) if c])
        for vec in kernel.basis
    ]


def find_invariant(shape, n: int) -> IntPolynomial | None:
    """The degree-n invariant if the joint kernel is one-dimensional.

    Returns None when the kernel is trivial; raises if it has dimension
    two or more, since then no single polynomial is canonical.
    """
    matrix = assemble_matrix(shape, n)
    kern = exact_kernel(matrix)
    if kern.nullity == 0:
        return None
    if kern.nullity > 1:
        raise ValueError(
            f"kernel has dimension {kern.nullity}; use exact_kernel for the full basis"
        )
    (poly,) = kernel_polynomials(matrix, kern)
    return poly


def matrix_to_json_bytes(matrix: OperatorMatrix) -> bytes:
    """Sparse row/col/value dump, entries sorted by row then column."""
    entries = [[r, c, v] for r, row in enumerate(matrix.rows) for c, v in row]
    doc = {"rows": matrix.nrows, "cols": matrix.ncols, "entries": entries}
    return json_line(doc)
