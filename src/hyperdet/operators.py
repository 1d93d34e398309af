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
nonzeros per row and is stored as sparse rows.  Its kernel is computed modulo
word-size primes and lifted to the rationals, and `integer_kernel` returns
it only with an exact certificate over the integers, so the rank, nullity
and primitive kernel vectors are exact at any size, and the basis is the
one exact elimination over Q gives.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm

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
    """Mode m in 1..3, step t in 1..(size of mode m) - 1; operators that
    take a shape refuse any other with ValueError."""

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
    """Refuse an operator the shape does not have: mode 1..3, step 1..d_m - 1."""
    if op.mode not in (1, 2, 3) or not 1 <= op.step < shape[op.mode - 1]:
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
    """Scale a rational vector to coprime integers, first nonzero positive."""
    fracs = [Fraction(v) for v in vec]
    denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(ints)


# Every prime the kernel works modulo lies in (2**29, 2**30): each one fits
# in a single 30-bit digit of a Python int.
_PRIME_BITS = 29


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 3, 5, 7 decide every n < 3.2e9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes in (2**29, 2**30) in descending order: the fixed sequence
    of moduli the kernel tries."""
    n = 1 << (_PRIME_BITS + 1)
    while n > 1 << _PRIME_BITS:
        n -= 1
        if _is_prime(n):
            yield n


def _prime_budget(rows, ncols: int) -> int:
    """How many primes the kernel may try before it gives up.

    Every minor of the matrix is at most H, the product of the min(rows,
    cols) largest row norms (Hadamard).  A kernel vector scaled to 1 at its
    free column has entries n/d with |n|, d <= H, so rational reconstruction
    recovers it once the primes multiply past 2 H**2.  A prime gives a
    different rank or free-column set only if it divides one nonzero minor,
    so at most log H / 29 primes are unlucky.  The budget covers both.
    """
    norms = sorted((sum(v * v for _, v in row) for row in rows), reverse=True)
    hbits = sum((s.bit_length() + 1) // 2 for s in norms[:ncols])
    return (3 * hbits + 2) // _PRIME_BITS + 2


def _kernel_mod(rows, ncols: int, p: int):
    """Rank, pivot columns and kernel vectors of the matrix modulo p.

    Rows are reduced into a sparse echelon form one at a time.  The set of
    leading columns of any echelon form depends only on the row space, so
    it is the greedy pivot-column set whatever order the rows arrive in.
    The vector for free column f is 1 at f, 0 on the other free columns,
    and solved by back substitution on the pivots left of f; it is returned
    as a {column: residue} dict.
    """
    echelon: dict[int, dict[int, int]] = {}  # leading column -> row, lead 1
    for row in rows:
        if len(echelon) == ncols:
            break  # full column rank: every further row reduces to zero
        r = {c: v % p for c, v in row if v % p}
        while r:
            lead = min(r)
            piv = echelon.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, p)
                echelon[lead] = {c: v * inv % p for c, v in r.items()}
                break
            f = r[lead]
            for c, v in piv.items():
                x = (r.get(c, 0) - f * v) % p
                if x:
                    r[c] = x
                else:
                    r.pop(c, None)
    pivots = sorted(echelon)
    free = [c for c in range(ncols) if c not in echelon]
    vectors = []
    for f in free:
        x = {f: 1}
        for lead in reversed(pivots[: bisect_left(pivots, f)]):
            s = sum(v * x[c] for c, v in echelon[lead].items() if c in x)
            if s % p:
                x[lead] = -s % p
        vectors.append(x)
    return tuple(pivots), free, vectors


def _rational(a: int, m: int, bound: int) -> Fraction | None:
    """The fraction n/d = a (mod m) with |n| <= bound and 0 < d <= bound.

    Half-extended Euclid on (m, a); when 2 bound**2 < m the answer is
    unique, and None means there is none.
    """
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(lifted, ncols: int, modulus: int):
    """Primitive integer vectors from residue dicts mod `modulus`, or None
    if some entry has no fraction within the reconstruction bound."""
    bound = isqrt(modulus // 2)
    basis = []
    for acc in lifted:
        vec: list[int | Fraction] = [0] * ncols
        for c, x in acc.items():
            q = _rational(x, modulus, bound)
            if q is None:
                return None
            vec[c] = q
        basis.append(primitive_vector(vec))
    return tuple(basis)


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

    `rows` holds each row as (column, value) pairs.  The basis has one
    vector per free column (a column that is a combination of the columns
    to its left), ordered by free column, each primitive with its first
    nonzero entry positive.

    The kernel is computed modulo word-size primes, joined by CRT and
    rational reconstruction (Dixon 1982), and returned only with a proof:
    every vector is annihilated by the matrix over the integers, there are
    ncols - rank_p of them, and each is nonzero on its own free column and
    zero on the other free columns and to its right.  Since rank_p <= rank
    over Q, independent kernel vectors that many prove the nullity, and the
    shape of each vector proves its column is free over Q as well, so the
    basis is the one exact elimination over Q gives.  A prime of lower rank,
    or of the same rank with later pivots, is discarded; a higher rank or
    earlier pivots restart the lift.  Raises ArithmeticError if the prime
    budget runs out, which the Hadamard bound rules out.
    """
    rows = sorted(rows, key=len)
    best = None  # (-rank, pivots) of the primes being joined
    modulus = 1
    lifted: list[dict[int, int]] = []
    for p in islice(_primes(), _prime_budget(rows, ncols)):
        pivots, free, vectors = _kernel_mod(rows, ncols, p)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        if key != best:
            best, modulus, lifted = key, 1, [{} for _ in free]
        # CRT: fold the residues mod p into the residues mod `modulus`.
        step = pow(modulus, -1, p)
        for acc, vec in zip(lifted, vectors):
            for c in acc.keys() | vec.keys():
                x = acc.get(c, 0)
                acc[c] = x + modulus * ((vec.get(c, 0) - x) * step % p)
        modulus *= p
        basis = _reconstruct(lifted, ncols, modulus)
        if basis is not None and _certified(rows, ncols, free, basis):
            return KernelResult(rank=len(pivots), nullity=len(free), basis=basis)
    raise ArithmeticError(f"kernel of a {len(rows)}x{ncols} matrix not certified")


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
