"""Named verification battery over the whole pipeline.

Each check pits a computed result against fixtures or an independently
coded oracle and reports pass/fail with a one-line detail.  The battery is
what `verify-paper` on the command line runs, and the test suite generates
one acceptance test per check from the registry, so each criterion is coded
once.  The stated runtime limits are gates inside the checks; a timing shows
up only in a failure message, never in a PASS detail.

Oracle independence, by check:

* the golden monomial list, coefficient table and dimension table are
  transcription fixtures, never derived from the code under test;
* the 2x2x2 regression recomputes the kernel with a separately written
  brute-force path (direct composition enumeration, inline operator action,
  Gauss-Jordan elimination over Fraction, its own normalization) and
  compares primitive vectors;
* invariance and annihilation are semantic properties checked by direct
  evaluation, independent of the elimination code entirely.

Fixtures are always read through the `reference` module attributes at call
time, so corrupting one (e.g. in a negative-control test) makes every
check that reads it fail rather than silently propagating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Callable

from . import reference
from .arrays import (
    HyperArray,
    ModeMatrix,
    covariance_exponents,
    evaluate,
    invariance_check,
    mode_transform,
)
from .dimensions import FORMULA_IDS, TABLE_COLUMNS, conjecture_dim, verify_table
from .operators import (
    apply_raising,
    assemble_matrix,
    exact_kernel,
    kernel_polynomials,
    raising_ops,
)
from .orbits import DECOMPOSITION_SEEDS, signed_orbit, theorem_decomposition
from .polynomials import (
    IntPolynomial,
    exps_from_digits,
    exps_to_digits,
    to_json_bytes,
    to_letter_text,
)
from .weights import count_dim, enumerate_basis, weight_of


class CheckFailure(Exception):
    """A verification check did not hold; the message says what broke."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


_CHECKS: list[tuple[str, Callable[[int], str]]] = []


def _register(name: str):
    def deco(fn):
        _CHECKS.append((name, fn))
        return fn

    return deco


def check_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _CHECKS)


def fixture_invariant() -> IntPolynomial:
    """The degree-6 invariant rebuilt from the transcribed fixtures only."""
    terms = [
        (exps_from_digits(d), c)
        for d, c in zip(reference.BASIS_DEG6_WEIGHT0, reference.COEFFICIENTS)
        if c
    ]
    return IntPolynomial((2, 2, 3), terms)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _require_within(start: float, limit: float, what: str) -> None:
    """Wall-clock gate: fail if `what`, begun at `start`, took `limit` s or more."""
    elapsed = time.perf_counter() - start
    _require(elapsed < limit, f"{what} took {elapsed:.3f}s, limit {limit:g}s")


@_register("basis-monomials")
def _check_basis(seed: int) -> str:
    start = time.perf_counter()
    basis = enumerate_basis((2, 2, 3), 6, (0, 0, 0, 0))
    _require_within(start, 1.0, "enumerate_basis")
    digits = tuple(exps_to_digits(m) for m in basis.monomials)
    _require(len(basis) == 80, f"expected 80 monomials, got {len(basis)}")
    _require(
        digits == reference.BASIS_DEG6_WEIGHT0,
        "enumerated monomials differ from the golden list",
    )
    rendered = "".join(d + "\n" for d in digits).encode("ascii")
    _require(
        rendered == reference.basis_file_bytes(),
        "rendered listing differs from the golden file bytes",
    )
    return "80 monomials, order and bytes match the golden file"


@_register("codomain-dimensions")
def _check_codomains(seed: int) -> str:
    matrix = assemble_matrix((2, 2, 3), 6)
    sizes = tuple(len(b.codomain) for b in matrix.blocks)
    _require(sizes == (63, 63, 60, 60), f"block sizes {sizes} != (63, 63, 60, 60)")
    for block in matrix.blocks:
        weight = block.codomain.weight
        _require(
            enumerate_basis((2, 2, 3), 6, weight).monomials == block.codomain.monomials,
            f"operator images differ from enumeration at weight {weight}",
        )
        _require(
            count_dim((2, 2, 3), 6, weight) == len(block.codomain),
            f"count_dim disagrees with enumeration at weight {weight}",
        )
    return "codomain dimensions 63, 63, 60, 60"


@_register("matrix-kernel")
def _check_kernel(seed: int) -> str:
    start = time.perf_counter()
    matrix = assemble_matrix((2, 2, 3), 6)
    kern = exact_kernel(matrix)
    _require_within(start, 5.0, "assemble_matrix plus exact_kernel")
    _require(
        (matrix.nrows, matrix.ncols) == (246, 80),
        f"matrix is {matrix.nrows}x{matrix.ncols}, expected 246x80",
    )
    _require(kern.rank == 79, f"rank {kern.rank} != 79")
    _require(kern.nullity == 1, f"nullity {kern.nullity} != 1")
    vec = kern.basis[0]
    for row in matrix.rows:
        _require(
            sum(v * vec[c] for c, v in row) == 0,
            "kernel vector is not annihilated by the matrix",
        )
    return "246x80 matrix, rank 79, nullity 1, kernel vector annihilated"


@_register("coefficient-table")
def _check_coefficients(seed: int) -> str:
    matrix = assemble_matrix((2, 2, 3), 6)
    kern = exact_kernel(matrix)
    _require(kern.nullity == 1, f"nullity {kern.nullity} != 1")
    vec = kern.basis[0]
    _require(
        vec == reference.COEFFICIENTS,
        "normalized kernel vector differs from the fixture coefficient table",
    )
    nonzero = [v for v in vec if v]
    _require(len(nonzero) == 66, f"{len(nonzero)} nonzero coefficients, expected 66")
    _require(
        set(nonzero) <= {1, -1, 2, -2},
        f"coefficients outside {{+-1, +-2}}: {sorted(set(nonzero))}",
    )
    (poly,) = kernel_polynomials(matrix, kern)
    _require(
        to_json_bytes(poly) == reference.hyperdet_file_bytes(),
        "kernel polynomial differs from the golden JSON fixture",
    )
    lines = to_letter_text(poly).splitlines()
    _require("+ a^2 f g l^2" in lines, "leading letter term '+ a^2 f g l^2' missing")
    _require(
        sorted(lines) == sorted(reference.LETTER_DISPLAY.splitlines()),
        "letter rendering differs from the fixture display",
    )
    twos = [ln for ln in lines if " 2 " in ln]
    _require(len(twos) == 6, f"{len(twos)} magnitude-2 terms, expected 6")
    return "kernel vector matches the 4x20 table; 66 terms in {+-1, +-2}; letter form matches"


@_register("annihilation")
def _check_annihilation(seed: int) -> str:
    poly = fixture_invariant()
    _require(not poly.is_zero, "the fixture invariant is the zero polynomial")
    for op in raising_ops((2, 2, 3)):
        image = apply_raising(op, poly)
        _require(image.is_zero, f"{op} does not annihilate the fixture invariant")
    return "all four raising operators annihilate the invariant exactly"


@_register("orbit-decomposition")
def _check_orbits(seed: int) -> str:
    expected_sizes = (12, 24, 12, 12, 6)
    for (name, digits, _), size in zip(DECOMPOSITION_SEEDS, expected_sizes):
        orbit = signed_orbit(exps_from_digits(digits))
        _require(
            len(orbit) == size,
            f"orbit of {name} has {len(orbit)} monomials, expected {size}",
        )
        for exps, _coeff in orbit:
            _require(
                weight_of((2, 2, 3), exps) == (0, 0, 0, 0),
                f"orbit of {name} left the zero weight space",
            )
    combo = theorem_decomposition()
    _require(
        combo == fixture_invariant(),
        "five-orbit combination differs from the fixture invariant",
    )
    return "orbit sizes 12, 24, 12, 12, 6; combination equals the invariant term for term"


@_register("invariance")
def _check_invariance(seed: int) -> str:
    poly = fixture_invariant()
    _require(
        covariance_exponents(poly) == ((3, 3), (3, 3), (2, 2, 2)),
        "slice-degree table is not (3,3), (3,3), (2,2,2)",
    )
    report = invariance_check(poly, trials=100, seed=seed)
    _require(
        report.ok and report.passes == 100,
        f"only {report.passes}/100 unimodular trials preserved the value",
    )
    rng = Random(seed + 1)
    arr = HyperArray.random_int((2, 2, 3), rng)
    while evaluate(poly, arr) == 0:
        arr = HyperArray.random_int((2, 2, 3), rng)
    base = evaluate(poly, arr)
    diag = lambda mode, ts: ModeMatrix(
        mode,
        tuple(
            tuple(Fraction(ts[r]) if r == c else Fraction(0) for c in range(len(ts)))
            for r in range(len(ts))
        ),
    )
    cases = [
        (diag(3, (3, 1, 1)), Fraction(9)),
        (diag(3, (2, 3, 5)), Fraction(900)),
        (diag(1, (2, 3)), Fraction(216)),
        (diag(2, (-2, 3)), Fraction(-216)),
    ]
    for g, factor in cases:
        got = evaluate(poly, mode_transform(arr, g))
        _require(
            got == factor * base,
            f"diagonal transform in mode {g.mode} scaled by {got / base}, expected {factor}",
        )
    return "100/100 unimodular trials exact; diagonal covariance factors t^2 / t^3 hold"


def _oracle_weight_zero_monomials(shape: tuple[int, int, int], n: int):
    """Brute-force enumeration: all compositions of n, filtered to equal
    slice sums in every mode.  Deliberately shares no code with the
    weight-space enumerator."""
    a, b, c = shape
    n_cells = a * b * c
    out = []

    def rec(pos, remaining, acc):
        if pos == n_cells - 1:
            acc = acc + [remaining]
            rows = [0] * a
            cols = [0] * b
            fronts = [0] * c
            p = 0
            for k in range(c):
                for i in range(a):
                    for j in range(b):
                        e = acc[p]
                        rows[i] += e
                        cols[j] += e
                        fronts[k] += e
                        p += 1
            if len(set(rows)) == 1 and len(set(cols)) == 1 and len(set(fronts)) == 1:
                out.append(tuple(acc))
            return
        for e in range(remaining, -1, -1):
            rec(pos + 1, remaining - e, acc + [e])

    rec(0, n, [])
    return sorted(out, reverse=True)


def _oracle_raise(shape, mode: int, step: int, exps):
    """Inline raising action: move one unit from slice step+1 to slice step."""
    a, b, c = shape

    def flat(i, j, k):
        return ((k - 1) * a + (i - 1)) * b + (j - 1)

    images = []
    for k in range(1, c + 1):
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                idx = (i, j, k)[mode - 1]
                if idx != step + 1:
                    continue
                src = flat(i, j, k)
                if not exps[src]:
                    continue
                dst = [i, j, k]
                dst[mode - 1] = step
                moved = list(exps)
                moved[src] -= 1
                moved[flat(*dst)] += 1
                images.append((exps[src], tuple(moved)))
    return images


def _rref_kernel(rows, ncols: int):
    """Plain Gauss-Jordan over Fraction; kernel basis normalized here, not by
    the pipeline: coprime integers, first nonzero entry positive."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivot_set):
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            vec[pcol] = -mat[i][fcol]
        denom = lcm(*(v.denominator for v in vec))
        ints = [int(v * denom) for v in vec]
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in ints))
    return basis


def oracle_invariants(shape, n: int):
    """Primitive kernel vectors by the brute-force path, plus its basis."""
    monos = _oracle_weight_zero_monomials(tuple(shape), n)
    rows = []
    for mode, d in enumerate(shape, start=1):
        for step in range(1, d):
            rowmap: dict[tuple, list] = {}
            for cidx, m in enumerate(monos):
                for coeff, moved in _oracle_raise(shape, mode, step, m):
                    row = rowmap.setdefault(moved, [0] * len(monos))
                    row[cidx] += coeff
            rows.extend(rowmap[key] for key in sorted(rowmap))
    return monos, _rref_kernel(rows, len(monos))


@_register("cayley")
def _check_cayley(seed: int) -> str:
    shape = (2, 2, 2)
    matrix = assemble_matrix(shape, 4)
    kern = exact_kernel(matrix)
    _require(kern.nullity == 1, f"2x2x2 degree-4 nullity {kern.nullity} != 1")
    vec = kern.basis[0]
    (poly,) = kernel_polynomials(matrix, kern)
    monos, oracle_basis = oracle_invariants(shape, 4)
    _require(
        tuple(monos) == matrix.domain.monomials,
        "oracle enumeration ordered the basis differently",
    )
    _require(len(oracle_basis) == 1, f"oracle found {len(oracle_basis)} kernel vectors")
    _require(
        oracle_basis[0] == vec,
        "oracle kernel vector differs from the pipeline kernel vector",
    )
    for op in raising_ops(shape):
        _require(
            apply_raising(op, poly).is_zero,
            f"{op} does not annihilate the 2x2x2 invariant",
        )
    report = invariance_check(poly, trials=100, seed=seed)
    _require(
        report.ok and report.passes == 100,
        f"only {report.passes}/100 trials preserved the 2x2x2 invariant",
    )
    _require(
        covariance_exponents(poly) == ((2, 2), (2, 2), (2, 2)),
        "2x2x2 invariant slice degrees are not (2,2) per mode",
    )
    return "2x2x2 degree-4 kernel is 1-dimensional, matches the brute-force oracle, invariant"


@_register("dims-table")
def _check_dims_table(seed: int) -> str:
    start = time.perf_counter()
    report = verify_table((2, 2, 3))
    _require_within(start, 60.0, f"{len(TABLE_COLUMNS) * len(reference.DIM_TABLE)} count_dim lookups")
    for e in sorted(report.entries, key=lambda e: e.n):
        _require(
            e.counted == e.fixture,
            f"count_dim(n={e.n}, weight={TABLE_COLUMNS[e.column][0]}) = {e.counted}, "
            f"table says {e.fixture}",
        )
    for n in (6, 12):
        for weight, _ in TABLE_COLUMNS.values():
            counted = count_dim((2, 2, 3), n, weight)
            listed = len(enumerate_basis((2, 2, 3), n, weight))
            _require(
                counted == listed,
                f"count_dim and enumeration disagree at n={n}, weight={weight}",
            )
    return "all 51 table entries reproduced; enumeration cross-check at n=6, 12"


@_register("dims-conjecture")
def _check_dims_conjecture(seed: int) -> str:
    report = verify_table((2, 2, 3))
    bad = report.mismatches()
    _require(not bad, f"{len(bad)} of {len(report.entries)} table entries mismatch")
    for fit in report.interpolation:
        degrees = sum(e.column == fit.column for e in report.entries)
        _require(
            degrees == 17,
            f"{fit.column} column has {degrees} degrees, expected 17",
        )
        _require(
            fit.ok,
            f"interpolated coefficients differ from the closed form for {fit.column}",
        )
        _require(
            len(fit.coefficients) == 8,
            f"{fit.column} interpolant has degree {len(fit.coefficients) - 1}, expected 7",
        )
    for formula_id in FORMULA_IDS:
        for n in range(0, 301, 6):
            value = conjecture_dim(formula_id, n)
            _require(
                value.denominator == 1 and value >= 0,
                f"{formula_id} is not a non-negative integer at n={n}",
            )
    return "closed forms match all 51 entries; degree-7 interpolation recovers them"


def run_checks(only: str | None = None, seed: int = 1729) -> tuple[CheckResult, ...]:
    """Run the battery, optionally filtered by substring of the check name."""
    results = []
    for name, fn in _CHECKS:
        if only and only not in name:
            continue
        try:
            detail = fn(seed)
            results.append(CheckResult(name, True, detail))
        except CheckFailure as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CheckResult(name, False, f"crashed: {exc!r}"))
    return tuple(results)
