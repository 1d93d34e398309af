"""Closed-form dimension polynomials for (2,2,3) weight spaces.

Three degree-7 polynomials in n give the dimensions of the weight spaces
that matter for the degree-6 invariant pipeline: weight zero and the two
shifted weights (2,0,0,0) and (0,0,2,-1).  The formulas come from exact
interpolation through the tabulated dimensions at n = 0, 6, ..., 96; they
are conjectural beyond that range, and this module asserts nothing past it
except integrality.  Symmetric weights share a formula: (0,2,0,0) has the
same dimensions as (2,0,0,0), and (0,0,-1,2) the same as (0,0,2,-1).

All arithmetic is over Fraction, so agreement checks are exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

from . import reference
from .polynomials import json_line
from .weights import count_dim

#: Each formula id's weight and its column in `reference.DIM_TABLE`.
TABLE_COLUMNS = {
    "weight0": ((0, 0, 0, 0), 1),
    "weight2000": ((2, 0, 0, 0), 2),
    "weight002-1": ((0, 0, 2, -1), 3),
}

FORMULA_IDS = tuple(TABLE_COLUMNS)

# Factored numerators and denominators (coefficient lists are constant-first)
_DENOM_A = 58786560
_DENOM_B = 11757312

_FACTORS = {
    "weight0": (
        _DENOM_A,
        ((6, 1), (9797760, 6811776, 2584224, 552096, 68004, 4500, 125)),
    ),
    "weight2000": (
        _DENOM_A,
        ((0, 1), (6, 1), (12, 1), (254664, 127224, 28602, 3000, 125)),
    ),
    "weight002-1": (
        _DENOM_B,
        ((0, 1), (6, 1), (12, 1), (396, 84, 5), (108, 36, 5)),
    ),
}


def _check_id(formula_id: str) -> str:
    if formula_id not in _FACTORS:
        raise ValueError(f"unknown formula id {formula_id!r}; expected one of {FORMULA_IDS}")
    return formula_id


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_eval(coeffs, n) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * n + c
    return total


@lru_cache(maxsize=len(_FACTORS))
def formula_coefficients(formula_id: str) -> tuple[Fraction, ...]:
    """Expanded coefficients of the closed form, constant term first."""
    denom, factors = _FACTORS[_check_id(formula_id)]
    coeffs = [Fraction(1)]
    for fac in factors:
        coeffs = _poly_mul(coeffs, [Fraction(c) for c in fac])
    return tuple(c / denom for c in coeffs)


def conjecture_dim(formula_id: str, n: int) -> Fraction:
    """Evaluate the closed form exactly; integral whenever 6 divides n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _poly_eval(formula_coefficients(formula_id), n)


def table_column(formula_id: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A formula id's tabulated column as (degrees, dims), n = 0, 6, ..., 96."""
    _, idx = TABLE_COLUMNS[_check_id(formula_id)]
    return (
        tuple(row[0] for row in reference.DIM_TABLE),
        tuple(row[idx] for row in reference.DIM_TABLE),
    )


def interpolate_dims(degrees, dims) -> tuple[Fraction, ...]:
    """Exact degree-<=7 interpolation through the first 8 (degree, dim) points.

    The remaining points must land on the curve; a point off the curve
    raises, since then the column is not polynomial of degree <= 7.
    Returns the expanded coefficients, constant term first, with trailing
    zero coefficients trimmed.
    """
    if len(degrees) != len(dims):
        raise ValueError("degrees and dims must have equal length")
    if len(degrees) < 8:
        raise ValueError("need at least 8 points for a degree-7 fit")
    xs = [Fraction(x) for x in degrees[:8]]
    ys = [Fraction(y) for y in dims[:8]]
    coeffs = [Fraction(0)] * 8
    for i in range(8):
        # Lagrange basis polynomial for node i, expanded
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(8):
            if j == i:
                continue
            basis = _poly_mul(basis, [-xs[j], Fraction(1)])
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    for x, y in zip(degrees[8:], dims[8:]):
        got = _poly_eval(coeffs, x)
        if got != y:
            raise ValueError(
                f"point (n={x}, dim={y}) is off the interpolated curve (got {got})"
            )
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class TableEntry:
    n: int
    column: str
    counted: int
    fixture: int
    formula: Fraction

    @property
    def ok(self) -> bool:
        return self.counted == self.fixture == self.formula


@dataclass(frozen=True)
class Interpolant:
    """A column's interpolant through its first 8 points, or the error that stopped it."""

    column: str
    coefficients: tuple[Fraction, ...] = ()
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.coefficients == formula_coefficients(self.column)


@dataclass(frozen=True)
class TableReport:
    """The dimension-table verdict: 51 three-way entries and one
    interpolant per column.  `ok` is the only pass rule."""

    shape: tuple[int, int, int]
    entries: tuple[TableEntry, ...]
    interpolation: tuple[Interpolant, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries) and all(f.ok for f in self.interpolation)

    def mismatches(self) -> tuple[TableEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    def to_json_bytes(self) -> bytes:
        """The report as `dims --verify-conjecture` prints it."""
        entries = [
            {**asdict(e), "formula": str(e.formula), "match": e.ok} for e in self.entries
        ]
        interpolation = [
            {"column": fit.column, "error": fit.error}
            if fit.error
            else {
                "column": fit.column,
                "degree": len(fit.coefficients) - 1,
                "matches_formula": fit.ok,
            }
            for fit in self.interpolation
        ]
        doc = {
            "shape": list(self.shape),
            "entries": entries,
            "interpolation": interpolation,
            "ok": self.ok,
        }
        return json_line(doc)


def verify_table(shape=(2, 2, 3)) -> TableReport:
    """The whole verdict on the dimension table: per column, 17 entries
    comparing counted, tabulated and closed-form dimensions, and the
    column's interpolant.  A transcription or counting error surfaces in
    the report rather than as an exception."""
    shape = tuple(shape)
    if shape != (2, 2, 3):
        raise ValueError("dimension table is only available for shape (2, 2, 3)")
    entries, interpolation = [], []
    for formula_id, (weight, _) in TABLE_COLUMNS.items():
        degrees, dims = table_column(formula_id)
        for n, fixture in zip(degrees, dims):
            entries.append(
                TableEntry(
                    n=n,
                    column=formula_id,
                    counted=count_dim(shape, n, weight),
                    fixture=fixture,
                    formula=conjecture_dim(formula_id, n),
                )
            )
        try:
            interpolation.append(Interpolant(formula_id, interpolate_dims(degrees, dims)))
        except ValueError as exc:
            interpolation.append(Interpolant(formula_id, error=str(exc)))
    return TableReport(shape, tuple(entries), tuple(interpolation))
