"""Exact sparse polynomials in the entries of a small 3-way array.

A monomial is a flattened vector of non-negative integer exponents, one per
array cell.  The last mode is outermost, then modes 1..k-1 row-major: for
shape (a, b, c) the cell (i, j, k) (all indices 1-based) lands at flat
position ((k-1)*a + (i-1))*b + (j-1), frontal slice by frontal slice.  For
shape (2, 2, 3) this gives the variable order

    x111 x121 x211 x221  x112 x122 x212 x222  x113 x123 x213 x223

This module owns that layout: `cells` lists the cells in flat order,
`flat_index` maps a cell to its position, and `fibers` groups the positions
by mode.  A mode-m fiber is the set of cells that agree on every index but
the m-th; it lists their flat positions by their mode-m index.  Slice t of
mode m is the t-th position of every mode-m fiber, so
`zip(*fibers(shape, m))` gives the slices of mode m in order.  For shape
(2, 2, 3) the mode-1 fibers are (0, 2), (1, 3), (4, 6), ... and the first
horizontal slice is (0, 1, 4, 5, 8, 9).

A polynomial is a sum of (exponent vector, integer coefficient) terms kept
in canonical order: descending lexicographic on the exponent vector, no zero
coefficients, no duplicate monomials.  Coefficients are arbitrary-precision
ints.  Instances are immutable and every operation is a pure function, so
values can be shared freely between threads.

Two serializations are provided:

* canonical JSON, the interchange format used by all other modules and the
  command line:
      {"shape":[2,2,3],"terms":[{"exps":[2,0,...,2],"coeff":"1"},...]}
  with terms in canonical order and coefficients as decimal strings so that
  files stay parseable regardless of word size;
* letter text, a display that is written but never read: the variables as
  consecutive lowercase letters in flat order (a..l for shape (2, 2, 3)),
  one term per line, e.g. "+ a^2 f g l^2", for shapes of at most 26 cells.

Every value read from outside (JSON, digit strings, command line flags)
passes one of two integer rules defined here: `parse_int` for text and
`check_int` for JSON or API values.  Nothing is coerced.
"""

from __future__ import annotations

import json
import re
import string
from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from math import prod
from typing import Iterable, Iterator, Mapping

Exponents = tuple[int, ...]
Shape = tuple[int, ...]

#: Letter names of the twelve variables of a (2, 2, 3) array, in flat order.
LETTERS = "abcdefghijkl"

_TEXT_INT = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """A text integer: ASCII `-?[0-9]+` only; '+', spaces, '_' and non-ASCII digits are refused."""
    if not _TEXT_INT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def check_int(value) -> int:
    """A JSON or API integer: exactly an int; bools, floats and strings are refused."""
    if type(value) is not int:
        raise ValueError(f"not an integer: {value!r}")
    return value


@contextmanager
def malformed(what: str):
    """Report any failure to read a JSON document as 'malformed <what> JSON'."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


def json_line(doc) -> bytes:
    """The one canonical JSON writer: compact separators, ASCII, trailing newline."""
    return json.dumps(doc, separators=(",", ":")).encode("ascii") + b"\n"


def check_shape(dims) -> Shape:
    """Validate a mode-size tuple: exactly three integer modes, each >= 1.
    Layout, enumeration and operators loop over the modes; the array slice
    nesting, the orbit sign and the battery's oracles are three-mode too."""
    dims = tuple(check_int(d) for d in dims)
    if len(dims) != 3:
        raise ValueError(f"expected 3 modes, got {dims!r}")
    if any(d < 1 for d in dims):
        raise ValueError(f"mode sizes must be >= 1, got {dims!r}")
    return dims


def cell_count(shape: Shape) -> int:
    return prod(shape)


def flat_index(shape: Shape, *cell: int) -> int:
    """Flat position of a cell, 1-based indices: the last mode outermost,
    then modes 1..k-1 row-major; IndexError for a cell outside the shape."""
    if len(cell) != len(shape) or not all(0 < x <= d for x, d in zip(cell, shape)):
        raise IndexError(f"cell {cell} is outside shape {shape}")
    pos = cell[-1] - 1
    for x, d in zip(cell, shape[:-1]):
        pos = pos * d + x - 1
    return pos


def cells(shape: Shape) -> Iterator[tuple[int, ...]]:
    """All cells in flat order, 1-based."""
    ranges = [range(1, d + 1) for d in shape]
    return ((*rest, last) for last, *rest in product(ranges[-1], *ranges[:-1]))


@lru_cache(maxsize=32)
def fibers(shape: Shape, mode: int) -> tuple[tuple[int, ...], ...]:
    """Flat positions of every mode-`mode` fiber: fibers in the flat order of
    their first cell, the cells of a fiber by their index in that mode."""
    if not 1 <= mode <= len(shape):
        raise ValueError(f"mode must be 1..{len(shape)}, got {mode}")
    out: dict[tuple[int, ...], list[int]] = {}
    for pos, cell in enumerate(cells(shape)):
        out.setdefault(cell[: mode - 1] + cell[mode:], []).append(pos)
    return tuple(tuple(f) for f in out.values())


def exps_from_digits(digits: str) -> Exponents:
    """Parse a monomial written as ASCII digits, one exponent each, e.g. '200001100002'."""
    if not digits or not all(_TEXT_INT.fullmatch(ch) for ch in digits):
        raise ValueError(f"not a digit string: {digits!r}")
    return tuple(parse_int(ch) for ch in digits)


def exps_to_digits(exps: Exponents) -> str:
    if any(e > 9 for e in exps):
        raise ValueError("digit form requires every exponent <= 9")
    return "".join(str(e) for e in exps)


class IntPolynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("shape", "terms")

    def __init__(self, shape, terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]] = ()):
        shape = check_shape(shape)
        n_cells = cell_count(shape)
        collected: dict[Exponents, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n_cells:
                raise ValueError(f"monomial has {len(exps)} exponents, shape {shape} needs {n_cells}")
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponents {exps} are not all integers >= 0")
            coeff = check_int(coeff)
            if coeff:
                s = collected.get(exps, 0) + coeff
                if s:
                    collected[exps] = s
                elif exps in collected:
                    del collected[exps]
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", tuple(sorted(collected.items(), reverse=True)))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls, shape) -> "IntPolynomial":
        return cls(shape)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return IntPolynomial(self.shape, acc)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Exponents, int]]:
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.shape, self.terms))

    def __repr__(self) -> str:
        return f"IntPolynomial(shape={self.shape}, terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# canonical JSON serialization
# ---------------------------------------------------------------------------

def to_json_bytes(p: IntPolynomial) -> bytes:
    """Serialize to the canonical JSON interchange form (trailing newline).

    The output is byte-deterministic: equal polynomials serialize to equal
    bytes and vice versa.
    """
    doc = {
        "shape": list(p.shape),
        "terms": [{"exps": list(e), "coeff": str(c)} for e, c in p.terms],
    }
    return json_line(doc)


def _term_from_json(term) -> tuple[Exponents, int]:
    """One term: a string coefficient is a text integer; the constructor checks the rest."""
    coeff = term["coeff"]
    return term["exps"], parse_int(coeff) if isinstance(coeff, str) else coeff


def from_json_bytes(data: bytes | str) -> IntPolynomial:
    """Parse the canonical JSON form (term order in the input is not trusted)."""
    with malformed("polynomial"):
        doc = json.loads(data)
        return IntPolynomial(doc["shape"], [_term_from_json(t) for t in doc["terms"]])


# ---------------------------------------------------------------------------
# letter text serialization
# ---------------------------------------------------------------------------

def letters_for(shape: Shape) -> str:
    """Variable letters of the shape, in flat order."""
    n = cell_count(shape)
    if n > 26:
        raise ValueError(f"letter text needs <= 26 cells, shape {shape} has {n}")
    return string.ascii_lowercase[:n]


def term_to_letters(exps: Exponents, coeff: int, letters: str = LETTERS) -> str:
    """Render one term, e.g. (x111^2 x122 x212 x223^2, +1) -> '+ a^2 f g l^2'."""
    parts = ["+" if coeff > 0 else "-"]
    if abs(coeff) != 1:
        parts.append(str(abs(coeff)))
    for pos, e in enumerate(exps):
        if e == 1:
            parts.append(letters[pos])
        elif e > 1:
            parts.append(f"{letters[pos]}^{e}")
    return " ".join(parts)


def to_letter_text(p: IntPolynomial) -> str:
    """Render a polynomial as letter text, one term per line."""
    letters = letters_for(p.shape)
    if p.is_zero:
        return "0\n"
    return "".join(term_to_letters(e, c, letters) + "\n" for e, c in p.terms)
