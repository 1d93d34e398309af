"""Exact sparse polynomials in the entries of a small 3-way array.

A monomial is a flattened vector of non-negative integer exponents, one per
array cell.  Cells are flattened frontal slice by frontal slice, row-major
inside each slice: for shape (a, b, c) the cell (i, j, k) (all indices
1-based) lands at flat position ((k-1)*a + (i-1))*b + (j-1).  For shape
(2, 2, 3) this gives the variable order

    x111 x121 x211 x221  x112 x122 x212 x222  x113 x123 x213 x223

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
* letter text, writing the variables as consecutive lowercase letters in
  flat order (a..l for shape (2, 2, 3)), one term per line, e.g.
  "+ a^2 f g l^2".  Available for any shape with at most 26 cells.
"""

from __future__ import annotations

import json
import string
from typing import Iterable, Iterator, Mapping

Exponents = tuple[int, ...]
Shape = tuple[int, int, int]

#: Letter names of the twelve variables of a (2, 2, 3) array, in flat order.
LETTERS = "abcdefghijkl"


def check_shape(dims) -> Shape:
    """Validate a mode-size tuple: exactly three modes, each of size >= 1."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise ValueError(f"expected 3 modes, got {dims!r}")
    if any(d < 1 for d in dims):
        raise ValueError(f"mode sizes must be >= 1, got {dims!r}")
    return dims


def cell_count(shape: Shape) -> int:
    a, b, c = shape
    return a * b * c


def flat_index(shape: Shape, i: int, j: int, k: int) -> int:
    """Flat position of cell (i, j, k), 1-based indices."""
    a, b, _ = shape
    return ((k - 1) * a + (i - 1)) * b + (j - 1)


def cells(shape: Shape) -> Iterator[tuple[int, int, int]]:
    """All cells (i, j, k) in flat order, 1-based."""
    a, b, c = shape
    for k in range(1, c + 1):
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                yield (i, j, k)


def exps_from_digits(digits: str) -> Exponents:
    """Parse a monomial written as a digit string, e.g. '200001100002'."""
    if not digits.isdigit():
        raise ValueError(f"not a digit string: {digits!r}")
    return tuple(int(ch) for ch in digits)


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
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = int(coeff)
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

    @classmethod
    def monomial(cls, shape, exps: Exponents, coeff: int = 1) -> "IntPolynomial":
        return cls(shape, [(tuple(exps), coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exponents) -> int:
        exps = tuple(exps)
        for e, c in self.terms:
            if e == exps:
                return c
        return 0

    def monomials(self) -> tuple[Exponents, ...]:
        return tuple(e for e, _ in self.terms)

    def _require_same_shape(self, other: "IntPolynomial") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._require_same_shape(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return IntPolynomial(self.shape, acc)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(self.shape, [(e, -c) for e, c in self.terms])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: int) -> "IntPolynomial":
        if not isinstance(scalar, int):
            return NotImplemented
        return IntPolynomial(self.shape, [(e, c * scalar) for e, c in self.terms])

    __rmul__ = __mul__

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
    return json.dumps(doc, separators=(",", ":")).encode("ascii") + b"\n"


def from_json_bytes(data: bytes | str) -> IntPolynomial:
    """Parse the canonical JSON form (term order in the input is not trusted)."""
    try:
        doc = json.loads(data)
        shape = doc["shape"]
        terms = [(tuple(t["exps"]), int(t["coeff"])) for t in doc["terms"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from exc
    return IntPolynomial(shape, terms)


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


def from_letter_text(text: str, shape=(2, 2, 3)) -> IntPolynomial:
    """Parse letter text back into a polynomial of the given shape.

    Whitespace and line breaks are insignificant; every term must start with
    an explicit sign.  "0" parses to the zero polynomial.
    """
    shape = check_shape(shape)
    letters = letters_for(shape)
    tokens = text.split()
    if tokens == ["0"]:
        return IntPolynomial.zero(shape)
    terms: list[tuple[Exponents, int]] = []
    pos = 0
    while pos < len(tokens):
        sign_tok = tokens[pos]
        if sign_tok not in ("+", "-"):
            raise ValueError(f"expected sign, got {sign_tok!r}")
        sign = 1 if sign_tok == "+" else -1
        pos += 1
        magnitude = 1
        if pos < len(tokens) and tokens[pos].isdigit():
            magnitude = int(tokens[pos])
            pos += 1
        exps = [0] * len(letters)
        saw_letter = False
        while pos < len(tokens) and tokens[pos] not in ("+", "-"):
            tok = tokens[pos]
            letter, _, power = tok.partition("^")
            if letter not in letters or (power and not power.isdigit()):
                raise ValueError(f"bad variable token {tok!r}")
            exps[letters.index(letter)] += int(power) if power else 1
            saw_letter = True
            pos += 1
        if not saw_letter:
            raise ValueError("term with no variables")
        terms.append((tuple(exps), sign * magnitude))
    return IntPolynomial(shape, terms)
