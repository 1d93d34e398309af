"""Independent oracles for the benchmark's operations.

Nothing here imports `hyperdet`: every check is written from the
mathematics, so a defect in the pipeline cannot hide in a shared helper.
Entries are Python ints or `Fraction`s and every comparison is exact.
"""

from __future__ import annotations

from collections import defaultdict


def det3(m):
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def hyperdet_2x2x3(flat):
    """D of a 2x2x3 array from its boundary-format determinant formula.

    The array is flattened to the 3x4 matrix whose rows are the frontal
    slices (columns x11, x12, x21, x22, the flat cell order inside a slice).
    n_i is the 3x3 minor with column i deleted, signed by (-1)^i, and
    D = n0*n3 - n1*n2.
    """
    rows = [flat[0:4], flat[4:8], flat[8:12]]
    n = [
        (-1) ** i * det3([[r[j] for j in range(4) if j != i] for r in rows])
        for i in range(4)
    ]
    return n[0] * n[3] - n[1] * n[2]


def cayley_2x2x2(flat):
    """Cayley's hyperdeterminant of a 2x2x2 array, cells a..h in flat order."""
    a, b, c, d, e, f, g, h = flat
    return (
        a * a * h * h + b * b * g * g + c * c * f * f + d * d * e * e
        - 2 * (a * b * g * h + a * c * f * h + a * d * e * h
               + b * c * f * g + b * d * e * g + c * d * e * f)
        + 4 * (a * d * f * g + b * c * e * h)
    )


# Cayley's formula as (coefficient, letters) terms, the same transcription as
# `cayley_2x2x2`, used to build the polynomial the benchmark evaluates.
CAYLEY_TERMS = (
    (1, "aahh"), (1, "bbgg"), (1, "ccff"), (1, "ddee"),
    (-2, "abgh"), (-2, "acfh"), (-2, "adeh"),
    (-2, "bcfg"), (-2, "bdeg"), (-2, "cdef"),
    (4, "adfg"), (4, "bceh"),
)


def cayley_exponent_terms() -> list[tuple[tuple[int, ...], int]]:
    """CAYLEY_TERMS as (exponent vector over cells a..h, coefficient)."""
    out = []
    for coeff, letters in CAYLEY_TERMS:
        exps = [0] * 8
        for ch in letters:
            exps["abcdefgh".index(ch)] += 1
        out.append((tuple(exps), coeff))
    return out


def annihilates(entries, vector) -> bool:
    """Exact sparse check over the integers that M * v == 0.

    `entries` are (row, col, value) triples of M.
    """
    sums: dict[int, int] = defaultdict(int)
    for r, c, v in entries:
        sums[r] += v * vector[c]
    return not any(sums.values())


def weight_from_sums(sums) -> tuple[int, ...]:
    """Weight vector: consecutive slice-sum differences, mode by mode."""
    return tuple(s[t] - s[t + 1] for s in sums for t in range(len(s) - 1))


def mirrors(sums):
    """Slice sums after reversing one mode, for each mode whose reversal
    changes them.  Reversing the slices of a mode is a bijection on exponent
    arrays, so every mirror has the same weight-space dimension."""
    for m, s in enumerate(sums):
        flipped = tuple(reversed(s))
        if flipped != s:
            yield sums[:m] + (flipped,) + sums[m + 1:]
