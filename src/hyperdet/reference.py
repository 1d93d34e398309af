"""Reference values for the 2x2x3 hyperdeterminant calculation.

These constants are the published ground truth that the verification battery
and the golden tests compare against.  Nothing in this module is computed;
every value is a transcription, here or in the `data` files, and the test
suite cross-checks the pipeline against all of them (enumeration order,
kernel coefficients, orbit structure, weight-space dimensions).
"""

from __future__ import annotations

from importlib import resources


def basis_file_bytes() -> bytes:
    """Golden file contents for the degree-6 weight-zero basis."""
    return resources.files("hyperdet.data").joinpath("basis_2x2x3_deg6.txt").read_bytes()


def hyperdet_file_bytes() -> bytes:
    """Golden file contents for the 66-term invariant in canonical JSON."""
    return resources.files("hyperdet.data").joinpath("hyperdet_2x2x3.json").read_bytes()


# The 80 weight-zero monomials of degree 6 for shape (2, 2, 3), written as
# 12-digit exponent strings in flat order, listed in descending
# lexicographic (canonical) order: the golden file, one monomial a line.
BASIS_DEG6_WEIGHT0 = tuple(basis_file_bytes().decode("ascii").split())

# Kernel coefficient vector of the degree-6 invariant, as a 4x20 table read
# row-major against BASIS_DEG6_WEIGHT0.  66 entries are nonzero, all +-1 or
# +-2, and the leading nonzero coefficient (monomial 200001100002) is +1.
COEFF_ROWS = (
    (0, 1, -1, -1, 0, 1, -1, 1, -1, 1, 1, 1, -1, -1, -1, 1, 1, -1, 1, -1),
    (1, -1, 0, 1, 1, 0, -2, -1, -2, 2, 1, -1, 1, 0, 1, -1, 0, -1, 0, 1),
    (1, -1, -1, -2, 2, 0, 2, 0, -1, 0, -1, 1, -1, 1, 1, -1, 1, -1, 1, -1),
    (1, -1, -1, 0, 0, 1, -1, 1, -1, 1, 1, 1, -1, -1, 0, 1, -1, -1, 0, 1),
)

COEFFICIENTS = tuple(v for row in COEFF_ROWS for v in row)

# The same 66-term polynomial in single-letter form (a..l in flat variable
# order), grouped as published: twelve 2211 terms, then twenty-four and
# twice twelve 21111 terms, then the six coefficient-2 square-free terms.
LETTER_DISPLAY = """\
+ a^2 f g l^2
+ a^2 h^2 j k
- a d f^2 k^2
- a d g^2 j^2
- b^2 e h k^2
- b^2 g^2 i l
+ b c e^2 l^2
+ b c h^2 i^2
- c^2 e h j^2
- c^2 f^2 i l
+ d^2 e^2 j k
+ d^2 f g i^2
- a^2 f h k l
- a^2 g h j l
- a b e g l^2
+ a b f h k^2
+ a b g^2 j l
- a b h^2 i k
- a c e f l^2
+ a c f^2 k l
+ a c g h j^2
- a c h^2 i j
+ b^2 e g k l
+ b^2 g h i k
- b d e^2 k l
+ b d e f k^2
+ b d g^2 i j
- b d g h i^2
+ c^2 e f j l
+ c^2 f h i j
- c d e^2 j l
+ c d e g j^2
+ c d f^2 i k
- c d f h i^2
- d^2 e f i k
- d^2 e g i j
+ a b e h k l
- a b f g k l
+ a b g h i l
- a b g h j k
+ a d e f k l
+ a d g h i j
- b c e f k l
- b c g h i j
+ c d e f i l
- c d e f j k
+ c d e h i j
- c d f g i j
+ a c e h j l
- a c f g j l
+ a c f h i l
- a c f h j k
+ a d e g j l
+ a d f h i k
- b c e g j l
- b c f h i k
+ b d e g i l
- b d e g j k
+ b d e h i k
- b d f g i k
- 2 a d e h j k
- 2 a d f g i l
+ 2 a d f g j k
- 2 b c e h i l
+ 2 b c e h j k
+ 2 b c f g i l
"""

# Weight-space dimensions for shape (2, 2, 3): rows are
# (degree, dim at weight (0,0,0,0), dim at (2,0,0,0) = dim at (0,2,0,0),
#  dim at (0,0,2,-1) = dim at (0,0,-1,2)).
DIM_TABLE = (
    (0, 1, 0, 0),
    (6, 80, 63, 60),
    (12, 1323, 1206, 1180),
    (18, 9832, 9354, 9240),
    (24, 46733, 45294, 44940),
    (30, 167184, 163629, 162740),
    (36, 491383, 483732, 481800),
    (42, 1250576, 1235700, 1231920),
    (48, 2851065, 2824308, 2817480),
    (54, 5959216, 5913963, 5902380),
    (60, 11610467, 11537658, 11518980),
    (66, 21345336, 21232926, 21204040),
    (72, 37375429, 37207794, 37164660),
    (78, 62782448, 62539737, 62477220),
    (84, 101753199, 101410632, 101322320),
    (90, 159853600, 159380712, 159258720),
    (96, 244344689, 243704520, 243539280),
)
