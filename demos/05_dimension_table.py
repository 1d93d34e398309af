"""Weight-space dimensions of 2x2x3 arrays across degrees, and closed forms.

A lattice-point counting DP gives the dimension of any weight space
without enumerating it.  Three columns (weight zero, weight (2,0,0,0),
weight (0,0,2,-1)) follow degree-7 polynomials in the degree; exact
Lagrange interpolation through the first eight table points recovers
those polynomials, and the remaining nine points confirm them.
"""

from hyperdet.dimensions import conjecture_dim, formula_coefficients, verify_table
from hyperdet.weights import count_dim

SHAPE = (2, 2, 3)
WEIGHTS = {"weight0": (0, 0, 0, 0), "weight2000": (2, 0, 0, 0), "weight002-1": (0, 0, 2, -1)}

print(f"{'n':>3} {'weight 0':>12} {'weight (2,0,0,0)':>18} {'weight (0,0,2,-1)':>18}")
for n in range(0, 97, 6):
    row = [count_dim(SHAPE, n, w) for w in WEIGHTS.values()]
    print(f"{n:>3} {row[0]:>12} {row[1]:>18} {row[2]:>18}")

report = verify_table(SHAPE)
print(f"\nall {len(report.entries)} fixture entries match the fresh counts "
      f"and the closed forms: {report.ok}")

print()
for fit in report.interpolation:
    coeffs = formula_coefficients(fit.column)
    print(f"{fit.column}:")
    print(f"  degree {len(coeffs) - 1} polynomial, leading coefficient {coeffs[-1]}")
    print(f"  interpolation through 8 points recovers it: {fit.ok}")

print()
print("the closed forms extrapolate far beyond the table:")
for n in (102, 300, 600):
    value = conjecture_dim("weight0", n)
    print(f"  weight-zero dimension at degree {n}: {value}")
