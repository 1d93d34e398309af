"""Exact invariants of small 3-way arrays.

The package derives the degree-6 hyperdeterminant of 2x2x3 arrays from
scratch: enumerate the weight-zero monomial basis, assemble the stacked
raising-operator matrix, and compute its exact integer nullspace.  Around
that core sit signed-orbit decomposition, exact evaluation with unimodular
invariance checks, weight-space dimension counting with closed-form
verification, and a named check battery (`hyperdet verify-paper`).

Everything is exact: arbitrary-precision integers and rationals, no floats.
"""

from .arrays import HyperArray, evaluate, invariance_check
from .operators import find_invariant
from .orbits import signed_orbit

__version__ = "0.1.0"

__all__ = [
    "HyperArray",
    "evaluate",
    "find_invariant",
    "invariance_check",
    "signed_orbit",
]
