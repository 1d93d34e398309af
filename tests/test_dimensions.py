"""Closed-form dimension polynomials and exact interpolation."""

from fractions import Fraction

import pytest

from hyperdet import reference
from hyperdet.dimensions import (
    FORMULA_IDS,
    conjecture_dim,
    formula_coefficients,
    interpolate_dims,
    table_column,
    verify_table,
)


def test_spot_values():
    assert conjecture_dim("weight0", 6) == 80
    assert conjecture_dim("weight0", 0) == 1
    assert conjecture_dim("weight2000", 6) == 63
    assert conjecture_dim("weight002-1", 6) == 60
    assert conjecture_dim("weight002-1", 90) == 159258720
    assert conjecture_dim("weight0", 48) == 2851065


def test_formulas_are_degree_seven():
    for formula_id in FORMULA_IDS:
        coeffs = formula_coefficients(formula_id)
        assert len(coeffs) == 8
        assert coeffs[-1] != 0


def test_formulas_match_fixture_table():
    for formula_id in FORMULA_IDS:
        degrees, dims = table_column(formula_id)
        assert degrees == tuple(range(0, 97, 6))
        assert len(dims) == 17
        for n, dim in zip(degrees, dims):
            assert conjecture_dim(formula_id, n) == dim, (formula_id, n)


def test_verify_table_reports_51_matches():
    report = verify_table((2, 2, 3))
    assert len(report.entries) == 51
    assert report.ok
    assert report.mismatches() == ()
    by_key = {(e.n, e.column): e for e in report.entries}
    entry = by_key[(48, "weight0")]
    assert entry.counted == entry.fixture == entry.formula == 2851065
    entry = by_key[(6, "weight2000")]
    assert entry.counted == entry.fixture == entry.formula == 63


def test_verify_table_other_shape_rejected():
    with pytest.raises(ValueError):
        verify_table((2, 2, 2))


def test_interpolation_recovers_each_formula():
    for formula_id in FORMULA_IDS:
        fitted = interpolate_dims(*table_column(formula_id))
        assert fitted == formula_coefficients(formula_id)


def test_interpolation_constant_column():
    assert interpolate_dims(tuple(range(0, 97, 6)), (1,) * 17) == (Fraction(1),)


def test_interpolation_rejects_off_curve_point():
    degrees, dims = table_column("weight0")
    dims = list(dims)
    dims[-1] += 1  # corrupt a validation point beyond the 8 fit points
    with pytest.raises(ValueError):
        interpolate_dims(degrees, tuple(dims))


def test_interpolation_needs_eight_points():
    with pytest.raises(ValueError):
        interpolate_dims((0, 6, 12), (1, 80, 1323))


def test_integrality_beyond_the_table():
    for formula_id in FORMULA_IDS:
        for n in range(0, 301, 6):
            value = conjecture_dim(formula_id, n)
            assert value.denominator == 1
            assert value >= 0


def test_bad_inputs():
    with pytest.raises(ValueError):
        conjecture_dim("weight9999", 6)
    with pytest.raises(ValueError):
        conjecture_dim("weight0", -6)
    with pytest.raises(ValueError, match="equal length"):
        interpolate_dims(tuple(range(0, 97, 6)), (1,) * 16)


def test_fixture_table_shape():
    assert len(reference.DIM_TABLE) == 17
    ns = [row[0] for row in reference.DIM_TABLE]
    assert ns == list(range(0, 97, 6))
    for row in reference.DIM_TABLE[1:]:
        # weight-zero spaces dominate the shifted ones at every degree
        assert row[1] > row[2] > row[3]
