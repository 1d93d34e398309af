"""Verification battery: one acceptance test per registered check, plus the
registry, oracles and failure reporting."""

from dataclasses import replace
from fractions import Fraction
from itertools import count
from types import SimpleNamespace

import pytest

from hyperdet import operators, reference, verify
from hyperdet.polynomials import exps_from_digits, from_json_bytes
from hyperdet.weights import _count_dim_cached, enumerate_basis


@pytest.mark.parametrize("name", verify.check_names())
def test_criterion(name):
    # cold counting cache, as in a fresh `hyperdet verify-paper` process, so
    # the dims-table wall-clock gate times the DP itself
    _count_dim_cached.cache_clear()
    results = verify.run_checks(only=name)
    assert [r.name for r in results] == [name]
    assert results[0].ok, results[0].detail
    assert results[0].detail


def test_timing_gates_fail_slow_runs(monkeypatch):
    # every clock read lands 100 s after the previous one
    ticks = count(step=100.0)
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    for name in ("basis-monomials", "matrix-kernel", "dims-table"):
        (result,) = verify.run_checks(only=name)
        assert not result.ok and "took 100.000s" in result.detail


def test_codomain_check_cross_checks_enumeration(monkeypatch):
    # the enumerator drops the last monomial of the weight (2, 0, 0, 0) space
    def short(shape, n, weight):
        basis = enumerate_basis(shape, n, weight)
        if weight != (2, 0, 0, 0):
            return basis
        return replace(basis, monomials=basis.monomials[:-1])

    monkeypatch.setattr(verify, "enumerate_basis", short)
    (result,) = verify.run_checks(only="codomain-dimensions")
    assert not result.ok
    assert "weight (2, 0, 0, 0)" in result.detail


def test_check_registry():
    names = verify.check_names()
    assert len(names) == 10
    assert len(set(names)) == 10
    assert names[0] == "basis-monomials"
    assert "coefficient-table" in names
    assert "cayley" in names


def test_run_checks_only_filter():
    results = verify.run_checks(only="orbit")
    assert [r.name for r in results] == ["orbit-decomposition"]
    assert verify.run_checks(only="zzz") == ()


def test_fixture_invariant_matches_loader():
    assert verify.fixture_invariant() == from_json_bytes(reference.hyperdet_file_bytes())


def test_oracle_monomials_agree_with_enumeration():
    for shape, n in [((2, 2, 3), 6), ((2, 2, 2), 4), ((3, 2, 2), 6)]:
        zero = (0,) * (sum(shape) - len(shape))
        basis = enumerate_basis(shape, n, zero)
        assert verify._oracle_weight_zero_monomials(shape, n) == list(basis.monomials)


def test_oracle_raise_moves_one_unit():
    # x112 -> x111 under U(3,1) on shape (2,2,3)
    exps = exps_from_digits("000010000000")
    image = verify._oracle_raise((2, 2, 3), 3, 1, exps)
    assert image == [(1, exps_from_digits("100000000000"))]


def test_rref_kernel_small_cases():
    assert verify._rref_kernel([[Fraction(1), Fraction(2)]], 2) == [(2, -1)]
    assert (
        verify._rref_kernel([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], 2)
        == []
    )
    assert verify._rref_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # rational kernel vectors: cleared of denominators, positive first entry
    assert verify._rref_kernel([[2, 3]], 2) == [(3, -2)]
    assert verify._rref_kernel([[0, 2, 3]], 3) == [(1, 0, 0), (0, 3, -2)]


def test_oracle_invariants_cayley():
    monos, kernel = verify.oracle_invariants((2, 2, 2), 4)
    assert len(monos) == 12
    assert len(kernel) == 1
    assert sorted(abs(c) for c in kernel[0] if c) == [1] * 4 + [2] * 6 + [4] * 2


def test_oracle_does_not_call_the_pipeline_normalization(monkeypatch):
    matrix = operators.assemble_matrix((2, 2, 2), 4)
    pipeline = operators.exact_kernel(matrix).basis

    def refuse(vec):
        raise AssertionError("the oracle called operators.primitive_vector")

    # swap the function body, so no name the function was imported under escapes
    monkeypatch.setattr(operators.primitive_vector, "__code__", refuse.__code__)
    _, kernel = verify.oracle_invariants((2, 2, 2), 4)
    assert kernel == list(pipeline) and len(kernel) == 1


def test_crash_is_reported_not_raised(monkeypatch):
    def boom(seed):
        raise RuntimeError("synthetic")

    patched = [(n, boom if n == "annihilation" else f) for n, f in verify._CHECKS]
    monkeypatch.setattr(verify, "_CHECKS", patched)
    results = verify.run_checks(only="annihilation")
    assert len(results) == 1
    assert not results[0].ok
    assert "crashed" in results[0].detail and "synthetic" in results[0].detail
