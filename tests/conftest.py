"""Terminal reporting for the acceptance battery.

Maps each generated `test_criterion[<check>]` to its criterion number, the
check's position in the `verify` registry, and prints one pass/fail line per
criterion after the run.  All criteria compare exactly (integer/rational
equality, tolerance 0).
"""

import pytest

from hyperdet.verify import check_names

LABELS = {
    "basis-monomials": "weight-zero basis: the 80 degree-6 monomials, order and bytes",
    "codomain-dimensions": "raising-operator codomains have dimensions 63, 63, 60, 60",
    "matrix-kernel": "stacked matrix is 246x80 with exact rank 79, nullity 1",
    "coefficient-table": (
        "kernel vector equals the 4x20 table; 66 terms in {+-1, +-2}; letter display"
    ),
    "annihilation": "all four raising operators annihilate the invariant exactly",
    "orbit-decomposition": "signed orbits (supports 12, 24, 12, 12, 6) combine to the invariant",
    "invariance": "100 unimodular trials preserve the value; diagonal covariance holds",
    "cayley": "2x2x2 degree-4 pipeline: nullity 1, oracle match, annihilation, invariance",
    "dims-table": "counting DP reproduces all 51 table entries; enumeration cross-check",
    "dims-conjecture": "closed forms match all 17 degrees; interpolation recovers coefficients",
}

_outcomes = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.originalname != "test_criterion":
        return
    name = item.callspec.params["name"]
    if report.when == "call" or report.failed:
        _outcomes[name] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria (exact comparisons, tolerance 0)")
    for num, name in enumerate(check_names(), start=1):
        if name in _outcomes:
            status = "pass" if _outcomes[name] else "FAIL"
            terminalreporter.write_line(f"criterion {num:>2} {status}  {LABELS[name]}")
