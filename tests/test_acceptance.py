"""Acceptance gate: the fourteen release criteria at full scope.

Each test drives one criterion from pspectral.verify, prints its
one-line summary, and fails with the measured details if the criterion
does not hold.  The whole file is budgeted to finish in well under five
minutes; expensive artifacts (model solves, certificates, eigenpairs)
are shared through a session-scoped cache, which also carries the seed.
A last test counts the solves of one quick run: the cache must make
each of them once.
"""

from collections import Counter

import pytest

from pspectral import verify


@pytest.fixture(scope="session")
def cache():
    return verify.Cache(seed=verify.DEFAULT_SEED)


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_half_period_closed_form(cache):
    _check(verify.criterion_1("full", cache))


def test_criterion_02_power_identity(cache):
    _check(verify.criterion_2("full", cache))


def test_criterion_03_equality_case_eigenvalues(cache):
    _check(verify.criterion_3("full", cache))


def test_criterion_04_window_exceeds_half_period(cache):
    _check(verify.criterion_4("full", cache))


def test_criterion_05_phase_speed_lower_bound(cache):
    _check(verify.criterion_5("full", cache))


def test_criterion_06_certificate_grid(cache):
    _check(verify.criterion_6("full", cache))


def test_criterion_07_operator_identity_residuals(cache):
    _check(verify.criterion_7("full", cache))


def test_criterion_08_random_matrix_inequality(cache):
    _check(verify.criterion_8("full", cache))


def test_criterion_09_composition_rule(cache):
    _check(verify.criterion_9("full", cache))


def test_criterion_10_gradient_bound(cache):
    _check(verify.criterion_10("full", cache))


def test_criterion_11_backend_agreement(cache):
    _check(verify.criterion_11("full", cache))


def test_criterion_12_profile_constancy_and_control(cache):
    _check(verify.criterion_12("full", cache))


def test_criterion_13_bounds_ordering(cache):
    _check(verify.criterion_13("full", cache))


def test_criterion_14_byte_identical_reports(cache):
    _check(verify.criterion_14("full", cache))


def test_quick_run_solves_each_eigenpair_and_profile_once(monkeypatch):
    # counters on verify's module bindings: a cache that captured the
    # solvers at import time would bypass them (and a tracer with them)
    calls = Counter()
    solves = []

    def counted(name):
        fn = getattr(verify, name)

        def run(*args, **kwargs):
            calls[name] += 1
            if name != "solve_model":
                dom, p = args
                solves.append((name, dom.kind, dom.N, dom.length,
                               dom.n_weight, p))
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, run)

    for name in ("solve_eigen_variational", "solve_eigen_shooting",
                 "solve_model"):
        counted(name)
    report = verify.run_all("quick", include_determinism=False)
    assert report["passed"]
    assert calls == {"solve_eigen_variational": 4, "solve_eigen_shooting": 3,
                     "solve_model": 7}
    assert len(set(solves)) == len(solves), solves
