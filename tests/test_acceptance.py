"""Acceptance gate: the fourteen release criteria at full scope.

Each test drives one criterion from pspectral.verify, prints its
one-line summary, and fails with the measured details if the criterion
does not hold.  The whole file is budgeted to finish in well under five
minutes; expensive artifacts (model solves, certificates, eigenpairs)
are shared through a session-scoped cache, which also carries the seed.
The tests after them count the solves of one quick run (the cache must
make each of them once) and check verify.GATES: each gate decides its
criterion, a NaN in one case fails it, and the benchmark's copy of the
bounds agrees with the table.
"""

import dataclasses
import importlib.util
import pathlib
import sys
from collections import Counter

import numpy as np
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


@pytest.fixture(scope="module")
def quick_measured():
    """One quick-scope cache, and each gated criterion's measured values
    as it handed them to _judge under the real table."""
    cache = verify.Cache()
    measured = {}
    judge = verify._judge

    def spy(cid, name, values, ok, **shown):
        measured[cid] = dict(values)
        return judge(cid, name, values, ok, **shown)

    verify._judge = spy
    try:
        for cid in verify.GATES:
            assert verify.CRITERIA[cid - 1]("quick", cache).passed, cid
    finally:
        verify._judge = judge
    return cache, measured


@pytest.mark.parametrize("cid, key", [(cid, key)
                                      for cid, gates in verify.GATES.items()
                                      for key in gates])
def test_each_gate_decides_its_criterion(quick_measured, monkeypatch, cid,
                                         key):
    # a bound at the measured value passes; one float past it fails
    cache, measured = quick_measured
    criterion = verify.CRITERIA[cid - 1]
    kind, _ = verify.GATES[cid][key]
    value = measured[cid][key]
    monkeypatch.setitem(verify.GATES[cid], key, (kind, value))
    assert criterion("quick", cache).passed
    past = np.nextafter(value, -np.inf if kind == "max" else np.inf)
    monkeypatch.setitem(verify.GATES[cid], key, (kind, past))
    assert not criterion("quick", cache).passed


def test_nan_in_one_case_fails_its_criterion():
    # the NaN is criterion 11's first quick case: a worst case kept with
    # Python's max would drop it (max(0.0, nan) is 0.0) and pass
    class NanCache(verify.Cache):
        def eig(self, solver, kind, p, N, n=None):
            res = super().eig(solver, kind, p, N, n)
            if (solver is verify.solve_eigen_variational
                    and (kind, p, n) == ("radial", 2.0, 3.0)):
                return dataclasses.replace(res, lam=float("nan"))
            return res

    result = verify.criterion_11("quick", NanCache())
    assert not result.passed
    assert result.details["max_rel"] == "nan"


def test_benchmark_gate_copy_matches_the_table(monkeypatch):
    # perfbench/workloads.py keeps its own copy of the bounds, read here
    # without changing it (its dataclasses need it in sys.modules)
    path = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "workloads.py")
    if not path.exists():
        pytest.skip("no benchmark workloads")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    rows = getattr(workloads, "VERIFY_GATES", None)
    if rows is None:
        pytest.skip("the benchmark keeps no copy of the gates")
    kinds = {"upper": "max", "lower": "min"}
    for cid, key, bound, kind in rows:
        assert verify.GATES[cid][key] == (kinds[kind], bound), (cid, key)
