"""Acceptance gate: the fourteen release criteria at full scope.

Each test drives one criterion from pspectral.verify, prints its
one-line summary, and fails with the measured details if the criterion
does not hold.  The whole file is budgeted to finish in well under five
minutes; expensive artifacts (model solves, certificates, eigenpairs)
are shared through a session-scoped cache, which also carries the seed.
The tests after them count the solves of one quick run (the cache must
make each of them once) and check verify.GATES: each gate decides its
criterion, a NaN in one case fails it, and the benchmark's copy of the
bounds agrees with the table.  The last two run the quick suite under
the benchmark's span tracer, which must install, run and report, once
in-process and once as the traced benchmark command itself.
"""

import dataclasses
import importlib.util
import json
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import pspectral
from pspectral import verify

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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


def _bench_module(name, monkeypatch):
    """perfbench/<name>.py loaded read-only, or a skip when it is gone
    (dataclasses need their module in sys.modules)."""
    path = BENCH / f"{name}.py"
    if not path.exists():
        pytest.skip(f"no benchmark {name}")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_gate_copy_matches_the_table(monkeypatch):
    # perfbench/workloads.py keeps its own copy of the bounds
    workloads = _bench_module("workloads", monkeypatch)
    rows = getattr(workloads, "VERIFY_GATES", None)
    if rows is None:
        pytest.skip("the benchmark keeps no copy of the gates")
    kinds = {"upper": "max", "lower": "min"}
    for cid, key, bound, kind in rows:
        assert verify.GATES[cid][key] == (kinds[kind], bound), (cid, key)


def test_quick_suite_runs_under_the_span_tracer(monkeypatch):
    # the traced benchmark run exits 2 when a worker dies, which a
    # library change does by breaking a name or a return key the tracer
    # reads; this runs the same calls in-process
    spans = _bench_module("spans", monkeypatch)
    tracer = spans.Tracer()
    with tracer.installed():
        report = verify.run_all(scope="quick", seed=verify.DEFAULT_SEED,
                                include_determinism=False)
        dom = pspectral.build_domain("circle", 600, L=2.0)
        pspectral.solve_eigen_variational(dom, 2.0,
                                          pspectral.SolverOptions(seed=1))
    assert report["passed"]
    metrics = tracer.metrics()
    assert all(metrics[f"verify.criterion_{cid:02d}.s"][0] > 0.0
               for cid in spans.TRACED_CRITERIA)
    assert metrics["model1d.solve_model.calls"][0] > 0
    assert metrics["spectral1d.variational.iterations"][0] > 0
    # the worker serializes both; a numpy count would not encode
    json.dumps(metrics)
    json.dumps(tracer.dump())
    table = BENCH.parent / "BENCHMARK.json"
    if table.exists():
        rows = json.loads(table.read_text())["per_layer"]
        names = {row["name"] for row in rows}
        # trace.* come from the runner, not the tracer
        assert {m for m in names if not m.startswith("trace.")} <= set(metrics)


def test_traced_benchmark_run_exits_cleanly():
    # the benchmark's own traced pass, as a subprocess from the repo root:
    # it exits 2 when a worker dies outside a case
    if not (BENCH / "run.py").exists():
        pytest.skip("no benchmark run.py")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-quick",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is True
