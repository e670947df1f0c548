"""The benchmark's workloads: seeded case lists with a correctness gate each.

A workload builder takes a numpy Generator and returns the cases of one
pass (at most ten distinct cases).  Building is the set-up phase: it
draws the inputs and does the precomputation the cases need (reference
eigenvalues).  Each case is a callable returning
(ok, margin, detail):

* ok      -- the case passed its correctness gate;
* margin  -- the largest (measured value / bound) over the gates the case
             applies, so 1.0 is the edge of failure and lower is better;
* detail  -- a short string naming the binding gate.

The gates are the ones pspectral.verify applies to the same quantities.
eigensolve-mix ends its set-up with one short solve on the path its
cases time, as a warm-up.

A shared 2-core machine runs up to twice as slow for minutes at
a time, so the seed changes inputs only where they do not change the
cost (every run costs alike), and cases shorter than about a second are
repeated within a pass (their latency is a median).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# calls go through the package namespace so that a Tracer, which rebinds
# the package attributes, sees them
import pspectral as ps
import pspectral.verify  # noqa: F401  (binds ps.verify)

MAX_CASES = 10


@dataclass
class Case:
    cid: str
    run: Callable[[], tuple]
    repeats: int = 1


def _worst(margins: dict):
    gate = max(margins, key=margins.get)
    return margins[gate], gate


# -- eigensolve-mix -------------------------------------------------------

EIG_N = 600
EIG_PS = (1.5, 2.0, 3.0)
EIG_KINDS = ("segment", "circle", "radial")
EIG_REPEATS = 3  # for the sub-second solves: p = 2, and p = 3 off the circle


def _eig_domain(kind):
    if kind == "segment":
        return ps.build_domain("segment", EIG_N, x0=0.0, x1=1.0)
    if kind == "circle":
        return ps.build_domain("circle", EIG_N, L=2.0)
    return ps.build_domain("radial", EIG_N, R=1.0, n=3.0)


def _eigensolve(dom, p, seed, ref):
    res = ps.solve_eigen_variational(dom, p, ps.SolverOptions(seed=seed))
    rel = abs(res.lam - ref) / ref
    return rel <= 5e-3, rel / 5e-3, f"rel={rel:.3e}"


def eigensolve_mix(rng):
    # references: the closed form (p-1) pi_p^p for segment [0,1] and the
    # circle of length 2 (whose half-circumference is 1), shooting for radial
    doms = {kind: _eig_domain(kind) for kind in EIG_KINDS}
    refs = {}
    for p in EIG_PS:
        refs["segment", p] = refs["circle", p] = (p - 1.0) * ps.pi_p(p) ** p
        refs["radial", p] = ps.solve_eigen_shooting(doms["radial"], p).lam
    ps.solve_eigen_variational(doms["segment"], 2.0)  # warm-up
    combos = [(k, p) for k in EIG_KINDS for p in EIG_PS]
    cases = []
    for i in rng.permutation(len(combos)):
        kind, p = combos[i]
        seed = int(rng.integers(2**31))
        fast = p == 2.0 or (p == 3.0 and kind != "circle")
        cases.append(Case(
            f"variational {kind} p={p} N={EIG_N} seed={seed}",
            lambda d=doms[kind], p=p, s=seed, r=refs[kind, p]:
                _eigensolve(d, p, s, r),
            EIG_REPEATS if fast else 1))
    return cases


# -- verify-quick ---------------------------------------------------------

# (criterion id, detail key, bound, "upper" if value <= bound is the gate
# or "lower" if value >= bound is), as applied in pspectral.verify
VERIFY_GATES = (
    (1, "max_rel", 1e-10, "upper"), (1, "pi2_abs", 1e-12, "upper"),
    (2, "max_abs", 1e-9, "upper"),
    (3, "max_rel", 5e-3, "upper"), (3, "segment_p2_rel", 1e-3, "upper"),
    (6, "min_slack", 0.5e-6, "lower"), (6, "kappa_t0_rel", 1e-8, "upper"),
    (6, "kappa_rate_rel", 1e-4, "upper"), (6, "max_a3", 1e-6, "upper"),
    (7, "max_rel", 1e-4, "upper"), (7, "max_rel_p2", 1e-6, "upper"),
    (7, "min_order", 1.8, "lower"),
    (9, "max_rel", 1e-6, "upper"),
    (10, "worst_violation_over_h", 5.0, "upper"),
    (11, "max_rel", 5e-3, "upper"),
    (12, "worst_spread_over_h", 10.0, "upper"),
    (13, "max_ratio_rel", 1e-12, "upper"),
)


def _verify_quick(seed):
    report = ps.verify.run_all(scope="quick", seed=seed,
                               include_determinism=False)
    details = {c["id"]: c["details"] for c in report["criteria"]}
    margins = {}
    for cid, key, bound, kind in VERIFY_GATES:
        value = float(details[cid][key])
        margins[f"c{cid:02d}.{key}"] = (
            value / bound if kind == "upper" else bound / value)
    margin, gate = _worst(margins)
    failed = [c["id"] for c in report["criteria"] if not c["passed"]]
    return (report["passed"] and margin <= 1.0, margin,
            gate + (f" failed={failed}" if failed else ""))


def verify_quick(rng):
    seed = int(rng.integers(2**31))  # drives criterion 8's random sweep
    return [Case(f"verify quick seed={seed}", lambda: _verify_quick(seed))]


WORKLOADS = {
    "eigensolve-mix": eigensolve_mix,
    "verify-quick": verify_quick,
}


def build(name: str, seed: int) -> list:
    rng = np.random.default_rng(seed % 2**63)
    cases = WORKLOADS[name](rng)
    if len(cases) > MAX_CASES:
        raise ValueError(f"{name}: {len(cases)} cases, at most {MAX_CASES}")
    return cases
