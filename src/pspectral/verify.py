"""One-shot verification suite.

Fourteen numbered criteria exercise every module at fixed tolerances:
closed-form special-function values, the comparison ODE's window and
phase properties, the inequality certificate, the finite-difference
operator identities, the discrete eigensolvers, and the bounds table.

Each criterion is called as criterion_N(scope, cache) and returns its
report entry {"id", "name", "passed", "details"}; run_all assembles the
entries into a deterministic report (no timestamps, fixed seeds) so that
two runs with the same configuration emit byte-identical output.
scope="quick" uses reduced grids for a fast smoke pass; scope="full"
runs the complete grids.

Each criterion measures, and GATES judges.  GATES maps a criterion id
to {detail key: (kind, bound)}: a "max" gate holds when the reported
value is <= bound, a "min" gate when it is >= bound.  A criterion
measures the worst case under each key and returns through _judge,
which applies its gates, ANDs them with the criterion's structural
checks (the strict window checks of 4, the monotone verdicts and the
control of 12, the ordering of 13, the byte equality of 14) and
formats the details.  The worst cases accumulate with np.maximum and
np.minimum, which carry a NaN from any case forward to its gate, where
it fails (nan <= bound is False).  The bounds the library owns are
imported, not retyped: the gradient tolerance of
spectral1d.gradient_comparison_check, the a3 bound of the certificate,
and half its barrier offset (criterion 6's certificates are at
lam = p - 1, where the offset is comparison._OFFSET itself).

run_all makes one Cache per run.  It carries the run's seed and solves
each model, certificate, eigenpair and matched profile at most once,
however many criteria read it (see Cache for the keys).  Criteria pass
the eigensolvers to the cache as this module's globals, looked up at
call time, so a tracer that rebinds those globals sees every solve.
"""

from __future__ import annotations

import numpy as np

from .bochner import (
    ScalarField,
    bochner_residual,
    catalog,
    differentiate,
    hessian_inequality_check,
    pII_at,
    p_laplacian_at,
)
from .comparison import _A3_TOL, _OFFSET, build_certificate, kappa_check
from .model1d import INFINITY, ModelProblem, PParams, solve_model
from .ptrig import pi_p, pi_p_quadrature, sin_cos_p
from .spectral1d import (
    _GRADIENT_TOL,
    E_profile,
    bounds_table,
    build_domain,
    gradient_comparison_check,
    solve_eigen_shooting,
    solve_eigen_variational,
)

__all__ = ["Cache", "run_all", "format_report", "CRITERIA", "DEFAULT_SEED",
           "GATES"]

DEFAULT_SEED = 20260824

# model-grid of criterion 4 (shared by criteria 5 and 6): lam = p - 1
_PN_FULL = [(1.5, 2.0), (1.5, 3.0), (2.0, 2.0), (2.0, 3.0), (3.0, 2.0),
            (3.0, 3.0)]
_A_FULL = [0.1, 1.0, 10.0, 100.0]
_PN_QUICK = [(2.0, 3.0), (3.0, 2.0)]
_A_QUICK = [1.0, 100.0]


def _fmt(x: float) -> str:
    return f"{x:.3e}"


GATES = {
    1: {"max_rel": ("max", 1e-10), "pi2_abs": ("max", 1e-12)},
    2: {"max_abs": ("max", 1e-9)},
    3: {"max_rel": ("max", 5e-3), "segment_p2_rel": ("max", 1e-3)},
    5: {"min_margin": ("min", -1e-8)},
    6: {"min_slack": ("min", _OFFSET / 2.0), "kappa_t0_rel": ("max", 1e-8),
        "kappa_rate_rel": ("max", 1e-4), "max_a3": ("max", _A3_TOL)},
    7: {"max_rel": ("max", 1e-4), "max_rel_p2": ("max", 1e-6),
        "min_order": ("min", 1.8)},
    8: {"violations": ("max", 0)},
    9: {"max_rel": ("max", 1e-6)},
    10: {"worst_violation_over_h": ("max", _GRADIENT_TOL)},
    11: {"max_rel": ("max", 5e-3)},
    12: {"worst_spread_over_h": ("max", 10.0)},
    13: {"max_ratio_rel": ("max", 1e-12)},
}


def _judge(cid: int, name: str, measured: dict, ok: bool, **shown) -> dict:
    """Criterion cid's report entry: passed when ok (its structural
    checks) holds and every gate of GATES[cid] holds on its measured
    value.  The details are the measured values, floats in _fmt, then
    shown, which may also give a measured value another printed form."""
    for key, (kind, bound) in GATES.get(cid, {}).items():
        value = measured[key]
        ok = ok and bool(value <= bound if kind == "max" else value >= bound)
    details = {k: _fmt(v) if isinstance(v, float) else v
               for k, v in measured.items()}
    return {"id": cid, "name": name, "passed": bool(ok),
            "details": {**details, **shown}}


# the one domain of each kind that criteria 3 and 10-12 solve on
_DOMAINS = {"segment": {"x0": 0.0, "x1": 1.0}, "circle": {"L": 2.0},
            "radial": {"R": 1.0}}
# mesh size of criteria 3, 10 and 12: equal, so they share their solves
_EIG_N = {"quick": 600, "full": 2000}


class Cache:
    """The shared state of one verification run.

    seed is the run's seed.  Each artifact is computed once, on first
    request, and kept under its key:

    - model(p, n, a, lam): solve_model, keyed on the ModelProblem
      (so on lam as PParams resolves it, p - 1 by default);
    - certificate(p, n, a): the certificate of the lam = p - 1 model;
    - eig(solver, kind, p, N, n): solver on the kind's one domain
      (_DOMAINS) with N nodes and, for radial, weight n;
    - profile(res): the model matched to the eigenpair res (a model
      key, so criteria 10 and 12 share it).

    The solver is an argument, not looked up here, so that the caller's
    module binding (which a tracer may rebind) is the one that runs.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = seed
        self._models = {}
        self._certs = {}
        self._eigs = {}

    def model(self, p: float, n: float, a: float, lam: float | None = None):
        prob = ModelProblem(PParams(p=p, n_dim=n, lam=lam), a=a)
        if prob not in self._models:
            self._models[prob] = solve_model(prob)
        return self._models[prob]

    def certificate(self, p: float, n: float, a: float):
        key = (p, n, a)
        if key not in self._certs:
            self._certs[key] = build_certificate(self.model(p, n, a))
        return self._certs[key]

    def eig(self, solver, kind: str, p: float, N: int,
            n: float | None = None):
        key = (solver, kind, p, N, n)
        if key not in self._eigs:
            dom = build_domain(kind, N, n=n, **_DOMAINS[kind])
            self._eigs[key] = solver(dom, p)
        return self._eigs[key]

    def profile(self, res):
        """Comparison model of the equality case matched to res: a = 0
        with the radial weight n on a radial domain, the drift-free
        a = INFINITY with n = 1 otherwise, both at lam = res.lam."""
        dom = res.u.domain
        a = 0.0 if dom.kind == "radial" else INFINITY
        return self.model(res.p, dom.n_weight, a, lam=res.lam)


def _grids(scope: str):
    if scope == "quick":
        return _PN_QUICK, _A_QUICK
    return _PN_FULL, _A_FULL


def criterion_1(scope: str, cache: Cache):
    worst = 0.0
    for p in (1.1, 1.5, 2.0, 3.0, 4.0, 10.0):
        closed = pi_p(p)
        worst = np.maximum(worst, abs(closed - pi_p_quadrature(p)) / closed)
    return _judge(1, "half-period closed form vs quadrature",
                  {"max_rel": worst, "pi2_abs": abs(pi_p(2.0) - np.pi)}, True)


def criterion_2(scope: str, cache: Cache):
    worst = 0.0
    for p in (1.2, 1.5, 2.0, 3.0, 10.0):
        x = np.linspace(-2.2 * pi_p(p), 2.2 * pi_p(p), 1000)
        s, c = sin_cos_p(x, p)
        worst = np.maximum(worst, np.max(np.abs(
            np.abs(s) ** p + np.abs(c) ** p - 1.0)))
    return _judge(2, "p-trigonometric power identity", {"max_abs": worst},
                  True)


def criterion_3(scope: str, cache: Cache):
    if scope == "quick":
        cases = [("segment", p) for p in (2.0, 3.0)]
    else:
        cases = [(kind, p) for p in (1.5, 2.0, 3.0)
                 for kind in ("segment", "circle")]
    worst = 0.0
    for kind, p in cases:
        res = cache.eig(solve_eigen_variational, kind, p, _EIG_N[scope])
        worst = np.maximum(
            worst, abs(res.lam / (p - 1.0) - pi_p(p) ** p) / pi_p(p) ** p)
    # both scopes solve the segment at p = 2, which sets tight
    res = cache.eig(solve_eigen_variational, "segment", 2.0, _EIG_N[scope])
    tight = abs(res.lam - np.pi**2) / np.pi**2
    return _judge(3, "equality-case eigenvalues on 1d domains",
                  {"max_rel": worst, "segment_p2_rel": tight}, True,
                  n_cases=len(cases))


def criterion_4(scope: str, cache: Cache):
    pn, avals = _grids(scope)
    sols = {(p, n, a): cache.model(p, n, a) for p, n in pn for a in avals}
    gaps = {key: sol.delta - pi_p(key[0]) for key, sol in sols.items()}
    lo, hi = min(avals), max(avals)
    ok = (all(gap > 0.0 for gap in gaps.values())
          and all(sol.m_max < 1.0 for sol in sols.values())
          and all(gaps[p, n, hi] < gaps[p, n, lo]
                  and 1.0 - sols[p, n, hi].m_max < 1.0 - sols[p, n, lo].m_max
                  for p, n in pn))
    return _judge(4, "window exceeds half-period, shrinking with a",
                  {"min_gap": min(gaps.values())}, ok, n_cases=len(sols))


def criterion_5(scope: str, cache: Cache):
    pn, avals = _grids(scope)
    worst = np.inf
    for p, n in pn:
        alpha = 1.0  # lam = p - 1
        for a in avals:
            sol = cache.model(p, n, a)
            lo = max(sol.a_eff, 1e-6)
            ts = np.linspace(lo, sol.b, 2000)
            rate = np.asarray(sol.phase_rate(ts))
            worst = np.minimum(worst, np.min(rate - alpha / n))
    return _judge(5, "phase speed bounded below by alpha/n",
                  {"min_margin": worst}, True)


def criterion_6(scope: str, cache: Cache):
    pn, avals = _grids(scope)
    certs = [cache.certificate(p, n, a) for p, n in pn for a in avals]
    min_slack = np.inf
    worst_kt0 = worst_kdot = worst_a3 = 0.0
    for cert in certs:
        g = cert.grid
        min_slack = np.minimum(
            min_slack, np.min(np.minimum(g["slack1"], g["slack2"])))
        kk = kappa_check(cert)
        worst_kt0 = np.maximum(worst_kt0, kk["kappa_t0_rel_err"])
        worst_kdot = np.maximum(worst_kdot, kk["max_rel_deviation"])
        worst_a3 = np.maximum(worst_a3, np.max(np.abs(g["a3_residual"])))
    return _judge(6, "inequality certificate on the model grid",
                  {"min_slack": min_slack, "kappa_t0_rel": worst_kt0,
                   "kappa_rate_rel": worst_kdot, "max_a3": worst_a3},
                  all(cert.all_ok for cert in certs), n_cases=len(certs))


def criterion_7(scope: str, cache: Cache):
    cat = catalog()
    names = list(cat) if scope == "full" else ["poly_2d_a", "poly_3d_b"]
    worst = 0.0
    worst2 = 0.0
    for name in names:
        e = cat[name]
        for p in (1.5, 2.0, 3.0):
            r = abs(bochner_residual(e.field, e.point, p, step=5e-3))
            if p == 2.0:
                worst2 = np.maximum(worst2, r)
            else:
                worst = np.maximum(worst, r)
    min_order = np.inf
    for name in ("poly_2d_a", "poly_3d_b"):
        e = cat[name]
        for p in (1.5, 3.0):
            r1 = abs(bochner_residual(e.field, e.point, p, step=2e-2))
            r2 = abs(bochner_residual(e.field, e.point, p, step=1e-2))
            min_order = np.minimum(min_order, np.log2(r1 / r2))
    return _judge(7, "flat-space operator identity residuals",
                  {"max_rel": worst, "max_rel_p2": worst2,
                   "min_order": min_order}, True,
                  min_order=f"{min_order:.2f}")


def criterion_8(scope: str, cache: Cache):
    n_cases = 10_000 if scope == "full" else 1_500
    seed = cache.seed
    rng = np.random.default_rng(seed)
    checked = 0
    violations = 0
    while checked < n_cases:
        d = int(rng.integers(2, 4))
        c1 = rng.standard_normal(d)
        c2 = rng.standard_normal((d, d))
        c2 = 0.5 * (c2 + c2.T)
        c3 = rng.standard_normal((d, d, d))

        def f(x, c1=c1, c2=c2, c3=c3):
            return (np.einsum("i,i...->...", c1, x)
                    + np.einsum("ij,i...,j...->...", c2, x, x)
                    + np.einsum("ijk,i...,j...,k...->...", c3, x, x, x))

        pt = rng.uniform(-1.0, 1.0, d)
        p = float(rng.uniform(1.2, 4.0))
        m = d + float(rng.uniform(0.0, 3.0))
        try:
            _, _, okc = hessian_inequality_check(ScalarField(d, f), pt, p, m)
        except ValueError:
            continue  # degenerate gradient: resample
        checked += 1
        if not okc:
            violations += 1
    return _judge(8, "random-field matrix inequality sweep",
                  {"violations": violations}, True, cases=checked, seed=seed)


def criterion_9(scope: str, cache: Cache):
    cat = catalog()
    names = list(cat) if scope == "full" else ["poly_2d_a", "poly_3d_a"]
    worst = 0.0
    for name in names:
        e = cat[name]
        u = e.field
        comp = ScalarField(
            u.dim, lambda x, ev=u.evaluator: ev(x) ** 3 + 2.0 * ev(x)
        )
        u0 = float(u(e.point))
        rep = differentiate(u, e.point, step=5e-3)
        gn = float(np.linalg.norm(rep.grad))
        for p in (1.5, 2.0, 3.0):
            left = pII_at(u, comp, e.point, p, step=5e-3)
            right = ((3.0 * u0**2 + 2.0)
                     * p_laplacian_at(u, e.point, p, step=5e-3)
                     + (p - 1.0) * (6.0 * u0) * gn**p)
            worst = np.maximum(worst,
                               abs(left - right) / max(1.0, abs(right)))
    return _judge(9, "composition rule for the linearized operator",
                  {"max_rel": worst}, True)


def criterion_10(scope: str, cache: Cache):
    N = _EIG_N[scope]
    # the radial case and the segment equality cases, each against its
    # matched comparison profile
    ps = (1.5, 2.0, 3.0) if scope == "full" else (3.0,)
    cases = [cache.eig(solve_eigen_shooting, "radial", 2.0, N, n=3.0)]
    cases += [cache.eig(solve_eigen_variational, "segment", p, N) for p in ps]
    worst = -np.inf
    for res in cases:
        rep = gradient_comparison_check(res, cache.profile(res))
        worst = np.maximum(
            worst, rep["max_violation_normalized"] / rep["h_normalized"])
    return _judge(10, "cell-level gradient bound vs profile",
                  {"worst_violation_over_h": worst}, True,
                  n_cases=len(cases))


def criterion_11(scope: str, cache: Cache):
    if scope == "quick":
        combos = [(3.0, 2.0), (5.0, 3.0)]
        N = 800
    else:
        combos = [(n, p) for n in (2.0, 3.0, 5.0) for p in (1.5, 2.0, 3.0)]
        N = 2000
    worst = 0.0
    for n, p in combos:
        rs = cache.eig(solve_eigen_shooting, "radial", p, N, n=n)
        rv = cache.eig(solve_eigen_variational, "radial", p, N, n=n)
        worst = np.maximum(worst, abs(rv.lam - rs.lam) / rs.lam)
    return _judge(11, "variational vs shooting backend agreement",
                  {"max_rel": worst}, True, n_cases=len(combos))


def criterion_12(scope: str, cache: Cache):
    N = _EIG_N[scope]
    rs = cache.eig(solve_eigen_shooting, "radial", 2.0, N, n=3.0)
    res = cache.eig(solve_eigen_variational, "segment", 2.0, N)
    reps = [E_profile(case, cache.profile(case)) for case in (rs, res)]
    worst = 0.0
    for rep in reps:
        worst = np.maximum(worst, rep["spread"] / rep["h_normalized"])
    # negative control: extra mass near the minimum must flip the verdict
    # (run on the segment instance, whose measure is not degenerate there)
    wpert = res.u.domain.weights.copy()
    wpert[res.u.values < -0.98] *= 30.0
    ctrl = E_profile(res, cache.profile(res), node_weights=wpert)
    flipped = not ctrl["monotone_ok"]
    return _judge(12, "mass-ratio profile constancy and control",
                  {"worst_spread_over_h": worst},
                  all(rep["monotone_ok"] for rep in reps) and flipped,
                  control_flipped=bool(flipped))


def criterion_13(scope: str, cache: Cache):
    tables = {p: {r["name"]: r["value"] for r in bounds_table(p, 1.0)}
              for p in (2.0, 3.0, 4.0)}
    worst = 0.0
    for p, rows in tables.items():
        worst = np.maximum(
            worst, abs(rows["sharp"] / rows["hui"] - 2.0**p) / 2.0**p)
    return _judge(13, "bounds table ratio and ordering",
                  {"max_ratio_rel": worst},
                  all(rows["sharp"] > rows["hui"] > rows["kn"]
                      for rows in tables.values()))


def criterion_14(scope: str, cache: Cache):
    # run the reduced suite twice end to end; the formatted reports must
    # agree byte for byte
    rep1 = format_report(run_all(scope="quick", seed=cache.seed,
                                 include_determinism=False))
    rep2 = format_report(run_all(scope="quick", seed=cache.seed,
                                 include_determinism=False))
    return _judge(14, "repeated verification is byte-identical", {},
                  rep1 == rep2, payload="quick suite",
                  bytes=len(rep1.encode()))


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13, criterion_14]


def run_all(scope: str = "full", seed: int = DEFAULT_SEED,
            include_determinism: bool = True) -> dict:
    if scope not in ("quick", "full"):
        raise ValueError("scope must be 'quick' or 'full'")
    cache = Cache(seed=seed)
    entries = [fn(scope, cache) for fn in CRITERIA
               if include_determinism or fn is not criterion_14]
    return {"scope": scope, "seed": seed,
            "passed": all(c["passed"] for c in entries),
            "criteria": entries}


def _line(c: dict) -> str:
    """A report entry's line: id, name, verdict, then its details that
    are numbers or strings, sorted by key."""
    mark = "PASS" if c["passed"] else "FAIL"
    extra = " ".join(
        f"{k}={v}" for k, v in sorted(c["details"].items())
        if isinstance(v, (int, float, str)) and not isinstance(v, bool)
    )
    return f"criterion {c['id']:02d} {c['name']:<42} {mark}  {extra}".rstrip()


def format_report(report: dict) -> str:
    lines = [f"verification suite  scope={report['scope']}  "
             f"seed={report['seed']}"]
    lines += [_line(c) for c in report["criteria"]]
    n_pass = sum(1 for c in report["criteria"] if c["passed"])
    total = len(report["criteria"])
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
                 f"({n_pass}/{total})")
    return "\n".join(lines) + "\n"

