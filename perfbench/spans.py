"""Span tracer that wraps pspectral's public functions from outside.

A Tracer patches the library's module bindings (and a few ModelSolution
methods) with timing wrappers while it is installed.  Calls are recorded
on a stack so that each record carries its self time: its duration minus
the time covered by the wrapped calls made inside it.

Two kinds of record are kept in memory until the run ends:

* spans, one per call of a layer entry point (solve_model, the
  certificate, the eigensolvers, the profile checks, each verify
  criterion, and the benchmark's own setup/case spans), each with
  name, start, end, parent span id, case id and self time;
* leaves, for the hot calls (sin_cos_p, inv_sin_p, the ModelSolution
  evaluators, eta_beta, the bochner entry points), aggregated per
  (parent span name, leaf name) as call count plus total and self time.

Counts come from return values (nfev, iterations, per-level stop
reasons), never from flags inside the library.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

import pspectral
from pspectral import bochner, comparison, model1d, ptrig, spectral1d, verify

_MODULES = (pspectral, ptrig, model1d, comparison, bochner, spectral1d, verify)
_EVALUATORS = ("w", "wdot", "phi", "log_e", "e", "phase_rate")
_BOCHNER = ("bochner_residual", "hessian_inequality_check", "pII_at",
            "p_laplacian_at", "differentiate", "catalog",
            "eigen_estimate_check")
TRACED_CRITERIA = range(1, 14)  # 14 only reruns the quick suite


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child = 0.0
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.case = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording -------------------------------------------------------

    def _enter(self, name, span):
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, span_id)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child += dur
        parent = self._parent_span()
        if frame.span_id is None:
            rec = self.leaves[(parent[0] if parent else "-", frame.name)]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame.child
            return
        self.spans.append({
            "id": frame.span_id, "name": frame.name, "case": self.case,
            "parent": parent[1] if parent else None,
            "start": frame.start, "end": end, "self_s": dur - frame.child,
        })

    def _parent_span(self):
        for f in reversed(self._stack):
            if f.span_id is not None:
                return f.name, f.span_id
        return None

    @contextlib.contextmanager
    def span(self, name, case=None):
        """A span opened by the benchmark itself (setup, one case)."""
        prev = self.case
        self.case = case
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)
            self.case = prev

    def wrap(self, fn, name, span=False, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args)
            frame = tracer._enter(name, span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_return is not None:
                on_return(tracer, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, fn, new, skip=()):
        """Point every pspectral module binding of fn at new."""
        for mod in _MODULES:
            if mod in skip:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, new)

    @contextlib.contextmanager
    def installed(self):
        criteria = list(verify.CRITERIA)
        try:
            self._install()
            yield self
        finally:
            for owner, attr, old in reversed(self._patches):
                setattr(owner, attr, old)
            self._patches.clear()
            verify.CRITERIA[:] = criteria

    def _install(self):
        t = self
        scp = ptrig.sin_cos_p
        scalar = t.wrap(scp, "ptrig.sin_cos_p.scalar")
        array = t.wrap(scp, "ptrig.sin_cos_p.array")

        @functools.wraps(scp)
        def sin_cos_p(x, p):
            if isinstance(x, float) or np.ndim(x) == 0:
                return scalar(x, p)
            t.counts["ptrig.sin_cos_p.array_points"] += int(np.size(x))
            return array(x, p)

        t._rebind(scp, sin_cos_p)
        t._rebind(ptrig.inv_sin_p, t.wrap(ptrig.inv_sin_p, "ptrig.inv_sin_p"))

        for name in _EVALUATORS:
            fn = getattr(model1d.ModelSolution, name)
            t._patch(model1d.ModelSolution, name, t.wrap(fn, "model1d.eval"))

        def count_points(tr, args):
            tr.counts["model1d.w_inverse.points"] += int(np.size(args[-1]))

        t._patch(model1d.ModelSolution, "w_inverse",
                 t.wrap(model1d.ModelSolution.w_inverse, "model1d.w_inverse",
                        span=True, on_call=count_points))

        def solved(tr, sol):
            tr.counts["model1d.solve_model.nfev"] += sol.diagnostics.get("nfev", 0)
            # the closed-form (a = INFINITY) solution carries its own inverse
            own = vars(sol).get("w_inverse")
            if own is not None:
                sol.w_inverse = tr.wrap(own, "model1d.w_inverse", span=True,
                                        on_call=count_points)

        t._rebind(model1d.solve_model,
                  t.wrap(model1d.solve_model, "model1d.solve_model", span=True,
                         on_return=solved))

        def certified(tr, cert):
            d = cert.diagnostics
            tr.counts["comparison.build_certificate.nfev"] += (
                d["nfev_forward"] + d["nfev_backward"])

        t._rebind(comparison.build_certificate,
                  t.wrap(comparison.build_certificate,
                         "comparison.build_certificate", span=True,
                         on_return=certified))

        def kappa_checked(tr, rep):
            tr.counts["comparison.kappa_check.fd_points"] += rep["n_fd_points"]

        t._rebind(comparison.kappa_check,
                  t.wrap(comparison.kappa_check, "comparison.kappa_check",
                         span=True, on_return=kappa_checked))
        t._rebind(comparison.eta_beta,
                  t.wrap(comparison.eta_beta, "comparison.eta_beta"))

        def descended(tr, res):
            levels = res.diagnostics["levels"]
            tr.counts["spectral1d.variational.iterations"] += res.iterations
            tr.counts["spectral1d.variational.levels"] += len(levels)
            tr.counts["spectral1d.variational.cap_hits"] += sum(
                lv["stopped_by"] == "cap" for lv in levels)

        t._rebind(spectral1d.solve_eigen_variational,
                  t.wrap(spectral1d.solve_eigen_variational,
                         "spectral1d.variational", span=True,
                         on_return=descended))
        for fn, name in ((spectral1d.solve_eigen_shooting, "spectral1d.shooting"),
                         (spectral1d.gradient_comparison_check,
                          "spectral1d.gradient_check"),
                         (spectral1d.E_profile, "spectral1d.E_profile")):
            t._rebind(fn, t.wrap(fn, name, span=True))

        # entries into the bochner layer; its internal calls stay unwrapped
        for name in _BOCHNER:
            fn = getattr(bochner, name)
            t._rebind(fn, t.wrap(fn, "bochner"), skip=(bochner,))

        # run_all iterates verify.CRITERIA and tests identity against the
        # module globals, so both are rebound to the same wrapper
        for cid in TRACED_CRITERIA:
            fn = getattr(verify, f"criterion_{cid}")
            new = t.wrap(fn, f"verify.criterion_{cid:02d}", span=True)
            t._patch(verify, f"criterion_{cid}", new)
            verify.CRITERIA[verify.CRITERIA.index(fn)] = new

    # -- reporting -------------------------------------------------------

    def _self(self, name):
        return sum(s["self_s"] for s in self.spans if s["name"] == name)

    def _leaf(self, name):
        calls = total = own = 0
        for (_, leaf), (c, tot, sf) in self.leaves.items():
            if leaf == name:
                calls += c
                total += tot
                own += sf
        return calls, total, own

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        sc_calls, sc_total, sc_self = self._leaf("ptrig.sin_cos_p.scalar")
        ar_calls, _, ar_self = self._leaf("ptrig.sin_cos_p.array")
        _, _, inv_self = self._leaf("ptrig.inv_sin_p")
        ev_calls, _, ev_self = self._leaf("model1d.eval")
        eb_calls, _, _ = self._leaf("comparison.eta_beta")
        bo_calls, _, bo_self = self._leaf("bochner")
        c = self.counts
        levels = c["spectral1d.variational.levels"]
        out = {
            "ptrig.sin_cos_p.scalar_calls": (sc_calls, "count"),
            "ptrig.sin_cos_p.scalar_us": (
                1e6 * sc_total / sc_calls if sc_calls else 0.0, "us"),
            "ptrig.sin_cos_p.array_calls": (ar_calls, "count"),
            "ptrig.sin_cos_p.array_points": (
                c["ptrig.sin_cos_p.array_points"], "count"),
            "ptrig.self_s": (sc_self + ar_self + inv_self, "s"),
            "model1d.solve_model.calls": (
                sum(s["name"] == "model1d.solve_model" for s in self.spans),
                "count"),
            "model1d.solve_model.nfev": (c["model1d.solve_model.nfev"], "count"),
            "model1d.solve_model.self_s": (self._self("model1d.solve_model"), "s"),
            "model1d.w_inverse.points": (c["model1d.w_inverse.points"], "count"),
            "model1d.w_inverse.self_s": (self._self("model1d.w_inverse"), "s"),
            "model1d.eval.calls": (ev_calls, "count"),
            "model1d.eval.self_s": (ev_self, "s"),
            "comparison.build_certificate.self_s": (
                self._self("comparison.build_certificate"), "s"),
            "comparison.build_certificate.nfev": (
                c["comparison.build_certificate.nfev"], "count"),
            "comparison.eta_beta.calls": (eb_calls, "count"),
            "comparison.kappa_check.self_s": (
                self._self("comparison.kappa_check"), "s"),
            "comparison.kappa_check.fd_points": (
                c["comparison.kappa_check.fd_points"], "count"),
            "spectral1d.variational.self_s": (
                self._self("spectral1d.variational"), "s"),
            "spectral1d.variational.iterations": (
                c["spectral1d.variational.iterations"], "count"),
            "spectral1d.variational.cap_hits": (
                c["spectral1d.variational.cap_hits"], "count"),
            "spectral1d.variational.capped_level_ratio": (
                c["spectral1d.variational.cap_hits"] / levels if levels else 0.0,
                "ratio"),
            "spectral1d.shooting.self_s": (self._self("spectral1d.shooting"), "s"),
            "spectral1d.gradient_check.self_s": (
                self._self("spectral1d.gradient_check"), "s"),
            "spectral1d.E_profile.self_s": (
                self._self("spectral1d.E_profile"), "s"),
            "bochner.calls": (bo_calls, "count"),
            "bochner.self_s": (bo_self, "s"),
        }
        for cid in TRACED_CRITERIA:
            name = f"verify.criterion_{cid:02d}"
            out[f"{name}.s"] = (sum(s["end"] - s["start"] for s in self.spans
                                    if s["name"] == name), "s")
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [{"parent": p, "name": n, "calls": c, "total_s": tot,
                        "self_s": sf}
                       for (p, n), (c, tot, sf) in sorted(self.leaves.items())],
            "counts": dict(self.counts),
        }
