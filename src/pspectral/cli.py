"""Command-line front end.

Subcommands
-----------
ptrig       evaluate the generalized trigonometric functions on a grid
model       solve the comparison ODE and emit its trajectory
delta-scan  window summaries across a list of left endpoints
certify     build the inequality certificate and report its verdict
bochner     operator-identity residuals for catalog fields
eigensolve  discrete eigenvalue on a 1d domain (variational/shooting)
bounds      closed-form lower-bound table for the spectral gap
verify      run the acceptance criteria suite

Output goes to stdout or --out as CSV (header row, minimal quoting) or
JSON (stable key order); identical configuration and seed produce
byte-identical bytes.  Exit codes: 0 success, 1 verdict or run failure
(certify/verify/solver errors), 2 usage error with a one-line message.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

import numpy as np

from . import verify as verify_mod
from .bochner import bochner_residual, catalog, p_laplacian_at
from .comparison import build_certificate, kappa_check
from .model1d import (
    ModelProblem,
    PParams,
    delta_scan,
    solve_model,
)
from .ptrig import arctan_p, cos_p, inv_sin_p, pi_p, pi_p_quadrature, sin_p, tan_p
from .spectral1d import (
    bounds_table,
    build_domain,
    SolverOptions,
    solve_eigen_shooting,
    solve_eigen_variational,
)

__all__ = ["main", "build_parser"]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _cell(v):
    v = json_safe(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def json_safe(obj):
    """JSON-safe copy: numpy scalars/arrays to python, non-finite floats
    to strings."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def report_json(report: dict) -> str:
    """JSON text of a report (or any CLI payload): sorted keys, indent 2,
    non-finite floats as strings."""
    return json.dumps(json_safe(report), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _output(args, payload, header, rows):
    """Emit payload as JSON, or header and rows as CSV, per --format."""
    if args.format == "json":
        _emit(report_json(payload), args.out)
    else:
        _emit(_csv_text(header, rows), args.out)


def _parse_floats(raw: str, flag: str):
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers")


def _parse_a(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"--a expects a number or 'inf', got {raw!r}")


# ---------------------------------------------------------------- ptrig

_PTRIG_FNS = {
    "sin": sin_p,
    "cos": cos_p,
    "tan": tan_p,
    "arctan": arctan_p,
    "inv_sin": inv_sin_p,
}


def _cmd_ptrig(args) -> int:
    p = args.p
    if args.fn == "pi":
        closed = pi_p(p)
        quad = pi_p_quadrature(p)
        payload = {"p": p, "pi_p": closed, "quadrature": quad,
                   "rel_diff": abs(closed - quad) / closed}
        header = ["p", "pi_p", "quadrature", "rel_diff"]
        _output(args, payload, header, [[payload[k] for k in header]])
        return 0
    try:
        lo, hi, num = args.grid.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
        if max(abs(lo), abs(hi)) <= 2.0**1020:
            xs = np.linspace(lo, hi, num)
        else:  # so that the span hi - lo and its multiples cannot overflow
            xs = 4.0 * np.linspace(0.25 * lo, 0.25 * hi, num)
    except ValueError:
        raise ValueError("--grid expects LO:HI:NUM with finite LO, HI")
    fn = _PTRIG_FNS[args.fn]
    vals = np.asarray(fn(xs, p), dtype=float)
    _output(args, {"p": p, "fn": args.fn, "x": xs, "value": vals},
            ["x", "value"], zip(xs, vals))
    return 0


# ---------------------------------------------------------------- model

def _solve_from_args(args):
    prob = ModelProblem(PParams(p=args.p, n_dim=args.n, lam=args.lam),
                        a=_parse_a(args.a))
    return solve_model(prob)


def _cmd_model(args) -> int:
    sol = _solve_from_args(args)
    traj = sol.trajectory
    payload = {
        "p": sol.problem.params.p,
        "n": sol.problem.params.n_dim,
        "lambda": sol.problem.params.lam,
        "a": sol.problem.a,
        "a_eff": sol.a_eff,
        "b": sol.b,
        "t0": sol.t0,
        "delta": sol.delta,
        "m_max": sol.m_max,
    }
    header = ["t", "w", "wdot", "phi", "e"]
    payload["trajectory"] = {k: traj[k] for k in header}
    _output(args, payload, header, zip(*[traj[k] for k in header]))
    return 0


def _cmd_delta_scan(args) -> int:
    avals = _parse_floats(args.a_values, "--a-values")
    if not avals:
        raise ValueError("--a-values must contain at least one endpoint")
    rows = delta_scan(avals, PParams(p=args.p, n_dim=args.n, lam=args.lam))
    header = ["a", "delta", "m_max", "t0", "b", "status"]
    _output(args, {"rows": rows}, header,
            [[r[k] for k in header] for r in rows])
    return 0


# -------------------------------------------------------------- certify

def _cmd_certify(args) -> int:
    sol = _solve_from_args(args)
    cert = build_certificate(sol)
    kk = kappa_check(cert)
    payload = {
        "p": sol.problem.params.p,
        "n": sol.problem.params.n_dim,
        "lambda": sol.problem.params.lam,
        "a": sol.problem.a,
        "b": sol.b,
        "t0": sol.t0,
        "delta": sol.delta,
        "epsilon": cert.epsilon,
        "offset": cert.offset,
        "verdict": dict(cert.verdict),
        "all_ok": cert.all_ok,
        "kappa": {k: kk[k] for k in
                  ("kappa_positive", "kappa_t0_rel_err", "max_rel_deviation")},
        "x_law_dev": cert.diagnostics["x_law_dev"],
        "grid_size": len(cert.grid["t"]),
    }
    if args.grid_out:
        with open(args.grid_out, "w") as fh:
            fh.write(_csv_text(cert.grid, zip(*cert.grid.values())))
    rows = [[k, v] for k, v in sorted(payload["verdict"].items())]
    rows += [["all_ok", payload["all_ok"]],
             ["kappa_t0_rel_err", kk["kappa_t0_rel_err"]],
             ["kappa_rate_rel", kk["max_rel_deviation"]]]
    _output(args, payload, ["check", "value"], rows)
    return 0 if cert.all_ok else 1


# -------------------------------------------------------------- bochner

def _cmd_bochner(args) -> int:
    cat = catalog()
    if args.field == "all":
        rows = []
        for name, entry in cat.items():
            for p in (1.5, 2.0, 3.0):
                r = bochner_residual(entry.field, entry.point, p,
                                     step=args.step)
                rows.append([name, p, args.step, r])
        header = ["field", "p", "step", "residual"]
        _output(args, {"rows": [dict(zip(header, row)) for row in rows]},
                header, rows)
        return 0
    if args.field not in cat:
        raise ValueError(f"unknown field {args.field!r}; "
                         f"choose from {', '.join(sorted(cat))} or 'all'")
    entry = cat[args.field]
    point = entry.point
    if args.point:
        vals = _parse_floats(args.point, "--point")
        if len(vals) != entry.field.dim:
            raise ValueError(f"--point needs {entry.field.dim} coordinates")
        point = np.array(vals)
    res = bochner_residual(entry.field, point, args.p, step=args.step)
    payload = {
        "field": args.field,
        "p": args.p,
        "step": args.step,
        "point": point,
        "residual": res,
        "p_laplacian": p_laplacian_at(entry.field, point, args.p,
                                      step=args.step),
    }
    header = ["field", "p", "step", "residual", "p_laplacian"]
    _output(args, payload, header, [[payload[k] for k in header]])
    return 0


# ------------------------------------------------------------ eigensolve

def _cmd_eigensolve(args) -> int:
    dom = build_domain(args.kind, args.N, L=args.L, x0=args.x0, x1=args.x1,
                       R=args.R, n=args.n)
    if args.method == "shooting":
        res = solve_eigen_shooting(dom, args.p)
    else:
        res = solve_eigen_variational(dom, args.p,
                                      SolverOptions(seed=args.seed))
    payload = {
        "lambda": res.lam,
        "lambda_over_pminus1": res.lam / (args.p - 1.0),
        "p": res.p,
        "method": res.method,
        "iterations": res.iterations,
        "residual": res.residual,
        "converged": res.converged,
        "normalization": res.normalization,
        "domain": {"kind": dom.kind, "N": dom.N, "length": dom.length,
                   "n_weight": dom.n_weight},
        "seed": args.seed,
    }
    if args.nodes_out:
        with open(args.nodes_out, "w") as fh:
            fh.write(_csv_text(["x", "u"],
                               zip(dom.nodes, res.u.values)))
    header = ["lambda", "lambda_over_pminus1", "p", "method",
              "iterations", "residual", "converged"]
    _output(args, payload, header, [[payload[k] for k in header]])
    return 0


# -------------------------------------------------------------- bounds

def _cmd_bounds(args) -> int:
    rows = bounds_table(args.p, args.d)
    header = ["name", "value", "applicable", "requires"]
    _output(args, {"p": args.p, "d": args.d, "rows": rows}, header,
            [[r[k] for k in header] for r in rows])
    return 0


# -------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    scope = "quick" if args.quick else "full"
    report = verify_mod.run_all(scope=scope, seed=args.seed)
    if args.format == "json":
        _emit(report_json(report), args.out)
    else:
        _emit(verify_mod.format_report(report), args.out)
    return 0 if report["passed"] else 1


# -------------------------------------------------------------- parser

def _add_common(sp, default_format="csv"):
    sp.add_argument("--format", choices=("csv", "json"),
                    default=default_format)
    sp.add_argument("--out", default=None, help="write to this path "
                    "instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pspectral",
        description="spectral-gap verification instrument for the "
                    "one-dimensional p-Laplacian comparison machinery",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("ptrig", help="evaluate generalized trig functions")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--fn", choices=("pi",) + tuple(_PTRIG_FNS),
                    default="sin")
    sp.add_argument("--grid", default="-4.0:4.0:81", help="LO:HI:NUM")
    _add_common(sp)
    sp.set_defaults(run=_cmd_ptrig)

    sp = sub.add_parser("model", help="solve the comparison ODE")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--a", required=True, help="left endpoint or 'inf'")
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="eigenvalue parameter (default p-1)")
    _add_common(sp)
    sp.set_defaults(run=_cmd_model)

    sp = sub.add_parser("delta-scan", help="window summary per endpoint")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--a-values", required=True,
                    help="comma-separated left endpoints")
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(run=_cmd_delta_scan)

    sp = sub.add_parser("certify", help="build the inequality certificate")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--grid-out", default=None,
                    help="also write the certificate grid CSV here")
    _add_common(sp, default_format="json")
    sp.set_defaults(run=_cmd_certify)

    sp = sub.add_parser("bochner", help="operator-identity residuals")
    sp.add_argument("--field", required=True,
                    help="catalog field name, or 'all'")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--step", type=float, default=5e-3)
    sp.add_argument("--point", default=None,
                    help="comma-separated coordinates overriding the "
                    "catalog point")
    _add_common(sp, default_format="json")
    sp.set_defaults(run=_cmd_bochner)

    sp = sub.add_parser("eigensolve", help="discrete eigenvalue on a "
                        "1d domain")
    sp.add_argument("--kind", choices=("segment", "circle", "radial"),
                    required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--x1", type=float, default=1.0)
    sp.add_argument("--R", type=float, default=None)
    sp.add_argument("--n", type=float, default=None)
    sp.add_argument("--method", choices=("variational", "shooting"),
                    default="variational")
    sp.add_argument("--seed", type=int, default=0,
                    help="seeds the perturbation of the variational "
                    "descent's start; the descent runs on circles and "
                    "where Newton (segment, radial) fails, so elsewhere "
                    "the seed changes nothing")
    sp.add_argument("--nodes-out", dest="nodes_out", default=None,
                    help="also write nodal values CSV here")
    _add_common(sp, default_format="json")
    sp.set_defaults(run=_cmd_eigensolve)

    sp = sub.add_parser("bounds", help="closed-form gap bounds")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--d", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(run=_cmd_bounds)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--quick", action="store_true",
                    help="reduced grids (fast smoke pass)")
    sp.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(run=_cmd_verify)

    return ap


# A flag value that starts with "-" and a digit, such as the grid
# -1:1:11, is read by argparse as a flag unless it is a plain number;
# main joins it to the flag before it (--grid=-1:1:11).
_DASH_VALUE = re.compile(r"-\.?\d")


def _join_dash_values(argv):
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _DASH_VALUE.match(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_dash_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
