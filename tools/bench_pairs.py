"""Paired benchmark runs of two checkouts, written to a BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --seed S [--pairs 10] --out BENCH_<pr>.json

Each checkout's cached bytecode under `src/` is removed first: the
workers run with PYTHONDONTWRITEBYTECODE=1, so a side that kept its
`__pycache__` would skip the compile that the other side pays at every
worker start.  Each pair then runs `perfbench/run.py --trace 0` once in
each checkout, one after the other, for the `run_seconds` that the
change's BENCHMARK.json fixes; the side that runs first alternates from
pair to pair, so a slow drift of the host's speed falls on both sides
alike.  Every run is one JSON line of end-to-end metrics (the last line
of its stdout).  The output file keeps, per workload, the run length,
every pair's metrics, each side's median and quartiles, and how many
pairs the change won on each metric (by the direction BENCHMARK.json
gives it) or tied, plus the machine and the Python, numpy and scipy
versions.  Workloads already in the output file are kept, so one file
holds several.

The run ends with one verdict line per metric:

- "gain" when the change won at least nine tenths of the pairs (ties
  count for neither side) and its median is better than the parent's
  by more than the distance between the parent's quartiles;
- "worse" when the change's median is worse than the parent's by more
  than the metric's BENCHMARK.json bound, read as a fraction of the
  parent's median;
- "within bound" otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def clear_bytecode(root: Path) -> None:
    """Remove every `__pycache__` directory under root/src."""
    for cache in list((root / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    out = json.loads(lines[-1])
    return {"failed": out["failed"], "attempted": out["attempted"],
            **{k: m["value"] for k, m in out["metrics"].items()}}


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdict(s: dict, pairs: int, bound: float) -> str:
    """Classify one metric's summary s as gain, worse or within bound."""
    sign = 1.0 if s["better"] == "lower" else -1.0
    par, chg = s["parent"], s["change"]
    diff = sign * (chg["median"] - par["median"])  # < 0: the change is better
    if 10 * s["change_wins"] >= 9 * pairs and -diff > par["q3"] - par["q1"]:
        return "gain"
    if diff > bound * abs(par["median"]):
        return "worse"
    return "within bound"


def summarize(par: list, chg: list, better: str, bound: float) -> dict:
    """One metric's summary over paired runs (par[i] against chg[i]):
    each side's quartiles, the pairs the change won by the direction
    `better` ("lower" or "higher"), the ties, and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    s = {
        "better": better,
        "parent": quartiles(par),
        "change": quartiles(chg),
        "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(par, chg)),
        "ties": sum(c == p for p, c in zip(par, chg)),
    }
    s["verdict"] = verdict(s, len(par), bound)
    return s


def machine() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy
    return {"cpu": model, "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        clear_bytecode(root)
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        row = {"pair": i + 1, "first": order[0]}
        for side in order:
            row[side] = run_side(sides[side], args.workload, args.seed,
                                 seconds)
        pairs.append(row)
        print(f"pair {row['pair']:2d} ({order[0]} first): wall_s parent "
              f"{row['parent']['wall_s']:.3f} change "
              f"{row['change']['wall_s']:.3f}", flush=True)
    summary = {
        name: summarize([r["parent"][name] for r in pairs],
                        [r["change"][name] for r in pairs], direction,
                        bounds[name])
        for name, direction in better.items()
    }
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["machine"] = machine()
    doc.setdefault("workloads", {})[args.workload] = {
        "seed": args.seed, "run_seconds": seconds, "pairs": args.pairs,
        "command": "perfbench/run.py --trace 0",
        "summary": summary, "runs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, s in summary.items():
        print(f"{name:<14} parent {s['parent']['median']:.6g} "
              f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  change "
              f"{s['change']['median']:.6g}  change wins "
              f"{s['change_wins']}/{args.pairs}")
    for name, s in summary.items():
        print(f"{name}: {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
