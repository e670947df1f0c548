"""One benchmark process: set up a workload, then run its cases in a loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is "setup" (exit once set-up is done), "run" (cases untraced, the
host's speed sampled by hostspeed.Sampler) or "trace" (cases and set-up
traced, no sampling; spans are written to
.perfbench/trace-WORKLOAD-seedSEED.json).  The worker prints "ready" as
soon as set-up is done, then one JSON line with the per-case records.
run.py starts it; it is not meant to be called by hand.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def run_one(case, tracer):
    t0 = time.perf_counter()
    span = tracer.span("case", case.cid) if tracer else contextlib.nullcontext()
    try:
        with span:
            ok, margin, detail = case.run()
    except Exception:  # a raising case is a failed case; the loop goes on
        traceback.print_exc()
        ok, margin, detail = False, None, traceback.format_exc().splitlines()[-1]
    if margin is not None and not math.isfinite(margin):
        margin = None
    return t0, time.perf_counter() - t0, bool(ok), margin, detail


def run_cases(cases, seconds, tracer, scaled):
    """Closed loop: one client, each case starts when the previous ends.

    A pass runs every case `repeats` times, the repeats of a case spread
    evenly over the pass.  Passes go on while the next one, taken to last
    as long as the slowest so far, would end within `seconds` of the
    start; there is at least one.  Every sample and pass time is put at
    the reference host's speed by scaled(start, seconds) once the loop
    is done.  A case's latency is the median of its samples, the wall
    time the median over passes; both are reported raw as well.
    """
    order = sorted(((k + 0.5) / c.repeats, i, c)
                   for i, c in enumerate(cases) for k in range(c.repeats))
    recs = {c.cid: {"case": c.cid, "samples": [], "margins": [], "ok": True,
                    "detail": ""} for c in cases}
    passes = []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0
                         + max(s for _, s in passes) <= seconds):
        start = time.perf_counter()
        for _, _, case in order:
            *sample, ok, margin, detail = run_one(case, tracer)
            rec = recs[case.cid]
            rec["samples"].append(sample)
            rec["margins"].append(margin)
            if rec["ok"]:
                rec["ok"], rec["detail"] = ok, detail
        passes.append((start, time.perf_counter() - start))
    for rec in recs.values():
        samples = rec.pop("samples")
        rec["s"] = statistics.median(scaled(*x) for x in samples)
        rec["raw_s"] = statistics.median(s for _, s in samples)
        margins = rec.pop("margins")
        rec["margin"] = None if None in margins else max(margins)
    walls = {"wall_s": statistics.median(scaled(*x) for x in passes),
             "raw_wall_s": statistics.median(s for _, s in passes)}
    return [recs[c.cid] for c in cases], walls


def environment():
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
    }


def main(argv):
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    tracer = None
    sampler = None
    with contextlib.ExitStack() as stack:
        if mode == "trace":
            from spans import Tracer
            tracer = stack.enter_context(Tracer().installed())
        with tracer.span("setup", "setup") if tracer else contextlib.nullcontext():
            cases = workloads.build(name, seed)
        print("ready", flush=True)
        if mode == "setup":
            return
        if tracer is None:
            sampler = stack.enter_context(hostspeed.Sampler())
        records, walls = run_cases(
            cases, seconds, tracer,
            sampler.scaled if sampler else lambda start, s: s)
    out = {
        "cases": records,
        **walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if sampler is not None:
        loops = [d for _, d in sampler.samples]
        out["loop_ms"] = 1e3 * sum(loops) / len(loops)
        out["loops"] = len(loops)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        dump = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps(tracer.dump()))
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv)
