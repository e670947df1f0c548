"""pspectral benchmark: seeded closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/pspectral.  Workloads:
eigensolve-mix and verify-quick (see perfbench/README.md for what each
exercises and why).

--seconds S bounds the timed phase: a run makes passes over the
workload's case list (at most ten distinct cases) while the next pass,
taken to last as long as the slowest so far, would end within S seconds;
at least one.  Every metric is a median per pass or per case, so it
does not depend on how many passes fit.

--trace 0 starts five worker processes one after another.  Four only
set up; the fifth sets up and runs the cases untraced.  The set-up time
of each (interpreter start, import, input generation, precomputation and
warm-up) gives setup_s as their median, and the last gives the other
end-to-end metrics.  --trace 1 runs one pass untraced and then one pass
traced, in two workers, and reports the per-layer metrics of the traced
one, plus the tracing overhead (traced minus untraced wall time).

Every time in the end-to-end metrics is put at the reference host's
speed with hostspeed.py: a fixed calibration loop, timed twice a second
in the measuring worker and just before each worker starts, scales it
(the raw times are printed too).  Per-layer times are raw.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.  The
exit code is 1 when any case fails its correctness gate, 2 when the
benchmark cannot run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eigensolve-mix", "verify-quick")
SETUPS = 5
RUN_TIMEOUT_S = 170.0
MARGIN_CAP = 1e9  # stands in for an infinite margin, which JSON cannot hold
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def spawn(args, mode, deadline, seconds=None):
    """Run one worker; return its set-up time, raw and at the reference
    host's speed (the calibration loop is timed just before), and its
    result."""
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(seconds), mode]
    env = {**os.environ, **WORKER_ENV}
    loop_s = hostspeed.loop_time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker ({mode}) exited with code {code}")
    setup = (setup_s * hostspeed.REF_S / loop_s, setup_s)
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def end_to_end(setups, res):
    cases = res["cases"]
    times = [c["s"] for c in cases]
    # a case that raised has no margin and counts as MARGIN_CAP
    margins = [MARGIN_CAP if c["margin"] is None else min(c["margin"], MARGIN_CAP)
               for c in cases]
    passed = sum(c["ok"] for c in cases)
    return {
        "wall_s": (res["wall_s"], "s"),
        "case_p50_s": (statistics.median(times), "s"),
        "case_max_s": (max(times), "s"),
        "pass_ratio": (passed / len(cases), "ratio"),
        "worst_margin": (max(margins), "ratio"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def report(runs, metrics, setups=()):
    cases = [c for res in runs for c in res["cases"]]
    failed = sum(not c["ok"] for c in cases)
    env = runs[-1]["env"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("times at the reference host's speed, raw in brackets")
    for c in cases:
        mark = "ok  " if c["ok"] else "FAIL"
        margin = "-" if c["margin"] is None else f"{c['margin']:.4g}"
        print(f"case {mark} {c['s']:9.3f} s ({c['raw_s']:.3f})  margin "
              f"{margin:<10} {c['case']}  [{c['detail']}]")
    for res in runs:
        if "loop_ms" in res:
            print(f"host: calibration loop {res['loop_ms']:.3f} ms, mean of "
                  f"{res['loops']} (reference {1e3 * hostspeed.REF_S:.3f} ms); "
                  f"wall_s raw {res['raw_wall_s']:.3f} s")
    if setups:
        print("host: setup_s raw median "
              f"{statistics.median(r for _, r in setups):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:<44} {value:>16.6f} {unit}")
    print(f"cases attempted {len(cases)}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(cases),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pspectral" / "__init__.py").is_file():
        print(f"perfbench: no src/pspectral under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            # seconds=0 makes each worker run a single pass
            _, plain = spawn(args, "run", deadline, seconds=0)
            _, traced = spawn(args, "trace", deadline, seconds=0)
            runs = [plain, traced]
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            # the traced worker does not sample the host, so both are raw
            metrics["trace.wall_s"] = (traced["raw_wall_s"], "s")
            metrics["trace.overhead_s"] = (
                traced["raw_wall_s"] - plain["raw_wall_s"], "s")
            setups = ()
        else:
            setups = [spawn(args, "setup", deadline)[0]
                      for _ in range(SETUPS - 1)]
            setup, res = spawn(args, "run", deadline)
            setups.append(setup)
            runs = [res]
            metrics = end_to_end(setups, res)
    except (BenchError, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 1 if report(runs, metrics, setups) else 0


if __name__ == "__main__":
    sys.exit(main())
