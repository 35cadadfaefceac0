"""sphereshock benchmark: one workload per invocation, run from the root of
a checkout.

    python3 perfbench/run.py --workload blowup --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
last line of standard output is the result object; the line before it
carries the run's environment and verdicts.  Artifacts go to
.perfbench/<workload>/ in the checkout.  See perfbench/README.md.
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
import time

# spans and workloads import sphereshock from the checkout's src/, so they
# are imported only after _require_checkout() has put it on sys.path.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3          # before the rounds, and again after them
VERIFY_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import sphereshock.harness, sphereshock.trajectories; "
                "print(time.perf_counter() - t)")


def _require_checkout():
    needed = [os.path.join(SRC, "sphereshock", "__init__.py"),
              os.path.join(ROOT, "configs", "theorem_a1.json"),
              os.path.join(ROOT, "configs", "flat_oracle.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: not a sphereshock checkout, missing {missing}")
    sys.path.insert(0, SRC)


def _import_seconds():
    """Import time of the package in a fresh interpreter (the part of
    set-up a new process pays once)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _setup(wl, times):
    """Set the workload up SETUP_REPEATS times, appending each time to
    `times`; the last set-up stays open for the rounds."""
    for _ in range(SETUP_REPEATS):
        wl.close()
        imp = _import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        times.append(imp + time.perf_counter() - t0)


def _round(wl, out, traced):
    """One round: the run stage, then the verify stage.  Untraced rounds
    verify VERIFY_PASSES times and time the median pass; wall_s is the run
    stage plus that pass.  A traced round verifies once, traced."""
    import spans
    import workloads
    r = workloads.Round()
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("stage.run"):
            wl.run(out, r, traced)
        run_s = time.perf_counter() - t0
        passes = []
        for _ in range(1 if traced else VERIFY_PASSES):
            t1 = time.perf_counter()
            with tracer.span("stage.verify"):
                wl.verify(out, r)
            passes.append(time.perf_counter() - t1)
    finally:
        tracer.uninstall()
    r.verify_s = statistics.median(passes)
    r.wall_s = run_s + r.verify_s
    return r, tracer


def _run_rounds(wl, out_root, seconds, trace):
    """Untraced: as many whole rounds as the workload's nominal round time
    fits into `seconds` (at least one), so every run does the same work.
    Traced: untraced, traced, untraced, so the traced round's results can
    be compared with two untraced ones and its overhead measured."""
    if trace:
        plan = [False, True, False]
    else:
        plan = [False] * max(1, int(seconds // wl.nominal_round_s))
    rounds, traced_tracer = [], None
    for i, traced in enumerate(plan):
        r, tracer = _round(wl, os.path.join(out_root, f"r{i}"), traced)
        if traced:
            traced_tracer = tracer
        if rounds:
            r.verdict("summary.json identical to round 0",
                      r.digests == rounds[0][0].digests)
        rounds.append((r, traced))
    return rounds, traced_tracer


def _layer_result(wl, rounds, traced_tracer, out_root):
    import spans
    prof = spans.Profile()
    prof.add(*traced_tracer.export())
    (traced_round,) = [r for r, t in rounds if t]
    for tr in traced_round.worker_traces:
        prof.add(*tr)
    untraced = statistics.median(r.wall_s for r, t in rounds if not t)
    extra = {"bytes_written": traced_round.bytes_written,
             "overhead_s": traced_round.wall_s - untraced,
             "verify_s": statistics.median(r.verify_s for r, t in rounds
                                           if not t),
             "workers": wl.workers}
    values = spans.layer_metrics(prof, extra)
    table = prof.table()
    with open(os.path.join(out_root, "layers.json"), "w") as f:
        json.dump(table, f, indent=1)
    print(f"{'span':<40} {'calls':>9} {'incl_s':>9} {'self_s':>9}", file=sys.stderr)
    for name, row in table.items():
        print(f"{name:<40} {row['calls']:>9} {row['incl_s']:>9.3f} "
              f"{row['self_s']:>9.3f}", file=sys.stderr)
    gaps = spans.coverage_gaps(wl.name, values)
    metrics = {k: {"value": v, "unit": spans.LAYER_METRICS[k][0]}
               for k, v in values.items()}
    return metrics, gaps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("blowup", "tau_sweep", "flat_oracle"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _require_checkout()
    import numpy as np
    import workloads

    out_root = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_times = []
    try:
        # set-up is timed before and after the rounds, so that its median
        # spans the run rather than one moment of a noisy machine
        _setup(wl, setup_times)
        rounds, traced_tracer = _run_rounds(wl, out_root, args.seconds,
                                            bool(args.trace))
        _setup(wl, setup_times)
    finally:
        wl.close()

    verdicts = {}
    for r, _ in rounds:
        for name, ok in r.verdicts.items():
            verdicts[name] = verdicts.get(name, True) and ok
    correct = all(verdicts.values())
    if args.trace:
        metrics, gaps = _layer_result(wl, rounds, traced_tracer, out_root)
        for name in gaps:
            print(f"perfbench: per-layer metric {name} reads 0 on "
                  f"{args.workload}; its wrapper is not on the call path",
                  file=sys.stderr)
        correct = correct and not gaps
    else:
        walls = [r.wall_s for r, _ in rounds]
        rates = [r.cell_updates / (r.wall_s - r.verify_s) for r, _ in rounds]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "cell_updates_per_s": {"value": statistics.median(rates),
                                   "unit": "1/s"},
            "peak_rss_mb": {"value": max(r.peak_rss_kb for r, _ in rounds) / 1024.0,
                            "unit": "MB"},
        }
    for name, ok in verdicts.items():
        if not ok:
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": [{"traced": t, "wall_s": r.wall_s, "verify_s": r.verify_s,
                        "cell_updates": r.cell_updates} for r, t in rounds],
            "setup_s": setup_times, "verdicts": verdicts,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS}}
    result = {"correct": correct,
              "attempted": sum(r.attempted for r, _ in rounds),
              "failed": sum(r.failed for r, _ in rounds),
              "metrics": metrics}
    with open(os.path.join(out_root, "result.json"), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
