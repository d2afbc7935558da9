"""One fresh interpreter of a workload run; started by run.py.

    worker.py setup --workload W --seed S
        times `import troplab` plus building pass 0's inputs, once.
    worker.py run --workload W --seed S --seconds N --trace 0|1
        runs whole passes until N seconds are used; with --trace 1 the odd
        passes run with the tracer installed.

Each prints one JSON object on its last stdout line.  Times are reported
raw and in reference seconds (see calib.py).
"""

import argparse
import gc
import json
import os
import statistics
import time
import traceback

import calls as C
import workloads as W
from calib import Calibrator
from spans import Tracer

clock = time.perf_counter


def setup(workload, seed):
    specs = W.generate(workload, seed, 0)
    cal = Calibrator()
    cal.burst()
    cal.burst()
    t0 = clock()
    import troplab

    t1 = clock()
    if workload == "cli-cold":
        C.parse_cli_inputs(troplab, specs)
    else:
        C.build(specs, troplab)
    t2 = clock()
    cal.burst()
    cal.burst()
    f = cal.factor(t0, t2)
    return {"setup_raw": t2 - t0, "setup_ref": (t2 - t0) * f,
            "import_raw": t1 - t0, "import_ref": (t1 - t0) * f}


def _fold(totals, spans, counts, factor):
    for name, (calls, self_s) in spans.items():
        c0, s0 = totals.get(name, (0, 0.0))
        totals[name] = (c0 + calls, s0 + self_s * factor)
    for key, v in counts.items():
        totals[key] = totals.get(key, 0) + v


def one_pass(workload, seed, k, tl, cal, traced):
    """Time every call of pass k; with `traced`, fold spans per layer.

    A cli-cold call is a child process that runs the calibration loop
    itself; its loop time is taken off the call and its samples join the
    calibrator's.
    """
    specs = W.generate(workload, seed, k)
    tracer = reports = None
    if workload == "cli-cold":
        reports = []
        calls = C.build_cli(specs, traced, os.environ.copy(), reports)
    else:
        calls = C.build(specs, tl)
        if traced:
            tracer = Tracer()
            tracer.install()
    records = []
    # the benchmark's own objects stay out of the collector's way
    gc.collect()
    gc.freeze()
    cal.burst()
    try:
        for call in calls:
            t0 = clock()
            t1 = None
            try:
                res = call.run()
                t1 = clock()
                ok = bool(call.check(res))
                err = None
            except Exception:  # a failing call is counted, not fatal
                t1 = t1 or clock()
                ok = False
                err = traceback.format_exc(limit=3)
            spans, counts = {}, {}
            if tracer is not None:
                spans, counts = tracer.take(), dict(tracer.counts)
                tracer.counts.update(dict.fromkeys(tracer.counts, 0))
            report = reports.pop() if reports else None
            if reports is None:
                cal.after(t1 - t0)
            elif report:  # a child that crashed sends none
                cal.add(report["stamps"], report["loops"])
                t1 -= sum(report["loops"])
                spans = {n: tuple(v) for n, v in report.get("spans", {}).items()}
                counts = report.get("counts", {})
            records.append((call.op, t0, t1, ok, call.fault, err, spans, counts))
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()
    cal.burst()

    lat_ref, lat_raw, layers = [], [], {}
    failed, unexpected = 0, []
    for op, t0, t1, ok, fault, err, spans, counts in records:
        f = cal.factor(t0, t1)
        lat_raw.append(t1 - t0)
        lat_ref.append((t1 - t0) * f)
        if not ok:
            failed += 1
            if not fault:
                unexpected.append({"op": op, "error": err})
        if traced:
            _fold(layers, spans, counts, f)
    return {"traced": traced, "lat_ref": lat_ref, "lat_raw": lat_raw, "failed": failed,
            "unexpected": unexpected, "layers": layers}


def run(workload, seed, seconds, trace):
    if workload == "cli-cold":
        troplab = None  # every call is a fresh CLI process
    else:
        import troplab

    cal = Calibrator()
    passes = []
    start = clock()
    k = 0
    while True:
        passes.append(one_pass(workload, seed, k, troplab, cal, bool(trace) and k % 2 == 1))
        k += 1
        elapsed = clock() - start
        if elapsed + elapsed / k > seconds and (not trace or k >= 2):
            break
    return {"passes": passes, "loop_median_s": statistics.median(cal.loops)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.mode == "setup":
        out = setup(args.workload, args.seed)
    else:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
