"""troplab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The run starts SETUP_PROCS fresh
interpreters that each time `import troplab` plus building the inputs,
then one worker interpreter that runs whole passes over the workload's
call list for S seconds.  Processes run one at a time, single-threaded,
with a fixed PYTHONHASHSEED.  With --trace 0 the last line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Exits non-zero, printing no result, when troplab cannot be run.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROCS = 5
RAW_MARK = "raw-metrics "
DEADLINE_S = 170
# spans whose call counts are reported besides their self time
COUNTED_SPANS = ["forms.lll_reduce", "forms.jacobi_decompose", "forms.QuadraticForm",
                 "forms.covering_radius_sq", "siegel.siegel_reduce", "siegel.in_siegel_set",
                 "tropical.graph_diameter", "degen.collar_length"]


def child_env():
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(args, deadline):
    """Run worker.py to its end, or kill its whole process group at the deadline."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args, env=child_env(),
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: worker {' '.join(args)} passed the deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"bench: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_index(n):
    """Index of the highest percentile with at least ten calls beyond it."""
    return max(0, n - 11)


def end_to_end(passes, setups, rss_mb, ref=True):
    """wall_s is the median pass; the latency of each call of the list is
    its median over the passes, and p50 and tail are taken over those."""
    key = "lat_ref" if ref else "lat_raw"
    plain = [p[key] for p in passes if not p["traced"]]
    per_call = sorted(statistics.median(col) for col in zip(*plain))
    return {
        "wall_s": (statistics.median(sum(lat) for lat in plain), "s"),
        "call_p50_ms": (1000 * statistics.median(per_call), "ms"),
        "call_tail_ms": (1000 * per_call[tail_index(len(per_call))], "ms"),
        "setup_s": (statistics.median(s["setup_ref" if ref else "setup_raw"] for s in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(passes, setups):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def med(name, i):
        return statistics.median(p["layers"].get(name, (0, 0.0))[i] for p in traced)

    def total(key):
        return sum(p["layers"].get(key, 0) for p in traced)

    out = {}
    for name in SPAN_NAMES:
        if name in COUNTED_SPANS:
            out[f"{name}.calls"] = (med(name, 0), "count")
        out[f"{name}.self_s"] = (med(name, 1), "s")
    exact_in = total("cover_exact_in")
    out["forms.covering_radius_sq.exact_ratio"] = (
        total("cover_exact_out") / exact_in if exact_in else 0.0, "ratio")
    reduces = sum(p["layers"].get("siegel.siegel_reduce", (0, 0.0))[0] for p in traced)
    out["siegel.siegel_reduce.reached_ratio"] = (
        total("siegel_reached") / reduces if reduces else 0.0, "ratio")
    out["cli.import_s"] = (statistics.median(s["import_ref"] for s in setups), "s")
    out["trace.overhead_s"] = (statistics.median(sum(p["lat_ref"]) for p in traced)
                               - statistics.median(sum(p["lat_ref"]) for p in plain), "s")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    deadline = time.monotonic() + DEADLINE_S
    setups = [worker(["setup"] + common, deadline) for _ in range(SETUP_PROCS)]
    result = worker(["run"] + common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)], deadline)
    passes = result["passes"]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    attempted = sum(len(p["lat_ref"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    unexpected = [u for p in passes for u in p["unexpected"]]
    for u in unexpected[:5]:
        print(f"unexpected failure in {u['op']}:\n{u['error'] or 'wrong result'}")
    n_calls = len(passes[0]["lat_ref"])
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {n_calls} calls, "
          f"tail = sorted latency[{tail_index(n_calls)}] "
          f"(p{100 * (tail_index(n_calls) + 1) / n_calls:.1f}), "
          f"loop median {1000 * result['loop_median_s']:.3f} ms")
    if args.trace:
        metrics = per_layer(passes, setups)
    else:
        metrics = end_to_end(passes, setups, rss_mb)
        raw = end_to_end(passes, setups, rss_mb, ref=False)
        print(f"{'metric':<16}{'reference':>14}{'raw':>14}")
        for name, (v, unit) in metrics.items():
            print(f"{name:<16}{v:>14.6g}{raw[name][0]:>14.6g} {unit}")
        print(RAW_MARK + json.dumps({name: v for name, (v, _) in raw.items()}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
