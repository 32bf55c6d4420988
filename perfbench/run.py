"""bec1d benchmark: one workload per fresh process, every metric by name.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record OUT.json --seeds 1 2 3 [--workloads W ...]
    python3 perfbench/run.py --compare BASE.json NEW.json

A run starts SETUPS fresh worker processes one after another (BLAS and
OpenMP threads set to 1, one process at a time). Each imports bec1d and runs
one untimed warm-up item; setup_s is the median time from process start to
that point. The last process then runs the workload (see worker.py). The
last line printed is the result as JSON; the exit code is 0 only if every
item's outputs passed their checks.

--record runs the command above over seeds and workloads and writes the
metrics with the machine and software they were measured on. --compare
prints, per workload and metric, each record's median and quartiles, their
ratio, and how many seed pairs each side won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 5
RUN_TIMEOUT_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


def _worker(args, probe, deadline):
    """Run one worker process; returns (set-up seconds, stdout lines) or None."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--min-items", str(args.min_items)] + (["--probe"] if probe else [])
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **THREAD_ENV))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("worker timed out", file=sys.stderr)
        return None
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return float(ready[0].split()[1]) - start, [line for line in lines if line not in ready]


def run(args) -> int:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for _ in range(SETUPS - 1 if not args.trace else 0):
        probe = _worker(args, True, deadline)
        if probe is None:
            return 1
        setups.append(probe[0])
    main = _worker(args, False, deadline)
    if main is None:
        return 1
    setups.append(main[0])
    lines = main[1]
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        lines.insert(-1, f"setup_s over {len(setups)} processes: "
                         + " ".join(f"{s:.4f}" for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0 if result["correct"] else 1


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(args) -> int:
    runs = {w: [] for w in args.workloads}
    status = 0
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: {result['attempted']} items", flush=True)
    rec = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": THREAD_ENV,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "items": {w: [r["attempted"] for r in rs] for w, rs in runs.items()},
        "runs": runs,
    }
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(rec, handle, indent=1)
        handle.write("\n")
    return status


def _summary(values):
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _side(values):
    med, q1, q3 = _summary(values)
    spread = f"{(q3 - q1) / abs(med):.1%}" if med else "-"
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] iqr {spread}"


def compare(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    records = []
    for path in args.compare:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    base, new = records
    print(f"base {base['git_sha'][:12]}  new {new['git_sha'][:12]}; per metric: median "
          "[q1, q3] iqr/median, new/base ratio (base median), pairs won base:new")
    for workload, b_runs in base["runs"].items():
        n_runs = new["runs"].get(workload, [])
        if not b_runs or not n_runs:
            continue
        print(f"\n{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for name in b_runs[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not nv:
                continue
            sign = 1 if better.get(name) == "higher" else -1
            wins_b = sum(1 for x, y in zip(bv, nv) if (x - y) * sign > 0)
            wins_n = sum(1 for x, y in zip(bv, nv) if (y - x) * sign > 0)
            bm, nm = _summary(bv)[0], _summary(nv)[0]
            ratio = f"{nm / bm:.4f} ({bm:.5g})" if bm else "-"
            print(f"  {name}\n    base {_side(bv)}\n    new  {_side(nv)}\n"
                  f"    new/base {ratio}, won {wins_b}:{wins_n}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-items", type=int, default=100,
                        help="run past --seconds until this many items are done")
    parser.add_argument("--record", metavar="OUT", help="run --seeds x --workloads and save a record")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[DEFAULT_SEED])
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if args.record:
        return record(args)
    if not args.workload:
        parser.error("one of --workload, --record or --compare is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
