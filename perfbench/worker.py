"""One workload process: import bec1d, warm up, run items in a closed loop.

Started by run.py with BLAS and OpenMP threads set to 1. Prints "ready" and
the monotonic clock once the import and one untimed warm-up item are done
(run.py times set-up up to that moment); with --probe it exits there.
Otherwise it runs items one after another, each starting when the previous
returns, until the summed item time reaches --seconds, at least --min-items
items are done and the last round of parameter combinations is complete.
Every item's outputs are checked. With --trace 1 the same items then run
again with spans recorded, and the per-layer metrics are reported instead of
the end-to-end ones. The last line of output is a JSON object.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_reference(workload, seed):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["seed"] != seed:
        return []
    return reference["workloads"].get(workload, [])


class Runner:
    """Turns items into calls on bec1d and checks what comes back."""

    def __init__(self, tmpdir):
        self.bec1d = importlib.import_module("bec1d")
        src = os.path.join(ROOT, "src", "")
        if not os.path.abspath(self.bec1d.__file__).startswith(src):
            raise ImportError(f"bec1d imported from {self.bec1d.__file__}, not from {src}")
        self.cli = importlib.import_module("bec1d.cli")
        self.tmpdir = tmpdir

    def _arg(self, a):
        if isinstance(a, tuple) and a[0] == "ModelParams":
            return self.bec1d.ModelParams(a[1])
        return a

    def run(self, item):
        """Run every job of an item; returns (seconds, raw results)."""
        raw = []
        start = time.perf_counter()
        for n, job in enumerate(item.jobs):
            try:
                if job.argv is not None:
                    out = os.path.join(self.tmpdir, f"job{n}.csv")
                    raw.append(self.cli.main(job.argv + ["--out", out]))
                else:
                    fn = getattr(self.bec1d, job.func)
                    raw.append(fn(*map(self._arg, job.args), **job.kwargs))
            except Exception as err:  # a raising call fails its item, not the run
                raw.append(err)
        return time.perf_counter() - start, raw

    def outputs(self, item, raw):
        """Flatten raw results to {"job|row|column": value}; also list problems."""
        outputs, problems = {}, []
        for n, (job, result) in enumerate(zip(item.jobs, raw)):
            if isinstance(result, Exception):
                problems.append(f"{job.name} raised {result!r}")
            elif job.argv is not None:
                if result != 0:
                    problems.append(f"{job.name} exited with {result}")
                    continue
                out = os.path.join(self.tmpdir, f"job{n}.csv")
                with open(out, newline="", encoding="utf-8") as handle:
                    rows = list(csv.DictReader(handle))
                with open(out + ".meta.json", encoding="utf-8") as handle:
                    meta = json.load(handle)
                outputs.update(checks.flatten_cli(job, rows, meta))
            else:
                outputs[f"{job.name}||value"] = float(result)
        return outputs, problems

    def check(self, item, raw, reference=None):
        outputs, failures = self.outputs(item, raw)
        failures += checks.invariant_failures(item, outputs)
        if reference is not None:
            failures += checks.reference_failures(item, outputs, reference)
        return failures


def run_workload(workload, seed, seconds, trace, min_items, probe=False):
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        runner = Runner(tmpdir)
        warm = workloads.warmup_item(workload)
        _, raw = runner.run(warm)
        failures = runner.check(warm, raw)
        if failures:
            raise RuntimeError(f"warm-up item failed: {failures}")
        # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own start time
        print(f"ready {time.monotonic()!r}", flush=True)
        if probe:
            return None

        reference = load_reference(workload, seed)
        source = workloads.items(workload, seed)
        done, latencies, failed, messages = [], [], 0, []
        round_size = workloads.ROUND[workload]
        while sum(latencies) < seconds or len(done) < min_items or len(done) % round_size:
            item = next(source)
            elapsed, raw = runner.run(item)
            done.append(item)
            latencies.append(elapsed)
            ref = reference[item.index] if item.index < len(reference) else None
            item_failures = runner.check(item, raw, ref)
            if item_failures:
                failed += 1
                messages.append(f"item {item.index}: {item_failures[:3]}")
        untraced_s = sum(latencies)
        result = {"correct": failed == 0, "attempted": len(done), "failed": failed}
        for line in messages[:10]:
            print(line, file=sys.stderr)

        if not trace:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            metrics = {
                "items_per_s": (len(done) / untraced_s, "1/s"),
                "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
                "item_p90_ms": (1e3 * p90, "ms"),
                "peak_rss_mb": (rss_mb, "MB"),
                "success_ratio": ((len(done) - failed) / len(done), "1"),
            }
            print(f"{workload}: {len(done)} items in {untraced_s:.3f} s, "
                 f"{sum(1 for t in latencies if t > p90)} beyond p90")
        else:
            tracer = tracing.Tracer()
            tracer.install(runner.bec1d)
            traced_s = 0.0
            try:
                for item in done:
                    tracer.item = item.index
                    elapsed, _ = runner.run(item)
                    traced_s += elapsed
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT_DIR, f"{workload}.spans.jsonl"))
            metrics = tracing.summarize(tracer)
            metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "1")
            print(f"{workload}: {len(done)} items, {len(tracer.spans)} spans, "
                 f"traced {traced_s:.3f} s / untraced {untraced_s:.3f} s")
            print(f"{'layer':<20}{'calls':>10}{'busy_s':>12}{'self_s':>12}")
            for layer in tracing.LAYERS:
                print(f"{layer:<20}{metrics[layer + '.calls'][0]:>10}"
                     f"{metrics[layer + '.busy_s'][0]:>12.4f}{metrics[layer + '.self_s'][0]:>12.4f}")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-items", type=int, default=100)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.min_items,
                          args.probe)
    if result is not None:
        print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
