"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0", "--min-items", "3",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=[w["name"] for w in BENCH["workloads"]])
def runs(request):
    return request.param, {trace: _run(request.param, trace) for trace in (0, 1)}


def test_workloads_match_declaration():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_tiny_run_emits_declared_metrics(runs):
    workload, procs = runs
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = procs[trace]
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_self_time_within_busy_time(runs):
    workload, procs = runs
    metrics = json.loads(procs[1].stdout.splitlines()[-1])["metrics"]
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"]["value"] <= metrics[f"{layer}.busy_s"]["value"] + 1e-9
    levels = metrics["spectrum.levels_built"]["value"]
    assert (levels == 0) == (workload == "limit_grid")


def _reference(workload, index):
    return worker.load_reference(workload, workloads.DEFAULT_SEED)[index]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_passes_its_own_checks(workload):
    item = workloads.make_item(workload, workloads.DEFAULT_SEED, 0)
    ref = _reference(workload, 0)
    assert checks.invariant_failures(item, ref) == []
    assert checks.reference_failures(item, ref, ref) == []


@pytest.mark.parametrize("workload, key", [
    ("mc_boxes", "correlate|5|mc_mean"),
    ("mc_boxes", "thermo_rho|1000|mc_mean"),
    ("mc_boxes", "ids|2|mc_mean"),
    ("limit_grid", "solve_mu_limit||value"),
    ("limit_grid", "kernel_panels_r1||value"),
    ("limit_grid", "hierarchy|100000|mu_solved"),
])
def test_check_rejects_perturbed_output(workload, key):
    item = workloads.make_item(workload, workloads.DEFAULT_SEED, 0)
    ref = _reference(workload, 0)
    perturbed = dict(ref)
    perturbed[key] = ref[key] * (1.0 + 1e-6)
    assert checks.reference_failures(item, perturbed, ref)


def test_check_rejects_disagreeing_routes():
    item = workloads.make_item("limit_grid", workloads.DEFAULT_SEED, 0)
    outputs = dict(_reference("limit_grid", 0))
    outputs["kernel_series_r5||value"] *= 1.0 + 1e-6
    assert checks.invariant_failures(item, outputs)
    outputs = dict(_reference("limit_grid", 0))
    outputs["critical_density_by_parts||value"] *= 1.0 + 1e-9
    assert checks.invariant_failures(item, outputs)


def test_check_rejects_failed_trials():
    item = workloads.make_item("mc_boxes", workloads.DEFAULT_SEED, 0)
    outputs = dict(_reference("mc_boxes", 0), **{"localize|500|failed_trials": 1.0})
    assert checks.invariant_failures(item, outputs)


def test_tolerance_assumptions_hold_on_the_drawn_range():
    """|mu| <= MU_MAX_BETA / beta and 1/expm1(beta |mu|) <= F_MAX for rho in the drawn range."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bec1d

    for (lam, beta), rho_c in workloads.RHO_C.items():
        params = bec1d.ModelParams(lam)
        assert rho_c <= bec1d.critical_density(params, beta)
        lo, hi = workloads.RHO_FRACTION
        mu_low = bec1d.solve_mu_limit(params, beta, lo * rho_c)
        mu_high = bec1d.solve_mu_limit(params, beta, hi * rho_c)
        assert abs(mu_low) <= checks.MU_MAX_BETA / beta
        assert 1.0 / math.expm1(beta * abs(mu_high)) <= checks.F_MAX
    for (lam, beta), rho_c in workloads.RHO_C_HIER.items():
        assert rho_c >= bec1d.hierarchical_critical_density(lam, beta)


def test_tracer_wraps_package_namespace_and_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bec1d
    import bec1d.thermodynamics

    original = bec1d.density_limit
    tracer = tracing.Tracer()
    tracer.install(bec1d)
    try:
        assert bec1d.density_limit is bec1d.thermodynamics.density_limit is not original
        bec1d.density_limit(bec1d.ModelParams(1.0), 1.0, -0.5)
    finally:
        tracer.uninstall()
    assert bec1d.density_limit is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "density_limit" and "quad" in names
    assert tracer.integrand_evals > 0
    metrics = tracing.summarize(tracer)
    assert metrics["quad.self_s"][0] <= metrics["quad.busy_s"][0]
    assert metrics["thermodynamics.limit_busy_s"][0] == pytest.approx(
        metrics["thermodynamics.busy_s"][0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = _run("mc_boxes", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{") and '"metrics"' not in proc.stdout
