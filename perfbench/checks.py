"""Correctness checks for benchmark items.

Each output value gets a one-sided error bound e derived from the stopping
rule of the code that produced it. Two results that both meet the same rule
differ by at most 2e, so a run at the reference seed must match the recorded
reference to within 2e (4e for sample standard deviations, whose change is at
most sqrt(n/(n-1)) <= 1.5 times the largest change of a sample). Two
independent routes to the same quantity must agree to within e1 + e2.

Stopping rules of bec1d, and what they bound:

* mu bisections (thermodynamics, hierarchical) stop at
  hi - lo <= 1e-12 * max(1, |mu|). Every --rho job draws rho in
  [0.3, 0.9] rho_c, where |mu| <= 2 / beta (checked by the tests), so
  e_mu = 1e-12 * max(1, 2 / beta).
* A value at a solved mu moves by at most |dO/dmu| e_mu. For densities and
  kernels |dO/dmu| <= beta * (1 + n_max) * rho, because the occupation
  derivative is beta n (n + 1), the kernel weight has modulus <= 1 and the
  largest occupation n_max is at most the particle count rho L. In the limit
  the largest occupation is 1 / expm1(beta |mu|) <= F_MAX at rho <= 0.9 rho_c.
* quad in thermodynamics stops at epsrel 1e-12, epsabs 1e-13; a limit mu
  solved against such a density moves by e_quad(rho) / (drho/dmu) with
  drho/dmu >= beta rho.
* The kernel panels and series stop each quad at epsrel 5e-13, epsabs
  1e-16. The panels' absolute integrals times the prefactor stay below the
  density at the same mu (at most 0.77 of it over the workload grid), so the
  relative part is bounded by 5e-13 * rho(mu); the absolute part adds 1e-16
  per quad call, times the prefactor lambda^2 C exp(-lambda r).
* free_kernel stops at epsrel 1e-12, epsabs 1e-14; solve_type2_coefficient
  at a bracket of 1e-14 * max(1, A).
* Columns with no stopping rule (counts, order statistics, densities at a
  fixed mu, closed forms) may differ only by summation order: 1e-12 relative
  overall. Integer columns and strings must match exactly.
"""

from __future__ import annotations

import math

C = math.pi / math.sqrt(2.0)

MU_STOP = 1e-12
MU_MAX_BETA = 2.0
F_MAX = 250.0
QUAD_EPSREL, QUAD_EPSABS = 1e-12, 1e-13
PANEL_EPSREL, PANEL_EPSABS = 5e-13, 1e-16
FREE_EPSREL, FREE_EPSABS = 1e-12, 1e-14
TYPE2_STOP = 1e-14
EXACT_RTOL = 1e-12
#: exponent cutoff of the limit integrals: q_max = sqrt(745 / beta) at mu < 0
EXP_CUTOFF = 745.0

STD_COLUMNS = {"mc_std"}
INTEGER_COLUMNS = {"trials", "failed_trials", "empty_windows", "ties", "k", "macro_states",
                   "box_length"}
#: derived from compared columns, or checked separately
SKIP_COLUMNS = {"rel_deviation", "status"}


def e_exact(v):
    return 0.5 * EXACT_RTOL * abs(v)


def e_mu(beta):
    return MU_STOP * max(1.0, MU_MAX_BETA / beta)


def e_quad(v):
    return QUAD_EPSREL * abs(v) + QUAD_EPSABS


def e_mu_limit(beta, rho):
    return e_mu(beta) + e_quad(rho) / (beta * rho)


def e_finite_at_mu(beta, rho, box):
    return beta * (1.0 + rho * box) * rho * e_mu(beta)


def e_share(beta, rho, box):
    return beta * (1.0 + rho * box) * e_mu(beta)


def _kernel_calls(lam, beta, r, route):
    q_max = math.sqrt(EXP_CUTOFF / beta)
    window = int(q_max * r / C) + 1
    if route == "panels":
        return window
    return window + int(45.0 * q_max / (C * lam)) + 10


def e_kernel_route(lam, beta, r, route, rho_mu):
    prefactor = lam * lam * C * math.exp(-lam * r)
    return PANEL_EPSREL * rho_mu + _kernel_calls(lam, beta, r, route) * PANEL_EPSABS * prefactor


def e_kernel_at_rho(lam, beta, rho, r):
    return (e_kernel_route(lam, beta, r, "panels", rho) + e_quad(rho)
            + beta * (1.0 + F_MAX) * rho * e_mu(beta))


def error_bound(job, row, col, value, outputs):
    """One-sided error bound of one output value, or None if it must match exactly."""
    p, name = job.params, job.name
    if col in INTEGER_COLUMNS or not isinstance(value, float) or not math.isfinite(value):
        return None
    lam, beta, rho = p.get("lam"), p.get("beta"), p.get("rho")
    if name in ("ids", "orderstats"):
        return e_exact(value)
    if name == "thermo_mu":
        return e_quad(value) if col == "analytic" else e_exact(value)
    if name == "thermo_rho":
        return e_mu_limit(beta, rho) if col == "analytic" else e_mu(beta)
    if name == "correlate":
        if col == "analytic":
            return e_kernel_at_rho(lam, beta, rho, float(row))
        return e_finite_at_mu(beta, rho, p["box"])
    if name == "localize" and col in ("mc_mean", "mc_std", "median_fraction"):
        return e_share(beta, rho, float(row))
    if name == "hierarchy":
        if col == "mu_solved":
            return e_mu(beta)
        if col in ("total_density", "max_state_density"):
            return e_finite_at_mu(beta, p["rho_h"], float(row))
        if col == "analytic":
            return e_exact(value)
        return None
    if name in ("density_limit", "pressure_limit", "critical_density", "critical_density_by_parts"):
        return e_quad(value)
    if name == "solve_mu_limit":
        return e_mu_limit(beta, rho)
    if name.startswith(("kernel_panels", "kernel_series")):
        return e_kernel_route(lam, beta, p["r"], p["route"], outputs["density_limit||value"])
    if name.startswith("free_kernel"):
        return FREE_EPSREL * abs(value) + FREE_EPSABS
    if name.startswith("kernel_with_condensate"):
        return e_kernel_at_rho(lam, beta, rho, p["r"])
    if name == "solve_type2_coefficient":
        return TYPE2_STOP * max(1.0, abs(value)) + e_exact(value)
    return None


def parse_value(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


ROW_KEYS = {"ids": "energy", "thermo": "box_length", "correlate": "separation",
            "hierarchy": "box_length", "orderstats": "statistic", "localize": "box_length"}


def flatten_cli(job, rows, meta) -> dict:
    """Output values of one CLI job keyed "job|row|column"."""
    key_col = ROW_KEYS[job.argv[0]]
    out = {}
    for row in rows:
        for col, text in row.items():
            if col != key_col:
                out[f"{job.name}|{row[key_col]}|{col}"] = parse_value(text)
    if "classification" in meta:
        out[f"{job.name}||classification"] = meta["classification"]
    return out


def _split(key):
    job, row, col = key.split("|")
    return job, row, col


def invariant_failures(item, outputs: dict) -> list[str]:
    """Checks that hold at any seed: finite rows, status ok, independent routes agree."""
    failures = []
    jobs = {job.name: job for job in item.jobs}
    for key, value in outputs.items():
        job, row, col = _split(key)
        if col == "status" and value != "ok":
            failures.append(f"{key} = {value!r}")
        elif col == "failed_trials" and value != 0:
            failures.append(f"{key} = {value}")
        elif isinstance(value, float) and not math.isfinite(value) and col != "rel_deviation":
            # a localize row whose every window is empty has no share to average
            trials = outputs.get(f"{job}|{row}|trials")
            all_empty = outputs.get(f"{job}|{row}|empty_windows") == trials
            if not (job == "localize" and all_empty):
                failures.append(f"{key} is not finite")
    if "correlate" in jobs:
        p = jobs["correlate"].params
        rho = p["rho"]
        bounds = {"mc_mean": e_finite_at_mu(p["beta"], rho, p["box"]),
                  "analytic": e_kernel_at_rho(p["lam"], p["beta"], rho, 0.0)}
        for col, bound in bounds.items():
            value = outputs.get(f"correlate|0|{col}")
            if value is None or not abs(value - rho) <= bound:
                failures.append(f"correlate K(0) {col} = {value} differs from rho = {rho} "
                                f"by more than {bound:.3g}")
    if "kernel_series_r5" in jobs:
        panels, series = jobs["kernel_panels_r5"], jobs["kernel_series_r5"]
        a, b = outputs.get("kernel_panels_r5||value"), outputs.get("kernel_series_r5||value")
        rho_mu = outputs.get("density_limit||value")
        if None in (a, b, rho_mu):
            failures.append("kernel routes or density missing")
        else:
            bound = (error_bound(panels, "", "value", a, outputs)
                     + error_bound(series, "", "value", b, outputs))
            if not abs(a - b) <= bound:
                failures.append(f"kernel panels {a!r} vs series {b!r} differ by more than {bound:.3g}")
    if "critical_density_by_parts" in jobs:
        a, b = outputs.get("critical_density||value"), outputs.get("critical_density_by_parts||value")
        if a is None or b is None or not abs(a - b) <= e_quad(a) + e_quad(b):
            failures.append(f"critical_density {a!r} vs by_parts {b!r} disagree")
    return failures


def reference_failures(item, outputs: dict, reference: dict) -> list[str]:
    """Compare with values recorded for the same item at the reference commit."""
    failures = []
    jobs = {job.name: job for job in item.jobs}
    for key, ref in reference.items():
        job, row, col = _split(key)
        if col in SKIP_COLUMNS:
            continue
        if key not in outputs:
            failures.append(f"{key} missing")
            continue
        value = outputs[key]
        bound = error_bound(jobs[job], row, col, ref, reference)
        if bound is None or not isinstance(value, float):
            same = value == ref or (isinstance(value, float) and isinstance(ref, float)
                                    and math.isnan(value) and math.isnan(ref))
            if not same:
                failures.append(f"{key} = {value!r}, reference {ref!r}")
            continue
        limit = 2.0 * bound * (2.0 if col in STD_COLUMNS else 1.0)
        if not abs(value - ref) <= limit:
            failures.append(f"{key} = {value!r}, reference {ref!r}, allowed {limit:.3g}")
    return failures
