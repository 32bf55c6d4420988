"""Reproducible experiment driver.

Each command sweeps a grid, runs seeded disorder trials, and writes one row
per grid point with the Monte Carlo mean and std next to the closed-form
value where one exists. Results are byte-identical across reruns with the
same configuration and base seed; wall time and timestamps live only in the
metadata sidecar written next to the result file.

Exit codes: 0 success, 2 usage error, 3 numeric failure in an analytic
column, 4 I/O failure. A trial's DomainError or ConvergenceError never aborts a
sweep but counts in the row's failure column; any other exception propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError
from .poisson_geometry import (
    IntervalPartition,
    expected_largest,
    expected_second_largest,
    gap_exceedance_probability,
    gap_variance,
    poisson_lengths,
)
from .rng import trial_rng
from .spectrum import ModelParams, counting_function, ids_limit
from .correlations import _condensed_kernel, kernel_finite, kernel_limit
from .hierarchical import (
    build_layout,
    classify_condensate,
    hierarchical_critical_density,
    occupation_profile,
)
from .order_localization import ground_state_share
from .thermodynamics import (
    condensate_density,
    critical_density,
    density_finite,
    density_limit,
    level_table,
    solve_mu_finite,
    solve_mu_limit,
)

_COMMANDS = ("ids", "thermo", "correlate", "hierarchy", "orderstats", "localize")
_TRIAL_ERRORS = (ConvergenceError, DomainError)


class UsageError(Exception):
    """Configuration rejected before any output is written."""


@dataclass
class ExperimentConfig:
    command: str
    intensity: float = 1.0
    beta: float = 1.0
    mu: float | None = None
    rho: float | None = None
    box_length: float = 1000.0
    seeds: int = 10
    base_seed: int = 0
    e_grid: list[float] = field(default_factory=list)
    r_grid: list[float] = field(default_factory=list)
    l_ladder: list[float] = field(default_factory=list)
    out: str = "result.csv"
    format: str = "csv"
    k: int = 1000
    epsilon: float = 0.01
    kind: str = "type1"
    m_large: int = 1
    delta: float | None = None

    def validate(self):
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.seeds < 1:
            raise UsageError(f"--seeds must be >= 1, got {self.seeds}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"--format must be csv or json, got {self.format!r}")
        for name, grid in (("--e-grid", self.e_grid), ("--r-grid", self.r_grid),
                           ("--l-ladder", self.l_ladder)):
            if grid and any(b <= a for a, b in zip(grid[:-1], grid[1:])):
                raise UsageError(f"{name} must be strictly increasing, got {grid}")
        for name, values in (("--lambda", [self.intensity]), ("--beta", [self.beta]),
                             ("--rho", [self.rho]), ("--box-length", [self.box_length]),
                             ("--epsilon", [self.epsilon]), ("--delta", [self.delta]),
                             ("--e-grid", self.e_grid), ("--l-ladder", self.l_ladder)):
            if not all(v is None or (np.isfinite(v) and v > 0) for v in values):
                raise UsageError(f"{name} must be positive and finite, got {values}")
        for name, values in (("--mu", [self.mu]), ("--r-grid", self.r_grid)):
            if not all(v is None or np.isfinite(v) for v in values):
                raise UsageError(f"{name} must be finite, got {values}")
        if self.mu is not None and self.rho is not None:
            raise UsageError("set at most one of --mu and --rho")
        if self.command == "ids" and not self.e_grid:
            raise UsageError("ids needs a non-empty --e-grid")
        if self.command == "correlate":
            if not self.r_grid:
                raise UsageError("correlate needs a non-empty --r-grid")
            if (self.mu is None) == (self.rho is None):
                raise UsageError("correlate needs exactly one of --mu / --rho")
        if self.command == "thermo" and (self.mu is None) == (self.rho is None):
            raise UsageError("thermo needs exactly one of --mu / --rho")
        if self.command == "hierarchy":
            if self.rho is None:
                raise UsageError("hierarchy needs --rho")
            if not self.l_ladder:
                raise UsageError("hierarchy needs a non-empty --l-ladder")
            if self.kind not in ("type1", "type2", "type3"):
                raise UsageError(f"--kind must be type1|type2|type3, got {self.kind!r}")
        if self.command == "localize" and self.rho is None:
            raise UsageError("localize needs --rho")
        if self.command == "orderstats" and self.k < 2:
            raise UsageError(f"--k must be >= 2, got {self.k}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _rel_dev(mc: float, analytic: float | None) -> float | None:
    if analytic is None or analytic == 0.0 or not np.isfinite(analytic):
        return None
    return (mc - analytic) / abs(analytic)


def _trial_partition(cfg: ExperimentConfig, box_length: float, trial: int) -> IntervalPartition:
    rng = trial_rng(cfg.base_seed, trial)
    return IntervalPartition(poisson_lengths(cfg.intensity, box_length, rng), box_length)


def _sweep(cfg, grid, per_trial):
    """Shared trial loop: per-trial values and failure counts per grid point.

    per_trial(trial) returns a function of the grid point. A trial's setup
    failure loses the trial at every grid point; a failure at one grid point
    loses it there only. The sweep continues either way.
    """
    samples = {g: [] for g in grid}
    failures = {g: 0 for g in grid}
    for trial in range(cfg.seeds):
        try:
            produced = per_trial(trial)
        except _TRIAL_ERRORS:
            for g in grid:
                failures[g] += 1
            continue
        for g in grid:
            try:
                value = produced(g)
            except _TRIAL_ERRORS:
                failures[g] += 1
                continue
            samples[g].append(value)
    return samples, failures


def _mc_rows(cfg, grid_name, grid, per_trial, analytic_for):
    """Mean and std of the swept per-trial values, one row per grid point."""
    samples, failures = _sweep(cfg, grid, per_trial)
    rows = []
    for g in grid:
        vals = np.asarray(samples[g])
        analytic = analytic_for(g)
        mean = float(vals.mean()) if vals.size else float("nan")
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append({
            grid_name: g,
            "trials": cfg.seeds,
            "failed_trials": failures[g],
            "mc_mean": mean,
            "mc_std": std,
            "analytic": analytic,
            "rel_deviation": _rel_dev(mean, analytic),
            "status": "ok" if failures[g] == 0 else "trial_failures",
        })
    return rows


def _run_ids(cfg: ExperimentConfig):
    params = ModelParams(cfg.intensity)
    analytic = {e: ids_limit(params, e) for e in cfg.e_grid}

    def per_trial(trial):
        part = _trial_partition(cfg, cfg.box_length, trial)
        return lambda e: counting_function(part, e)

    rows = _mc_rows(cfg, "energy", cfg.e_grid, per_trial, analytic.get)
    for row in rows:
        row["box_length"] = cfg.box_length
    return rows, {}


def _run_thermo(cfg: ExperimentConfig):
    params = ModelParams(cfg.intensity)
    if cfg.mu is not None:
        observable, fixed, finite = "density", cfg.mu, density_finite
        analytic_value = density_limit(params, cfg.beta, cfg.mu)
    else:
        observable, fixed, finite = "mu", cfg.rho, solve_mu_finite
        analytic_value = solve_mu_limit(params, cfg.beta, cfg.rho)

    def per_trial(trial):
        # every box draws its partition afresh from the trial's stream
        return lambda box: finite(_trial_partition(cfg, box, trial), cfg.beta, fixed)

    rows = _mc_rows(cfg, "box_length", cfg.l_ladder or [cfg.box_length], per_trial,
                    lambda _: analytic_value)
    for row in rows:
        row["observable"] = observable
    meta = {"critical_density": critical_density(params, cfg.beta)}
    return rows, meta


def _run_correlate(cfg: ExperimentConfig):
    # one limit state per sweep, one level table and one mu per trial
    params = ModelParams(cfg.intensity)
    if cfg.mu is not None:
        if cfg.mu >= 0:
            raise UsageError("correlate with --mu needs mu < 0")
        analytic = {r: kernel_limit(params, cfg.beta, cfg.mu, r) for r in cfg.r_grid}
    else:
        report = condensate_density(params, cfg.beta, cfg.rho)
        analytic = {r: _condensed_kernel(cfg.intensity, cfg.beta, report, abs(r))
                    for r in cfg.r_grid}

    def per_trial(trial):
        table = level_table(_trial_partition(cfg, cfg.box_length, trial), cfg.beta)
        mu = cfg.mu if cfg.mu is not None else solve_mu_finite(table, cfg.beta, cfg.rho)
        return lambda r: kernel_finite(table, cfg.beta, mu, r)

    rows = _mc_rows(cfg, "separation", cfg.r_grid, per_trial, analytic.get)
    for row in rows:
        row["box_length"] = cfg.box_length
    return rows, {}


def _run_hierarchy(cfg: ExperimentConfig):
    rho_c = hierarchical_critical_density(cfg.intensity, cfg.beta)
    threshold = 0.01 * max(cfg.rho - rho_c, 1e-300)
    rows = []
    profiles = []
    for box in cfg.l_ladder:
        try:
            layout = build_layout(cfg.kind, box, cfg.intensity, cfg.m_large)
        except ValueError as err:
            raise UsageError(str(err)) from err
        profile = occupation_profile(layout, cfg.beta, cfg.rho)
        profiles.append(profile)
        rows.append({
            "box_length": box,
            "mu_solved": profile.mu_used,
            "total_density": profile.total_density(),
            "max_state_density": float(max(profile.large.max(), profile.small.max())),
            "macro_states": profile.macroscopic_count(threshold),
            "analytic": rho_c,
            "status": "ok",
        })
    meta = {"critical_density": rho_c}
    if len(profiles) >= 3:
        try:
            result = classify_condensate(profiles)
        except ValueError as err:
            raise UsageError(str(err)) from err
        meta["classification"] = result.label.value
    return rows, meta


def _run_orderstats(cfg: ExperimentConfig):
    lam, k = cfg.intensity, cfg.k
    delta = cfg.delta if cfg.delta is not None else 1.0 / lam
    largest = np.empty(cfg.seeds)
    second = np.empty(cfg.seeds)
    for trial in range(cfg.seeds):
        draws = trial_rng(cfg.base_seed, trial).exponential(1.0 / lam, size=k)
        top = np.partition(draws, k - 2)[-2:]
        second[trial], largest[trial] = top[0], top[1]
    gap = largest - second
    stats = [
        ("mean_largest", largest.mean(), largest.std(ddof=1), expected_largest(lam, k)),
        ("mean_second_largest", second.mean(), second.std(ddof=1),
         expected_second_largest(lam, k)),
        ("var_gap", gap.var(ddof=1), float("nan"), gap_variance(lam)),
        ("gap_exceedance", float((gap > delta).mean()), float("nan"),
         gap_exceedance_probability(lam, delta)),
    ]
    rows = []
    for name, mc, std, analytic in stats:
        rows.append({
            "statistic": name,
            "k": k,
            "trials": cfg.seeds,
            "mc_mean": float(mc),
            "mc_std": float(std) if np.isfinite(std) else None,
            "analytic": analytic,
            "rel_deviation": _rel_dev(float(mc), analytic),
            "status": "ok",
        })
    return rows, {"delta": delta}


def _run_localize(cfg: ExperimentConfig):
    ladder = cfg.l_ladder or [cfg.box_length]

    def per_trial(trial):
        return lambda box: ground_state_share(_trial_partition(cfg, box, trial), cfg.beta,
                                              cfg.rho, cfg.epsilon)

    samples, failures = _sweep(cfg, ladder, per_trial)
    rows = []
    for box in ladder:
        shares = samples[box]
        vals = np.asarray([s.fraction for s in shares if s.window_levels > 0])
        rows.append({
            "box_length": box,
            "trials": cfg.seeds,
            "failed_trials": failures[box],
            "empty_windows": sum(s.window_levels == 0 for s in shares),
            "ties": sum(int(s.tie) for s in shares),
            "mc_mean": float(vals.mean()) if vals.size else float("nan"),
            "mc_std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            "median_fraction": float(np.median(vals)) if vals.size else float("nan"),
            "analytic": None,
            "rel_deviation": None,
            "status": "ok" if failures[box] == 0 else "trial_failures",
        })
    return rows, {"epsilon": cfg.epsilon}


_RUNNERS = {
    "ids": _run_ids,
    "thermo": _run_thermo,
    "correlate": _run_correlate,
    "hierarchy": _run_hierarchy,
    "orderstats": _run_orderstats,
    "localize": _run_localize,
}


def _write_csv(path: str, rows: list[dict]):
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_json(path: str, rows: list[dict]):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows}, handle, indent=2, sort_keys=True, allow_nan=True)
        handle.write("\n")


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        config.validate()
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        rows, extra_meta = _RUNNERS[config.command](config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, DomainError) as err:
        print(f"numeric failure in analytic path: {err}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    try:
        if config.format == "csv":
            _write_csv(config.out, rows)
        else:
            _write_json(config.out, rows)
        metadata = {
            "command": config.command,
            "config": asdict(config),
            "package_version": __version__,
            "wall_time_seconds": elapsed,
            "rows_written": len(rows),
        }
        metadata.update(extra_meta)
        with open(config.out + ".meta.json", "w", encoding="utf-8") as handle:
            json.dump(metadata, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    return 0


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bec1d",
        description="Disordered one-dimensional Bose gas: seeded experiments with "
                    "closed-form cross-checks.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON file with defaults; flags override it")
    parser.add_argument("--lambda", dest="intensity", type=float, help="impurity intensity")
    parser.add_argument("--beta", type=float, help="inverse temperature")
    parser.add_argument("--mu", type=float, help="chemical potential")
    parser.add_argument("--rho", type=float, help="target particle density")
    parser.add_argument("--box-length", type=float, help="segment length for sampling")
    parser.add_argument("--seeds", type=int, help="number of disorder trials")
    parser.add_argument("--base-seed", type=int, help="base seed; trial t uses (base, t)")
    parser.add_argument("--e-grid", type=_float_list, help="energies, space or comma separated")
    parser.add_argument("--r-grid", type=_float_list, help="separations")
    parser.add_argument("--l-ladder", type=_float_list, help="box lengths")
    parser.add_argument("--out", help="result file path")
    parser.add_argument("--format", choices=("csv", "json"), help="result format")
    parser.add_argument("--k", type=int, help="order-statistics sample size")
    parser.add_argument("--epsilon", type=float, help="energy window for localize")
    parser.add_argument("--kind", choices=("type1", "type2", "type3"),
                        help="hierarchical layout kind")
    parser.add_argument("--m-large", type=int, help="large-interval count (type1)")
    parser.add_argument("--delta", type=float, help="gap threshold for orderstats")
    return parser


_PARSER = build_parser()


def build_config(argv: list[str]) -> ExperimentConfig:
    args = _PARSER.parse_args(argv)
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config file {args.config}: {err}") from err
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        settings.update(loaded)
    for key, value in vars(args).items():
        if key == "config":
            continue
        if value is not None:
            settings[key] = value
    unknown = set(settings) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**settings)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
