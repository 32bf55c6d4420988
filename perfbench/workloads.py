"""Workload items: the argv and call arguments the benchmark sends to bec1d.

An item is one whole parameter point, so that items of a workload cost about
the same. Parameter combinations are dealt in rounds: every round holds each
combination once, in an order shuffled from the workload seed, so the mix of
cheap and dear combinations in a run does not depend on the seed. Everything
else an item needs (densities, chemical potentials, base seeds) is drawn from
a stream keyed by (workload, seed, item index).

This module is stdlib only; the worker turns items into calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("mc_boxes", "mc_large_box", "limit_grid")
DEFAULT_SEED = 0
#: Seed of the untimed warm-up item; fixed so set-up time does not depend
#: on the run's seed.
WARMUP_SEED = 7919

#: Limiting critical density rho_c(lambda, beta) of the Poisson model,
#: rounded down. Densities are drawn as a fraction in [0.3, 0.9] of it, so
#: every --rho job sits below condensation and its limit mu solve is a real
#: root search.
RHO_C = {
    (0.5, 0.5): 1.9564, (0.5, 1.0): 0.86016, (0.5, 2.0): 0.35848,
    (1.0, 0.25): 1.7203, (1.0, 0.5): 0.71696, (1.0, 1.0): 0.27703, (1.0, 2.0): 0.096210,
    (2.0, 0.5): 0.19242, (2.0, 1.0): 0.057531, (2.0, 2.0): 0.013966,
}
RHO_FRACTION = (0.3, 0.9)

#: Limiting critical density of the hierarchical layouts, rounded up.
#: Hierarchy densities are drawn as a multiple in [1.5, 3] of it, above
#: condensation, where solve_type2_coefficient is defined.
RHO_C_HIER = {
    (0.5, 0.5): 2.5863e-05, (0.5, 1.0): 1.3377e-09, (0.5, 2.0): 3.5786e-18,
    (1.0, 0.5): 0.092716, (1.0, 1.0): 0.0072440, (1.0, 2.0): 5.1726e-05,
    (2.0, 0.5): 2.5377, (2.0, 1.0): 0.83625, (2.0, 2.0): 0.18544,
}
RHO_HIER_FACTOR = (1.5, 3.0)

#: beta * |mu| for fixed-mu jobs, mu = -x / beta.
MU_SCALE = (0.1, 1.0)

GRID = [(lam, beta) for lam in (0.5, 1.0, 2.0) for beta in (0.5, 1.0, 2.0)]
LARGE_GRID = [(length, beta) for length in (2e4, 4e4, 6e4) for beta in (0.25, 0.5, 1.0)]
LARGE_KINDS = ("thermo_rho", "localize", "correlate", "thermo_mu")
LAYOUT_KINDS = ("type1", "type2", "type3")

MC_TRIALS = 3
LADDER = "500 1000 2000"
R_GRID = "0 1 2 5 10 50"
LARGE_R_GRID = "0 5 50"
HIER_LADDER = "1e4 1e5 1e6"


@dataclass
class Job:
    """One CLI invocation (argv set) or one library call (func set)."""

    name: str
    argv: list[str] | None = None
    func: str | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: per-job parameters the correctness check needs
    params: dict = field(default_factory=dict)


@dataclass
class Item:
    index: int
    jobs: list[Job]


def _num(x) -> str:
    return repr(float(x))


def _round_order(workload: str, seed, round_index: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"{workload}/{seed}/round/{round_index}").shuffle(order)
    return order


def _draws(workload: str, seed, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/item/{index}")


def _common(lam, beta, rng):
    rho = rng.uniform(*RHO_FRACTION) * RHO_C[(lam, beta)]
    mu = -rng.uniform(*MU_SCALE) / beta
    base_seed = rng.randrange(2**31)
    return rho, mu, base_seed


def _cli(command, lam, beta, base_seed, *rest):
    return [command, "--lambda", _num(lam), "--beta", _num(beta),
            "--base-seed", str(base_seed), *rest]


def _mc_boxes(seed, index):
    lam, beta = GRID[_round_order("mc_boxes", seed, index // len(GRID), len(GRID))[index % len(GRID)]]
    rng = _draws("mc_boxes", seed, index)
    rho, mu, bs = _common(lam, beta, rng)
    # the window sits a few times above the typical spectral bottom
    # (C lam / ln(lam L))^2 of the smallest box, so windows are rarely empty
    epsilon = 0.5 * lam * lam
    trials = str(MC_TRIALS)
    p = dict(lam=lam, beta=beta, rho=rho, mu=mu)
    jobs = [
        Job("correlate", _cli("correlate", lam, beta, bs, "--rho", _num(rho), "--r-grid", R_GRID,
                              "--box-length", "2000", "--seeds", trials), params=dict(p, box=2000.0)),
        Job("localize", _cli("localize", lam, beta, bs, "--rho", _num(rho), "--l-ladder", LADDER,
                             "--seeds", trials, "--epsilon", _num(epsilon)), params=p),
        Job("thermo_rho", _cli("thermo", lam, beta, bs, "--rho", _num(rho), "--l-ladder", LADDER,
                               "--seeds", trials), params=p),
        Job("thermo_mu", _cli("thermo", lam, beta, bs, "--mu", _num(mu), "--l-ladder", LADDER,
                              "--seeds", trials), params=p),
        Job("ids", _cli("ids", lam, beta, bs, "--e-grid", "0.5 1 2 5", "--box-length", "5000",
                        "--seeds", trials), params=p),
        Job("orderstats", _cli("orderstats", lam, beta, bs, "--k", "1000", "--seeds", "100"),
            params=p),
    ]
    return Item(index, jobs)


def _mc_large_box(seed, index):
    # 4 kinds and 9 (L, beta) points are coprime, so each round of 36 items
    # meets every (kind, L, beta) combination once
    size = len(LARGE_GRID)
    round_index = index // (size * len(LARGE_KINDS))
    length, beta = LARGE_GRID[_round_order("mc_large_box", seed, round_index, size)[index % size]]
    kind = LARGE_KINDS[index % len(LARGE_KINDS)]
    lam = 1.0
    rng = _draws("mc_large_box", seed, index)
    rho, mu, bs = _common(lam, beta, rng)
    p = dict(lam=lam, beta=beta, rho=rho, mu=mu, box=length)
    box = ("--box-length", _num(length), "--seeds", "1")
    argv = {
        "thermo_rho": _cli("thermo", lam, beta, bs, "--rho", _num(rho), *box),
        "localize": _cli("localize", lam, beta, bs, "--rho", _num(rho), "--epsilon", "0.5", *box),
        "correlate": _cli("correlate", lam, beta, bs, "--rho", _num(rho), "--r-grid", LARGE_R_GRID,
                          *box),
        "thermo_mu": _cli("thermo", lam, beta, bs, "--mu", _num(mu), *box),
    }[kind]
    return Item(index, [Job(kind, argv, params=p)])


def _limit_grid(seed, index):
    lam, beta = GRID[_round_order("limit_grid", seed, index // len(GRID), len(GRID))[index % len(GRID)]]
    rng = _draws("limit_grid", seed, index)
    rho, mu, bs = _common(lam, beta, rng)
    rho_h = rng.uniform(*RHO_HIER_FACTOR) * RHO_C_HIER[(lam, beta)]
    kind = LAYOUT_KINDS[index % len(LAYOUT_KINDS)]
    p = dict(lam=lam, beta=beta, rho=rho, mu=mu, rho_h=rho_h)
    P = ("ModelParams", lam)  # built by the worker as bec1d.ModelParams(lam)
    jobs = [
        Job("density_limit", func="density_limit", args=(P, beta, mu)),
        Job("pressure_limit", func="pressure_limit", args=(P, beta, mu)),
        Job("solve_mu_limit", func="solve_mu_limit", args=(P, beta, rho)),
        Job("critical_density", func="critical_density", args=(P, beta)),
        Job("critical_density_by_parts", func="critical_density_by_parts", args=(P, beta)),
    ]
    for r in (1.0, 5.0, 20.0):
        jobs.append(Job(f"kernel_panels_r{r:g}", func="kernel_limit", args=(P, beta, mu, r),
                        params=dict(r=r, route="panels")))
    jobs += [
        Job("kernel_series_r5", func="kernel_limit", args=(P, beta, mu, 5.0),
            kwargs={"method": "series"}, params=dict(r=5.0, route="series")),
        Job("free_kernel_r5", func="free_kernel", args=(beta, mu, 5.0)),
        Job("kernel_with_condensate_r5", func="kernel_with_condensate", args=(P, beta, rho, 5.0),
            params=dict(r=5.0)),
        Job("solve_type2_coefficient", func="solve_type2_coefficient", args=(lam, beta, rho_h)),
        Job("hierarchy", _cli("hierarchy", lam, beta, bs, "--rho", _num(rho_h), "--kind", kind,
                              "--l-ladder", HIER_LADDER)),
    ]
    for job in jobs:
        job.params = dict(p, **job.params)
    return Item(index, jobs)


_MAKERS = {"mc_boxes": _mc_boxes, "mc_large_box": _mc_large_box, "limit_grid": _limit_grid}


#: Items per round; a run ends on a round boundary so its mix is the same at every seed.
ROUND = {"mc_boxes": len(GRID), "mc_large_box": len(LARGE_GRID) * len(LARGE_KINDS),
         "limit_grid": len(GRID)}


def make_item(workload: str, seed, index: int) -> Item:
    """Item `index` of a workload's deterministic sequence for `seed`."""
    return _MAKERS[workload](seed, index)


def items(workload: str, seed):
    """Endless item sequence of a workload."""
    return (make_item(workload, seed, i) for i in itertools.count())


def warmup_item(workload: str) -> Item:
    return make_item(workload, WARMUP_SEED, 0)
