"""Reproducible random streams for Monte Carlo drivers.

Every trial derives its generator from (base_seed, trial_index), so results
are bit-identical no matter how trials are batched or distributed across
workers, and any single trial can be replayed in isolation.
"""

from __future__ import annotations

import numpy as np


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for one trial, keyed by (base_seed, trial_index)."""
    return np.random.default_rng((int(base_seed), int(trial_index)))
