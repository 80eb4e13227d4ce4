"""The trainer's whitening step, and a map of the advantage estimators.

The estimators are GAE run once per level, reading four fields of the
`training.PPOConfig` they are given: the discount `gamma` and the mixing
weights `lambda_low`, `lambda_high` and `lambda_flat`.  Execution (low)
advantages accumulate TD residuals within each segment only, the
segment-final residual bootstrapping to the high-head value at the next
boundary.  Planning (high) advantages treat each segment as one macro-step
with a duration discount.  Switching advantages are the centered binary
policy-gradient signal (q - beta) * (v_high - v_low), and the flat
comparator runs ordinary GAE across the whole episode with a state-only
baseline.

`batch.advantage_arrays` computes the three hierarchical levels over a
padded batch, the one implementation: the trainer and every oracle run it,
and `oracle.telescope_check` verifies it against its closed forms on random
trajectories, tables and discounts.  Its low and high TD residuals are the
errors of the critic's regression rows (one row per turn and one per
segment), so the segment's macro reward and duration discount are written
once, in `batch`'s row builder.  The flat comparator is its own kernel,
`batch.flat_advantage_arrays`, run by the flat trainer and the variance
gate; both kernels bootstrap at one grid of closing states.  Both return
raw advantages: whitening them per batch is the trainer's one step
(`training._whiten_sites`).  The one-episode recursions survive only as the
test-side reference (`tests/spec.py`).
"""

from __future__ import annotations

import numpy as np


def whiten(values: np.ndarray) -> np.ndarray:
    """Normalize to zero mean and unit variance (no-op scale when degenerate)."""
    if values.size == 0:
        return values
    centered = values - values.mean()
    std = centered.std()
    if std < 1e-12:
        return centered
    return centered / std
