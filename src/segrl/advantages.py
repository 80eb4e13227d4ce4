"""Estimator configuration and the per-trajectory segment recursions.

Execution (low) advantages accumulate TD residuals within each segment only,
with the segment-final residual bootstrapping to the high-head value at the
next boundary.  Planning (high) advantages treat each segment as one
macro-step with a duration discount.  Switching advantages are the centered
binary policy-gradient signal (q - beta) * (v_high - v_low), and the flat
comparator runs ordinary GAE across the whole episode with a state-only
baseline.

All four are computed over a padded batch by `batch.advantage_arrays`.  The
one-episode low and high recursions below are the reference that
`oracle.telescope_check` verifies against their closed forms on random
trajectories and random tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Trajectory, segment_views
from .critic import ValueTables, v_next


@dataclass
class GAEConfig:
    """Discount and per-level mixing parameters.

    whiten is 'off' (verification default: identity checks need raw values)
    or 'per-level' (training default: each level is normalized to zero mean
    and unit variance across the batch).
    """

    gamma: float = 0.99
    lambda_low: float = 0.95
    lambda_high: float = 0.95
    lambda_flat: float = 0.95
    whiten: str = "off"

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        for name in ("lambda_low", "lambda_high", "lambda_flat"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.whiten not in ("off", "per-level"):
            raise ValueError("whiten must be 'off' or 'per-level'")


def low_td_residuals(traj: Trajectory, tables: ValueTables, gamma: float) -> np.ndarray:
    """delta_t = r_t + gamma * v_next(t) - v_low(s_t, o_t)."""
    out = np.empty(traj.n_turns, dtype=np.float64)
    for t, turn in enumerate(traj.turns):
        out[t] = (turn.reward + gamma * v_next(traj, tables, t)
                  - tables.v_low[turn.state, turn.subgoal])
    return out


def low_advantages(deltas: np.ndarray, boundaries: list[int], cfg: GAEConfig) -> np.ndarray:
    """Backward accumulation of residuals, resetting at every boundary."""
    out = np.empty_like(deltas)
    decay = cfg.gamma * cfg.lambda_low
    interior = set(boundaries[1:-1])
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        if t + 1 in interior or t == len(deltas) - 1:
            acc = deltas[t]
        else:
            acc = deltas[t] + decay * acc
        out[t] = acc
    return out


def high_advantages(traj: Trajectory, tables: ValueTables, cfg: GAEConfig
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Macro-step residuals and advantages over the boundary-indexed chain.

    delta_k = r~_k + g~_k * v_high(s_{b_{k+1}}) - v_high(s_{b_k}); the
    mixing weight multiplies once per segment: A_k = delta_k + g~_k *
    lambda_high * A_{k+1}.
    """
    views = segment_views(traj, cfg.gamma)
    t_total = traj.n_turns
    deltas = np.empty(len(views), dtype=np.float64)
    for seg in views:
        if seg.stop < t_total:
            boot = float(tables.v_high[traj.turns[seg.stop].state])
        elif traj.terminated:
            boot = 0.0
        else:
            if traj.final_state is None:
                raise ValueError("truncated trajectory without final_state")
            boot = float(tables.v_high[traj.final_state])
        deltas[seg.k] = (seg.reward + seg.discount * boot
                         - tables.v_high[traj.turns[seg.start].state])
    adv = np.empty_like(deltas)
    acc = 0.0
    for k in range(len(views) - 1, -1, -1):
        acc = deltas[k] + views[k].discount * cfg.lambda_high * acc
        adv[k] = acc
    return deltas, adv


def whiten(values: np.ndarray) -> np.ndarray:
    """Normalize to zero mean and unit variance (no-op scale when degenerate)."""
    if values.size == 0:
        return values
    centered = values - values.mean()
    std = centered.std()
    if std < 1e-12:
        return centered
    return centered / std
