from __future__ import annotations

import numpy as np
import pytest

from segrl.core import KEEP, SWITCH, Trajectory, TurnRecord
from segrl.critic import unstacked


def traj_from(qs, rewards, done=True, states=None, subgoals=None, actions=None,
              final_state=0, lp_switch=None):
    """Build a structurally valid trajectory from compact per-turn lists.

    Subgoals default to a fresh id on every switch; states/actions default
    to the turn index / zero.
    """
    turns = []
    prev = None
    fresh = 0
    for t, (q, r) in enumerate(zip(qs, rewards)):
        if subgoals is not None:
            o = subgoals[t]
        elif q == SWITCH:
            o = fresh
            fresh += 1
        else:
            o = prev
        turns.append(TurnRecord(
            t=t,
            state=states[t] if states is not None else t,
            prev_subgoal=prev,
            q=q,
            subgoal=o,
            action=actions[t] if actions is not None else 0,
            reward=float(r),
            raw_reward=float(r),
            done=done and t == len(qs) - 1,
            lp_switch=None if (t == 0 or lp_switch is None) else lp_switch[t],
        ))
        prev = o
    return Trajectory(tuple(turns), truncated=not done,
                      final_state=None if done else final_state)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def weighted_target_maps(batch):
    """Per-cell weight times mean target on the zero tables and on every
    unit table over [v_high, v_low.ravel()]: the affine map of the batch's
    mean targets, entry by entry (constant part, then each coefficient)."""
    n_v = batch.w.size
    units = [np.zeros(n_v)] + [np.eye(1, n_v, j)[0] for j in range(n_v)]
    return [batch.w * batch.mean_targets(unstacked(u, batch.n_states))
            for u in units]


def head_ratios(tt, params):
    """Per-turn (switch, subgoal, action) ratios live/behavior as
    `training.actor_loss` forms them, in `gather_rows` order.

    With one head's advantage 1, the others 0 and no clipping, the surrogate
    of a one-turn minibatch is that head's ratio; a head the turn lacks (the
    switch at t = 0, the subgoal on KEEP turns) contributes 0.
    """
    from segrl.batch import gather_rows
    from segrl.training import actor_loss

    rows = gather_rows(tt)
    heads = ("adv_switch", "adv_high", "adv_low")
    out = np.empty((len(rows), 3))
    for i in range(len(rows)):
        row = rows.take(np.array([i]))
        for k, head in enumerate(heads):
            for name in heads:
                setattr(row, name, np.full(1, float(name == head)))
            out[i, k], _ = actor_loss(row, params, eps=1e9)
    return rows, out


def one_turn(turn):
    """A standalone turn as a one-turn episode (at column 0 of a table)."""
    return Trajectory((turn,), truncated=True, final_state=0)


def kernel_log_probs(params, trajectories):
    """Per turn, in `gather_rows` order, the (lp_switch, lp_subgoal,
    lp_action) that `batch.record_behavior` takes from the policy pass;
    None where the turn lacks the head."""
    from segrl.batch import TurnTable, gather_rows, record_behavior

    rows = gather_rows(record_behavior(TurnTable.from_trajectories(trajectories),
                                       params))
    return [tuple(None if np.isnan(x) else float(x) for x in lps)
            for lps in zip(rows.lp_switch, rows.lp_subgoal, rows.lp_action)]


def kernel_scores(params, trajectories):
    """The score kernel's per-turn score tables, one per turn in
    `gather_rows` order on a leading axis."""
    from segrl.batch import TurnTable, gather_rows, policy_pass, score_tables

    rows = gather_rows(TurnTable.from_trajectories(trajectories))
    one = np.ones(len(rows))
    return score_tables(params, policy_pass(rows, params), (one,) * 3,
                        group=np.arange(len(rows)), n_groups=len(rows))
