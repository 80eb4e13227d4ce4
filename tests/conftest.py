from __future__ import annotations

import os

import numpy as np
import pytest

from segrl.critic import unstacked
from segrl.core import KEEP, SWITCH
from segrl.oracle import random_table

import spec
from spec import Trajectory, TurnRecord


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


def random_trajectory(rng: np.random.Generator, n_states: int, n_options: int,
                      n_actions: int, max_turns: int = 10,
                      p_truncated: float = 0.3) -> Trajectory:
    """One `oracle.random_table` episode as a trajectory."""
    return spec.records(random_table(rng, 1, n_states, n_options, n_actions, max_turns,
                                     p_truncated))[0]


class Walk:
    """Three cells and a goal, with no clock in the state: action 0 steps
    forward (from cell 2 into the goal, reward 1), action 1 waits (reward
    -0.1).  An episode that has not reached the goal by the horizon is cut
    there, which never happens in the shipped envs: with two subgoals and
    horizon 4, 864 of the enumeration's 1248 leaves are truncated."""

    n_states, n_actions, goal_state = 4, 2, 3

    def __init__(self, horizon: int = 4):
        self.horizon = horizon

    def initial_states(self):
        return [(0, 0.4), (1, 0.6)]

    def is_terminal(self, s):
        return s == self.goal_state

    def transition(self, s, a):
        if a == 1:
            return s, -0.1, False
        if s == 2:
            return self.goal_state, 1.0, True
        return s + 1, 0.0, False


def cpus(monkeypatch, n):
    """Let the gates that fork workers see n CPUs: 1 runs their work in this
    process, 2 on a pool of forked workers whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def weighted_target_maps(batch):
    """Per-cell weight times mean target on the zero tables and on every
    unit table over [v_high, v_low.ravel()]: the affine map of the batch's
    mean targets, entry by entry (constant part, then each coefficient)."""
    n_v = batch.w.size
    units = [np.zeros(n_v)] + [np.eye(1, n_v, j)[0] for j in range(n_v)]
    return [batch.w * spec.mean_targets(batch, unstacked(u, batch.n_states))
            for u in units]


def take(rows, idx):
    """The turn rows `idx` of a `batch.TurnRows`, in that order."""
    from segrl.batch import TurnRows

    return TurnRows(*[None if v is None else v[idx] for v in vars(rows).values()])


def minibatch_step(rows, params, ref, eps, flat=False, idx=None, grad=True):
    """The trainer's minibatch step over the rows `idx` (default: all) of the
    batch `rows`, whose sites it builds once as the trainer does: the
    hierarchical (or, with `flat`, the flat) surrogate, its gradient, the KL
    to `ref` and its gradient; the gradients as GradTables, None without
    `grad`."""
    from segrl.policy import GradTables
    from segrl.training import _ref_log_probs, _sites, _step

    idx = np.arange(len(rows)) if idx is None else idx
    sites = _sites(rows, params, flat, _ref_log_probs(ref))
    value, g_sur, kl, g_kl = _step(sites, idx, sites.layout.slab(params.theta), eps, grad)
    return tuple(GradTables.wrap(sites.layout.spread(x), params)
                 if isinstance(x, np.ndarray) else x for x in (value, g_sur, kl, g_kl))


def actor_loss(rows, params, eps):
    """Summed clipped surrogate over the three levels, with its gradient.

    The subgoal surrogate is gated on switch turns; the switch surrogate
    skips the forced first turn and any turn flagged malformed by the
    parser.
    """
    value, grads, _, _ = minibatch_step(rows, params, params, eps)
    return value, grads


def flat_actor_loss(rows, params, eps):
    """Single-level surrogate on the joint turn ratio, flat advantages.

    The ratio multiplies the product of present-head likelihoods; its score
    is the sum of the per-head scores, all weighted by the same advantage.
    """
    value, grads, _, _ = minibatch_step(rows, params, params, eps, flat=True)
    return value, grads


def kl_penalty(rows, params, ref):
    """Exact categorical KL to the reference policy, averaged over turns.

    Heads present at each turn contribute: the action head always, the
    subgoal head on switch turns, the switch head from t = 1 on.
    """
    _, _, kl, grads = minibatch_step(rows, params, ref, 0.2)
    return kl, grads


def head_ratios(tt, params):
    """Per-turn (switch, subgoal, action) ratios live/behavior as the
    trainer's minibatch step forms them, in `gather_rows` order.

    With one head's advantage 1, the others 0 and no clipping, the surrogate
    of a one-turn minibatch is that head's ratio; a head the turn lacks (the
    switch at t = 0, the subgoal on KEEP turns) contributes 0.
    """
    from segrl.batch import gather_rows

    rows = gather_rows(tt)
    heads = ("adv_switch", "adv_high", "adv_low")
    out = np.empty((len(rows), 3))
    for i in range(len(rows)):
        row = take(rows, np.array([i]))
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
    lp_action) that `batch.record_behavior` takes from the site pass;
    None where the turn lacks the head."""
    from segrl.batch import gather_rows, record_behavior

    rows = gather_rows(record_behavior(spec.table(trajectories), params))
    return [tuple(None if np.isnan(x) else float(x) for x in lps)
            for lps in zip(rows.lp_switch, rows.lp_subgoal, rows.lp_action)]


def kernel_scores(params, trajectories):
    """The score kernel's per-turn score tables, one per turn in
    `gather_rows` order on a leading axis."""
    from segrl.batch import gather_rows, head_sites, site_pass, site_scores
    from segrl.policy import GradTables

    rows = gather_rows(spec.table(trajectories))
    sites = head_sites(rows, params)
    sp = site_pass(sites, sites.slab(params.theta))
    return GradTables.wrap(sites.spread(
        site_scores(sp, np.ones(sp.site.size), group=sp.pos, n_groups=len(rows))), params)
