"""Per-trajectory reference forms of the batch kernels.

Each function here restates, one episode and one turn at a time, what a
vectorized kernel in `segrl.batch` or `segrl.training` computes over a
padded `TurnTable`.  They are the specification the kernels are tested
against (`tests/test_batch.py` and the estimator tests), not library code:

* `TurnRecord` and `Trajectory`, an episode as records, with
  `segment_boundaries`; `table` (the records' fields transposed, then
  `TurnTable.from_columns`) and `records` (its inverse) convert between
  them and the padded table;
* `segment_views` (macro-reward and duration discount per segment) and
  `returns_to_go` for `batch.segment_masks` / `returns_matrix` and the
  high-head rows of `critic_batch_from_table`, and `seg_end_loop`, the
  backward loop over turns, for `segment_masks`' running minimum, and
  `backward_sums_loop`, one `np.where` per turn, for the recursion
  `batch._backward_sums` runs with its decays built once;
* `rollout` (with `CounterRng`, `sample_turn`, `greedy_turn` and
  `apply_keep_penalty`) for `rollout_batch`, sampled or greedy (its walk
  over the contexts' successors);
* `estimate_batch` for `advantage_arrays`: the segment recursions
  `low_td_residuals` (with `v_next`), `low_advantages` and
  `high_advantages`, plus `switch_advantages`; `flat_gae` for
  `flat_advantage_arrays`;
* `critic_batch` and `flat_critic_batch` for `critic_batch_from_table` and
  `flat_batch_from_table`; `critic_rows_nonzero`, the row builder with
  (episode, turn) index pairs, for `_critic_rows`' flat gathers;
  `batch_mse` and `mean_targets` for the one target pass per epoch of
  `critic.fit_critic`;
* `transition_loop`, one `env.transition` call per (state, action), for
  `envs.transition_tables`' array-built FetchChain tables;
* `ppo_ratios` for the per-head ratios inside the trainer's minibatch step;
* `actor_loss`, `flat_actor_loss` and `kl_penalty` for that step
  (`training._step`, over the three heads' stacked sites): each head's
  log-softmax computed separately by the surrogate and by the KL,
  gradients summed with `np.add.at`;
* `total_loss`, the combined loss of `gradcheck.check_total_loss_grads`
  with every part (sites, critic batch, step) rebuilt on each call, for
  that check's shortcut of re-evaluating only the bumped part;
* `log_prob`, `grad_log_prob` and `with_behavior_logprobs`, one turn at a
  time, for `batch.site_pass`, `batch.site_scores` and
  `batch.record_behavior`; `check_log_prob_grads`, gradcheck's score check
  on one random episode;
* `head_sites_by_entries`, with a theta-sized mark and slot per logit, for
  `batch.head_sites`' per-cell layout, and `minibatch_columns`, one
  minibatch's site columns from its rows alone, for the epoch-wide
  `batch.site_columns`;
* `mc_gradient_hae` (with `scatter_episode_grads`, a dense per-episode
  `np.add.at` scatter) for `oracle.mc_gradient_hae`;
* `variance_report`, one turn with its own rollout loop and the one-shot
  bootstrap (the whole (n_boot, n) index matrix drawn at once), for
  `oracle.variance_reports`, and `overlapping`, whether a report's two
  intervals overlap;
* `enumerate_trajectories`, a depth-first recursion that builds one
  `Trajectory` per leaf, for `oracle.enumeration_table`;
* `conditional_switch_values_enumerated`, leaf-averaged switch-context
  values, for the layered DP's `g_low` and `g_high`, and
  `score_expectation_enumerated`, the P(tau)-weighted score sum over the
  enumeration (zero in theory), for the score kernel `batch.site_scores`;
* `optimal_return`, backward induction over the env's own transitions,
  for the shipped environments' reward structure, and `fetchchain_expert`,
  a hand-coded policy that attains it on FetchChain;
* `switch_prob`, one switch-head softmax, for the switch probabilities
  the kernels take from `policy.softmax`;
* `write_trajectories` (with `turn_to_json`), one `json.dumps` per line,
  for `core.write_trajectories`' line template, and `advantage_lines`,
  one dict per turn, for the lines of `segrl advantages`;
  `checkpoint_text`, one formatted line per value, for
  `policy.write_checkpoint`.

The library has one implementation of each estimator; `oracle.telescope_check`
verifies the hierarchical one, `batch.advantage_arrays`, against its closed
forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from segrl import gradcheck
from segrl.batch import (HEADS, Sites, _closing_states, advantage_arrays,
                         critic_batch_from_table, flat_advantage_arrays, gather_rows,
                         head_sites, returns_matrix, rollout_batch, site_pass, site_scores)
from segrl.core import KEEP, SWITCH, MalformedTrajectory, TurnTable
from segrl.critic import (CriticBatch, ValueTables, low_cell, single_coupling_rows,
                          unstacked)
from segrl.envs import EnvModel, FetchChain
from segrl.oracle import OracleValues, VarianceReport, enumeration_table
from segrl.policy import GradTables, PolicyParams, _fetchchain_moves, log_softmax, softmax
from segrl.rng import HEAD_ACTION, HEAD_SUBGOAL, HEAD_SWITCH, counter_uniform, derive_seed
from segrl.training import (PPOConfig, _clipped_surrogate, _columns, _ref_log_probs, _sites,
                            _step)


# -- episode records ----------------------------------------------------------

class TurnRecord(NamedTuple):
    """One turn: a `TurnTable` row's fields, None where the table holds -1
    or NaN."""

    t: int
    state: int
    prev_subgoal: int | None
    q: int
    subgoal: int
    action: int
    reward: float
    raw_reward: float
    done: bool
    subgoal_text: str | None = None
    lp_switch: float | None = None
    lp_subgoal: float | None = None
    lp_action: float | None = None
    format_valid: bool = True


@dataclass(frozen=True)
class Trajectory:
    """An episode of turns, ending either terminally or by truncation."""

    turns: tuple[TurnRecord, ...]
    truncated: bool = False
    final_state: int | None = None

    @property
    def n_turns(self) -> int:
        return len(self.turns)

    @property
    def terminated(self) -> bool:
        return not self.truncated


def segment_boundaries(traj: Trajectory) -> list[int]:
    """Boundary indices [b_0 .. b_K]: b_0 = 0, the turns t > 0 with q_t = 1,
    and b_K = T whether or not a switch occurred there."""
    if not traj.turns or traj.turns[0].q != SWITCH:
        raise MalformedTrajectory("an episode starts with a switching turn")
    return [0] + [u.t for u in traj.turns[1:] if u.q == SWITCH] + [traj.n_turns]


def table(trajectories, weights=None) -> TurnTable:
    """The records as one validated table: their fields transposed into
    columns, then `TurnTable.from_columns`."""
    trajs = list(trajectories)
    turns = [u for tr in trajs for u in tr.turns]
    cols = {f: [getattr(u, f) for u in turns] for f in TurnRecord._fields}
    cols["format_ok"] = cols.pop("format_valid")
    tt = TurnTable.from_columns(cols, [tr.n_turns for tr in trajs],
                                [tr.terminated for tr in trajs],
                                [tr.final_state for tr in trajs])
    tt.weight[:] = 1.0 if weights is None else weights
    return tt


def records(tt: TurnTable, texts=None) -> list[Trajectory]:
    """The table's episodes as records, each column converted by one
    `tolist`; a negative prev_subgoal or final_state and a NaN log-prob read
    as None, and `texts` (one per turn, in row-major mask order) fill
    subgoal_text."""
    def none_where(bad, x):
        return np.where(bad, None, x).tolist()

    text = iter([None] * tt.total_turns if texts is None else texts)
    rows = zip(tt.state.tolist(), none_where(tt.prev_subgoal < 0, tt.prev_subgoal),
               tt.q.tolist(), tt.subgoal.tolist(), tt.action.tolist(),
               tt.reward.tolist(), tt.raw_reward.tolist(),
               *(none_where(np.isnan(x), x) for x in (tt.lp_switch, tt.lp_subgoal, tt.lp_action)),
               tt.format_ok.tolist())
    out = []
    for n, term, fs, (s, p, q, o, a, r, raw, lp_s, lp_o, lp_a, ok) in zip(
            tt.length.tolist(), tt.terminated.tolist(), tt.final_state.tolist(), rows):
        turns = tuple(TurnRecord(t, s[t], p[t], q[t], o[t], a[t], r[t], raw[t],
                                 term and t == n - 1, next(text), lp_s[t], lp_o[t], lp_a[t],
                                 ok[t]) for t in range(n))
        out.append(Trajectory(turns, truncated=not term, final_state=None if fs < 0 else fs))
    return out


# -- segments, returns and reward shaping ---------------------------------------

class SegmentView(NamedTuple):
    """Maximal constant-subgoal run [start, stop) compressed to a macro-step."""

    k: int
    start: int
    stop: int
    subgoal: int
    reward: float     # within-segment discounted reward, discount 1 at `start`
    discount: float   # gamma ** (stop - start)


def segment_views(traj: Trajectory, gamma: float) -> list[SegmentView]:
    """Compress each segment into (macro-reward, duration discount)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    bounds = segment_boundaries(traj)
    views = []
    for k in range(len(bounds) - 1):
        start, stop = bounds[k], bounds[k + 1]
        acc = 0.0
        scale = 1.0
        for j in range(start, stop):
            acc += scale * traj.turns[j].reward
            scale *= gamma
        views.append(SegmentView(k, start, stop, traj.turns[start].subgoal,
                                 acc, gamma ** (stop - start)))
    return views


def seg_end_loop(tt: TurnTable) -> np.ndarray:
    """`segment_masks(tt).seg_end` over the whole padded grid, one turn at a
    time from the last: the next boundary turn after t, else the length."""
    out = np.zeros(tt.mask.shape, dtype=np.int64)
    carry = tt.length.copy()
    for t in range(tt.max_turns - 1, -1, -1):
        out[:, t] = carry
        carry = np.where(tt.mask[:, t] & (tt.q[:, t] == SWITCH), t, carry)
    return out


def backward_sums_loop(x: np.ndarray, mask: np.ndarray, decay, restart: np.ndarray
                       ) -> np.ndarray:
    """`batch._backward_sums`, one turn at a time from the last column:
    S_t = x_t + decay_t * S_{t+1}, or x_t at a restart, and 0 outside the
    mask."""
    out = np.zeros_like(x)
    carry = np.zeros(x.shape[0])
    decay = np.broadcast_to(decay, x.shape)
    for t in range(x.shape[1] - 1, -1, -1):
        carry = np.where(restart[:, t], x[:, t], x[:, t] + decay[:, t] * carry)
        out[:, t] = carry = np.where(mask[:, t], carry, 0.0)
    return out


def returns_to_go(traj: Trajectory, gamma: float) -> np.ndarray:
    """Discounted tail sums of the shaped rewards, one backward pass."""
    out = np.empty(traj.n_turns, dtype=np.float64)
    acc = 0.0
    for j in range(traj.n_turns - 1, -1, -1):
        acc = traj.turns[j].reward + gamma * acc
        out[j] = acc
    return out


def apply_keep_penalty(traj: Trajectory, c_keep: float) -> Trajectory:
    """Subtract c_keep from the shaped reward of every KEEP turn; raw
    rewards are left untouched."""
    if c_keep < 0:
        raise ValueError("c_keep must be >= 0")
    if c_keep == 0.0:
        return traj
    turns = tuple(
        u._replace(reward=u.reward - c_keep) if u.q == KEEP else u
        for u in traj.turns
    )
    return replace(traj, turns=turns)


# -- rollout ------------------------------------------------------------------

class CounterRng(NamedTuple):
    """Per-episode view over the counter stream used by a single rollout."""

    seed: int
    episode: int = 0

    def uniform(self, turn: int, head: int) -> float:
        return counter_uniform(self.seed, self.episode, turn, head)


def _sample_row(logits: np.ndarray, u: float) -> int:
    """Inverse-CDF draw over an explicitly normalized softmax row."""
    probs = softmax(logits)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(cdf) - 1))


def sample_turn(params: PolicyParams, state: int, prev_subgoal: int | None,
                rng: CounterRng, t: int):
    """Draw (q, subgoal, action) plus the behavior log-probs for one turn.

    At t = 0 the switch is forced (q = 1) and carries no log-probability.
    """
    if t == 0 or prev_subgoal is None:
        q, lp_sw = SWITCH, None
    else:
        q = _sample_row(params.switch[state, prev_subgoal],
                        rng.uniform(t, HEAD_SWITCH))
        lp_sw = float(log_softmax(params.switch[state, prev_subgoal])[q])
    if q == SWITCH:
        o = _sample_row(params.subgoal[state], rng.uniform(t, HEAD_SUBGOAL))
        lp_hi = float(log_softmax(params.subgoal[state])[o])
    else:
        o, lp_hi = prev_subgoal, None
    a = _sample_row(params.action[state, o], rng.uniform(t, HEAD_ACTION))
    lp_lo = float(log_softmax(params.action[state, o])[a])
    return q, o, a, lp_sw, lp_hi, lp_lo


def greedy_turn(params: PolicyParams, state: int, prev_subgoal: int | None, t: int):
    """Argmax decisions; ties break toward the lowest index."""
    if t == 0 or prev_subgoal is None:
        q = SWITCH
    else:
        q = int(np.argmax(params.switch[state, prev_subgoal]))
    o = int(np.argmax(params.subgoal[state])) if q == SWITCH else prev_subgoal
    a = int(np.argmax(params.action[state, o]))
    return q, o, a


def rollout(env: EnvModel, params: PolicyParams, horizon: int, rng: CounterRng,
            c_keep: float = 0.0, greedy: bool = False) -> Trajectory:
    """Collect one episode, ending on env `done` or truncation at `horizon`."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    turns: list[TurnRecord] = []
    state_items = env.initial_states()
    if len(state_items) == 1:
        state = state_items[0][0]
    else:
        u = rng.uniform(0, 3)  # head 3 reserved for the initial draw
        cdf = np.cumsum([p for _, p in state_items])
        state = state_items[int(np.searchsorted(cdf / cdf[-1], u, side="right"))][0]
    prev: int | None = None
    truncated = False
    final_state: int | None = None
    for t in range(horizon):
        if greedy:
            q, o, a = greedy_turn(params, state, prev, t)
            lp_sw = lp_hi = lp_lo = None
        else:
            q, o, a, lp_sw, lp_hi, lp_lo = sample_turn(params, state, prev, rng, t)
        nxt, r, done = env.transition(state, a)
        turns.append(TurnRecord(
            t=t, state=state, prev_subgoal=prev, q=q, subgoal=o, action=a,
            reward=r, raw_reward=r, done=done,
            lp_switch=lp_sw, lp_subgoal=lp_hi, lp_action=lp_lo,
        ))
        if done:
            final_state = nxt
            break
        state, prev = nxt, o
    else:
        truncated = True
        final_state = state
    return apply_keep_penalty(Trajectory(tuple(turns), truncated, final_state), c_keep)


# -- advantages ---------------------------------------------------------------

@dataclass
class HierarchicalAdvantages:
    """a_low has length T, a_high one entry per segment, a_switch length
    T-1 (the first switch is forced)."""

    a_low: np.ndarray
    a_high: np.ndarray
    a_switch: np.ndarray
    boundaries: list[int]


def switch_advantages(traj: Trajectory, tables: ValueTables,
                      params: PolicyParams | None = None) -> np.ndarray:
    """(q_t - beta_t) * (v_high(s_t) - v_low(s_t, o_{t-1})) for t = 1 .. T-1;
    beta_t from the recorded behavior log-prob, else from `params`."""
    out = np.empty(max(traj.n_turns - 1, 0), dtype=np.float64)
    for t in range(1, traj.n_turns):
        turn = traj.turns[t]
        if turn.lp_switch is not None:
            p = math.exp(turn.lp_switch)
            beta = p if turn.q == SWITCH else 1.0 - p
        elif params is None:
            raise ValueError(f"turn {t}: no behavior record and no params given")
        else:
            beta = float(softmax(params.switch[turn.state, turn.prev_subgoal])[SWITCH])
        gain = tables.v_high[turn.state] - tables.v_low[turn.state, turn.prev_subgoal]
        out[t - 1] = (turn.q - beta) * gain
    return out


def flat_gae(traj: Trajectory, v_flat: np.ndarray, cfg: PPOConfig) -> np.ndarray:
    """Ordinary GAE across the whole episode, no segment resets."""
    deltas = np.empty(traj.n_turns, dtype=np.float64)
    for t, turn in enumerate(traj.turns):
        if turn.done:
            boot = 0.0
        elif t == traj.n_turns - 1:
            if traj.final_state is None:
                raise ValueError("truncated trajectory without final_state")
            boot = float(v_flat[traj.final_state])
        else:
            boot = float(v_flat[traj.turns[t + 1].state])
        deltas[t] = turn.reward + cfg.gamma * boot - v_flat[turn.state]
    out = np.empty_like(deltas)
    acc = 0.0
    decay = cfg.gamma * cfg.lambda_flat
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + decay * acc
        out[t] = acc
    return out


def v_next(traj: Trajectory, tables: ValueTables, t: int) -> float:
    """Bootstrap value for turn t: the low head at (s_{t+1}, current
    subgoal) inside a segment, the high head at the boundary state after a
    segment-final turn, 0 after a terminal turn and the high head at the
    recorded final state after a truncated one."""
    if not 0 <= t < traj.n_turns:
        raise IndexError(f"turn {t} out of range")
    turn = traj.turns[t]
    if turn.done:
        return 0.0
    if t == traj.n_turns - 1:
        if traj.final_state is None:
            raise ValueError("truncated trajectory without final_state")
        return float(tables.v_high[traj.final_state])
    nxt = traj.turns[t + 1]
    if nxt.q == SWITCH:
        return float(tables.v_high[nxt.state])
    return float(tables.v_low[nxt.state, turn.subgoal])


def low_td_residuals(traj: Trajectory, tables: ValueTables, gamma: float) -> np.ndarray:
    """delta_t = r_t + gamma * v_next(t) - v_low(s_t, o_t)."""
    out = np.empty(traj.n_turns, dtype=np.float64)
    for t, turn in enumerate(traj.turns):
        out[t] = (turn.reward + gamma * v_next(traj, tables, t)
                  - tables.v_low[turn.state, turn.subgoal])
    return out


def low_advantages(deltas: np.ndarray, boundaries: list[int], cfg: PPOConfig) -> np.ndarray:
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


def high_advantages(traj: Trajectory, tables: ValueTables, cfg: PPOConfig
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


def estimate_all(traj: Trajectory, tables: ValueTables, cfg: PPOConfig,
                 params: PolicyParams | None = None) -> HierarchicalAdvantages:
    boundaries = segment_boundaries(traj)
    deltas = low_td_residuals(traj, tables, cfg.gamma)
    a_low = low_advantages(deltas, boundaries, cfg)
    _, a_high = high_advantages(traj, tables, cfg)
    a_switch = switch_advantages(traj, tables, params)
    return HierarchicalAdvantages(a_low, a_high, a_switch, boundaries)


def estimate_batch(trajectories, tables: ValueTables, cfg: PPOConfig,
                   params: PolicyParams | None = None) -> list[HierarchicalAdvantages]:
    """Per-trajectory estimates."""
    return [estimate_all(traj, tables, cfg, params) for traj in trajectories]


# -- critic regression rows ---------------------------------------------------

def critic_batch(trajectories, gamma: float, n_states: int, n_options: int,
                 weights=None) -> CriticBatch:
    """One single-coupling row per turn (low head) and per segment (high
    head), built episode by episode."""
    cell, w, r, boot, coef = [], [], [], [], []
    for i, traj in enumerate(trajectories):
        wi = 1.0 if weights is None else float(weights[i])
        turns = traj.turns
        if traj.terminated:
            end = -1
        elif traj.final_state is None:
            raise ValueError("truncated trajectory without final_state")
        else:
            end = traj.final_state
        for t, turn in enumerate(turns):
            if turn.done or t == len(turns) - 1:
                b = -1 if turn.done else end
            elif turns[t + 1].q == SWITCH:
                b = turns[t + 1].state
            else:
                b = low_cell(turns[t + 1].state, turn.subgoal, n_states, n_options)
            cell.append(low_cell(turn.state, turn.subgoal, n_states, n_options))
            w.append(wi)
            r.append(turn.reward)
            boot.append(b)
            coef.append(gamma)
        for seg in segment_views(traj, gamma):
            cell.append(turns[seg.start].state)
            w.append(wi)
            r.append(seg.reward)
            boot.append(turns[seg.stop].state if seg.stop < len(turns) else end)
            coef.append(seg.discount)
    rows = single_coupling_rows(
        np.array(cell, dtype=np.int64), np.array(w, dtype=np.float64),
        np.array(r, dtype=np.float64), np.array(boot, dtype=np.int64),
        np.array(coef, dtype=np.float64))
    return CriticBatch.from_rows(rows, n_states, n_options)


def flat_critic_batch(trajectories, gamma: float, n_states: int,
                      weights=None) -> CriticBatch:
    """Per-turn (state, return-to-go) rows without options or couplings,
    built episode by episode."""
    states, gs, ws = [], [], []
    for i, traj in enumerate(trajectories):
        wi = 1.0 if weights is None else float(weights[i])
        g = returns_to_go(traj, gamma)
        for t, turn in enumerate(traj.turns):
            states.append(turn.state)
            gs.append(g[t])
            ws.append(wi)
    rows = single_coupling_rows(
        np.array(states, dtype=np.int64), np.array(ws, dtype=np.float64),
        np.array(gs, dtype=np.float64), np.full(len(states), -1),
        np.zeros(len(states)))
    return CriticBatch.from_rows(rows, n_states, 0)


def critic_rows_nonzero(tt: TurnTable, gamma, sm, n_states: int, n_options: int):
    """`batch._critic_rows` with every turn gathered by `np.nonzero` pairs
    (`x[episodes, turns]`) rather than flat positions: its rows, and where
    they sit as (episodes, turns) index pairs."""
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.float64), (tt.n_episodes,))
    close = _closing_states(tt, sm)
    rows_i, ts = np.nonzero(tt.mask)
    o = tt.subgoal[rows_i, ts]
    lo_cell = low_cell(tt.state[rows_i, ts], o, n_states, n_options)
    nxt = close[rows_i, ts]
    lo_boot = np.where(sm.seg_final[rows_i, ts], nxt,
                       low_cell(nxt, o, n_states, n_options))
    b_rows, b_ts = np.nonzero(sm.is_boundary)
    g = returns_matrix(tt, gamma)
    ends = sm.seg_end[b_rows, b_ts]
    gtilde = gamma[b_rows] ** (ends - b_ts).astype(np.float64)
    open_end = ends < tt.length[b_rows]
    g_end = np.where(open_end, g[b_rows, np.minimum(ends, tt.max_turns - 1)], 0.0)
    rtilde = g[b_rows, b_ts] - gtilde * g_end
    hi_boot = close[b_rows, ends - 1]
    rows = single_coupling_rows(
        np.concatenate([lo_cell, tt.state[b_rows, b_ts]]),
        np.concatenate([tt.weight[rows_i], tt.weight[b_rows]]),
        np.concatenate([tt.reward[rows_i, ts], rtilde]),
        np.concatenate([lo_boot, hi_boot]),
        np.concatenate([gamma[rows_i], gtilde]))
    return rows, (rows_i, ts), (b_rows, b_ts), gtilde


def batch_mse(cb: CriticBatch, tables: ValueTables,
              target_tables: ValueTables | None = None) -> tuple[float, float]:
    """Weighted MSE per head, (low, high); see `CriticBatch.mse_and_grad`."""
    lo, hi, _ = cb.mse_and_grad(tables, target_tables)
    return lo, hi


def mean_targets(cb: CriticBatch, tables: ValueTables) -> np.ndarray:
    """Per-cell w-weighted mean target over the stacked tables (0 where
    unvisited), the target `critic.fit_critic` moves each cell toward."""
    num = np.bincount(cb.rows["cell"], weights=cb.rows["w"] * cb.row_targets(tables),
                      minlength=cb.w.size)
    return np.divide(num, cb.w, out=np.zeros_like(num), where=cb.w > 0)


def transition_loop(env: EnvModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`envs.transition_tables` one (state, action) pair at a time through
    `env.transition`; terminal rows self-loop with zero reward."""
    nxt = np.empty((env.n_states, env.n_actions), dtype=np.int64)
    rew = np.zeros((env.n_states, env.n_actions))
    done = np.ones((env.n_states, env.n_actions), dtype=bool)
    for s in range(env.n_states):
        for a in range(env.n_actions):
            nxt[s, a], rew[s, a], done[s, a] = ((s, 0.0, True) if env.is_terminal(s)
                                                else env.transition(s, a))
    return nxt, rew, done


# -- per-turn log-density and score -------------------------------------------

def log_prob(params: PolicyParams, turn: TurnRecord
             ) -> tuple[float | None, float | None, float]:
    """(lp_switch, lp_subgoal, lp_action) for one turn under `params`.

    lp_switch is None at t = 0 (the first switch is forced, not sampled);
    lp_subgoal is present iff the turn switched.
    """
    lp_sw = None
    if turn.t > 0:
        if turn.prev_subgoal is None:
            raise ValueError(f"turn {turn.t}: missing prev_subgoal")
        if turn.q == KEEP and turn.subgoal != turn.prev_subgoal:
            raise ValueError(f"turn {turn.t}: KEEP with a changed subgoal")
        lp_sw = float(log_softmax(params.switch[turn.state, turn.prev_subgoal])[turn.q])
    lp_hi = None
    if turn.q == SWITCH:
        lp_hi = float(log_softmax(params.subgoal[turn.state])[turn.subgoal])
    lp_lo = float(log_softmax(params.action[turn.state, turn.subgoal])[turn.action])
    return lp_sw, lp_hi, lp_lo


def zero_grads(params: PolicyParams) -> GradTables:
    """A zero gradient laid out as `params`."""
    return GradTables.wrap(np.zeros_like(params.theta), params)


def grad_log_prob(params: PolicyParams, turn: TurnRecord,
                  out: GradTables | None = None) -> GradTables:
    """Score-function gradient of the turn's log-density.

    For a chosen index i in a softmax row with probabilities p, the row
    gradient is e_i - p; heads absent from the turn contribute zero.
    """
    if out is None:
        out = zero_grads(params)
    if turn.t > 0:
        if turn.q == KEEP and turn.subgoal != turn.prev_subgoal:
            raise ValueError(f"turn {turn.t}: KEEP with a changed subgoal")
        row = softmax(params.switch[turn.state, turn.prev_subgoal])
        out.switch[turn.state, turn.prev_subgoal] -= row
        out.switch[turn.state, turn.prev_subgoal, turn.q] += 1.0
    if turn.q == SWITCH:
        row = softmax(params.subgoal[turn.state])
        out.subgoal[turn.state] -= row
        out.subgoal[turn.state, turn.subgoal] += 1.0
    row = softmax(params.action[turn.state, turn.subgoal])
    out.action[turn.state, turn.subgoal] -= row
    out.action[turn.state, turn.subgoal, turn.action] += 1.0
    return out


def check_log_prob_grads(rng: np.random.Generator, n_turns: int = 20,
                         h: float = gradcheck.DEFAULT_H) -> float:
    """Max relative error, over the turns of a random episode, of the
    score kernel's per-turn scores vs central differences of the per-turn
    log-likelihood (one bump evaluates every turn)."""
    return gradcheck._check_scores(*gradcheck._score_case(rng, n_turns), h)


def with_behavior_logprobs(traj: Trajectory, params: PolicyParams) -> Trajectory:
    """A copy whose behavior log-probs come from `params`."""
    turns = []
    for u in traj.turns:
        lp_sw, lp_hi, lp_lo = log_prob(params, u)
        turns.append(u._replace(lp_switch=lp_sw, lp_subgoal=lp_hi, lp_action=lp_lo))
    return replace(traj, turns=tuple(turns))


def head_sites_by_entries(rows, params: PolicyParams) -> Sites:
    """`batch.head_sites` entry by entry: every site's column of logit
    indices (the pad past a head's width and at an absent site), one mark
    per logit of `theta` and a theta-sized slot table mapping each marked
    logit to its place in the slab."""
    n_o = params.n_options
    present = np.stack([np.ones(len(rows), dtype=bool), rows.q == SWITCH, rows.t > 0])
    cell = np.stack([rows.state * n_o + rows.subgoal, rows.state,
                     rows.state * n_o + rows.prev_subgoal])
    tables = [getattr(params, name) for name in HEADS]
    widths = np.array([t.shape[-1] for t in tables])
    size = params.theta.size
    starts = np.array([params.offsets[name] for name in HEADS])
    k = np.arange(widths.max())[:, None]
    ent = np.where((k < np.repeat(widths, len(rows))) & present.ravel(),
                   (starts[:, None] + cell * widths[:, None]).ravel() + k, size)
    hit = np.zeros(size + 1, dtype=bool)
    hit[ent] = True
    cells = np.flatnonzero(hit[:size])
    slot = np.full(size + 1, cells.size)
    slot[cells] = np.arange(cells.size)
    edges = np.searchsorted(cells, [starts, starts + [t.size for t in tables]]).tolist()
    block = slot[ent]
    taken = np.concatenate([rows.action, rows.subgoal, rows.q])
    return Sites(present, block, block[taken, np.arange(block.shape[1])], cells, size,
                 widths.tolist(), list(zip(*edges)))


def minibatch_columns(sites: Sites, idx: np.ndarray, flags=None) -> dict:
    """What a pass over the turn rows `idx` reads besides the logits,
    derived from those rows alone: the present sites head-major, each
    head's in `idx` order (`site`), their position in `idx`, the slab index
    of each chosen logit, each head's (lo, hi) among the columns and the
    `flags` entries."""
    heads, pos = sites.present[:, idx].nonzero()
    site = heads * sites.present.shape[1] + idx[pos]
    ends = np.bincount(heads, minlength=len(HEADS)).cumsum().tolist()
    return {"site": site, "pos": pos, "chosen": sites.chosen[site],
            "bounds": list(zip([0] + ends, ends)), "rows": len(idx),
            "flags": None if flags is None else flags[site]}


# -- Monte-Carlo gradient -------------------------------------------------------

def scatter_episode_grads(dense, tt, adv, params: PolicyParams,
                          off_sub: int, off_act: int) -> None:
    """Add each episode's advantage-weighted scores into its row of `dense`
    (episodes x `theta` coordinates)."""
    n_o, n_a = params.n_options, params.n_actions
    eps, ts = np.nonzero(tt.mask)
    s = tt.state[eps, ts]
    o = tt.subgoal[eps, ts]
    a = tt.action[eps, ts]
    # action head
    w = adv.a_low[eps, ts]
    probs = softmax(params.action[s, o], axis=1)
    base = off_act + (s * n_o + o) * n_a
    np.add.at(dense, (eps, base + a), w)
    np.add.at(dense, (eps[:, None], base[:, None] + np.arange(n_a)[None, :]),
              -w[:, None] * probs)
    # subgoal head at boundary turns
    bmask = tt.q[eps, ts] == SWITCH
    beps, bs, bts = eps[bmask], s[bmask], ts[bmask]
    bo = o[bmask]
    w = adv.a_high[beps, bts]
    probs = softmax(params.subgoal[bs], axis=1)
    base = off_sub + bs * n_o
    np.add.at(dense, (beps, base + bo), w)
    np.add.at(dense, (beps[:, None], base[:, None] + np.arange(n_o)[None, :]),
              -w[:, None] * probs)
    # switch head, t >= 1
    smask = ts > 0
    seps, sts = eps[smask], ts[smask]
    ss = s[smask]
    sp = tt.prev_subgoal[seps, sts]
    sq = tt.q[seps, sts]
    w = adv.a_switch[seps, sts]
    probs = softmax(params.switch[ss, sp], axis=1)
    base = (ss * n_o + sp) * 2
    np.add.at(dense, (seps, base + sq), w)
    np.add.at(dense, (seps[:, None], base[:, None] + np.arange(2)[None, :]),
              -w[:, None] * probs)


def mc_gradient_hae(env: EnvModel, params: PolicyParams, tables: ValueTables,
                    cfg: PPOConfig, n: int, seed: int, chunk: int = 5000):
    """(mean, se) GradTables of the per-episode scattered gradients."""
    n_coords = params.switch.size + params.subgoal.size + params.action.size
    off_sub = params.switch.size
    off_act = off_sub + params.subgoal.size
    sum_x = np.zeros(n_coords)
    sum_x2 = np.zeros(n_coords)
    done_eps = 0
    while done_eps < n:
        m = min(chunk, n - done_eps)
        tt = rollout_batch(env, params, m, seed, episode_offset=done_eps)
        adv = advantage_arrays(tt, tables, cfg)
        dense = np.zeros((m, n_coords))
        scatter_episode_grads(dense, tt, adv, params, off_sub, off_act)
        sum_x += dense.sum(axis=0)
        sum_x2 += (dense ** 2).sum(axis=0)
        done_eps += m
    mean = sum_x / n
    var = np.maximum(sum_x2 - n * mean ** 2, 0.0) / max(n - 1, 1)
    se = np.sqrt(var / n)
    return GradTables.wrap(mean, params), GradTables.wrap(se, params)


def variance_report(env: EnvModel, params: PolicyParams, values: OracleValues,
                    t: int, n: int, seed: int, n_boot: int = 1000,
                    max_rounds: int = 50) -> VarianceReport:
    """Sample variances of both estimators over the first n episodes that
    reach turn t, with 95% bootstrap intervals from one dense resample."""
    cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0, lambda_flat=1.0)
    lows, flats = [], []
    got, offset = 0, 0
    for _ in range(max_rounds):
        tt = rollout_batch(env, params, n, seed, episode_offset=offset)
        offset += n
        if t >= tt.max_turns:
            continue
        reach = tt.length > t
        lows.append(advantage_arrays(tt, values.tables, cfg).a_low[reach, t])
        flats.append(flat_advantage_arrays(tt, values.v_flat, cfg)[reach, t])
        got += int(reach.sum())
        if got >= n:
            break
    if got < n:
        raise RuntimeError(f"turn {t} unreachable often enough ({got}/{n} episodes)")
    a_low = np.concatenate(lows)[:n]
    a_flat = np.concatenate(flats)[:n]
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 101, t)))
    idx = rng.integers(0, n, size=(n_boot, n))
    bl = a_low[idx].var(axis=1, ddof=1)
    bf = a_flat[idx].var(axis=1, ddof=1)

    def ci(x):
        return (float(np.quantile(x, 0.025)), float(np.quantile(x, 0.975)))

    return VarianceReport(
        t=t, n=n,
        var_low=float(a_low.var(ddof=1)), var_flat=float(a_flat.var(ddof=1)),
        ci_low=ci(bl), ci_flat=ci(bf), ci_diff=ci(bl - bf))


def overlapping(rep: VarianceReport) -> bool:
    """Whether a variance report's intervals for the two estimators overlap."""
    return not (rep.ci_low[1] < rep.ci_flat[0] or rep.ci_flat[1] < rep.ci_low[0])



# -- exact enumeration ----------------------------------------------------------

def enumerate_trajectories(env: EnvModel, params: PolicyParams):
    """Every trajectory with its probability, as (trajectory, P) pairs in
    depth-first order over (q, o-if-switch, a) choices; behavior log-probs
    recorded on every turn, exactly as a rollout would have stored them."""
    items = []
    lsw = log_softmax(params.switch, axis=-1)
    lhi = log_softmax(params.subgoal, axis=-1)
    llo = log_softmax(params.action, axis=-1)

    def expand(t, state, prev, prob, turns):
        if t == env.horizon:
            items.append((Trajectory(tuple(turns), truncated=True,
                                     final_state=state), prob))
            return
        choices = []
        if t == 0:
            for o in range(params.n_options):
                choices.append((SWITCH, o, math.exp(lhi[state, o]),
                                None, float(lhi[state, o])))
        else:
            p_sw = np.exp(lsw[state, prev])
            choices.append((KEEP, prev, float(p_sw[KEEP]),
                            float(lsw[state, prev, KEEP]), None))
            for o in range(params.n_options):
                choices.append((SWITCH, o,
                                float(p_sw[SWITCH] * math.exp(lhi[state, o])),
                                float(lsw[state, prev, SWITCH]), float(lhi[state, o])))
        for q, o, p_qo, lp_sw, lp_hi in choices:
            if p_qo == 0.0:
                continue
            for a in range(params.n_actions):
                p = prob * p_qo * math.exp(llo[state, o, a])
                if p == 0.0:
                    continue
                nxt, r, done = env.transition(state, a)
                turns.append(TurnRecord(
                    t=t, state=state, prev_subgoal=prev if t > 0 else None,
                    q=q, subgoal=o, action=a, reward=r, raw_reward=r, done=done,
                    lp_switch=lp_sw, lp_subgoal=lp_hi,
                    lp_action=float(llo[state, o, a])))
                if done:
                    items.append((Trajectory(tuple(turns), final_state=nxt), p))
                else:
                    expand(t + 1, nxt, o, p, turns)
                turns.pop()

    for s0, p0 in env.initial_states():
        expand(0, s0, None, p0, [])
    return items


def conditional_switch_values_enumerated(env, params, gamma):
    """Leaf-averaged E[G_t | t, s, o_prev, q] as {(t, s, o_prev, q): value}."""
    tt = enumeration_table(env, params)
    rows = gather_rows(tt)
    g = returns_matrix(tt, gamma)[rows.episode, rows.t]
    p = tt.weight[rows.episode]
    later = rows.t > 0
    keys = np.stack([rows.t, rows.state, rows.prev_subgoal, rows.q], axis=1)[later]
    keys, ctx = np.unique(keys, axis=0, return_inverse=True)
    ctx = ctx.ravel()
    num = np.bincount(ctx, p[later] * g[later])
    den = np.bincount(ctx, p[later])
    return {tuple(k): float(v) for k, v in zip(keys.tolist(), num / den)}


def score_expectation_enumerated(env, params, cap=1e7) -> GradTables:
    """E[sum_t grad log pi] over the full enumeration (zero in theory): the
    score kernel over the whole enumeration as one table, each turn weighted
    by its trajectory's P(tau)."""
    tt = enumeration_table(env, params, cap)
    rows = gather_rows(tt)
    sites = head_sites(rows, params)
    sp = site_pass(sites, sites.slab(params.theta))
    return GradTables.wrap(sites.spread(site_scores(sp, tt.weight[rows.episode[sp.pos]])),
                           params)


def optimal_return(env: EnvModel, gamma: float = 1.0) -> float:
    """Best achievable discounted return, by exhaustive backward induction.

    Works for any deterministic env whose live states strictly advance an
    internal clock (both shipped environments do).
    """
    best = np.zeros(env.n_states, dtype=np.float64)
    # iterate until fixed point; the clock structure makes this terminate
    for _ in range(env.horizon + 1):
        updated = best.copy()
        for s in range(env.n_states):
            if env.is_terminal(s):
                continue
            vals = []
            for a in range(env.n_actions):
                s2, r, done = env.transition(s, a)
                vals.append(r + (0.0 if done else gamma * best[s2]))
            updated[s] = max(vals)
        best = updated
    start = env.initial_states()
    return float(sum(p * best[s] for s, p in start))


def fetchchain_expert(env: FetchChain, n_options: int = 2,
                      sharpness: float = 20.0) -> PolicyParams:
    """Hand-coded near-deterministic params that solve FetchChain optimally:
    the switch head flips exactly when carrying status changes."""
    params = PolicyParams.uniform(env.n_states, n_options, env.n_actions)
    for s, want, best in _fetchchain_moves(env, n_options):
        params.subgoal[s, want] = sharpness
        for o_prev in range(n_options):
            params.switch[s, o_prev, SWITCH if o_prev != want else KEEP] = sharpness
        params.action[s, :, best] = sharpness
    return params

# -- PPO ratios ---------------------------------------------------------------

def ppo_ratios(params: PolicyParams, turn: TurnRecord):
    """Per-head probability ratios live/behavior for a single stored turn;
    None for a head absent from the turn."""
    if turn.lp_action is None:
        raise ValueError(f"turn {turn.t}: no behavior log-probs recorded")
    lp_sw, lp_hi, lp_lo = log_prob(params, turn)
    r_sw = None if lp_sw is None else float(np.exp(lp_sw - turn.lp_switch))
    r_hi = None if lp_hi is None else float(np.exp(lp_hi - turn.lp_subgoal))
    return r_sw, r_hi, float(np.exp(lp_lo - turn.lp_action))


# -- surrogates and KL ----------------------------------------------------------

def _scatter_head(grad_table, rows_idx, chosen, probs, weight):
    """Accumulate weight * (e_chosen - probs) into softmax rows."""
    np.add.at(grad_table, rows_idx + (chosen,), weight)
    np.add.at(grad_table, rows_idx, -weight[:, None] * probs)


def actor_loss(rows, params: PolicyParams, eps: float):
    """Summed clipped surrogate over the three levels, one head at a time."""
    grads = zero_grads(params)
    total = 0.0
    logits = params.action[rows.state, rows.subgoal]
    lp = log_softmax(logits, axis=1)
    live = lp[np.arange(len(rows)), rows.action]
    ratio = np.exp(live - rows.lp_action)
    value, w = _clipped_surrogate(ratio, rows.adv_low, eps)
    total += float(value.sum())
    _scatter_head(grads.action, (rows.state, rows.subgoal), rows.action,
                  np.exp(lp), w)
    hi = rows.q == SWITCH
    if hi.any():
        logits = params.subgoal[rows.state[hi]]
        lp = log_softmax(logits, axis=1)
        live = lp[np.arange(int(hi.sum())), rows.subgoal[hi]]
        ratio = np.exp(live - rows.lp_subgoal[hi])
        value, w = _clipped_surrogate(ratio, rows.adv_high[hi], eps)
        total += float(value.sum())
        _scatter_head(grads.subgoal, (rows.state[hi],), rows.subgoal[hi],
                      np.exp(lp), w)
    sw = (rows.t > 0) & rows.format_ok
    if sw.any():
        logits = params.switch[rows.state[sw], rows.prev_subgoal[sw]]
        lp = log_softmax(logits, axis=1)
        live = lp[np.arange(int(sw.sum())), rows.q[sw]]
        ratio = np.exp(live - rows.lp_switch[sw])
        value, w = _clipped_surrogate(ratio, rows.adv_switch[sw], eps)
        total += float(value.sum())
        _scatter_head(grads.switch, (rows.state[sw], rows.prev_subgoal[sw]),
                      rows.q[sw], np.exp(lp), w)
    return total, grads


def flat_actor_loss(rows, params: PolicyParams, eps: float):
    """Single-level surrogate on the joint turn ratio, flat advantages."""
    grads = zero_grads(params)
    n = len(rows)
    lp_lo = log_softmax(params.action[rows.state, rows.subgoal], axis=1)
    live = lp_lo[np.arange(n), rows.action]
    beh = rows.lp_action.copy()
    hi = rows.q == SWITCH
    lp_hi = log_softmax(params.subgoal[rows.state[hi]], axis=1)
    live_hi = np.zeros(n)
    live_hi[hi] = lp_hi[np.arange(int(hi.sum())), rows.subgoal[hi]]
    live = live + live_hi
    beh[hi] += rows.lp_subgoal[hi]
    sw = rows.t > 0
    lp_sw = log_softmax(params.switch[rows.state[sw], rows.prev_subgoal[sw]], axis=1)
    live_sw = np.zeros(n)
    live_sw[sw] = lp_sw[np.arange(int(sw.sum())), rows.q[sw]]
    live = live + live_sw
    beh[sw] += rows.lp_switch[sw]
    ratio = np.exp(live - beh)
    value, w = _clipped_surrogate(ratio, rows.adv_flat, eps)
    _scatter_head(grads.action, (rows.state, rows.subgoal), rows.action,
                  softmax(params.action[rows.state, rows.subgoal], axis=1), w)
    if hi.any():
        _scatter_head(grads.subgoal, (rows.state[hi],), rows.subgoal[hi],
                      np.exp(lp_hi), w[hi])
    if sw.any():
        _scatter_head(grads.switch, (rows.state[sw], rows.prev_subgoal[sw]),
                      rows.q[sw], np.exp(lp_sw), w[sw])
    return float(value.sum()), grads


def _kl_rows(live_logits, ref_logits):
    """Per-row KL(live || ref) and its gradient wrt the live logits."""
    lp = log_softmax(live_logits, axis=1)
    lq = log_softmax(ref_logits, axis=1)
    p = np.exp(lp)
    diff = lp - lq
    kl = np.sum(p * diff, axis=1)
    return kl, p * (diff - kl[:, None])


def kl_penalty(rows, params: PolicyParams, ref: PolicyParams):
    """Exact categorical KL to the reference policy, averaged over turns."""
    grads = zero_grads(params)
    n = len(rows)
    if n == 0:
        return 0.0, grads
    total = 0.0
    kl, g = _kl_rows(params.action[rows.state, rows.subgoal],
                     ref.action[rows.state, rows.subgoal])
    total += float(kl.sum())
    np.add.at(grads.action, (rows.state, rows.subgoal), g)
    hi = rows.q == SWITCH
    if hi.any():
        kl, g = _kl_rows(params.subgoal[rows.state[hi]], ref.subgoal[rows.state[hi]])
        total += float(kl.sum())
        np.add.at(grads.subgoal, (rows.state[hi],), g)
    sw = rows.t > 0
    if sw.any():
        kl, g = _kl_rows(params.switch[rows.state[sw], rows.prev_subgoal[sw]],
                         ref.switch[rows.state[sw], rows.prev_subgoal[sw]])
        total += float(kl.sum())
        np.add.at(grads.switch, (rows.state[sw], rows.prev_subgoal[sw]), g)
    grads.theta *= 1.0 / n
    return total / n, grads


def total_loss(params: PolicyParams, ref: PolicyParams, tables: ValueTables,
               tt: TurnTable, adv, cfg: PPOConfig, c_v: float,
               target_tables: ValueTables | None = None
               ) -> tuple[float, GradTables, ValueTables]:
    """-surrogate + c_v * (MSE_low + MSE_high) + kl_beta * KL over every turn
    of `tt`, with its gradient wrt the logits and wrt the tables.  Critic
    targets come from `target_tables` (default: `tables`) and are held
    constant."""
    sites = _sites(gather_rows(tt, adv), params, False, _ref_log_probs(ref))
    critic = critic_batch_from_table(tt, cfg.gamma, tables.n_states, tables.n_options)
    layout = sites.layout
    every = _columns(sites, np.arange(layout.present.shape[1]))
    surrogate, g_actor, kl, g_kl = _step(sites, every, layout.slab(params.theta), cfg.clip_eps)
    mse_lo, mse_hi, g_v = critic.mse_and_grad(tables, target_tables)
    value = -surrogate + c_v * (mse_lo + mse_hi) + cfg.kl_beta * kl
    return (value, GradTables.wrap(layout.spread(cfg.kl_beta * g_kl - g_actor), params),
            unstacked(c_v * g_v, tables.n_states))


# -- switch probabilities and the JSON-Lines writers ------------------------------

def checkpoint_text(magic: str, sizes, tables: dict) -> str:
    """A `policy.write_checkpoint` file's text, one formatted line per
    value."""
    out = [f"{magic}\n{' '.join(map(str, sizes))}\n"]
    for name, table in tables.items():
        out.append(f"table {name} {table.size}\n")
        out.extend(f"{v!r}\n" for v in table.ravel().tolist())
    return "".join(out)


def switch_prob(params: PolicyParams, state: int, prev_subgoal: int) -> float:
    """Probability of SWITCH at (state, previous subgoal)."""
    return float(softmax(params.switch[state, prev_subgoal])[SWITCH])


def turn_to_json(u: TurnRecord) -> dict:
    return {key: getattr(u, key) for key in (
        "t", "state", "prev_subgoal", "q", "subgoal", "subgoal_text", "action", "reward",
        "raw_reward", "done")}


def write_trajectories(fp, trajectories) -> None:
    """The trajectory JSON-Lines format, one `json.dumps` per line."""
    for traj in trajectories:
        for u in traj.turns:
            fp.write(json.dumps(turn_to_json(u), separators=(",", ":")) + "\n")
        if traj.truncated:
            sentinel: dict = {"truncated": True}
            if traj.final_state is not None:
                sentinel["final_state"] = traj.final_state
            fp.write(json.dumps(sentinel, separators=(",", ":")) + "\n")


def advantage_lines(tt, adv) -> str:
    """The lines `segrl advantages` writes, one `json.dumps` per turn."""
    lines = []
    for i, n in enumerate(tt.length.tolist()):
        a_low = adv.a_low[i, :n].tolist()
        a_high = adv.a_high[i, :n].tolist()
        a_switch = adv.a_switch[i, :n].tolist()
        boundary = adv.masks.is_boundary[i, :n].tolist()
        for t in range(n):
            rec = {"t": t, "A_low": a_low[t],
                   "A_switch": None if t == 0 else a_switch[t],
                   "A_high": a_high[t] if boundary[t] else None,
                   "A_flat": None}
            lines.append(json.dumps(rec) + "\n")
    return "".join(lines)
