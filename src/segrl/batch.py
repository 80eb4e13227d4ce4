"""Columnar episode buffers and the vectorized rollout / advantage kernels.

TurnTable stores a batch of episodes as padded (n_episodes, max_turns)
arrays.  The kernels here are the one implementation of the rollout, the
segment-aware advantage estimators, the critic regression rows and the
per-head policy pass with its score sums (the trainer, the Monte-Carlo and
enumerated oracles and gradcheck all run it); the tests check them against
per-episode and per-turn reference forms.  Because every random draw is
keyed by (seed, episode, turn, head), a batch reproduces any of its
sub-batches, rolled at the matching `episode_offset`, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .advantages import GAEConfig, whiten
from .core import KEEP, SWITCH, MalformedTrajectory, Trajectory, TurnRecord
from .critic import (CriticBatch, FlatCriticBatch, ValueTables, low_cell,
                     single_coupling_rows)
from .envs import EnvModel, transition_tables
from .policy import GradTables, PolicyParams, log_softmax, softmax
from .rng import HEAD_ACTION, HEAD_SUBGOAL, HEAD_SWITCH, counter_uniform


@dataclass
class TurnTable:
    """Padded columnar batch of episodes; `mask` marks real turns."""

    state: np.ndarray          # (n, T) int64
    prev_subgoal: np.ndarray   # (n, T) int64, -1 where absent
    q: np.ndarray              # (n, T) int64
    subgoal: np.ndarray        # (n, T) int64
    action: np.ndarray         # (n, T) int64
    reward: np.ndarray         # (n, T) float64 (shaped)
    raw_reward: np.ndarray     # (n, T) float64
    lp_switch: np.ndarray      # (n, T) float64, NaN where absent
    lp_subgoal: np.ndarray     # (n, T) float64, NaN where absent
    lp_action: np.ndarray      # (n, T) float64, NaN where absent
    format_ok: np.ndarray      # (n, T) bool
    mask: np.ndarray           # (n, T) bool
    length: np.ndarray         # (n,) int64
    terminated: np.ndarray     # (n,) bool
    final_state: np.ndarray    # (n,) int64, -1 when unknown
    weight: np.ndarray         # (n,) float64

    @property
    def n_episodes(self) -> int:
        return self.state.shape[0]

    @property
    def max_turns(self) -> int:
        return self.state.shape[1]

    @property
    def total_turns(self) -> int:
        return int(self.length.sum())

    @classmethod
    def from_trajectories(cls, trajectories, weights=None) -> "TurnTable":
        """The episodes as one table.  Raises MalformedTrajectory, naming the
        episode and the turn, on an id that would index a table silently
        wrong: a negative state, subgoal, action or final_state, a missing
        or negative prev_subgoal after the first turn, a q other than KEEP
        or SWITCH, or a KEEP turn that changes the subgoal."""
        trajs = list(trajectories)
        n = len(trajs)
        t_max = max((tr.n_turns for tr in trajs), default=0)
        tt = _empty_table(n, t_max)
        for i, tr in enumerate(trajs):
            if tr.final_state is not None and tr.final_state < 0:
                raise MalformedTrajectory(f"episode {i}: final_state is {tr.final_state}")
            tt.length[i] = tr.n_turns
            tt.terminated[i] = tr.terminated
            tt.final_state[i] = -1 if tr.final_state is None else tr.final_state
            tt.weight[i] = 1.0 if weights is None else float(weights[i])
            for t, u in enumerate(tr.turns):
                tt.state[i, t] = u.state
                tt.prev_subgoal[i, t] = -1 if u.prev_subgoal is None else u.prev_subgoal
                tt.q[i, t] = u.q
                tt.subgoal[i, t] = u.subgoal
                tt.action[i, t] = u.action
                tt.reward[i, t] = u.reward
                tt.raw_reward[i, t] = u.raw_reward
                if u.lp_switch is not None:
                    tt.lp_switch[i, t] = u.lp_switch
                if u.lp_subgoal is not None:
                    tt.lp_subgoal[i, t] = u.lp_subgoal
                if u.lp_action is not None:
                    tt.lp_action[i, t] = u.lp_action
                tt.format_ok[i, t] = u.format_valid
                tt.mask[i, t] = True
        later = np.arange(t_max) > 0
        for what, arr, bad in (
                ("state is", tt.state, tt.state < 0),
                ("subgoal is", tt.subgoal, tt.subgoal < 0),
                ("action is", tt.action, tt.action < 0),
                ("prev_subgoal is", tt.prev_subgoal, later & (tt.prev_subgoal < 0)),
                ("q is", tt.q, (tt.q != KEEP) & (tt.q != SWITCH)),
                ("KEEP changes the subgoal to", tt.subgoal,
                 (tt.q == KEEP) & (tt.subgoal != tt.prev_subgoal))):
            hit = np.argwhere(tt.mask & bad)
            if hit.size:
                i, t = hit[0]
                raise MalformedTrajectory(f"episode {i}, turn {t}: {what} {arr[i, t]}")
        return tt

    def to_trajectories(self) -> list[Trajectory]:
        out = []
        for i in range(self.n_episodes):
            turns = []
            for t in range(int(self.length[i])):
                done = self.terminated[i] and t == self.length[i] - 1
                turns.append(TurnRecord(
                    t=t,
                    state=int(self.state[i, t]),
                    prev_subgoal=None if self.prev_subgoal[i, t] < 0 else int(self.prev_subgoal[i, t]),
                    q=int(self.q[i, t]),
                    subgoal=int(self.subgoal[i, t]),
                    action=int(self.action[i, t]),
                    reward=float(self.reward[i, t]),
                    raw_reward=float(self.raw_reward[i, t]),
                    done=bool(done),
                    lp_switch=_none_if_nan(self.lp_switch[i, t]),
                    lp_subgoal=_none_if_nan(self.lp_subgoal[i, t]),
                    lp_action=_none_if_nan(self.lp_action[i, t]),
                    format_valid=bool(self.format_ok[i, t]),
                ))
            fs = int(self.final_state[i])
            out.append(Trajectory(tuple(turns), truncated=not bool(self.terminated[i]),
                                  final_state=None if fs < 0 else fs))
        return out


def _none_if_nan(x: float):
    return None if np.isnan(x) else float(x)


def _empty_table(n: int, t_max: int) -> TurnTable:
    shape = (n, t_max)
    return TurnTable(
        state=np.zeros(shape, dtype=np.int64),
        prev_subgoal=np.full(shape, -1, dtype=np.int64),
        q=np.zeros(shape, dtype=np.int64),
        subgoal=np.zeros(shape, dtype=np.int64),
        action=np.zeros(shape, dtype=np.int64),
        reward=np.zeros(shape, dtype=np.float64),
        raw_reward=np.zeros(shape, dtype=np.float64),
        lp_switch=np.full(shape, np.nan),
        lp_subgoal=np.full(shape, np.nan),
        lp_action=np.full(shape, np.nan),
        format_ok=np.ones(shape, dtype=bool),
        mask=np.zeros(shape, dtype=bool),
        length=np.zeros(n, dtype=np.int64),
        terminated=np.zeros(n, dtype=bool),
        final_state=np.full(n, -1, dtype=np.int64),
        weight=np.ones(n, dtype=np.float64),
    )


def _sample_rows(logits: np.ndarray, u: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF draws over explicitly normalized softmax rows: the first
    index whose CDF exceeds u (ties go right), clamped to the last; and the
    log-softmax of the drawn index.  Both come from one max/exp/sum."""
    z = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(z)
    total = np.sum(e, axis=1, keepdims=True)
    cdf = np.cumsum(e / total, axis=1)
    cdf /= cdf[:, -1:]
    idx = np.sum(cdf <= u[:, None], axis=1)
    idx = np.minimum(idx, logits.shape[1] - 1).astype(np.int64)
    rows = np.arange(idx.size)
    return idx, z[rows, idx] - np.log(total[:, 0])


def _start_states(env: EnvModel, seed: int, ep_ids: np.ndarray) -> np.ndarray:
    """Each episode's start state, drawn from its stream (head 3) when the
    env has more than one."""
    starts = env.initial_states()
    if len(starts) == 1:
        return np.full(ep_ids.size, starts[0][0], dtype=np.int64)
    u0 = counter_uniform(seed, ep_ids, 0, 3)
    cdf = np.cumsum([p for _, p in starts])
    cdf = cdf / cdf[-1]
    pick = np.searchsorted(cdf, u0, side="right")
    return np.array([starts[int(min(k, len(starts) - 1))][0] for k in pick],
                    dtype=np.int64)


def rollout_batch(env: EnvModel, params: PolicyParams, n_episodes: int, seed: int,
                  horizon: int | None = None, c_keep: float = 0.0,
                  episode_offset: int = 0, greedy: bool = False) -> TurnTable:
    """Collect a batch of episodes in lockstep across vectorized turns.

    Greedy episodes are a function of their start state, so a greedy batch
    rolls one episode per distinct start and copies it to every episode
    that starts there.
    """
    horizon = env.horizon if horizon is None else horizon
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    ep_ids = episode_offset + np.arange(int(n_episodes), dtype=np.int64)
    start = _start_states(env, seed, ep_ids)
    if greedy:
        distinct, which = np.unique(start, return_inverse=True)
        once = _roll(env, params, distinct, horizon, seed, None)
        tt = TurnTable(**{k: v[which] for k, v in vars(once).items()})
    else:
        tt = _roll(env, params, start, horizon, seed, ep_ids)
    if c_keep > 0.0:
        keeps = tt.mask & (tt.q == KEEP)
        tt.reward[keeps] -= c_keep
    return tt


_HEAD_KEYS = np.array([HEAD_SWITCH, HEAD_SUBGOAL, HEAD_ACTION])[:, None]


def _roll(env: EnvModel, params: PolicyParams, state: np.ndarray, horizon: int,
          seed: int, ep_ids: np.ndarray | None) -> TurnTable:
    """Episodes from the given start states: sampled with the streams of
    `ep_ids`, or greedy (argmax, no log-probs) when `ep_ids` is None."""
    greedy = ep_ids is None
    nxt_tab, rew_tab, done_tab = transition_tables(env)
    n = state.size
    tt = _empty_table(n, horizon)
    state = state.copy()
    prev = np.full(n, -1, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(horizon):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        s = state[idx]
        p = prev[idx]
        if not greedy:
            # one draw per head per live episode
            u = counter_uniform(seed, ep_ids[idx], t, _HEAD_KEYS)
        if t == 0:
            q = np.ones(idx.size, dtype=np.int64)
            lp_sw = np.full(idx.size, np.nan)
        elif greedy:
            q = np.argmax(params.switch[s, p], axis=1).astype(np.int64)
        else:
            q, lp_sw = _sample_rows(params.switch[s, p], u[HEAD_SWITCH])
        sw = np.flatnonzero(q == SWITCH)
        o = p.copy()
        lp_hi = np.full(idx.size, np.nan)
        if sw.size:
            logits = params.subgoal[s[sw]]
            if greedy:
                o[sw] = np.argmax(logits, axis=1)
            else:
                o[sw], lp_hi[sw] = _sample_rows(logits, u[HEAD_SUBGOAL][sw])
        logits = params.action[s, o]
        if greedy:
            a = np.argmax(logits, axis=1).astype(np.int64)
        else:
            a, lp_lo = _sample_rows(logits, u[HEAD_ACTION])
            tt.lp_switch[idx, t] = lp_sw
            tt.lp_subgoal[idx, t] = lp_hi
            tt.lp_action[idx, t] = lp_lo

        s2 = nxt_tab[s, a]
        r = rew_tab[s, a]
        d = done_tab[s, a]

        tt.state[idx, t] = s
        tt.prev_subgoal[idx, t] = p
        tt.q[idx, t] = q
        tt.subgoal[idx, t] = o
        tt.action[idx, t] = a
        tt.reward[idx, t] = r
        tt.raw_reward[idx, t] = r
        tt.mask[idx, t] = True
        tt.length[idx] += 1

        fin = idx[d]
        tt.terminated[fin] = True
        tt.final_state[fin] = s2[d]
        cont = idx[~d]
        state[cont] = s2[~d]
        prev[cont] = o[~d]
        alive[fin] = False

    still = np.flatnonzero(alive)
    tt.final_state[still] = state[still]  # truncated at the horizon
    return tt


# ---------------------------------------------------------------------------
# Segment structure and advantage kernels
# ---------------------------------------------------------------------------

@dataclass
class SegmentMasks:
    is_boundary: np.ndarray    # (n, T) q==1 on valid turns
    seg_final: np.ndarray      # (n, T) last turn of its segment
    seg_end: np.ndarray        # (n, T) index of the next boundary (or length)
    is_last: np.ndarray        # (n, T) last turn of the episode


def segment_masks(tt: TurnTable) -> SegmentMasks:
    n, t_max = tt.mask.shape
    cols = np.arange(t_max)
    is_last = tt.mask & (cols[None, :] == (tt.length - 1)[:, None])
    is_boundary = tt.mask & (tt.q == SWITCH)
    next_boundary = np.zeros((n, t_max), dtype=bool)
    if t_max > 1:
        next_boundary[:, :-1] = is_boundary[:, 1:]
    seg_final = tt.mask & (is_last | next_boundary)
    seg_end = np.zeros((n, t_max), dtype=np.int64)
    carry = tt.length.copy()
    for t in range(t_max - 1, -1, -1):
        seg_end[:, t] = carry
        carry = np.where(is_boundary[:, t], t, carry)
    return SegmentMasks(is_boundary, seg_final, seg_end, is_last)


def returns_matrix(tt: TurnTable, gamma: float, raw: bool = False) -> np.ndarray:
    """Per-turn return-to-go, zero beyond episode length."""
    r = np.where(tt.mask, tt.raw_reward if raw else tt.reward, 0.0)
    out = np.zeros_like(r)
    carry = np.zeros(tt.n_episodes)
    for t in range(tt.max_turns - 1, -1, -1):
        carry = r[:, t] + gamma * carry
        out[:, t] = np.where(tt.mask[:, t], carry, 0.0)
        carry = np.where(tt.mask[:, t], carry, 0.0)
    return out


def _bootstrap_next(tt: TurnTable, tables: ValueTables, sm: SegmentMasks) -> np.ndarray:
    """v_next per turn: low head inside a segment, high head at boundaries,
    zero past terminal states, table value at truncation."""
    n, t_max = tt.mask.shape
    out = np.zeros((n, t_max))
    nxt_state = np.zeros((n, t_max), dtype=np.int64)
    if t_max > 1:
        nxt_state[:, :-1] = tt.state[:, 1:]
    interior = tt.mask & ~sm.seg_final
    out[interior] = tables.v_low[nxt_state[interior], tt.subgoal[interior]]
    mid_boundary = sm.seg_final & ~sm.is_last
    out[mid_boundary] = tables.v_high[nxt_state[mid_boundary]]
    trunc_last = sm.is_last & ~tt.terminated[:, None]
    if trunc_last.any():
        rows = np.flatnonzero(trunc_last.any(axis=1))
        if (tt.final_state[rows] < 0).any():
            raise ValueError("truncated episode without final_state")
        out[trunc_last] = tables.v_high[tt.final_state[rows]]
    # terminal last turns keep 0
    return out


@dataclass
class BatchAdvantages:
    """Padded advantage arrays; entries outside their mask are zero/NaN."""

    a_low: np.ndarray        # (n, T)
    a_high: np.ndarray       # (n, T), nonzero only at boundary turns
    a_switch: np.ndarray     # (n, T), NaN at t = 0 and outside mask
    a_flat: np.ndarray | None
    masks: SegmentMasks


def advantage_arrays(tt: TurnTable, tables: ValueTables, cfg: GAEConfig,
                     params: PolicyParams | None = None,
                     v_flat: np.ndarray | None = None) -> BatchAdvantages:
    """Low, high, switching (and, given `v_flat`, flat) advantages per turn.

    Switching advantages take beta from the recorded behavior log-probs,
    or from `params` on turns that have none.
    """
    sm = segment_masks(tt)
    n, t_max = tt.mask.shape
    gamma = cfg.gamma
    cols = np.arange(t_max)

    # low level
    boot = _bootstrap_next(tt, tables, sm)
    d_low = np.where(tt.mask,
                     tt.reward + gamma * boot - tables.v_low[tt.state, tt.subgoal],
                     0.0)
    a_low = np.zeros_like(d_low)
    carry = np.zeros(n)
    decay = gamma * cfg.lambda_low
    for t in range(t_max - 1, -1, -1):
        carry = np.where(sm.seg_final[:, t], d_low[:, t], d_low[:, t] + decay * carry)
        a_low[:, t] = np.where(tt.mask[:, t], carry, 0.0)
        carry = np.where(tt.mask[:, t], carry, 0.0)

    # high level (per boundary turn)
    g = returns_matrix(tt, gamma)
    seg_len = np.where(sm.is_boundary, sm.seg_end - cols[None, :], 0)
    gtilde = np.where(sm.is_boundary, gamma ** seg_len.astype(np.float64), 0.0)
    g_at_end = np.zeros((n, t_max))
    in_range = sm.is_boundary & (sm.seg_end < tt.length[:, None])
    rows, ts = np.nonzero(in_range)
    g_at_end[rows, ts] = g[rows, sm.seg_end[rows, ts]]
    rtilde = np.where(sm.is_boundary, g - gtilde * g_at_end, 0.0)
    boot_high = np.zeros((n, t_max))
    rows, ts = np.nonzero(in_range)
    boot_high[rows, ts] = tables.v_high[tt.state[rows, sm.seg_end[rows, ts]]]
    closing = sm.is_boundary & (sm.seg_end >= tt.length[:, None]) & ~tt.terminated[:, None]
    if closing.any():
        rows = np.nonzero(closing)[0]
        if (tt.final_state[rows] < 0).any():
            raise ValueError("truncated episode without final_state")
        boot_high[closing] = tables.v_high[tt.final_state[rows]]
    d_high = np.where(sm.is_boundary,
                      rtilde + gtilde * boot_high - tables.v_high[tt.state], 0.0)
    a_high = np.zeros_like(d_high)
    carry = np.zeros(n)
    for t in range(t_max - 1, -1, -1):
        fresh = d_high[:, t] + gtilde[:, t] * cfg.lambda_high * carry
        a_high[:, t] = np.where(sm.is_boundary[:, t], fresh, 0.0)
        carry = np.where(sm.is_boundary[:, t], fresh, carry)

    # switching level
    beta = _behavior_beta(tt, params)
    gain = tables.v_high[tt.state] - _v_low_prev(tt, tables)
    a_switch = np.where(tt.mask & (cols[None, :] > 0),
                        (tt.q - beta) * gain, np.nan)

    # flat comparator
    a_flat = None
    if v_flat is not None:
        v_flat = np.asarray(v_flat, dtype=np.float64)
        nxt_state = np.zeros((n, t_max), dtype=np.int64)
        if t_max > 1:
            nxt_state[:, :-1] = tt.state[:, 1:]
        boot_f = np.zeros((n, t_max))
        inner = tt.mask & ~sm.is_last
        boot_f[inner] = v_flat[nxt_state[inner]]
        trunc_last = sm.is_last & ~tt.terminated[:, None]
        if trunc_last.any():
            rows = np.flatnonzero(trunc_last.any(axis=1))
            boot_f[trunc_last] = v_flat[tt.final_state[rows]]
        d_flat = np.where(tt.mask, tt.reward + gamma * boot_f - v_flat[tt.state], 0.0)
        a_flat = np.zeros_like(d_flat)
        carry = np.zeros(n)
        decay = gamma * cfg.lambda_flat
        for t in range(t_max - 1, -1, -1):
            carry = d_flat[:, t] + decay * carry
            a_flat[:, t] = np.where(tt.mask[:, t], carry, 0.0)
            carry = np.where(tt.mask[:, t], carry, 0.0)

    if cfg.whiten == "per-level":
        a_low[tt.mask] = whiten(a_low[tt.mask])
        a_high[sm.is_boundary] = whiten(a_high[sm.is_boundary])
        sw_mask = tt.mask & (cols[None, :] > 0)
        a_switch[sw_mask] = whiten(a_switch[sw_mask])
        if a_flat is not None:
            a_flat[tt.mask] = whiten(a_flat[tt.mask])

    return BatchAdvantages(a_low, a_high, a_switch, a_flat, sm)


def _behavior_beta(tt: TurnTable, params: PolicyParams | None) -> np.ndarray:
    """Switch probability of the behavior policy, per turn (NaN at t=0)."""
    beta = np.full(tt.mask.shape, np.nan)
    has_lp = tt.mask & ~np.isnan(tt.lp_switch)
    p = np.exp(tt.lp_switch[has_lp])
    beta[has_lp] = np.where(tt.q[has_lp] == SWITCH, p, 1.0 - p)
    cols = np.arange(tt.max_turns)
    need = tt.mask & (cols[None, :] > 0) & np.isnan(beta)
    if need.any():
        if params is None:
            raise ValueError("turns lack behavior log-probs and no params were given")
        probs = softmax(params.switch[tt.state[need], tt.prev_subgoal[need]], axis=1)
        beta[need] = probs[:, SWITCH]
    return beta


def _v_low_prev(tt: TurnTable, tables: ValueTables) -> np.ndarray:
    """v_low at (state, previous subgoal); zero where no previous subgoal."""
    out = np.zeros(tt.mask.shape)
    ok = tt.mask & (tt.prev_subgoal >= 0)
    out[ok] = tables.v_low[tt.state[ok], tt.prev_subgoal[ok]]
    return out


# ---------------------------------------------------------------------------
# Critic batch construction from a TurnTable (vectorized)
# ---------------------------------------------------------------------------

def critic_batch_from_table(tt: TurnTable, gamma: float, n_states: int,
                            n_options: int) -> CriticBatch:
    """One single-coupling row per turn (low head) and per segment (high
    head); see CriticBatch for the stacked cell indexing."""
    if (tt.final_state[~tt.terminated & (tt.length > 0)] < 0).any():
        raise ValueError("truncated episode without final_state")
    sm = segment_masks(tt)
    n, t_max = tt.mask.shape
    nxt_state = np.zeros((n, t_max), dtype=np.int64)
    if t_max > 1:
        nxt_state[:, :-1] = tt.state[:, 1:]
    # the closing boundary: none after a terminal state, else the final state
    end = np.where(tt.terminated, -1, tt.final_state)

    # low head: v_low inside a segment, v_high at its closing boundary
    rows_i, ts = np.nonzero(tt.mask)
    o = tt.subgoal[rows_i, ts]
    lo_cell = low_cell(tt.state[rows_i, ts], o, n_states, n_options)
    lo_boot = low_cell(nxt_state[rows_i, ts], o, n_states, n_options)
    segf = sm.seg_final[rows_i, ts]
    lo_boot[segf] = np.where(sm.is_last[rows_i[segf], ts[segf]], end[rows_i[segf]],
                             nxt_state[rows_i[segf], ts[segf]])

    # high head: macro reward r~ and duration discount g~ per segment
    b_rows, b_ts = np.nonzero(sm.is_boundary)
    g = returns_matrix(tt, gamma)
    ends = sm.seg_end[b_rows, b_ts]
    gtilde = gamma ** (ends - b_ts).astype(np.float64)
    open_end = ends < tt.length[b_rows]
    g_end = np.where(open_end, g[b_rows, np.minimum(ends, t_max - 1)], 0.0)
    rtilde = g[b_rows, b_ts] - gtilde * g_end
    hi_boot = np.where(open_end, tt.state[b_rows, np.minimum(ends, t_max - 1)],
                       end[b_rows])

    rows = single_coupling_rows(
        np.concatenate([lo_cell, tt.state[b_rows, b_ts]]),
        np.concatenate([tt.weight[rows_i], tt.weight[b_rows]]),
        np.concatenate([tt.reward[rows_i, ts], rtilde]),
        np.concatenate([lo_boot, hi_boot]),
        np.concatenate([np.full(lo_cell.size, gamma), gtilde]))
    return CriticBatch.from_rows(rows, gamma, n_states, n_options)


def flat_batch_from_table(tt: TurnTable, gamma: float, n_states: int) -> FlatCriticBatch:
    g = returns_matrix(tt, gamma)
    rows_i, ts = np.nonzero(tt.mask)
    return FlatCriticBatch.from_rows(
        {"state": tt.state[rows_i, ts], "g": g[rows_i, ts], "w": tt.weight[rows_i]},
        n_states)


# ---------------------------------------------------------------------------
# Turn rows and the per-head policy pass: the one score-function kernel
# ---------------------------------------------------------------------------

@dataclass
class TurnRows:
    """Per-turn arrays gathered from a TurnTable, with the advantages when
    given; `episode` and `t` locate each row in the table."""

    state: np.ndarray
    prev_subgoal: np.ndarray
    q: np.ndarray
    subgoal: np.ndarray
    action: np.ndarray
    episode: np.ndarray
    t: np.ndarray
    lp_switch: np.ndarray
    lp_subgoal: np.ndarray
    lp_action: np.ndarray
    format_ok: np.ndarray
    adv_low: np.ndarray | None = None
    adv_high: np.ndarray | None = None
    adv_switch: np.ndarray | None = None
    adv_flat: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.state)

    def take(self, idx: np.ndarray) -> "TurnRows":
        return TurnRows(*[None if v is None else v[idx]
                          for v in self.__dict__.values()])


def gather_rows(tt: TurnTable, adv: BatchAdvantages | None = None) -> TurnRows:
    """The table's turns in row-major order, with `adv`'s advantages."""
    eps, ts = np.nonzero(tt.mask)
    advs = {} if adv is None else dict(
        adv_low=adv.a_low[eps, ts], adv_high=adv.a_high[eps, ts],
        adv_switch=adv.a_switch[eps, ts],
        adv_flat=None if adv.a_flat is None else adv.a_flat[eps, ts])
    return TurnRows(
        state=tt.state[eps, ts],
        prev_subgoal=tt.prev_subgoal[eps, ts],
        q=tt.q[eps, ts],
        subgoal=tt.subgoal[eps, ts],
        action=tt.action[eps, ts],
        episode=eps,
        t=ts,
        lp_switch=tt.lp_switch[eps, ts],
        lp_subgoal=tt.lp_subgoal[eps, ts],
        lp_action=tt.lp_action[eps, ts],
        format_ok=tt.format_ok[eps, ts],
        **advs,
    )


# head order of every pass: the order the trainer sums the heads in
HEADS = ("action", "subgoal", "switch")


@dataclass
class HeadPass:
    """Log-probabilities of one head at the turns it is present at.

    `at` marks those turns; `cell` is the row of the head's table viewed as
    (cells, choices) and `chosen` the index taken there.  `p` = exp(`lp`).
    """

    at: np.ndarray
    cell: np.ndarray
    chosen: np.ndarray
    lp: np.ndarray
    p: np.ndarray

    def take(self, keep: np.ndarray) -> "HeadPass":
        """The pass restricted to the present turns where `keep` holds."""
        at = self.at.copy()
        at[at] = keep
        return HeadPass(at, self.cell[keep], self.chosen[keep], self.lp[keep],
                        self.p[keep])

    def live(self) -> np.ndarray:
        return self.lp[np.arange(len(self.cell)), self.chosen]


def cell_rows(table: np.ndarray) -> np.ndarray:
    """A logit table viewed as (cells, choices)."""
    return table.reshape(-1, table.shape[-1])


def policy_pass(rows: TurnRows, params: PolicyParams) -> tuple[HeadPass, ...]:
    """Per head in `HEADS` order: the action head at every turn, the
    subgoal head at switch turns, the switch head from t = 1 on."""
    n_o = params.n_options
    sites = (
        (np.ones(len(rows), dtype=bool), rows.state * n_o + rows.subgoal, rows.action),
        (rows.q == SWITCH, rows.state, rows.subgoal),
        (rows.t > 0, rows.state * n_o + rows.prev_subgoal, rows.q),
    )
    out = []
    for name, (at, cell, chosen) in zip(HEADS, sites):
        cell = cell[at]
        lp = log_softmax(cell_rows(getattr(params, name))[cell], axis=1)
        out.append(HeadPass(at, cell, chosen[at], lp, np.exp(lp)))
    return tuple(out)


def row_sums(table: np.ndarray, cell: np.ndarray, rows: np.ndarray,
             chosen: np.ndarray | None = None,
             weight: np.ndarray | None = None,
             group: np.ndarray | None = None, n_groups: int = 1) -> np.ndarray:
    """The (m, K) `rows` summed into a zero table shaped like `table`, at
    rows `cell` of its (cells, K) view; with `chosen`, weight[i] goes in at
    (cell[i], chosen[i]) first.  With `group`, row i goes into table
    group[i] of `n_groups` stacked on a leading axis.  Each entry adds its
    terms in that fixed order, turn by turn, so the sums do not depend on
    how they are batched; a last-bit change would re-roll every later
    training batch."""
    k = table.shape[-1]
    if group is not None:
        cell = group * (table.size // k) + cell
    idx = [(cell[:, None] * k + np.arange(k)).ravel()]
    vals = [rows.ravel()]
    if chosen is not None:
        idx.insert(0, cell * k + chosen)
        vals.insert(0, weight)
    out = np.bincount(np.concatenate(idx), np.concatenate(vals),
                      minlength=n_groups * table.size)
    return out.reshape(table.shape if group is None else (n_groups,) + table.shape)


def score_sums(table: np.ndarray, h: HeadPass, weight: np.ndarray,
               probs: np.ndarray | None = None, group: np.ndarray | None = None,
               n_groups: int = 1) -> np.ndarray:
    """sum_i weight_i * (e_chosen_i - probs_i) on the head's table, over the
    turns the head is present at; `probs` defaults to the pass's exp(lp).
    With `group` (per present turn), one table per group."""
    probs = h.p if probs is None else probs
    return row_sums(table, h.cell, -weight[:, None] * probs, h.chosen, weight,
                    group, n_groups)


def score_tables(params: PolicyParams, heads: tuple[HeadPass, ...], weights,
                 group: np.ndarray | None = None, n_groups: int = 1) -> GradTables:
    """Every head's score sum; `weights` (one array per head in `HEADS`
    order) and `group` are per row of the pass."""
    parts = {name: score_sums(getattr(params, name), h, w[h.at],
                              group=None if group is None else group[h.at],
                              n_groups=n_groups)
             for name, h, w in zip(HEADS, heads, weights)}
    return GradTables(parts["switch"], parts["subgoal"], parts["action"])


def record_behavior(tt: TurnTable, params: PolicyParams) -> TurnTable:
    """Replace the table's behavior log-probs, in place, by those `params`
    gives each present head (NaN where a head is absent); returns `tt`."""
    rows = gather_rows(tt)
    for h, lp in zip(policy_pass(rows, params),
                     (tt.lp_action, tt.lp_subgoal, tt.lp_switch)):
        lp.fill(np.nan)
        lp[rows.episode[h.at], rows.t[h.at]] = h.live()
    return tt


# ---------------------------------------------------------------------------
# Episode statistics used by the trainer's metrics
# ---------------------------------------------------------------------------

@dataclass
class BatchStats:
    mean_return: float        # undiscounted raw return per episode
    mean_shaped_return: float
    success_rate: float
    mean_segments: float
    mean_seg_len: float       # total turns / total segments
    switch_rate: float
    mean_length: float


def batch_stats(tt: TurnTable, goal_state: int | None = None) -> BatchStats:
    raw = np.where(tt.mask, tt.raw_reward, 0.0).sum(axis=1)
    shaped = np.where(tt.mask, tt.reward, 0.0).sum(axis=1)
    switches = (tt.mask & (tt.q == SWITCH)).sum(axis=1)
    total_turns = int(tt.length.sum())
    total_segments = int(switches.sum())
    if goal_state is None:
        success = tt.terminated & (raw > 0)
    else:
        success = tt.terminated & (tt.final_state == goal_state)
    return BatchStats(
        mean_return=float(raw.mean()),
        mean_shaped_return=float(shaped.mean()),
        success_rate=float(success.mean()),
        mean_segments=float(switches.mean()),
        mean_seg_len=float(total_turns / total_segments) if total_segments else 0.0,
        switch_rate=float(total_segments / total_turns) if total_turns else 0.0,
        mean_length=float(tt.length.mean()),
    )
