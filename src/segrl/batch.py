"""Columnar episode buffers and the vectorized rollout / advantage kernels.

TurnTable stores a batch of episodes as padded (n_episodes, max_turns)
arrays.  The kernels here are the one implementation of the rollout, the
segment-aware advantage estimators, the critic regression rows and the
per-head policy pass with its score sums (the trainer, the Monte-Carlo and
enumerated oracles and gradcheck all run it); the tests check them against
per-episode and per-turn reference forms.  One row builder writes every
sampled value target: the critic regresses on its rows, and the advantage
kernel takes its low and high TD residuals as those rows' errors; the flat
comparator's own kernel bootstraps at the same closing states.  Because
every random draw is keyed by (seed, episode, turn, head), a batch
reproduces any of its sub-batches, rolled at the matching
`episode_offset`, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .advantages import GAEConfig, whiten
from .core import KEEP, SWITCH, MalformedTrajectory, Trajectory, TurnRecord
from .critic import (CriticBatch, ValueTables, low_cell, row_targets,
                     single_coupling_rows, stacked)
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
        """The episodes as one table; the one place that validates episode
        structure.  Raises MalformedTrajectory, naming the episode and the
        turn where there is one, at the first rule broken, in this order.

        Ids: an integer field beyond int64; a negative state, subgoal,
        action, prev_subgoal or final_state.  Structure: an episode without
        turns; a first turn that is not a SWITCH or carries a prev_subgoal;
        a `t` other than the turn's position; a q other than KEEP or SWITCH;
        a prev_subgoal other than the previous turn's subgoal; a KEEP turn
        that changes the subgoal; `done` before the last turn; an episode
        both done and truncated, or neither; a truncated episode without
        final_state.
        """
        trajs = list(trajectories)
        length = np.array([tr.n_turns for tr in trajs], dtype=np.int64)
        tt = _empty_table(len(trajs), int(length.max(initial=0)))
        cols = np.arange(tt.max_turns)
        tt.length[:] = length
        tt.mask[:] = cols < length[:, None]
        tt.terminated[:] = [not tr.truncated for tr in trajs]
        tt.weight[:] = 1.0 if weights is None else weights
        col = dict(zip(TurnRecord._fields, zip(*[u for tr in trajs for u in tr.turns])))
        col = {f: col.get(f, ()) for f in TurnRecord._fields}
        at_turn = "episode {}, turn {}"

        def ids(name, values, where=lambda k: at_turn.format(*np.argwhere(tt.mask)[k])):
            try:
                return np.array([-1 if v is None else v for v in values], dtype=np.int64)
            except OverflowError:
                k = next(k for k, v in enumerate(values) if not -2**63 <= (v or 0) < 2**63)
                raise MalformedTrajectory(
                    f"{where(k)}: {name} {values[k]} is beyond int64") from None

        fs = [tr.final_state for tr in trajs]
        tt.final_state[:] = ids("final_state", fs, "episode {}".format)
        t_of, done, has_prev = (np.zeros(tt.mask.shape, dtype) for dtype in (np.int64, bool, bool))
        t_of[tt.mask] = ids("t", col["t"])
        for name in ("state", "prev_subgoal", "q", "subgoal", "action"):
            getattr(tt, name)[tt.mask] = ids(name, col[name])
        for name in ("reward", "raw_reward", "lp_switch", "lp_subgoal", "lp_action"):
            getattr(tt, name)[tt.mask] = np.array(col[name], dtype=np.float64)
        tt.format_ok[tt.mask] = col["format_valid"]
        done[tt.mask] = col["done"]
        has_prev[tt.mask] = [p is not None for p in col["prev_subgoal"]]
        has_fs = np.array([x is not None for x in fs], dtype=bool)
        prev_o = np.full_like(tt.subgoal, -1)
        prev_o[:, 1:] = tt.subgoal[:, :-1]
        last = cols == (length - 1)[:, None]
        done_last = (done & last).any(axis=1)
        for bad, what, value in (
                (tt.state < 0, "state is", tt.state),
                (tt.subgoal < 0, "subgoal is", tt.subgoal),
                (tt.action < 0, "action is", tt.action),
                (has_prev & (tt.prev_subgoal < 0), "prev_subgoal is", tt.prev_subgoal),
                (has_fs & (tt.final_state < 0), "final_state is", tt.final_state),
                (length == 0, "no turns", None),
                ((cols == 0) & (tt.q != SWITCH), "the first turn does not switch: q is", tt.q),
                ((cols == 0) & has_prev, "the first turn carries prev_subgoal", tt.prev_subgoal),
                (t_of != cols, "t is", t_of),
                ((tt.q != KEEP) & (tt.q != SWITCH), "q is", tt.q),
                ((cols > 0) & (tt.prev_subgoal != prev_o),
                 "prev_subgoal is not the previous subgoal", prev_o),
                ((tt.q == KEEP) & (tt.subgoal != tt.prev_subgoal),
                 "KEEP changes the subgoal to", tt.subgoal),
                (done & ~last, "done before the last turn", None),
                (done_last & ~tt.terminated, "done on the last turn, yet truncated", None),
                (~done_last & tt.terminated, "neither done nor truncated", None),
                (~tt.terminated & ~has_fs, "truncated without final_state", None)):
            if (bad := bad & tt.mask if bad.ndim == 2 else bad).any():
                at = tuple(np.argwhere(bad)[0])
                where = (at_turn if len(at) == 2 else "episode {}").format(*at)
                shown = "" if value is None else f" {value[at]}"
                raise MalformedTrajectory(f"{where}: {what}{shown}")
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
                  c_keep: float = 0.0, episode_offset: int = 0,
                  greedy: bool = False) -> TurnTable:
    """Collect a batch of episodes in lockstep across vectorized turns; an
    episode not done by `env.horizon` is truncated there.

    Greedy episodes are a function of their start state, so a greedy batch
    rolls one episode per distinct start and copies it to every episode
    that starts there.
    """
    if c_keep < 0:
        raise ValueError("c_keep must be >= 0")
    ep_ids = episode_offset + np.arange(int(n_episodes), dtype=np.int64)
    start = _start_states(env, seed, ep_ids)
    if greedy:
        distinct, which = np.unique(start, return_inverse=True)
        once = _roll(env, params, distinct, seed, None)
        tt = TurnTable(**{k: v[which] for k, v in vars(once).items()})
    else:
        tt = _roll(env, params, start, seed, ep_ids)
    if c_keep > 0.0:
        keeps = tt.mask & (tt.q == KEEP)
        tt.reward[keeps] -= c_keep
    return tt


_HEAD_KEYS = np.array([HEAD_SWITCH, HEAD_SUBGOAL, HEAD_ACTION])[:, None]


def _roll(env: EnvModel, params: PolicyParams, state: np.ndarray, seed: int,
          ep_ids: np.ndarray | None) -> TurnTable:
    """Episodes from the given start states: sampled with the streams of
    `ep_ids`, or greedy (argmax, no log-probs) when `ep_ids` is None."""
    greedy = ep_ids is None
    nxt_tab, rew_tab, done_tab = transition_tables(env)
    n = state.size
    tt = _empty_table(n, env.horizon)
    state = state.copy()
    prev = np.full(n, -1, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(env.horizon):
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


def returns_matrix(tt: TurnTable, gamma: float | np.ndarray,
                   raw: bool = False) -> np.ndarray:
    """Per-turn return-to-go, zero beyond episode length; `gamma` is one
    discount or one per episode."""
    r = np.where(tt.mask, tt.raw_reward if raw else tt.reward, 0.0)
    return _backward_sums(r, tt.mask, gamma, np.zeros_like(tt.mask))


def _backward_sums(x: np.ndarray, mask: np.ndarray, decay, restart: np.ndarray):
    """S_t = x_t + decay * S_{t+1} over each row's `mask` (zero outside it),
    with S_t = x_t at `restart` turns; `decay` is one factor or one per row."""
    out = np.zeros_like(x)
    carry = np.zeros(x.shape[0])
    for t in range(x.shape[1] - 1, -1, -1):
        carry = np.where(restart[:, t], x[:, t], x[:, t] + decay * carry)
        out[:, t] = np.where(mask[:, t], carry, 0.0)
        carry = np.where(mask[:, t], carry, 0.0)
    return out


@dataclass
class BatchAdvantages:
    """Padded advantage arrays; entries outside their mask are zero/NaN."""

    a_low: np.ndarray        # (n, T)
    a_high: np.ndarray       # (n, T), nonzero only at boundary turns
    a_switch: np.ndarray     # (n, T), NaN at t = 0 and outside mask
    masks: SegmentMasks


def advantage_arrays(tt: TurnTable, tables: ValueTables, cfg: GAEConfig,
                     params: PolicyParams | None = None) -> BatchAdvantages:
    """Low, high and switching advantages per turn.

    Switching advantages take beta from the recorded behavior log-probs,
    or from `params` on turns that have none.
    """
    return _advantage_arrays(tt, tables, cfg, cfg.gamma, params)


def _advantage_arrays(tt: TurnTable, tables: ValueTables, cfg: GAEConfig,
                      gamma: float | np.ndarray,
                      params: PolicyParams | None = None) -> BatchAdvantages:
    """`advantage_arrays` with `gamma` in place of cfg.gamma: one discount,
    or one per episode (an (n,) array).  A scalar takes the same arithmetic
    as a per-episode entry."""
    sm = segment_masks(tt)
    n, t_max = tt.mask.shape
    cols = np.arange(t_max)

    # TD residuals: each critic row's target minus the value of its cell,
    # per turn (low) and per boundary turn (high)
    rows, lo, hi, gtilde_hi = _critic_rows(tt, gamma, sm, tables.n_states,
                                           tables.n_options)
    v = stacked(tables)
    delta = row_targets(rows, v) - v[rows["cell"]]
    d_low, d_high, gtilde = (np.zeros((n, t_max)) for _ in range(3))
    d_low[lo] = delta[:lo[0].size]
    d_high[hi] = delta[lo[0].size:]
    gtilde[hi] = gtilde_hi

    a_low = _backward_sums(d_low, tt.mask, gamma * cfg.lambda_low, sm.seg_final)

    # high level (per boundary turn)
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

    if cfg.whiten:
        a_low[tt.mask] = whiten(a_low[tt.mask])
        a_high[sm.is_boundary] = whiten(a_high[sm.is_boundary])
        sw_mask = tt.mask & (cols[None, :] > 0)
        a_switch[sw_mask] = whiten(a_switch[sw_mask])

    return BatchAdvantages(a_low, a_high, a_switch, sm)


def flat_advantage_arrays(tt: TurnTable, v_flat: np.ndarray,
                          cfg: GAEConfig) -> np.ndarray:
    """The flat comparator's (n, T) advantages: GAE(lambda_flat) across the
    whole episode on the state-only baseline v_flat, its residuals the
    errors of one-step rows, one per turn bootstrapping at its closing state."""
    sm = segment_masks(tt)
    eps, ts = np.nonzero(tt.mask)
    rows = single_coupling_rows(tt.state[eps, ts], tt.weight[eps],
                                tt.reward[eps, ts],
                                _closing_states(tt, sm)[eps, ts],
                                np.full(eps.size, cfg.gamma))
    d_flat = np.zeros(tt.mask.shape)
    d_flat[eps, ts] = row_targets(rows, v_flat) - v_flat[rows["cell"]]
    a_flat = _backward_sums(d_flat, tt.mask, cfg.gamma * cfg.lambda_flat, sm.is_last)
    if cfg.whiten:
        a_flat[tt.mask] = whiten(a_flat[tt.mask])
    return a_flat


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

def _closing_states(tt: TurnTable, sm: SegmentMasks) -> np.ndarray:
    """(n, T): per turn, the state whose v_high a target closing after it
    bootstraps at: the next turn's state, and after the last turn a truncated
    episode's final state or -1 (no bootstrap) after a terminal one."""
    nxt = np.zeros_like(tt.state)
    nxt[:, :-1] = tt.state[:, 1:]
    end = np.where(tt.terminated, -1, tt.final_state)
    return np.where(sm.is_last, end[:, None], nxt)


def _critic_rows(tt: TurnTable, gamma: float | np.ndarray, sm: SegmentMasks,
                 n_states: int, n_options: int):
    """The two-head critic's regression rows: one per turn (low head), then
    one per segment (high head), each coupled to at most one table entry
    (see CriticBatch for the stacked cell indexing).  `gamma` is one
    discount or one per episode.

    Also returns where the rows sit: the (episodes, turns) of the low rows
    and of the high rows (each at its segment's boundary turn), and each
    high row's duration discount g~.
    """
    per_episode = np.ndim(gamma) > 0
    close = _closing_states(tt, sm)

    # low head: v_low inside a segment, v_high at its closing boundary
    rows_i, ts = np.nonzero(tt.mask)
    o = tt.subgoal[rows_i, ts]
    lo_cell = low_cell(tt.state[rows_i, ts], o, n_states, n_options)
    nxt = close[rows_i, ts]
    lo_boot = np.where(sm.seg_final[rows_i, ts], nxt,
                       low_cell(nxt, o, n_states, n_options))
    lo_coef = gamma[rows_i] if per_episode else np.full(lo_cell.size, gamma)

    # high head: macro reward r~ and duration discount g~ per segment
    b_rows, b_ts = np.nonzero(sm.is_boundary)
    g = returns_matrix(tt, gamma)
    ends = sm.seg_end[b_rows, b_ts]
    gamma_b = gamma[b_rows] if per_episode else gamma
    gtilde = gamma_b ** (ends - b_ts).astype(np.float64)
    open_end = ends < tt.length[b_rows]
    g_end = np.where(open_end, g[b_rows, np.minimum(ends, tt.max_turns - 1)], 0.0)
    rtilde = g[b_rows, b_ts] - gtilde * g_end
    hi_boot = close[b_rows, ends - 1]

    rows = single_coupling_rows(
        np.concatenate([lo_cell, tt.state[b_rows, b_ts]]),
        np.concatenate([tt.weight[rows_i], tt.weight[b_rows]]),
        np.concatenate([tt.reward[rows_i, ts], rtilde]),
        np.concatenate([lo_boot, hi_boot]),
        np.concatenate([lo_coef, gtilde]))
    return rows, (rows_i, ts), (b_rows, b_ts), gtilde


def critic_batch_from_table(tt: TurnTable, gamma: float, n_states: int,
                            n_options: int) -> CriticBatch:
    """One single-coupling row per turn (low head) and per segment (high
    head); see CriticBatch for the stacked cell indexing."""
    rows = _critic_rows(tt, gamma, segment_masks(tt), n_states, n_options)[0]
    return CriticBatch.from_rows(rows, gamma, n_states, n_options)


def flat_batch_from_table(tt: TurnTable, gamma: float, n_states: int) -> CriticBatch:
    """The flat baseline's rows: one per turn, regressing v_flat[state] (the
    high head of a batch without options) toward the observed return-to-go,
    with no bootstrap coupling."""
    g = returns_matrix(tt, gamma)
    rows_i, ts = np.nonzero(tt.mask)
    rows = single_coupling_rows(tt.state[rows_i, ts], tt.weight[rows_i],
                                g[rows_i, ts], np.full(rows_i.size, -1),
                                np.zeros(rows_i.size))
    return CriticBatch.from_rows(rows, gamma, n_states, 0)


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
        adv_switch=adv.a_switch[eps, ts])
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
