"""Columnar episode buffers and the vectorized rollout / advantage kernels.

TurnTable stores a batch of episodes as padded (n_episodes, max_turns)
arrays.  The kernels here are the one implementation of the rollout, the
segment-aware advantage estimators, the critic regression rows and the
score function: the stacked site pass and its score sum, which the
trainer's minibatch step, the Monte-Carlo and enumerated oracles and
gradcheck all run.  The tests check them against per-episode and per-turn
reference forms.  One row builder writes every sampled value target: the
critic regresses on its rows, and the advantage kernel takes its low and
high TD residuals as those rows' errors; the flat comparator's own kernel
bootstraps at the same closing states.  Because
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
from .policy import PolicyParams, softmax
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
        """The episodes as records, each column converted by one `tolist`;
        a negative prev_subgoal or final_state and a NaN log-prob read as
        None."""
        def none_where(bad, x):
            return np.where(bad, None, x).tolist()

        rows = zip(self.state.tolist(), none_where(self.prev_subgoal < 0, self.prev_subgoal),
                   self.q.tolist(), self.subgoal.tolist(), self.action.tolist(),
                   self.reward.tolist(), self.raw_reward.tolist(),
                   *(none_where(np.isnan(x), x)
                     for x in (self.lp_switch, self.lp_subgoal, self.lp_action)),
                   self.format_ok.tolist())
        out = []
        for n, term, fs, (s, p, q, o, a, r, raw, lp_s, lp_o, lp_a, ok) in zip(
                self.length.tolist(), self.terminated.tolist(), self.final_state.tolist(), rows):
            turns = tuple(TurnRecord(t, s[t], p[t], q[t], o[t], a[t], r[t], raw[t],
                                     term and t == n - 1, None, lp_s[t], lp_o[t], lp_a[t],
                                     ok[t]) for t in range(n))
            out.append(Trajectory(turns, truncated=not term, final_state=None if fs < 0 else fs))
        return out


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


def _head_tables(params: PolicyParams, greedy: bool) -> list:
    """Per head in stream order (switch, subgoal, action), over every cell
    of its table: the argmax when greedy; else the explicitly normalized
    softmax CDF without its last entry, so that an inverse-CDF draw is the
    count of entries <= u (ties go right, the last index takes the rest),
    and the log-softmax.  Both come from one max/exp/sum per row."""
    out = []
    for table in (params.switch, params.subgoal, params.action):
        x = cell_rows(table)
        if greedy:
            out.append(np.argmax(x, axis=1))
            continue
        z = x - np.max(x, axis=1, keepdims=True)
        e = np.exp(z)
        total = np.sum(e, axis=1, keepdims=True)
        cdf = np.cumsum(e / total, axis=1)
        cdf /= cdf[:, -1:]
        out.append((cdf[:, :-1].copy(), z - np.log(total)))
    return out


def _start_states(env: EnvModel, seed: int, ep_ids: np.ndarray) -> np.ndarray:
    """Each episode's start state, drawn from its stream (head 3) when the
    env has more than one."""
    starts = env.initial_states()
    ids = np.array([s for s, _ in starts], dtype=np.int64)
    if len(starts) == 1:
        return np.full(ep_ids.size, ids[0])
    cdf = np.cumsum([p for _, p in starts])
    pick = np.searchsorted(cdf / cdf[-1], counter_uniform(seed, ep_ids, 0, 3),
                           side="right")
    return ids[np.minimum(pick, len(starts) - 1)]


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
        once = _roll(env, params, distinct, seed, None,
                     _empty_table(distinct.size, env.horizon))
        tt = TurnTable(**{k: v[which] for k, v in vars(once).items()})
    else:
        tt = _empty_table(ep_ids.size, env.horizon)
        # blocks of episodes bound the draws and turn columns held at once
        step = max(1, _ROLL_SLOTS // env.horizon)
        for lo in range(0, ep_ids.size, step):
            part = TurnTable(**{k: v[lo:lo + step] for k, v in vars(tt).items()})
            _roll(env, params, start[lo:lo + step], seed, ep_ids[lo:lo + step], part)
    if c_keep > 0.0:
        keeps = tt.mask & (tt.q == KEEP)
        tt.reward[keeps] -= c_keep
    return tt


_HEAD_KEYS = np.array([HEAD_SWITCH, HEAD_SUBGOAL, HEAD_ACTION])[:, None]
_ROLL_SLOTS = 2 ** 16  # (episode, turn) slots per rolled block
_ROLLED = ("mask", "state", "prev_subgoal", "q", "subgoal", "action", "reward",
           "lp_switch", "lp_subgoal", "lp_action")


def _roll(env: EnvModel, params: PolicyParams, state: np.ndarray, seed: int,
          ep_ids: np.ndarray | None, tt: TurnTable) -> TurnTable:
    """Episodes from the given start states, written into the empty table
    `tt`: sampled with the streams of `ep_ids`, or greedy (argmax, no
    log-probs) when `ep_ids` is None.

    The policy is frozen for the whole batch, so each head's draw table is
    computed once over all its cells and every (turn, head, episode) draw
    is hashed in one call; a turn only gathers and compares.  Every episode
    steps until all are done, and the turns after its end are reset to the
    padding at the end."""
    greedy = ep_ids is None
    nxt_tab, rew_tab, done_tab = transition_tables(env)
    n, n_o = state.size, params.n_options
    heads = _head_tables(params, greedy)
    if not greedy:
        u = counter_uniform(seed, ep_ids, np.arange(env.horizon)[:, None, None],
                            _HEAD_KEYS)

    def choose(head: int, cell: np.ndarray, t: int):
        if greedy:
            return heads[head][cell], None
        cdf, lp = heads[head]
        k = np.count_nonzero(cdf[cell] <= u[t, head, :, None], axis=1)
        return k, lp[cell, k]

    turns = []
    s, prev = state, np.full(n, -1, dtype=np.int64)
    alive, final = np.ones(n, dtype=bool), np.full(n, -1, dtype=np.int64)
    for t in range(env.horizon):
        if not alive.any():
            break
        if t == 0:  # the first turn always switches, with no log-prob
            q, lp_sw = np.full(n, SWITCH, dtype=np.int64), np.full(n, np.nan)
        else:
            q, lp_sw = choose(HEAD_SWITCH, s * n_o + prev, t)
        o, lp_hi = choose(HEAD_SUBGOAL, s, t)
        o = np.where(q == KEEP, prev, o)
        a, lp_lo = choose(HEAD_ACTION, s * n_o + o, t)
        d = done_tab[s, a]
        turns.append((alive, s, prev, q, o, a, rew_tab[s, a], lp_sw, lp_hi, lp_lo))
        s, prev = nxt_tab[s, a], o
        final = np.where(alive & d, s, final)
        alive = alive & ~d

    if turns:
        mask = np.stack([turn[0] for turn in turns], axis=1)
        for name, col in zip(_ROLLED, zip(*turns)):
            if col[-1] is not None:  # greedy turns draw no log-probs
                pad = getattr(tt, name)[:, :mask.shape[1]]
                pad[...] = np.where(mask, np.stack(col, axis=1), pad)
    tt.lp_subgoal[tt.q == KEEP] = np.nan
    tt.raw_reward[:] = tt.reward
    tt.length[:] = tt.mask.sum(axis=1)
    tt.terminated[:] = final >= 0
    tt.final_state[:] = np.where(alive, s, final)  # truncated at the horizon
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


def returns_matrix(tt: TurnTable, gamma: float | np.ndarray) -> np.ndarray:
    """Per-turn return-to-go, zero beyond episode length; `gamma` is one
    discount or one per episode."""
    r = np.where(tt.mask, tt.reward, 0.0)
    return _backward_sums(r, tt.mask, np.reshape(gamma, (-1, 1)), np.zeros_like(tt.mask))


def _backward_sums(x: np.ndarray, mask: np.ndarray, decay, restart: np.ndarray):
    """S_t = x_t + decay_t * S_{t+1} over each row's `mask` (zero outside
    it), with S_t = x_t at `restart` turns; `decay` broadcasts to the (n, T)
    grid of `x` (one factor per row as an (n, 1) column)."""
    out = np.zeros_like(x)
    carry = np.zeros(x.shape[0])
    decay = np.broadcast_to(decay, x.shape)
    for t in range(x.shape[1] - 1, -1, -1):
        carry = np.where(restart[:, t], x[:, t], x[:, t] + decay[:, t] * carry)
        out[:, t] = carry = np.where(mask[:, t], carry, 0.0)
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
                      params: PolicyParams | None = None,
                      built: tuple | None = None) -> BatchAdvantages:
    """`advantage_arrays` with `gamma` in place of cfg.gamma: one discount,
    or one per episode (an (n,) array).  A scalar takes the same arithmetic
    as a per-episode entry.  `built` holds the table's critic rows, as
    `_critic_batch` returns them, when they were built at `gamma` already."""
    if built is None:
        sm = segment_masks(tt)
        built = (sm, *_critic_rows(tt, gamma, sm, tables.n_states, tables.n_options))
    sm, rows, lo, hi, gtilde_hi = built
    n, t_max = tt.mask.shape
    cols = np.arange(t_max)

    # TD residuals: each critic row's target minus the value of its cell,
    # per turn (low) and per boundary turn (high)
    v = stacked(tables)
    delta = row_targets(rows, v) - v[rows["cell"]]
    d_low, d_high, gtilde = (np.zeros((n, t_max)) for _ in range(3))
    d_low[lo] = delta[:lo[0].size]
    d_high[hi] = delta[lo[0].size:]
    gtilde[hi] = gtilde_hi

    a_low = _backward_sums(d_low, tt.mask, np.reshape(gamma * cfg.lambda_low, (-1, 1)),
                           sm.seg_final)
    # high level: one macro-step per segment, carried unchanged in between
    a_high = _backward_sums(d_high, tt.mask,
                            np.where(sm.is_boundary, gtilde * cfg.lambda_high, 1.0),
                            np.zeros_like(tt.mask))
    a_high[~sm.is_boundary] = 0.0

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
    return _critic_batch(tt, gamma, n_states, n_options)[0]


def _critic_batch(tt: TurnTable, gamma: float, n_states: int, n_options: int):
    """`critic_batch_from_table`, and its rows as the advantage kernel reads
    them: (segment masks, rows, low and high row positions, g~)."""
    sm = segment_masks(tt)
    built = (sm, *_critic_rows(tt, gamma, sm, n_states, n_options))
    return CriticBatch.from_rows(built[1], n_states, n_options), built


def flat_batch_from_table(tt: TurnTable, gamma: float, n_states: int) -> CriticBatch:
    """The flat baseline's rows: one per turn, regressing v_flat[state] (the
    high head of a batch without options) toward the observed return-to-go,
    with no bootstrap coupling."""
    g = returns_matrix(tt, gamma)
    rows_i, ts = np.nonzero(tt.mask)
    rows = single_coupling_rows(tt.state[rows_i, ts], tt.weight[rows_i],
                                g[rows_i, ts], np.full(rows_i.size, -1),
                                np.zeros(rows_i.size))
    return CriticBatch.from_rows(rows, n_states, 0)


# ---------------------------------------------------------------------------
# Turn rows and the stacked site pass: the one score-function kernel
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

# the pad logit of a slab: below every real logit, so its exp underflows to
# exactly 0, yet every difference it enters stays finite
_PAD = -1e300


def cell_rows(table: np.ndarray) -> np.ndarray:
    """A logit table viewed as (cells, choices)."""
    return table.reshape(-1, table.shape[-1])


@dataclass
class Sites:
    """A batch's (head, turn) sites, head-major in `HEADS` order: site
    h * n + i is head h at turn row i.  The present sites' cells hold the
    entries `cells` of a policy's `theta`; a pass reads a slab, those entries
    and one pad (`slab`).  `block` holds one column of slab indices per
    site: its cell's entries, then the pad below a head narrower than the
    widest (an absent site's column is all pad).
    `chosen` is the index taken within the site's cell; `widths` holds each
    head's choices and `spans` the (start, stop) of the slab its cells fill."""

    present: np.ndarray           # (3, n) bool
    block: np.ndarray             # (max width, 3n) int64
    chosen: np.ndarray            # (3n,) int64
    cells: np.ndarray             # (c,) sorted entries of the vector
    size: int                     # of the vector
    widths: list
    spans: list

    def slab(self, theta: np.ndarray) -> np.ndarray:
        """The entries `cells` of `theta`, then the pad."""
        return np.append(theta[self.cells], _PAD)

    def spread(self, x: np.ndarray) -> np.ndarray:
        """A slab-layout `x` (leading axes kept) laid out as the vector,
        zero outside `cells`; the pad is dropped."""
        out = np.zeros(x.shape[:-1] + (self.size,))
        out[..., self.cells] = x[..., :-1]
        return out


def head_sites(rows: TurnRows, params: PolicyParams) -> Sites:
    """The rows' sites: the action head is present at every turn, the
    subgoal head at switch turns, the switch head from t = 1 on."""
    n_o = params.n_options
    present = np.stack([np.ones(len(rows), dtype=bool), rows.q == SWITCH, rows.t > 0])
    cell = np.stack([rows.state * n_o + rows.subgoal, rows.state,
                     rows.state * n_o + rows.prev_subgoal])
    tables = [getattr(params, name) for name in HEADS]
    widths = np.array([t.shape[-1] for t in tables])
    size = params.theta.size
    starts = np.array([params.offsets[name] for name in HEADS])
    k = np.arange(widths.max())[:, None]
    # entries past a head's width and every entry of an absent site are the
    # pad (entry `size`): the switch head's cell at t = 0 (prev subgoal -1)
    # would start before its table and is never indexed
    ent = np.where((k < np.repeat(widths, len(rows))) & present.ravel(),
                   (starts[:, None] + cell * widths[:, None]).ravel() + k, size)
    hit = np.zeros(size + 1, dtype=bool)
    hit[ent] = True
    cells = np.flatnonzero(hit[:size])
    slot = np.full(size + 1, cells.size)
    slot[cells] = np.arange(cells.size)
    edges = np.searchsorted(cells, [starts, starts + [t.size for t in tables]]).tolist()
    return Sites(present, slot[ent], np.concatenate([rows.action, rows.subgoal, rows.q]),
                 cells, size, widths.tolist(), list(zip(*edges)))


@dataclass
class SitePass:
    """The present sites of some turn rows, head-major, under a slab: one
    column per site holding its cell's slab indices, log-probs and
    probabilities (pad rows below a narrower head hold a log-prob near
    -1e300 and a probability of 0); `bounds` holds each head's (lo, hi) among
    the columns, and `span` the (start, stop) of the slab the sites' cells
    fill.  `soft`, when asked for, is the action head's explicitly
    normalized softmax."""

    site: np.ndarray              # (m,) index in the Sites
    pos: np.ndarray               # (m,) position among the rows passed
    chosen: np.ndarray            # (m,) slab index of the chosen logit
    live: np.ndarray              # (m,) its log-prob
    ent: np.ndarray               # (width, m) slab indices,
    lp: np.ndarray                # log-probs
    p: np.ndarray                 # and exp(lp)
    soft: np.ndarray | None       # (width, action sites)
    bounds: list
    span: tuple


def site_pass(sites: Sites, slab: np.ndarray, idx: np.ndarray | None = None,
              head: int | None = None, soft: bool = False) -> SitePass:
    """The sites of the turn rows `idx` (default: all), in that order, and of
    every head or only `head` (without pad rows), under the logits `slab`
    (`Sites.slab`): one log-softmax over their columns, each max and sum
    one reduce over the outer axis.  That sums a column left to right, the
    order numpy sums a row of up to 7 choices in, so a head of up to 7
    choices has the bits a per-row softmax gives it.  With `soft`, also the
    action head's softmax, as the flat trainer weighs its scores."""
    present = sites.present if idx is None else sites.present[:, idx]
    if head is None:
        heads, pos = np.nonzero(present)
        block, span = sites.block, (0, slab.size)
    else:
        pos = np.flatnonzero(present[head])
        heads = np.full(pos.size, head)
        block, span = sites.block[:sites.widths[head]], sites.spans[head]
    site = heads * sites.present.shape[1] + (pos if idx is None else idx[pos])
    ends = np.cumsum(np.bincount(heads, minlength=len(HEADS))).tolist()
    # np.take keeps C order, where the outer-axis reduces run whole rows at once
    ent = np.take(block, site, axis=1)
    z = np.take(slab, ent)
    z -= z.max(axis=0)
    e = np.exp(z)
    total = e.sum(axis=0)
    lp = z - np.log(total)
    at = np.take(sites.chosen, site) * site.size + np.arange(site.size)
    return SitePass(site, pos, np.take(ent, at), np.take(lp, at), ent, lp, np.exp(lp),
                    e[:, :ends[0]] / total[:ends[0]] if soft else None,
                    list(zip([0] + ends, ends)), span)


def site_scores(sp: SitePass, weight: np.ndarray, probs: np.ndarray | None = None,
                group: np.ndarray | None = None, n_groups: int = 1) -> np.ndarray:
    """sum_i weight_i * (e_chosen_i - probs_i) over the pass's sites, laid
    out as its span of the slab (one head's span for a one-head pass),
    `probs` (one column per site) defaulting to p.  Each entry adds its
    chosen terms first, then its probability terms, site by site, so the
    sums do not depend on how sites are batched (a last-bit change would
    re-roll every later training batch).  With `group` (per site), one span
    per group, stacked on a leading axis."""
    probs = sp.p if probs is None else probs
    start, stop = sp.span
    idx = np.concatenate([sp.chosen, sp.ent.ravel()]) - start
    if group is not None:
        idx += (stop - start) * np.concatenate(
            [group, np.broadcast_to(group, sp.ent.shape).ravel()])
    out = np.bincount(idx, np.concatenate([weight, (-weight * probs).ravel()]),
                      minlength=n_groups * (stop - start))
    return out if group is None else out.reshape(n_groups, -1)


def record_behavior(tt: TurnTable, params: PolicyParams) -> TurnTable:
    """Replace the table's behavior log-probs, in place, by those `params`
    gives each present head (NaN where a head is absent); returns `tt`."""
    rows = gather_rows(tt)
    sites = head_sites(rows, params)
    sp = site_pass(sites, sites.slab(params.theta))
    live = np.full(len(HEADS) * len(rows), np.nan)
    live[sp.site] = sp.live
    for lp, col in zip((tt.lp_action, tt.lp_subgoal, tt.lp_switch),
                       live.reshape(len(HEADS), -1)):
        lp.fill(np.nan)
        lp[rows.episode, rows.t] = col
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
