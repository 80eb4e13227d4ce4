"""The vectorized rollout / advantage kernels over `core.TurnTable`.

A TurnTable stores a batch of episodes as padded (n_episodes, max_turns)
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
from typing import TYPE_CHECKING

import numpy as np

from .core import KEEP, SWITCH, TurnTable, _empty_table
from .critic import (CriticBatch, ValueTables, low_cell, row_targets,
                     single_coupling_rows, stacked)
from .envs import EnvModel, transition_tables
from .policy import PolicyParams, softmax
from .rng import HEAD_ACTION, HEAD_SUBGOAL, HEAD_SWITCH, counter_uniform

if TYPE_CHECKING:  # the trainer imports this module
    from .training import PPOConfig


def _head_tables(params: PolicyParams) -> list:
    """Per head in stream order (switch, subgoal, action), over every cell
    of its table: the explicitly normalized softmax CDF without its last
    entry, so that an inverse-CDF draw is the count of entries <= u (ties go
    right, the last index takes the rest), and the log-softmax, flat.  Both
    come from one max/exp/sum per row."""
    out = []
    for table in (params.switch, params.subgoal, params.action):
        x = cell_rows(table)
        z = x - np.max(x, axis=1, keepdims=True)
        e = np.exp(z)
        total = np.sum(e, axis=1, keepdims=True)
        cdf = np.cumsum(e / total, axis=1)
        cdf /= cdf[:, -1:]
        out.append((cdf[:, :-1].copy(), (z - np.log(total)).ravel()))
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
    walks one episode per distinct start and copies it to every episode
    that starts there.
    """
    if not 0.0 <= c_keep < np.inf:
        raise ValueError(f"c_keep must be finite and >= 0, got {c_keep}")
    if n_episodes < 0 or episode_offset < 0:
        raise ValueError("n_episodes and episode_offset must be >= 0, got "
                         f"{n_episodes} and {episode_offset}")
    ep_ids = episode_offset + np.arange(int(n_episodes), dtype=np.int64)
    start = _start_states(env, seed, ep_ids)
    if greedy:
        distinct, which = np.unique(start, return_inverse=True)
        once = _walk(env, params, distinct, _empty_table(distinct.size, env.horizon))
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


def _roll(env: EnvModel, params: PolicyParams, state: np.ndarray, seed: int,
          ep_ids: np.ndarray, tt: TurnTable) -> TurnTable:
    """Episodes from the given start states, sampled with the streams of
    `ep_ids`, written into the empty table `tt`.

    The policy is frozen for the whole batch, so each head's draw table is
    computed once over all its cells and every (turn, head, episode) draw
    is hashed in one call; a turn only gathers and compares, and writes its
    decisions into turn-major columns.  The rewards and log-probs are
    gathered from those columns after the last turn.  Every episode steps
    until all are done; the turns after its end keep the table's padding."""
    nxt_tab, rew_tab, done_tab = (x.ravel() for x in transition_tables(env))
    live_tab = ~done_tab
    n, n_o, n_a = state.size, params.n_options, env.n_actions
    (cdf_sw, lp_sw), (cdf_hi, lp_hi), (cdf_lo, lp_lo) = _head_tables(params)
    u = counter_uniform(seed, ep_ids, np.arange(env.horizon)[:, None, None],
                        _HEAD_KEYS)[..., None]
    # turn-major: row t holds turn t of every episode; s, o hold one more
    s, q, o, a = (np.empty((env.horizon + 1, n), dtype=np.int64) for _ in range(4))
    alive = np.ones((env.horizon + 1, n), dtype=bool)
    s[0], q[0] = state, SWITCH  # the first turn always switches
    t = 0
    while t < env.horizon and alive[t].any():
        cell = s[t] * n_o
        if t > 0:
            (cdf_sw[cell + o[t - 1]] <= u[t, 0]).sum(axis=1, out=q[t])
        k = (cdf_hi[s[t]] <= u[t, 1]).sum(axis=1)
        o[t] = np.where(q[t] == KEEP, o[t - 1], k) if t else k
        (cdf_lo[cell + o[t]] <= u[t, 2]).sum(axis=1, out=a[t])
        sa = s[t] * n_a + a[t]
        nxt_tab.take(sa, out=s[t + 1])
        np.logical_and(alive[t], live_tab.take(sa), out=alive[t + 1])
        t += 1

    mask, state, q, o, a = alive[:t], s[:t], q[:t], o[:t], a[:t]
    prev = np.concatenate([np.full((1, n), -1), o[:-1]])
    # a switch cell holds (KEEP, SWITCH); turn 0 has no switch log-prob
    lp_sw = np.concatenate([np.full((1, n), np.nan),
                            lp_sw.take((state[1:] * n_o + prev[1:]) * 2 + q[1:])])
    cols = {"mask": mask, "state": state, "prev_subgoal": prev, "q": q, "subgoal": o,
            "action": a, "reward": rew_tab.take(state * n_a + a), "lp_switch": lp_sw,
            "lp_subgoal": lp_hi.take(state * n_o + o),
            "lp_action": lp_lo.take((state * n_o + o) * n_a + a)}
    for name, col in cols.items():
        np.copyto(getattr(tt, name)[:, :t], col.T, where=mask.T)
    tt.lp_subgoal[tt.q == KEEP] = np.nan
    tt.raw_reward[:] = tt.reward
    tt.length[:] = tt.mask.sum(axis=1)
    tt.terminated[:] = ~alive[t]
    # the state after the last turn: a terminal one, or where the horizon cut
    tt.final_state[:] = s[tt.length, np.arange(n)]
    return tt


def _walk(env: EnvModel, params: PolicyParams, state: np.ndarray,
          tt: TurnTable) -> TurnTable:
    """Greedy episodes (argmax, no log-probs) from the given start states,
    written into the empty table `tt`.

    A greedy turn is a function of its context (state, previous subgoal), so
    the argmax turn and successor of every context are built once; each turn
    is then one gather of the successors.  Context s * (O + 1) + p + 1 holds
    (s, p), p = -1 standing for turn 0, and one more context stands for an
    ended episode: it holds the table's padding and is its own successor."""
    nxt_tab, rew_tab, done_tab = transition_tables(env)
    n_o, width = params.n_options, params.n_options + 1
    s, prev = np.divmod(np.arange(env.n_states * width), width)
    prev -= 1
    switch, subgoal, action = (np.argmax(cell_rows(x), axis=1)
                               for x in (params.switch, params.subgoal, params.action))
    q = np.where(prev < 0, SWITCH, switch[s * n_o + np.maximum(prev, 0)])
    o = np.where(q == KEEP, prev, subgoal[s])
    a = action[s * n_o + o]
    nxt, done = nxt_tab[s, a], done_tab[s, a]
    end = s.size
    succ = np.append(np.where(done, end, nxt * width + o + 1), end)
    path = np.empty((env.horizon + 1, state.size), dtype=np.int64)
    path[0] = state * width
    for t in range(env.horizon):
        path[t + 1] = succ.take(path[t])
    ctx = path[:-1].T
    mask = ctx < end
    live = ctx[mask]
    tt.mask[:] = mask
    for name, col in (("state", s), ("prev_subgoal", prev), ("q", q), ("subgoal", o),
                      ("action", a), ("reward", rew_tab[s, a])):
        getattr(tt, name)[mask] = col[live]
    tt.raw_reward[:] = tt.reward
    tt.length[:] = mask.sum(axis=1)
    last = ctx[np.arange(state.size), tt.length - 1]
    tt.terminated[:] = done[last]
    tt.final_state[:] = nxt[last]
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
    # the first boundary after each turn, else the length: a running minimum
    # from the right over the boundaries' turn indices
    seg_end = np.empty((n, t_max), dtype=np.int64)
    seg_end[:, -1:] = tt.length[:, None]
    seg_end[:, :-1] = np.where(is_boundary[:, 1:], cols[1:], tt.length[:, None])
    np.minimum.accumulate(seg_end[:, ::-1], axis=1, out=seg_end[:, ::-1])
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


def advantage_arrays(tt: TurnTable, tables: ValueTables, cfg: PPOConfig,
                     params: PolicyParams | None = None) -> BatchAdvantages:
    """Low, high and switching advantages per turn.

    Switching advantages take beta from the recorded behavior log-probs,
    or from `params` on turns that have none.
    """
    return _advantage_arrays(tt, tables, cfg, cfg.gamma, params)


def _advantage_arrays(tt: TurnTable, tables: ValueTables, cfg: PPOConfig,
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
    n_lo = delta.size - gtilde_hi.size
    d_low, d_high, gtilde = (np.zeros((n, t_max)) for _ in range(3))
    d_low[lo] = delta[:n_lo]
    d_high[hi] = delta[n_lo:]
    gtilde[hi] = gtilde_hi

    # both levels in one recursion over their stacked grids: the low level
    # restarts at each segment's last turn; the high level takes one
    # macro-step per segment, carried unchanged in between
    decay_low = np.broadcast_to(np.reshape(gamma * cfg.lambda_low, (-1, 1)), (n, t_max))
    a_low, a_high = _backward_sums(
        np.concatenate([d_low, d_high]), np.concatenate([tt.mask, tt.mask]),
        np.concatenate([decay_low,
                        np.where(sm.is_boundary, gtilde * cfg.lambda_high, 1.0)]),
        np.concatenate([sm.seg_final, np.zeros_like(tt.mask)])).reshape(2, n, t_max)
    a_high[~sm.is_boundary] = 0.0

    # switching level
    beta = _behavior_beta(tt, params)
    gain = tables.v_high[tt.state] - _v_low_prev(tt, tables)
    a_switch = np.where(tt.mask & (cols[None, :] > 0),
                        (tt.q - beta) * gain, np.nan)

    return BatchAdvantages(a_low, a_high, a_switch, sm)


def flat_advantage_arrays(tt: TurnTable, v_flat: np.ndarray,
                          cfg: PPOConfig) -> np.ndarray:
    """The flat comparator's (n, T) advantages: GAE(lambda_flat) across the
    whole episode on the state-only baseline v_flat, its residuals the
    errors of one-step rows, one per turn bootstrapping at its closing state."""
    sm = segment_masks(tt)
    turns = np.flatnonzero(tt.mask)
    rows = single_coupling_rows(_at(tt.state, turns), tt.weight.take(turns // tt.max_turns),
                                _at(tt.reward, turns), _at(_closing_states(tt, sm), turns),
                                np.full(turns.size, cfg.gamma))
    d_flat = np.zeros(tt.mask.shape)
    d_flat[tt.mask] = row_targets(rows, v_flat) - v_flat[rows["cell"]]
    return _backward_sums(d_flat, tt.mask, cfg.gamma * cfg.lambda_flat, sm.is_last)


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
    ok = np.flatnonzero(tt.mask & (tt.prev_subgoal >= 0))
    out.ravel()[ok] = tables.v_low[_at(tt.state, ok), _at(tt.prev_subgoal, ok)]
    return out


def _at(x: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The entries of the (n, T) grid `x` at the row-major positions `flat`
    (`np.flatnonzero` of a mask): the order and values of `x[mask]`."""
    return x.ravel().take(flat)


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

    Also returns where the rows sit, as masks over the (episode, turn) grid
    whose row-major order is the rows' order: the low rows' turns and the
    high rows' (each at its segment's boundary turn); and each high row's
    duration discount g~.
    """
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.float64), (tt.n_episodes,))
    close = _closing_states(tt, sm)
    t_max = tt.max_turns

    # low head: v_low inside a segment, v_high at its closing boundary
    turns = np.flatnonzero(tt.mask)
    rows_i = turns // t_max
    o = _at(tt.subgoal, turns)
    lo_cell = low_cell(_at(tt.state, turns), o, n_states, n_options)
    nxt = _at(close, turns)
    lo_boot = np.where(_at(sm.seg_final, turns), nxt,
                       low_cell(nxt, o, n_states, n_options))

    # high head: macro reward r~ and duration discount g~ per segment
    starts = np.flatnonzero(sm.is_boundary)
    b_rows, b_ts = np.divmod(starts, t_max)
    g = returns_matrix(tt, gamma).ravel()
    ends = _at(sm.seg_end, starts)
    gtilde = gamma[b_rows] ** (ends - b_ts).astype(np.float64)
    open_end = ends < tt.length.take(b_rows)
    g_end = np.where(open_end, g.take(b_rows * t_max + np.minimum(ends, t_max - 1)), 0.0)
    rtilde = g.take(starts) - gtilde * g_end
    hi_boot = close.ravel().take(b_rows * t_max + ends - 1)

    rows = single_coupling_rows(
        np.concatenate([lo_cell, _at(tt.state, starts)]),
        np.concatenate([tt.weight.take(rows_i), tt.weight.take(b_rows)]),
        np.concatenate([_at(tt.reward, turns), rtilde]),
        np.concatenate([lo_boot, hi_boot]),
        np.concatenate([gamma.take(rows_i), gtilde]))
    return rows, tt.mask, sm.is_boundary, gtilde


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
    turns = np.flatnonzero(tt.mask)
    rows = single_coupling_rows(_at(tt.state, turns), tt.weight.take(turns // tt.max_turns),
                                _at(g, turns), np.full(turns.size, -1),
                                np.zeros(turns.size))
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
    turns = np.flatnonzero(tt.mask)
    eps, ts = np.divmod(turns, tt.max_turns)
    advs = {} if adv is None else dict(
        adv_low=_at(adv.a_low, turns), adv_high=_at(adv.a_high, turns),
        adv_switch=_at(adv.a_switch, turns))
    return TurnRows(
        state=_at(tt.state, turns),
        prev_subgoal=_at(tt.prev_subgoal, turns),
        q=_at(tt.q, turns),
        subgoal=_at(tt.subgoal, turns),
        action=_at(tt.action, turns),
        episode=eps,
        t=ts,
        lp_switch=_at(tt.lp_switch, turns),
        lp_subgoal=_at(tt.lp_subgoal, turns),
        lp_action=_at(tt.lp_action, turns),
        format_ok=_at(tt.format_ok, turns),
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
    choices has the bits a per-row `policy.log_softmax` gives it.  From 8
    choices numpy sums a row pairwise, and the two differ in the last bits:
    within 1e-14 up to 64 choices (3.6e-15 at most at logit scale 3).  With
    `soft`, also the action head's softmax, as the flat trainer weighs its
    scores."""
    present = sites.present if idx is None else sites.present[:, idx]
    if head is None:
        heads, pos = present.nonzero()
        block, span = sites.block, (0, slab.size)
    else:
        pos = np.flatnonzero(present[head])
        heads = np.full(pos.size, head)
        block, span = sites.block[:sites.widths[head]], sites.spans[head]
    site = heads * sites.present.shape[1] + (pos if idx is None else idx[pos])
    ends = np.bincount(heads, minlength=len(HEADS)).cumsum().tolist()
    # take keeps C order, where the outer-axis reduces run whole rows at once
    ent = block.take(site, axis=1)
    z = slab.take(ent)
    z -= z.max(axis=0)
    e = np.exp(z)
    total = e.sum(axis=0)
    soft = e[:, :ends[0]] / total[:ends[0]] if soft else None
    # the log-probs overwrite z, and their exp e
    lp = np.subtract(z, np.log(total), out=z)
    at = sites.chosen.take(site) * site.size + np.arange(site.size)
    return SitePass(site, pos, ent.take(at), lp.take(at), ent, lp, np.exp(lp, out=e),
                    soft, list(zip([0] + ends, ends)), span)


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
    success_rate: float
    mean_segments: float
    mean_seg_len: float       # total turns / total segments
    switch_rate: float
    mean_length: float


def batch_stats(tt: TurnTable, goal_state: int | None = None) -> BatchStats:
    raw = np.where(tt.mask, tt.raw_reward, 0.0).sum(axis=1)
    switches = (tt.mask & (tt.q == SWITCH)).sum(axis=1)
    total_turns = int(tt.length.sum())
    total_segments = int(switches.sum())
    if goal_state is None:
        success = tt.terminated & (raw > 0)
    else:
        success = tt.terminated & (tt.final_state == goal_state)
    return BatchStats(
        mean_return=float(raw.mean()),
        success_rate=float(success.mean()),
        mean_segments=float(switches.mean()),
        mean_seg_len=float(total_turns / total_segments) if total_segments else 0.0,
        switch_rate=float(total_segments / total_turns) if total_turns else 0.0,
        mean_length=float(tt.length.mean()),
    )
