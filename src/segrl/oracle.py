"""Brute-force ground truth for the estimators and the training losses.

Two exact computation routes are provided and cross-checked against each
other in the tests:

* exact enumeration (`enumeration_table` and the `*_enumerated`
  functions), which expands every episode as arrays into one `TurnTable`
  weighted by the episodes' probabilities and averages over it; and
* an exact dynamic program over turn-layered (state, subgoal) occupancies
  (`solve_dp`), which computes the same expectations by sharing common
  prefixes.  The two agree to float precision; the DP route is the one fast
  enough for the larger verification runs.

All oracles evaluate the raw environment reward process (no KEEP shaping):
the estimator identities under test concern the unshaped returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advantages import GAEConfig
from .batch import (HEADS, TurnTable, _advantage_arrays, _empty_table,
                    advantage_arrays, flat_advantage_arrays, gather_rows,
                    policy_pass, returns_matrix, rollout_batch, score_sums,
                    score_tables, segment_masks)
from .core import KEEP, SWITCH
from .critic import CriticBatch, ValueTables, low_cell
from .envs import EnvModel, transition_tables
from .policy import GradTables, PolicyParams, log_softmax, softmax
from .rng import derive_seed


class EnumerationCapExceeded(RuntimeError):
    """The branching bound of the requested enumeration exceeds the cap."""


def branching_bound(n_options: int, n_actions: int, horizon: int) -> int:
    """Upper bound on the number of trajectories of an enumeration."""
    first = n_options * n_actions
    rest = (1 + n_options) * n_actions
    return first * (rest ** max(horizon - 1, 0))


def enumeration_table(env: EnvModel, params: PolicyParams,
                      cap: float = 1e8) -> TurnTable:
    """Every episode of an enumerable environment as one table, each weighted
    by its probability P(tau), with the behavior log-probs a rollout records.

    Expanded turn by turn as arrays: each live prefix branches into (KEEP,
    SWITCH to each subgoal) x actions, only the switches at turn 0;
    zero-mass branches are dropped, finished ones become leaves, and the
    prefixes still live at the horizon become truncated leaves.  The leaves
    come in depth-first order (by start state, then by the branch taken at
    each turn).  Each weight is (P(prefix) * p(q, o)) * p(a), with the
    subgoal and action factors from `math.exp` and the switch rows from
    `np.exp`, so the table holds the same floats as a turn-by-turn
    depth-first recursion would.  Refuses (EnumerationCapExceeded) an
    expansion whose branching bound exceeds `cap`.
    """
    n_o, n_a, horizon = params.n_options, params.n_actions, env.horizon
    if branching_bound(n_o, n_a, horizon) > cap:
        raise EnumerationCapExceeded(
            f"branching bound exceeds cap ({cap:g}) for horizon {horizon}")
    nxt, rew, done = transition_tables(env)
    lsw, lhi, llo = (log_softmax(x, axis=-1)
                     for x in (params.switch, params.subgoal, params.action))
    p_hi, p_lo = (np.array([math.exp(x) for x in lp.flat]).reshape(lp.shape)
                  for lp in (lhi, llo))
    starts = env.initial_states()
    state = np.array([s for s, _ in starts], dtype=np.int64)
    prob = np.array([p for _, p in starts], dtype=np.float64)
    parent, prev = np.arange(state.size), np.full(state.size, -1)
    layers, leaves = [], []   # per turn: its branches (parent: start, then branch)
    for t in range(horizon):
        q = np.array([KEEP] * (t > 0) + [SWITCH] * n_o)     # the choices (q, o)
        o = np.broadcast_to(np.arange(n_o), (state.size, n_o))
        p_qo, lp_sw = p_hi[state], np.full(o.shape, np.nan)
        if t > 0:
            sw = np.exp(lsw[state, prev])
            o = np.hstack([prev[:, None], o])
            p_qo = np.hstack([sw[:, KEEP, None], sw[:, SWITCH, None] * p_qo])
            lp_sw = lsw[state, prev][:, q]
        lp_hi = np.where(q == SWITCH, lhi[state[:, None], o], np.nan)
        p = ((prob[:, None, None] * p_qo[:, :, None])
             * p_lo[state[:, None], o]).ravel()
        kept = np.flatnonzero(p)
        at, branch = np.divmod(kept, q.size * n_a)
        c, a = np.divmod(branch, n_a)
        s, o, p = state[at], o[at, c], p[kept]
        layers.append({"parent": parent[at], "branch": branch, "state": s,
                       "q": q[c], "subgoal": o, "action": a, "reward": rew[s, a],
                       "lp_switch": lp_sw[at, c], "lp_subgoal": lp_hi[at, c],
                       "lp_action": llo[s, o, a]})
        ended = done[s, a] | (t == horizon - 1)
        leaves.append((np.full(ended.sum(), t + 1), np.flatnonzero(ended),
                       done[s, a][ended], nxt[s, a][ended], p[ended]))
        parent = np.flatnonzero(~ended)
        state, prev, prob = nxt[s, a][parent], o[parent], p[parent]
    length, cur, terminated, final_state, weight = (
        np.concatenate(col) for col in zip(*leaves))

    # walk each leaf back to its start: its branch per turn, for the
    # depth-first order and the columns
    n, n_turns = length.size, int(length.max(initial=0))
    anc = np.zeros((n_turns, n), dtype=np.int64)
    for t in range(n_turns - 1, -1, -1):
        live = length > t
        anc[t] = np.where(live, cur, 0)
        cur[live] = layers[t]["parent"][cur[live]]
    mask = np.arange(n_turns)[:, None] < length
    keys = [np.where(mask[t], layers[t]["branch"][anc[t]], -1) for t in range(n_turns)]
    order = np.lexsort(keys[::-1] + [cur])          # cur: each leaf's start
    tt = _empty_table(n, n_turns)
    tt.length[:], tt.terminated[:] = length[order], terminated[order]
    tt.final_state[:], tt.weight[:] = final_state[order], weight[order]
    tt.mask[:] = mask[:, order].T
    for t, layer in enumerate(layers[:n_turns]):
        rows = tt.mask[:, t]
        at = anc[t, order][rows]
        for name in ("state", "q", "subgoal", "action", "reward", "lp_switch",
                     "lp_subgoal", "lp_action"):
            getattr(tt, name)[rows, t] = layer[name][at]
    tt.raw_reward[:] = tt.reward
    tt.prev_subgoal[:, 1:][tt.mask[:, 1:]] = tt.subgoal[:, :-1][tt.mask[:, 1:]]
    return tt


# ---------------------------------------------------------------------------
# Leaf-averaging oracles (small instances; cross-checks for the DP route)
# ---------------------------------------------------------------------------

def objective_enumerated(env, params, gamma, cap=1e8) -> float:
    """J = E[sum_t gamma^t r_t] by direct leaf averaging."""
    tt = enumeration_table(env, params, cap)
    return float(np.dot(tt.weight, returns_matrix(tt, gamma)[:, 0]))


def oracle_gradient_enumerated(env, params, gamma, cap=1e8) -> GradTables:
    """Exact policy gradient as sum_tau P(tau) (sum_t scores) R_tau."""
    return _enumerated_scores(env, params, cap, gamma)


def score_expectation_enumerated(env, params, cap=1e8) -> GradTables:
    """E[sum_t grad log pi] over the full enumeration (zero in theory)."""
    return _enumerated_scores(env, params, cap)


def _enumerated_scores(env, params, cap, gamma=None) -> GradTables:
    """The score kernel over the whole enumeration as one table, each turn
    weighted by its trajectory's P(tau), times R_tau when `gamma` is given."""
    tt = enumeration_table(env, params, cap)
    w = tt.weight if gamma is None else tt.weight * returns_matrix(tt, gamma)[:, 0]
    rows = gather_rows(tt)
    w = w[rows.episode]
    return score_tables(params, policy_pass(rows, params), (w, w, w))


def _enumerated_turns(env, params, gamma, cap):
    """Every turn of the enumeration with its return-to-go and its
    trajectory's probability."""
    tt = enumeration_table(env, params, cap)
    rows = gather_rows(tt)
    return (rows, returns_matrix(tt, gamma)[rows.episode, rows.t],
            tt.weight[rows.episode])


def oracle_values_enumerated(env, params, gamma, cap=1e8):
    """Leaf-averaged conditional values; cross-check for `oracle_values`."""
    n_s, n_o = params.n_states, params.n_options
    rows, g, p = _enumerated_turns(env, params, gamma, cap)
    low = rows.state * n_o + rows.subgoal
    num_low = np.bincount(low, p * g, n_s * n_o).reshape(n_s, n_o)
    den_low = np.bincount(low, p, n_s * n_o).reshape(n_s, n_o)
    hi = rows.q == SWITCH
    num_high = np.bincount(rows.state[hi], p[hi] * g[hi], n_s)
    den_high = np.bincount(rows.state[hi], p[hi], n_s)
    v_low = np.divide(num_low, den_low, out=np.zeros_like(num_low), where=den_low > 0)
    v_high = np.divide(num_high, den_high, out=np.zeros_like(num_high), where=den_high > 0)
    num_flat = num_low.sum(axis=1)
    den_flat = den_low.sum(axis=1)
    v_flat = np.divide(num_flat, den_flat, out=np.zeros_like(num_flat), where=den_flat > 0)
    return OracleValues(v_high=v_high, v_low=v_low, v_flat=v_flat,
                        high_defined=den_high > 0, low_defined=den_low > 0,
                        flat_defined=den_flat > 0)


def conditional_switch_values_enumerated(env, params, gamma, cap=1e8):
    """Leaf-averaged E[G_t | t, s, o_prev, q] as {(t, s, o_prev, q): value}."""
    rows, g, p = _enumerated_turns(env, params, gamma, cap)
    later = rows.t > 0
    keys = np.stack([rows.t, rows.state, rows.prev_subgoal, rows.q], axis=1)[later]
    keys, ctx = np.unique(keys, axis=0, return_inverse=True)
    ctx = ctx.ravel()
    num = np.bincount(ctx, p[later] * g[later])
    den = np.bincount(ctx, p[later])
    return {tuple(k): float(v) for k, v in zip(keys.tolist(), num / den)}


# ---------------------------------------------------------------------------
# Exact dynamic program over turn layers
# ---------------------------------------------------------------------------

@dataclass
class DpSolution:
    """Turn-indexed conditional values and occupancies under a fixed policy.

    g_low[t, s, o]  = E[G_t | s_t = s, o_t = o]
    g_high[t, s]    = E[G_t | s_t = s, q_t = 1]
    occ[t, s, o]    = P(turn t exists with (s_t, o_t) = (s, o))
    occ_boundary[t, s]  = P(turn t exists, s_t = s, q_t = 1)
    occ_switch[t, s, o] = P(turn t exists, s_t = s, o_{t-1} = o), t >= 1
    """

    gamma: float
    horizon: int
    g_low: np.ndarray
    g_high: np.ndarray
    occ: np.ndarray
    occ_boundary: np.ndarray
    occ_switch: np.ndarray
    beta: np.ndarray
    pi_hi: np.ndarray
    pi_lo: np.ndarray
    pi_sw: np.ndarray
    nxt: np.ndarray
    rew: np.ndarray
    done: np.ndarray


def solve_dp(env: EnvModel, params: PolicyParams, gamma: float) -> DpSolution:
    """Exhaustive expectation engine organized by shared turn prefixes."""
    horizon = env.horizon
    n_s, n_o, n_a = params.n_states, params.n_options, params.n_actions
    nxt, rew, done = transition_tables(env)
    pi_sw = softmax(params.switch, axis=-1)
    pi_hi = softmax(params.subgoal, axis=-1)
    pi_lo = softmax(params.action, axis=-1)
    beta = pi_sw[:, :, SWITCH]

    dp = DpSolution(gamma=gamma, horizon=horizon,
                    g_low=np.zeros((horizon, n_s, n_o)),
                    g_high=np.zeros((horizon, n_s)),
                    occ=np.zeros((horizon, n_s, n_o)),
                    occ_boundary=np.zeros((horizon, n_s)),
                    occ_switch=np.zeros((horizon, n_s, n_o)),
                    beta=beta, pi_hi=pi_hi, pi_lo=pi_lo, pi_sw=pi_sw,
                    nxt=nxt, rew=rew, done=done)
    for t in range(horizon - 1, -1, -1):
        acc = np.zeros((n_s, n_o))
        for a in range(n_a):
            acc += pi_lo[:, :, a] * _action_value(dp, t, a)
        dp.g_low[t] = acc
        dp.g_high[t] = np.sum(pi_hi * acc, axis=1)

    occ, occ_boundary, occ_switch = dp.occ, dp.occ_boundary, dp.occ_switch
    for s0, p0 in env.initial_states():
        occ_boundary[0, s0] += p0
        occ[0, s0] += p0 * pi_hi[s0]
    # each layer's live mass (action, state, option) flows to (next state, option)
    into = (nxt.T[:, :, None] * n_o + np.arange(n_o)).ravel()
    pi_live = pi_lo.transpose(2, 0, 1) * (~done.T)[:, :, None]
    for t in range(horizon - 1):
        inflow = np.bincount(into, (occ[t] * pi_live).ravel(), n_s * n_o)
        inflow = inflow.reshape(n_s, n_o)
        occ_switch[t + 1] = inflow
        switched = (inflow * beta).sum(axis=1)
        occ_boundary[t + 1] = switched
        occ[t + 1] = inflow * (1.0 - beta) + switched[:, None] * pi_hi
    return dp


def _action_value(dp: DpSolution, t: int, a: int) -> np.ndarray:
    """E[r_t + gamma * G_{t+1} | s_t = s, o_t = o, a_t = a] per (s, o); reads
    the layer t + 1 of g_low and g_high."""
    n_s, n_o = dp.g_low.shape[1:]
    val = np.broadcast_to(dp.rew[:, a][:, None], (n_s, n_o)).copy()
    if t + 1 < dp.horizon:
        s2 = dp.nxt[:, a]
        alive = ~dp.done[:, a]
        cont = (dp.beta[s2] * dp.g_high[t + 1, s2][:, None]
                + (1.0 - dp.beta[s2]) * dp.g_low[t + 1, s2])
        val += dp.gamma * np.where(alive[:, None], cont, 0.0)
    return val


def objective(env: EnvModel, params: PolicyParams, gamma: float) -> float:
    """J = E[sum_t gamma^t r_t], exactly."""
    dp = solve_dp(env, params, gamma)
    return float(sum(p0 * dp.g_high[0, s0] for s0, p0 in env.initial_states()))


@dataclass
class OracleValues:
    """Exact value tables with definedness masks.

    Cells never visited under the policy have no defining conditional
    expectation; they are flagged undefined and zero-filled.
    """

    v_high: np.ndarray
    v_low: np.ndarray
    v_flat: np.ndarray
    high_defined: np.ndarray
    low_defined: np.ndarray
    flat_defined: np.ndarray

    @property
    def tables(self) -> ValueTables:
        return ValueTables(self.v_high.copy(), self.v_low.copy())


def oracle_values(env: EnvModel, params: PolicyParams, gamma: float) -> OracleValues:
    """Occupancy-weighted conditional expectations of the return-to-go.

    V_low(s, o) = E[G | s, o]; V_high(s) = E[G | s, q = 1];
    V_flat(s) = E[G | s]; each averaged over every turn occurrence of its
    context, weighted by occupancy.
    """
    return _values_from_dp(solve_dp(env, params, gamma))


def _values_from_dp(dp: DpSolution) -> OracleValues:
    w_low = dp.occ.sum(axis=0)
    w_high = dp.occ_boundary.sum(axis=0)
    num_low = np.sum(dp.occ * dp.g_low, axis=0)
    num_high = np.sum(dp.occ_boundary * dp.g_high, axis=0)
    v_low = np.divide(num_low, w_low, out=np.zeros_like(num_low), where=w_low > 0)
    v_high = np.divide(num_high, w_high, out=np.zeros_like(num_high), where=w_high > 0)
    w_flat = w_low.sum(axis=1)
    num_flat = num_low.sum(axis=1)
    v_flat = np.divide(num_flat, w_flat, out=np.zeros_like(num_flat), where=w_flat > 0)
    return OracleValues(v_high=v_high, v_low=v_low, v_flat=v_flat,
                        high_defined=w_high > 0, low_defined=w_low > 0,
                        flat_defined=w_flat > 0)


def oracle_gradient(env: EnvModel, params: PolicyParams, gamma: float) -> GradTables:
    """Exact gradient of the discounted objective.

    Computed as sum_t gamma^t E[score_t * G_t] layer by layer; this equals
    the leaf-enumerated sum_tau P (sum_t scores) R_tau because each
    decision's score has zero conditional mean against its prefix return.
    """
    dp = solve_dp(env, params, gamma)
    out = GradTables.zeros_like(params)
    disc = 1.0
    for t in range(dp.horizon):
        w = disc * dp.occ_switch[t]
        if t > 0 and w.any():
            v_keep = dp.g_low[t]
            v_choice = np.stack(
                [v_keep, np.broadcast_to(dp.g_high[t][:, None], v_keep.shape)], axis=-1)
            v_mean = np.sum(dp.pi_sw * v_choice, axis=-1, keepdims=True)
            out.switch += w[:, :, None] * dp.pi_sw * (v_choice - v_mean)
        wb = disc * dp.occ_boundary[t]
        if wb.any():
            out.subgoal += wb[:, None] * dp.pi_hi * (dp.g_low[t] - dp.g_high[t][:, None])
        wa = disc * dp.occ[t]
        if wa.any():
            v_choice = np.stack([_action_value(dp, t, a)
                                 for a in range(params.n_actions)], axis=-1)
            v_mean = np.sum(dp.pi_lo * v_choice, axis=-1, keepdims=True)
            out.action += wa[:, :, None] * dp.pi_lo * (v_choice - v_mean)
        disc *= gamma
    return out


def success_probability(env: EnvModel, params: PolicyParams) -> float:
    """Exact probability of entering the environment's goal state."""
    goal = getattr(env, "goal_state", None)
    if goal is None:
        raise ValueError("environment does not declare a goal_state")
    dp = solve_dp(env, params, 1.0)
    total = 0.0
    for a in range(params.n_actions):
        hits = dp.nxt[:, a] == goal
        if hits.any():
            total += float(np.sum(dp.occ[:, hits, :] * dp.pi_lo[hits, :, a][None]))
    return total


# ---------------------------------------------------------------------------
# Switching exactness
# ---------------------------------------------------------------------------

@dataclass
class SwitchingReport:
    max_abs_dev: float
    n_contexts: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_dev <= self.tol


def switching_exactness_report(env: EnvModel, params: PolicyParams, gamma: float,
                               values: OracleValues | None = None,
                               tol: float = 1e-10) -> SwitchingReport:
    """Estimator formula vs brute-force switching advantage.

    The brute side is Q(s, o_prev, q) - V(s, o_prev) from the exact
    conditional expectations of the return; the estimator side is
    (q - beta) * (V_high(s) - V_low(s, o_prev)) evaluated with the
    occupancy-collapsed oracle tables.  Compared at every reachable
    (t, state, o_prev, q).
    """
    dp = solve_dp(env, params, gamma)
    if values is None:
        values = _values_from_dp(dp)
    max_dev = 0.0
    n_ctx = 0
    for t in range(1, dp.horizon):
        for s, o_prev in np.argwhere(dp.occ_switch[t] > 0):
            q_keep = dp.g_low[t, s, o_prev]
            q_switch = dp.g_high[t, s]
            beta = dp.beta[s, o_prev]
            v_sw = (1.0 - beta) * q_keep + beta * q_switch
            gain = values.v_high[s] - values.v_low[s, o_prev]
            for q in (KEEP, SWITCH):
                brute = (q_keep if q == KEEP else q_switch) - v_sw
                est = (q - beta) * gain
                max_dev = max(max_dev, abs(brute - est))
                n_ctx += 1
    return SwitchingReport(max_abs_dev=float(max_dev), n_contexts=n_ctx, tol=tol)


# ---------------------------------------------------------------------------
# Exact critic regression problem (the enumerated measure, pre-digested)
# ---------------------------------------------------------------------------

def exact_critic_batch(env: EnvModel, params: PolicyParams, gamma: float) -> CriticBatch:
    """The regression problem fit_critic would see on the full enumeration.

    One row per visited cell: its occupancy mass, its mean reward and its
    bootstrap couplings normalised by that mass, so fitting against this
    batch is fitting against the entire trajectory distribution at once,
    with zero sampling noise, and its MSE is the per-cell (reducible) error.
    """
    dp = solve_dp(env, params, gamma)
    n_s, n_o, n_a = params.n_states, params.n_options, params.n_actions
    horizon = dp.horizon
    n_v = n_s * (1 + n_o)
    mass_w = np.zeros(n_v)           # occupancy mass per stacked cell
    mass_r = np.zeros(n_v)           # reward mass per stacked cell
    c_cell, c_boot, c_mass = [], [], []

    def couple(cell, boot, mass):
        c_cell.append(cell)
        c_boot.append(boot)
        c_mass.append(mass)

    # low head: one mass bundle per (t, s, o, a), split over the next switch
    o_cols = np.arange(n_o)[None, :]
    cells = low_cell(np.arange(n_s)[:, None], o_cols, n_s, n_o).ravel()
    for t in range(horizon):
        layer = dp.occ[t]
        if not layer.any():
            continue
        for a in range(n_a):
            mass = layer * dp.pi_lo[:, :, a]
            if not mass.any():
                continue
            s2 = dp.nxt[:, a]
            mass_w[cells] += mass.ravel()
            mass_r[cells] += (mass * dp.rew[:, a][:, None]).ravel()
            live = mass * (~dp.done[:, a])[:, None]
            if t + 1 >= horizon:
                # enumeration horizon: non-terminal rows bootstrap the high
                # head at the final state (truncation rule)
                couple(cells, np.repeat(s2, n_o), gamma * live.ravel())
                continue
            beta_next = dp.beta[s2]              # (S, O): switch prob at s2
            # the carried subgoal terminates, or the segment continues at s2
            couple(cells, np.repeat(s2, n_o), gamma * (live * beta_next).ravel())
            couple(cells, low_cell(s2[:, None], o_cols, n_s, n_o).ravel(),
                   gamma * (live * (1.0 - beta_next)).ravel())

    # high head: within-segment recursion gives E[r~] and E[g~ 1{end at s'}]
    # per segment started at (t, s, o); both are affine in v_high.
    seg_c_next = np.zeros((n_s, n_o))
    seg_w_next = np.zeros((n_s, n_o, n_s))
    seg_c = np.zeros((horizon, n_s, n_o))
    seg_w_by_t: list[np.ndarray] = [None] * horizon  # type: ignore[list-item]
    for t in range(horizon - 1, -1, -1):
        c = np.zeros((n_s, n_o))
        w = np.zeros((n_s, n_o, n_s))
        for a in range(n_a):
            pa = dp.pi_lo[:, :, a]
            c += pa * dp.rew[:, a][:, None]
            s2 = dp.nxt[:, a]
            alive = np.flatnonzero(~dp.done[:, a])
            if alive.size == 0:
                continue
            if t + 1 >= horizon:
                # segment cut by the enumeration horizon: target bootstraps
                # the high head at the final state
                stop = gamma * pa[alive]
                w[alive[:, None], o_cols, s2[alive][:, None]] += stop
                continue
            beta_next = dp.beta[s2[alive]]
            keep = gamma * pa[alive] * (1.0 - beta_next)
            stop = gamma * pa[alive] * beta_next
            c[alive] += keep * seg_c_next[s2[alive]]
            w[alive] += keep[:, :, None] * seg_w_next[s2[alive]]
            w[alive[:, None], o_cols, s2[alive][:, None]] += stop
        seg_c[t] = c
        seg_w_by_t[t] = w
        seg_c_next, seg_w_next = c, w

    to_boundary = np.zeros((n_s, n_s))
    for t in range(horizon):
        h = dp.occ_boundary[t]
        live = h > 0
        if not live.any():
            continue
        mix_c = np.sum(dp.pi_hi * seg_c[t], axis=1)
        mix_w = np.einsum("so,sou->su", dp.pi_hi, seg_w_by_t[t])
        mass_w[:n_s][live] += h[live]
        mass_r[:n_s][live] += h[live] * mix_c[live]
        to_boundary[live] += h[live, None] * mix_w[live]
    src, dst = np.nonzero(to_boundary)
    couple(src, dst, to_boundary[src, dst])

    # one row per visited cell; duplicate couplings merged
    cell = np.flatnonzero(mass_w > 0)
    row_of = np.full(n_v, -1, dtype=np.int64)
    row_of[cell] = np.arange(cell.size)
    c_cell = np.concatenate(c_cell)
    c_mass = np.concatenate(c_mass)
    nz = c_mass > 0
    key, inv = np.unique(c_cell[nz] * n_v + np.concatenate(c_boot)[nz],
                         return_inverse=True)
    k_cell, k_boot = np.divmod(key, n_v)
    rows = {"cell": cell, "w": mass_w[cell], "r": mass_r[cell] / mass_w[cell],
            "row": row_of[k_cell], "boot": k_boot,
            "coef": np.bincount(inv, weights=c_mass[nz]) / mass_w[k_cell]}
    return CriticBatch.from_rows(rows, gamma, n_s, n_o)


# ---------------------------------------------------------------------------
# Monte-Carlo gradient with segment-aware advantages
# ---------------------------------------------------------------------------

@dataclass
class McGradient:
    mean: GradTables
    se: GradTables
    n: int

    def z_scores(self, reference: GradTables) -> np.ndarray:
        dev = np.abs(self.mean.as_vector() - reference.as_vector())
        se = self.se.as_vector()
        z = np.zeros_like(dev)
        pos = se > 0
        z[pos] = dev[pos] / se[pos]
        z[~pos] = np.where(dev[~pos] <= 1e-12, 0.0, np.inf)
        return z


def mc_gradient_hae(env: EnvModel, params: PolicyParams, tables: ValueTables,
                    cfg: GAEConfig, n: int, seed: int,
                    chunk: int = 1000) -> McGradient:
    """Sampled policy gradient using the segment-aware advantage estimates.

    Per-head contributions: the switch score weighted by the switching
    advantage (t >= 1), the subgoal score weighted by the segment advantage
    at boundary turns, and the action score weighted by the within-segment
    advantage.  Each episode's sums come from the trainer's per-head pass,
    grouped by episode, `chunk` episodes at a time: a head's per-episode
    tables hold chunk x table-size floats (2.4 MB for the action head of
    the phased FetchChain(3, 6) policy).  Returns the per-coordinate mean
    and standard error over episodes.
    """
    sum_x = {name: np.zeros_like(getattr(params, name)) for name in HEADS}
    sum_x2 = {name: np.zeros_like(getattr(params, name)) for name in HEADS}
    done_eps = 0
    while done_eps < n:
        m = min(chunk, n - done_eps)
        tt = rollout_batch(env, params, m, seed, episode_offset=done_eps)
        rows = gather_rows(tt, advantage_arrays(tt, tables, cfg))
        for name, h, adv in zip(HEADS, policy_pass(rows, params),
                                (rows.adv_low, rows.adv_high, rows.adv_switch)):
            # one head's per-episode tables at a time, squared in place
            x = score_sums(getattr(params, name), h, adv[h.at],
                           group=rows.episode[h.at], n_groups=m)
            sum_x[name] += x.sum(axis=0)
            sum_x2[name] += np.square(x, out=x).sum(axis=0)
        done_eps += m
    mean = {name: sum_x[name] / n for name in HEADS}
    se = {name: np.sqrt(np.maximum(sum_x2[name] - n * mean[name] ** 2, 0.0)
                        / max(n - 1, 1) / n) for name in HEADS}
    return McGradient(mean=GradTables(**mean), se=GradTables(**se), n=n)


@dataclass
class UnbiasednessReport:
    n: int
    max_z: float
    n_failed: int
    n_coords: int
    max_abs_dev: float
    gate: float = 4.0

    @property
    def passed(self) -> bool:
        return self.n_failed == 0


def unbiasedness_report(env: EnvModel, params: PolicyParams, n: int, seed: int,
                        gate: float = 4.0) -> UnbiasednessReport:
    """Sampled estimator mean vs the exact gradient, per coordinate.

    Run at gamma = 1 with mixing weights 1 and exact value tables, the
    estimator is exactly unbiased; each coordinate must sit within
    `gate` standard errors of the enumerated gradient (coordinates with
    zero sampling variance must match outright).
    """
    cfg = GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0)
    tables = oracle_values(env, params, cfg.gamma).tables
    mc = mc_gradient_hae(env, params, tables, cfg, n, seed)
    exact = oracle_gradient(env, params, cfg.gamma)
    z = mc.z_scores(exact)
    dev = np.abs(mc.mean.as_vector() - exact.as_vector())
    finite = z[np.isfinite(z)]
    return UnbiasednessReport(
        n=n, max_z=float(finite.max()) if finite.size else 0.0,
        n_failed=int(np.sum(z > gate) + np.sum(np.isinf(z))),
        n_coords=z.size, max_abs_dev=float(dev.max()), gate=gate)


# ---------------------------------------------------------------------------
# Variance comparison per turn
# ---------------------------------------------------------------------------

@dataclass
class VarianceReport:
    t: int
    n: int
    var_low: float
    var_flat: float
    ci_low: tuple[float, float]
    ci_flat: tuple[float, float]
    ci_diff: tuple[float, float]   # bootstrap CI of var_low - var_flat

    @property
    def reduction_confirmed(self) -> bool:
        return self.ci_diff[1] <= 0.0

    @property
    def overlapping(self) -> bool:
        return not (self.ci_low[1] < self.ci_flat[0] or self.ci_flat[1] < self.ci_low[0])


def variance_reports(env: EnvModel, params: PolicyParams, values: OracleValues,
                     turns, n: int, seed: int, n_boot: int = 1000,
                     max_rounds: int = 50) -> list[VarianceReport]:
    """Sample variances of the two advantage estimators at each of the
    distinct `turns`, one report per turn, in order.

    Rollouts are restricted to episodes that reach the turn; both estimators
    run with mixing weights 1 and the exact baselines, matching the
    variance-ordering claim's assumptions.  Episodes are rolled in the
    order of their ids until every turn has n reaching episodes, at most
    max_rounds * n episodes; each turn takes its first n, so its report does
    not depend on which other turns are asked for.

    Memory: the turns' samples at 16 bytes per episode each, the episodes
    rolled 2000 at a time, and for the bootstrap an index block of about
    256 KB (with the resampled values and their deviations, under 1 MB),
    whatever n_boot is: drawn at once, the (n_boot, n) index matrix takes
    80 MB at n = 10^4.  The bootstrap draws and variances equal that
    one-shot form bit for bit.
    """
    reports = []
    for t, (a_low, a_flat) in _reaching_samples(env, params, values, turns, n, seed,
                                                max_rounds).items():
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 101, t)))
        bl, bf = _bootstrap_variances(rng, (a_low, a_flat), n_boot)
        reports.append(VarianceReport(
            t=t, n=n,
            var_low=float(a_low.var(ddof=1)), var_flat=float(a_flat.var(ddof=1)),
            ci_low=_ci(bl), ci_flat=_ci(bf), ci_diff=_ci(bl - bf)))
    return reports


def _reaching_samples(env, params, values, turns, n, seed, max_rounds):
    """Each distinct turn t's (A_low, A_flat) at t over the first n rolled
    episodes that reach it; RuntimeError naming a turn that fewer reach."""
    cfg = GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0, lambda_flat=1.0)
    got = dict.fromkeys(turns, 0)
    lows: dict[int, list[np.ndarray]] = {t: [] for t in got}
    flats: dict[int, list[np.ndarray]] = {t: [] for t in got}
    limit, chunk = max_rounds * n, 2000
    for offset in range(0, limit, chunk):
        open_turns = [t for t, k in got.items() if k < n]
        if not open_turns:
            break
        tt = rollout_batch(env, params, min(chunk, limit - offset), seed,
                           episode_offset=offset)
        a_low = advantage_arrays(tt, values.tables, cfg).a_low
        a_flat = flat_advantage_arrays(tt, values.v_flat, cfg)
        for t in open_turns:
            if t >= tt.max_turns:
                continue
            reach = tt.length > t
            lows[t].append(a_low[reach, t])
            flats[t].append(a_flat[reach, t])
            got[t] += int(reach.sum())
    for t, k in got.items():
        if k < n:
            raise RuntimeError(f"turn {t} unreachable often enough ({k}/{n} episodes)")
    return {t: (np.concatenate(lows[t])[:n], np.concatenate(flats[t])[:n]) for t in got}


def _bootstrap_variances(rng: np.random.Generator, samples, n_boot: int):
    """Sample variances (ddof 1) of n_boot resamples of each of the
    equal-length `samples`, all resampled with the same indices: the rows of
    rng.integers(0, n, (n_boot, n)), drawn about 256 KB at a time.  Blocks
    of 1 MB and more ran up to twice as slow (2-core Xeon, numpy 2.4): each
    one page-faults its temporaries in afresh and spills the L2 cache."""
    n = samples[0].size
    rows = max(1, (256 << 10) // (8 * n))
    out = [np.empty(n_boot) for _ in samples]
    for lo in range(0, n_boot, rows):
        idx = rng.integers(0, n, size=(min(rows, n_boot - lo), n))
        for x, var in zip(samples, out):
            var[lo:lo + len(idx)] = x[idx].var(axis=1, ddof=1)
    return out


def _ci(x: np.ndarray) -> tuple[float, float]:
    return (float(np.quantile(x, 0.025)), float(np.quantile(x, 0.975)))


# ---------------------------------------------------------------------------
# Telescoping identities on random trajectories and random tables
# ---------------------------------------------------------------------------

def random_table(rng: np.random.Generator, n: int, n_states: int, n_options: int,
                 n_actions: int, max_turns: int = 10,
                 p_truncated: float = 0.3) -> TurnTable:
    """n structurally valid random episodes as one table, each with recorded
    switch log-probs and a final state.

    Per episode: a length uniform on 1..max_turns, a switch probability
    uniform on [0.1, 0.9), and truncation with probability p_truncated
    (else done at the last turn).  Per turn: uniform state and action, a
    standard-normal reward, and from turn 1 on a SWITCH with the episode's
    switch probability and a beta uniform on [0.05, 0.95) recorded as
    lp_switch = log(beta) on a SWITCH, log(1 - beta) on a KEEP.  The first
    turn switches; a SWITCH draws a uniform subgoal, a KEEP carries the last
    one.
    """
    length = rng.integers(1, max_turns + 1, size=n)
    p_switch = rng.uniform(0.1, 0.9, size=n)
    terminated = rng.random(n) > p_truncated
    final_state = rng.integers(n_states, size=n)
    tt = _empty_table(n, int(length.max(initial=0)))
    shape, cols, m = tt.mask.shape, np.arange(tt.max_turns), tt.mask
    m[:] = cols < length[:, None]
    switch = (cols == 0) | (rng.random(shape) < p_switch[:, None])
    beta = rng.uniform(0.05, 0.95, size=shape)
    lp_switch = np.where(switch, np.log(beta), np.log(1.0 - beta))
    lp_switch[:, 0] = np.nan
    last_switch = np.maximum.accumulate(np.where(switch, cols, 0), axis=1)
    subgoal = rng.integers(n_options, size=shape)[np.arange(n)[:, None], last_switch]
    for name, x in (("state", rng.integers(n_states, size=shape)),
                    ("q", np.where(switch, SWITCH, KEEP)), ("subgoal", subgoal),
                    ("action", rng.integers(n_actions, size=shape)),
                    ("reward", rng.standard_normal(shape)), ("lp_switch", lp_switch)):
        getattr(tt, name)[m] = x[m]
    tt.prev_subgoal[:, 1:][m[:, 1:]] = subgoal[:, :-1][m[:, 1:]]
    tt.length[:] = length
    tt.terminated[:] = terminated
    tt.final_state[:] = final_state
    return tt


def random_tables(rng: np.random.Generator, n_states: int, n_options: int,
                  scale: float = 1.0) -> ValueTables:
    return ValueTables(scale * rng.standard_normal(n_states),
                       scale * rng.standard_normal((n_states, n_options)))


@dataclass
class TelescopeReport:
    trials: int
    max_dev_low: float
    max_dev_high: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.max_dev_low, self.max_dev_high) <= self.tol


def telescope_check(trials: int, seed: int, n_states: int = 12, n_options: int = 3,
                    n_actions: int = 4, max_turns: int = 10,
                    tol: float = 1e-10) -> TelescopeReport:
    """With mixing weights 1, the trainer's advantage kernel must equal its
    closed forms on any trajectory, any tables and any gamma:

    low:  sum_l gamma^(l-t) r_l (within the segment)
          + gamma^(end-t) * V_boundary(end) - v_low(s_t, o_t)
    high: bootstrapped return from the boundary - v_high(s_boundary)

    Each trial is an episode of a `random_table`, with its own n_states rows
    of a stack of random tables and its own gamma.  Trials run 1000 at a
    time (about 3 MB of padded arrays), each block as one table through one
    kernel pass, trial i's states offset by n_states * i into the block's
    stacked tables.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    dev_low = dev_high = 0.0
    for lo in range(0, trials, 1000):
        low, high = _telescope_deviations(rng, min(1000, trials - lo), n_states,
                                          n_options, n_actions, max_turns)
        dev_low, dev_high = max(dev_low, low), max(dev_high, high)
    return TelescopeReport(trials=trials, max_dev_low=dev_low,
                           max_dev_high=dev_high, tol=tol)


def _telescope_deviations(rng, trials, n_states, n_options, n_actions, max_turns):
    """The largest deviations of the kernel's low and high advantages from
    their closed forms over `trials` fresh trials."""
    tt = random_table(rng, trials, n_states, n_options, n_actions, max_turns)
    tables = random_tables(rng, trials * n_states, n_options)
    gamma = rng.uniform(0.2, 1.0, size=trials)
    offset = n_states * np.arange(trials)
    tt.state += offset[:, None]
    tt.final_state += offset     # a random episode always records one
    adv = _advantage_arrays(tt, tables, GAEConfig(lambda_low=1.0, lambda_high=1.0),
                            gamma)

    sm = segment_masks(tt)
    g = returns_matrix(tt, gamma)
    cols = np.arange(tt.max_turns)
    ep = np.arange(trials)[:, None]
    v_final = np.where(tt.terminated, 0.0, tables.v_high[tt.final_state])[:, None]
    # per turn: its segment's end, the discount to it, G there and the value
    # of the boundary there, which at the episode's end is v_final
    inside = sm.seg_end < tt.length[:, None]
    end = np.minimum(sm.seg_end, tt.max_turns - 1)
    disc = gamma[:, None] ** (sm.seg_end - cols).astype(np.float64)
    g_end = np.where(inside, g[ep, end], 0.0)
    v_end = np.where(inside, tables.v_high[tt.state[ep, end]], v_final)
    closed_low = (g - disc * g_end + disc * v_end
                  - tables.v_low[tt.state, tt.subgoal])
    to_final = gamma[:, None] ** (tt.length[:, None] - cols).astype(np.float64)
    closed_high = g + to_final * v_final - tables.v_high[tt.state]
    dev_low = np.abs(adv.a_low - closed_low)[tt.mask]
    dev_high = np.abs(adv.a_high - closed_high)[sm.is_boundary]
    return float(dev_low.max()), float(dev_high.max())
