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

`solve_dp(env, params, gamma)` makes one backward pass for the action
values `q` and the values `g_low`, `g_high`, and one forward pass for the
occupancies.  Its `DpSolution`, which keeps the env and policy too, is the
one input of every other DP oracle: solution in, one quantity out, each an
array contraction of what it stored, with no loop over actions, contexts
or (for the gradient) turns.  A caller that needs several solves once.

No DP array is dense in pairs of states: `exact_critic_batch` carries its
segments forward as a sparse flow instead of per-turn (state, subgoal,
state) tables.  The enumeration refuses tables bounded above `cap` cells.

All oracles evaluate the raw environment reward process (no KEEP shaping):
the estimator identities under test concern the unshaped returns.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .batch import (_advantage_arrays, advantage_arrays, flat_advantage_arrays,
                    gather_rows, head_sites, returns_matrix, rollout_batch,
                    segment_masks, site_pass, site_scores)
from .core import KEEP, SWITCH, TurnTable, _empty_table
from .critic import CriticBatch, ValueTables, low_cell
from .envs import EnvModel, transition_tables
from .policy import GradTables, PolicyParams, log_softmax, softmax
from .rng import derive_seed
from .training import PPOConfig


class EnumerationCapExceeded(RuntimeError):
    """The requested enumeration could hold more cells than the cap."""


def branching_bound(n_options: int, n_actions: int, horizon: int) -> int:
    """Upper bound on the number of trajectories of an enumeration."""
    first = n_options * n_actions
    rest = (1 + n_options) * n_actions
    return first * (rest ** max(horizon - 1, 0))


def enumeration_table(env: EnvModel, params: PolicyParams,
                      cap: float = 1e7) -> TurnTable:
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
    depth-first recursion would.

    Refuses (EnumerationCapExceeded), before expanding anything, a table
    whose bound on cells (the branching bound on leaves times the horizon)
    exceeds `cap`.  A bound cell cost 150-160 bytes of peak traced memory at
    FetchChain (3, 4) and (3, 5), so the default 1e7 bounds the expansion
    near 1.5 GB: it admits (3, 5) (0.83M cells) and refuses (3, 6) (11.9M).
    """
    n_o, n_a, horizon = params.n_options, params.n_actions, env.horizon
    cells = branching_bound(n_o, n_a, horizon) * horizon
    if cells > cap:
        raise EnumerationCapExceeded(
            f"enumeration bound of {cells:,} cells (leaves x {horizon} turns) "
            f"exceeds the cap ({cap:g})")
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

def objective_enumerated(env, params, gamma, cap=1e7) -> float:
    """J = E[sum_t gamma^t r_t] by direct leaf averaging."""
    tt = enumeration_table(env, params, cap)
    return float(np.dot(tt.weight, returns_matrix(tt, gamma)[:, 0]))


def oracle_gradient_enumerated(env, params, gamma, cap=1e7) -> GradTables:
    """Exact policy gradient as sum_tau P(tau) (sum_t scores) R_tau: the score
    kernel over the whole enumeration as one table, each turn weighted by its
    trajectory's P(tau) R_tau."""
    tt = enumeration_table(env, params, cap)
    w = tt.weight * returns_matrix(tt, gamma)[:, 0]
    rows = gather_rows(tt)
    sites = head_sites(rows, params)
    sp = site_pass(sites, sites.slab(params.theta))
    return GradTables.wrap(sites.spread(site_scores(sp, w[rows.episode[sp.pos]])), params)


def oracle_values_enumerated(env, params, gamma, cap=1e7):
    """Leaf-averaged conditional values; cross-check for `oracle_values`."""
    n_s, n_o = params.n_states, params.n_options
    tt = enumeration_table(env, params, cap)
    rows = gather_rows(tt)
    g = returns_matrix(tt, gamma)[rows.episode, rows.t]
    p = tt.weight[rows.episode]
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


# ---------------------------------------------------------------------------
# Exact dynamic program over turn layers
# ---------------------------------------------------------------------------

@dataclass
class DpSolution:
    """Turn-indexed conditional values and occupancies under a fixed policy.

    q[t, s, o, a]   = E[r_t + gamma * G_{t+1} | s_t = s, o_t = o, a_t = a]
    g_low[t, s, o]  = E[G_t | s_t = s, o_t = o]
    g_high[t, s]    = E[G_t | s_t = s, q_t = 1]
    occ[t, s, o]    = P(turn t exists with (s_t, o_t) = (s, o))
    occ_boundary[t, s]  = P(turn t exists, s_t = s, q_t = 1)
    occ_switch[t, s, o] = P(turn t exists, s_t = s, o_{t-1} = o), t >= 1
    """

    env: EnvModel
    params: PolicyParams
    gamma: float
    q: np.ndarray
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

    dp = DpSolution(env=env, params=params, gamma=gamma,
                    q=np.zeros((horizon, n_s, n_o, n_a)),
                    g_low=np.zeros((horizon, n_s, n_o)),
                    g_high=np.zeros((horizon, n_s)),
                    occ=np.zeros((horizon, n_s, n_o)),
                    occ_boundary=np.zeros((horizon, n_s)),
                    occ_switch=np.zeros((horizon, n_s, n_o)),
                    beta=beta, pi_hi=pi_hi, pi_lo=pi_lo, pi_sw=pi_sw,
                    nxt=nxt, rew=rew, done=done)
    # (s, o, a) -> the flat (next state, o) cell its live mass moves into
    into = nxt[:, None, :] * n_o + np.arange(n_o)[:, None]
    alive = ~done[:, None, :]
    cont = np.zeros(n_s * n_o)    # E[G_{t+1} | s_{t+1}, o_t]; 0 past the horizon
    for t in range(horizon - 1, -1, -1):
        dp.q[t] = rew[:, None, :] + gamma * np.where(alive, cont[into], 0.0)
        acc = np.zeros((n_s, n_o))
        for a in range(n_a):
            acc += pi_lo[:, :, a] * dp.q[t, :, :, a]
        dp.g_low[t] = acc
        dp.g_high[t] = np.sum(pi_hi * acc, axis=1)
        cont = (beta * dp.g_high[t][:, None] + (1.0 - beta) * acc).ravel()

    occ, occ_boundary, occ_switch = dp.occ, dp.occ_boundary, dp.occ_switch
    for s0, p0 in env.initial_states():
        occ_boundary[0, s0] += p0
        occ[0, s0] += p0 * pi_hi[s0]
    # each layer's live mass (action, state, option) flows to (next state, option)
    into_a = into.transpose(2, 0, 1).ravel()
    pi_live = (pi_lo * alive).transpose(2, 0, 1)
    for t in range(horizon - 1):
        inflow = np.bincount(into_a, (occ[t] * pi_live).ravel(), n_s * n_o)
        inflow = inflow.reshape(n_s, n_o)
        occ_switch[t + 1] = inflow
        switched = (inflow * beta).sum(axis=1)
        occ_boundary[t + 1] = switched
        occ[t + 1] = inflow * (1.0 - beta) + switched[:, None] * pi_hi
    return dp


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


def oracle_values(dp: DpSolution) -> OracleValues:
    """Occupancy-weighted conditional expectations of the return-to-go.

    V_low(s, o) = E[G | s, o]; V_high(s) = E[G | s, q = 1];
    V_flat(s) = E[G | s]; each averaged over every turn occurrence of its
    context, weighted by occupancy.
    """
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


def oracle_gradient(dp: DpSolution) -> GradTables:
    """Exact gradient of the discounted objective.

    Computed as sum_t gamma^t E[score_t * G_t] over all layers at once;
    this equals the leaf-enumerated sum_tau P (sum_t scores) R_tau because
    each decision's score has zero conditional mean against its prefix
    return.
    """
    disc = np.cumprod(np.r_[1.0, np.full(dp.env.horizon - 1, dp.gamma)])[:, None, None]
    v_switch = np.stack([dp.g_low, np.broadcast_to(dp.g_high[..., None],
                                                    dp.g_low.shape)], axis=-1)
    return GradTables.wrap(np.concatenate([
        _score_term(disc * dp.occ_switch, dp.pi_sw, v_switch).ravel(),
        _score_term(disc[:, 0] * dp.occ_boundary, dp.pi_hi, dp.g_low).ravel(),
        _score_term(disc * dp.occ, dp.pi_lo, dp.q).ravel()]), dp.params)


def _score_term(w: np.ndarray, pi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_t w_t * pi * (v_t - E_pi[v_t]): one head's expected score times
    the value of each choice, over the layers t of the leading axis."""
    v_mean = np.sum(pi * v, axis=-1, keepdims=True)
    return (w[..., None] * pi * (v - v_mean)).sum(axis=0)


def success_probability(dp: DpSolution) -> float:
    """Exact probability of entering the environment's goal state; it reads
    only occupancies, so a solution at any gamma gives the same bits."""
    goal = getattr(dp.env, "goal_state", None)
    if goal is None:
        raise ValueError("environment does not declare a goal_state")
    return float(np.sum(dp.occ[..., None] * dp.pi_lo * (dp.nxt == goal)[:, None]))


# ---------------------------------------------------------------------------
# Switching exactness
# ---------------------------------------------------------------------------

@dataclass
class SwitchingReport:
    """`worst` is the (t, state, o_prev, q) context of `max_abs_dev`, None
    without contexts."""

    max_abs_dev: float
    n_contexts: int
    tol: float
    worst: tuple[int, int, int, int] | None = None

    @property
    def passed(self) -> bool:
        return self.max_abs_dev <= self.tol


def switching_exactness_report(dp: DpSolution, tol: float = 1e-10) -> SwitchingReport:
    """Estimator formula vs brute-force switching advantage.

    The brute side is Q(s, o_prev, q) - V(s, o_prev) from the exact
    conditional expectations of the return; the estimator side is
    (q - beta) * (V_high(s) - V_low(s, o_prev)) evaluated with the
    occupancy-collapsed oracle tables.  Compared at every reachable
    (t, state, o_prev, q).
    """
    values = oracle_values(dp)
    t, s, o_prev = np.nonzero(dp.occ_switch[1:] > 0)
    t += 1
    q_keep, q_switch, beta = dp.g_low[t, s, o_prev], dp.g_high[t, s], dp.beta[s, o_prev]
    v_sw = (1.0 - beta) * q_keep + beta * q_switch
    gain = values.v_high[s] - values.v_low[s, o_prev]
    q = np.array([KEEP, SWITCH])
    brute = np.stack([q_keep, q_switch], axis=1) - v_sw[:, None]
    dev = np.abs(brute - (q - beta[:, None]) * gain[:, None])
    if dev.size == 0:
        return SwitchingReport(max_abs_dev=0.0, n_contexts=0, tol=tol)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    return SwitchingReport(max_abs_dev=float(dev[i, j]), n_contexts=dev.size, tol=tol,
                           worst=(int(t[i]), int(s[i]), int(o_prev[i]), int(q[j])))


# ---------------------------------------------------------------------------
# Exact critic regression problem (the enumerated measure, pre-digested)
# ---------------------------------------------------------------------------

def exact_critic_batch(dp: DpSolution) -> CriticBatch:
    """The regression problem fit_critic would see on the full enumeration.

    One row per visited cell: its occupancy mass, its mean reward and its
    bootstrap couplings normalised by that mass, so fitting against this
    batch is fitting against the entire trajectory distribution at once,
    with zero sampling noise, and its MSE is the per-cell (reducible) error.
    No array is dense in pairs of states: the low head is summed over the
    (t, s, o, a) layers, and the high head's segments are carried forward
    as a sparse flow of mass per (start state, state, subgoal).
    """
    n_s, n_o, gamma = dp.params.n_states, dp.params.n_options, dp.gamma
    n_v = n_s * (1 + n_o)
    mass_w = np.zeros(n_v)           # occupancy mass per stacked cell
    mass_r = np.zeros(n_v)           # reward mass per stacked cell

    # low head: the (t, s, o, a) masses summed over t and a.  Live mass
    # bootstraps the high head at the next state where the carried subgoal
    # terminates or the enumeration horizon cuts the episode (truncation
    # rule), and the low head there where the segment continues
    o = np.arange(n_o)[:, None]
    mass = dp.occ[..., None] * dp.pi_lo
    mass_w[n_s:] = mass.sum(axis=(0, 3)).ravel()
    mass_r[n_s:] = (mass * dp.rew[:, None]).sum(axis=(0, 3)).ravel()
    go = gamma * mass * ~dp.done[:, None]
    inside = go[:-1].sum(axis=0)                          # (S, O, A)
    s2 = np.broadcast_to(dp.nxt[:, None], inside.shape)
    beta_next = dp.beta[s2, o]
    cells = np.broadcast_to(low_cell(np.arange(n_s)[:, None, None], o, n_s, n_o),
                            inside.shape).ravel()
    c_cell, c_boot = [cells, cells], [s2.ravel(), low_cell(s2, o, n_s, n_o).ravel()]
    c_mass = [(inside * beta_next + go[-1]).ravel(),
              (inside * (1.0 - beta_next)).ravel()]

    # high head: each segment's mass flows forward, keyed by (start state,
    # state, subgoal) and discounted since the segment's boundary; it pays
    # its rewards to the start state's row, and where it ends (a switch at
    # the next state, or the horizon) couples that row to the next state
    mass_w[:n_s] = dp.occ_boundary.sum(axis=0)
    start = state = sub = np.zeros(0, dtype=np.int64)
    m = np.zeros(0)
    for t in range(dp.env.horizon):
        new = np.flatnonzero(dp.occ_boundary[t])
        start = np.concatenate([start, np.repeat(new, n_o)])
        state = np.concatenate([state, np.repeat(new, n_o)])
        sub = np.concatenate([sub, np.tile(np.arange(n_o), new.size)])
        m = np.concatenate([m, (dp.occ_boundary[t, new, None] * dp.pi_hi[new]).ravel()])
        pa = m[:, None] * dp.pi_lo[state, sub]                # (n, A)
        mass_r[:n_s] += np.bincount(start, (pa * dp.rew[state]).sum(axis=1), n_s)
        s2 = dp.nxt[state]
        go = gamma * pa * ~dp.done[state]
        beta_next = dp.beta[s2, sub[:, None]] if t + 1 < dp.env.horizon else 1.0
        pair = start[:, None] * n_s + s2                      # (start, next state)
        key, inv = np.unique(pair.ravel(), return_inverse=True)
        c_cell.append(key // n_s)
        c_boot.append(key % n_s)
        c_mass.append(np.bincount(inv, (go * beta_next).ravel(), key.size))
        keep = go * (1.0 - beta_next)
        live = keep > 0
        key, inv = np.unique((pair * n_o + sub[:, None])[live], return_inverse=True)
        m = np.bincount(inv, keep[live], key.size)
        start, key = np.divmod(key, n_s * n_o)
        state, sub = np.divmod(key, n_o)

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
    return CriticBatch.from_rows(rows, n_s, n_o)


# ---------------------------------------------------------------------------
# Monte-Carlo gradient with segment-aware advantages
# ---------------------------------------------------------------------------

@dataclass
class McGradient:
    mean: GradTables
    se: GradTables
    n: int


def mc_gradient_hae(env: EnvModel, params: PolicyParams, tables: ValueTables,
                    runs, seed: int, chunk: int = 1000) -> list[McGradient]:
    """Sampled policy gradients using the segment-aware advantage estimates,
    one per run `(cfg, n)` of `runs`, each over the first n episodes of one
    counter-keyed stream.

    Per-head contributions: the switch score weighted by the switching
    advantage (t >= 1), the subgoal score weighted by the segment advantage
    at boundary turns, and the action score weighted by the within-segment
    advantage.  Each episode's sums come from the trainer's kernel
    (`batch.site_pass`, `batch.site_scores`), one head at a time and grouped
    by episode, `chunk` episodes at a time.  Each chunk is rolled, laid out
    and passed once for every run; a run whose n reaches into the chunk adds
    the scores under its own advantages over the chunk's episodes it covers.
    Returns, per run, the per-coordinate mean and standard error over its
    episodes, bit-identical to a call with that run alone.

    The chunks run, ten consecutive ones per job, on every CPU the process
    may use (`_fork_map`); each rolls its own counter-keyed episodes, and
    their per-head sums are added in chunk order, so the result is
    bit-identical to a one-CPU run.  Memory per worker: one chunk's arrays
    and what its predecessor still holds, the largest being a head's
    per-episode sums of chunk x (its cells the chunk touches) floats, at
    most 2.4 MB for the action head of the phased FetchChain(3, 6) policy;
    a job of ten chunks of 1000 there peaks at 5.3 MB traced.  The parent
    holds only the chunks' per-head sums, under 5 KB per chunk and run
    there.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("runs must not be empty")
    if min(n for _, n in runs) < 1:
        raise ValueError("n must be >= 1")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    theta = params.theta
    sums = [(np.zeros_like(theta), np.zeros_like(theta)) for _ in runs]
    starts = range(0, max(n for _, n in runs), chunk)
    jobs = [starts[i:i + _CHUNKS_PER_JOB] for i in range(0, len(starts), _CHUNKS_PER_JOB)]
    job = partial(_hae_chunk_sums, env, params, tables, runs, seed, chunk)
    for out in _fork_map(job, jobs):
        for heads in out:
            for cells, per_run in heads:
                for r, x, x2 in per_run:
                    sum_x, sum_x2 = sums[r]
                    sum_x[cells] += x
                    sum_x2[cells] += x2
    grads = []
    for (sum_x, sum_x2), (_, n) in zip(sums, runs):
        mean = sum_x / n
        se = np.sqrt(np.maximum(sum_x2 - n * mean ** 2, 0.0) / max(n - 1, 1) / n)
        grads.append(McGradient(GradTables.wrap(mean, params), GradTables.wrap(se, params), n))
    return grads


# Chunks one worker job rolls in one loop.  Each chunk's arrays are then
# allocated while its predecessor's are still held, so glibc reuses that heap
# instead of trimming it and faulting it back in: one chunk per job cost the
# workers about 300k minor page faults per `verify unbiased` at 200000
# samples (2-core Xeon), ten about 75k.
_CHUNKS_PER_JOB = 10


def _hae_chunk_sums(env, params, tables, runs, seed, chunk, offsets):
    """Per chunk of episodes offset .. offset + chunk - 1 (at most the
    longest run's n), for each offset in `offsets`: per head, its cells and,
    for each run (index r) that covers k > 0 of the chunk's episodes, the
    sums over its first k episodes of each cell's per-episode score sum and
    of its square."""
    n = max(n for _, n in runs)
    out = []
    for offset in offsets:
        m = min(chunk, n - offset)
        tt = rollout_batch(env, params, m, seed, episode_offset=offset)
        rows = gather_rows(tt)
        covered = [(r, min(m, n_r - offset), advantage_arrays(tt, tables, cfg))
                   for r, (cfg, n_r) in enumerate(runs) if n_r > offset]
        sites = head_sites(rows, params)
        slab = sites.slab(params.theta)
        turns = np.flatnonzero(tt.mask)   # the rows' places in the table
        heads = []
        for h, level in enumerate(("a_low", "a_high", "a_switch")):
            # one head's pass, then per run its per-episode sums, squared in place
            sp = site_pass(sites, slab, head=h)
            eps, at = rows.episode.take(sp.pos), turns.take(sp.pos)
            per_run = []
            for r, k, adv in covered:
                x = site_scores(sp, getattr(adv, level).ravel().take(at), group=eps,
                                n_groups=m)[:k]
                per_run.append((r, x.sum(axis=0), np.square(x, out=x).sum(axis=0)))
            heads.append((sites.cells[slice(*sp.span)], per_run))
        out.append(heads)
    return out


@dataclass
class UnbiasednessReport:
    n: int
    max_z: float
    n_failed: int
    n_coords: int
    max_abs_dev: float
    gate: float = 4.0
    # the coordinate of max_z: worst_head, worst_cell, worst_choice, worst_z
    # and worst_dev (its |mean - exact|); empty without a finite z
    worst: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0


def unbiasedness(mc: McGradient, exact: GradTables, gate: float = 4.0
                 ) -> UnbiasednessReport:
    """`mc` against `exact`, per coordinate: a coordinate fails once when its
    z-score exceeds `gate` (an infinite z, a deviation at zero standard
    error, included)."""
    dev, se = np.abs(mc.mean.theta - exact.theta), mc.se.theta
    z = np.divide(dev, se, out=np.where(dev <= 1e-12, 0.0, np.inf), where=se > 0)
    worst = {}
    if np.isfinite(z).any():
        i = int(np.argmax(np.where(np.isfinite(z), z, -1.0)))  # every z >= 0
        name, (*cell, choice) = exact.locate(i)
        worst = dict(worst_head=name, worst_cell=cell, worst_choice=choice,
                     worst_z=float(z[i]), worst_dev=float(dev[i]))
    return UnbiasednessReport(
        n=mc.n, max_z=worst.get("worst_z", 0.0), n_failed=int(np.sum(z > gate)),
        n_coords=z.size, max_abs_dev=float(dev.max()), gate=gate, worst=worst)


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

    The turns' bootstraps run on every CPU the process may use
    (`_fork_map`), each from its own stream, so the reports equal a one-CPU
    run's.  Memory: in the parent, the turns' samples at 16 bytes per
    episode each and the episodes rolled 2000 at a time; per worker, one
    turn's bootstrap: an index block of about 256 KB with the resampled
    values and their deviations, and 16 bytes per resample, 1.2 MB traced
    peak at n = 10^4 whatever n_boot is: drawn at once, the (n_boot, n)
    index matrix takes 80 MB there.  The bootstrap draws and variances
    equal that one-shot form bit for bit.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    samples = _reaching_samples(env, params, values, turns, n, seed, max_rounds)
    return _fork_map(lambda t: _turn_report(t, *samples[t], seed, n_boot), list(samples))


def _turn_report(t, a_low, a_flat, seed, n_boot) -> VarianceReport:
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 101, t)))
    bl, bf = _bootstrap_variances(rng, (a_low, a_flat), n_boot)
    return VarianceReport(
        t=t, n=a_low.size,
        var_low=float(a_low.var(ddof=1)), var_flat=float(a_flat.var(ddof=1)),
        ci_low=_ci(bl), ci_flat=_ci(bf), ci_diff=_ci(bl - bf))


def _reaching_samples(env, params, values, turns, n, seed, max_rounds):
    """Each distinct turn t's (A_low, A_flat) at t over the first n rolled
    episodes that reach it; RuntimeError naming a turn that fewer reach."""
    cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0, lambda_flat=1.0)
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
# Independent Monte-Carlo work on every CPU
# ---------------------------------------------------------------------------

_job = None   # the function a forked worker maps, inherited through the fork


def _fork_map(fn, jobs) -> list:
    """[fn(job) for job in jobs], on as many forked workers as the process
    may use CPUs (at most one per job).

    The workers inherit `fn` through the fork, so it need not pickle; each
    job and each result is pickled.  The pool forks every worker before it
    starts its own thread and is joined before this returns, also when a
    worker raises (the parent re-raises that exception).  With one worker,
    or where `fork` is unavailable, it is the builtin `map` in this process.
    """
    jobs = list(jobs)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(jobs))
    if workers > 1:
        # imported here, so that `import segrl` does not pay for them
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_set_job, initargs=(fn,)) as pool:
                return list(pool.map(_run_job, jobs))
    return list(map(fn, jobs))


def _set_job(fn) -> None:
    global _job
    _job = fn


def _run_job(job):
    return _job(job)


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
    """`worst_trial_low` / `worst_trial_high` are the indices (from 0) of the
    trials where `max_dev_low` / `max_dev_high` occur, the first on a tie."""

    trials: int
    max_dev_low: float
    max_dev_high: float
    tol: float
    worst_trial_low: int
    worst_trial_high: int

    @property
    def passed(self) -> bool:
        return self.max_dev_low <= self.tol and self.max_dev_high <= self.tol  # NaN fails


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
    blocks = [_telescope_deviations(rng, min(1000, trials - lo), n_states,
                                    n_options, n_actions, max_turns)
              for lo in range(0, trials, 1000)]
    dev_low, dev_high = (np.hstack(devs) for devs in zip(*blocks))
    worst_low, worst_high = int(np.argmax(dev_low)), int(np.argmax(dev_high))
    return TelescopeReport(trials=trials, max_dev_low=float(dev_low[worst_low]),
                           max_dev_high=float(dev_high[worst_high]), tol=tol,
                           worst_trial_low=worst_low, worst_trial_high=worst_high)


def _telescope_deviations(rng, trials, n_states, n_options, n_actions, max_turns):
    """Per trial of `trials` fresh trials, the largest deviations of the
    kernel's low and high advantages from their closed forms."""
    tt = random_table(rng, trials, n_states, n_options, n_actions, max_turns)
    tables = random_tables(rng, trials * n_states, n_options)
    gamma = rng.uniform(0.2, 1.0, size=trials)
    offset = n_states * np.arange(trials)
    tt.state += offset[:, None]
    tt.final_state += offset     # a random episode always records one
    adv = _advantage_arrays(tt, tables, PPOConfig(lambda_low=1.0, lambda_high=1.0),
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
    # every trial has a turn, and its first turn is a boundary
    dev_low = np.where(tt.mask, np.abs(adv.a_low - closed_low), 0.0)
    dev_high = np.where(sm.is_boundary, np.abs(adv.a_high - closed_high), 0.0)
    return dev_low.max(axis=1), dev_high.max(axis=1)
