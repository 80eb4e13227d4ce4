"""Brute-force ground truth for the estimators and the training losses.

Two exact computation routes are provided and cross-checked against each
other in the tests:

* literal trajectory enumeration (`enumerate_trajectories` and the
  `*_enumerated` functions), which materializes every trajectory with its
  probability and averages over leaves; and
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
from .batch import (HEADS, TurnTable, advantage_arrays, gather_rows,
                    policy_pass, returns_matrix, rollout_batch, score_sums,
                    score_tables)
from .core import KEEP, SWITCH, Trajectory, TurnRecord, returns_to_go
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


@dataclass
class TrajectoryDistribution:
    """Every trajectory of an enumerable environment with its probability."""

    items: list[tuple[Trajectory, float]]

    @property
    def total_probability(self) -> float:
        return float(sum(p for _, p in self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def enumerate_trajectories(env: EnvModel, params: PolicyParams,
                           horizon: int | None = None,
                           cap: float = 1e8) -> TrajectoryDistribution:
    """Depth-first expansion over (q, o-if-switch, a) choices.

    Only meant for small instances; the bound check refuses anything whose
    branching product exceeds `cap`.  Behavior log-probs are recorded on
    every turn, exactly as a rollout would have stored them.
    """
    horizon = env.horizon if horizon is None else horizon
    if branching_bound(params.n_options, params.n_actions, horizon) > cap:
        raise EnumerationCapExceeded(
            f"branching bound exceeds cap ({cap:g}) for horizon {horizon}")
    items: list[tuple[Trajectory, float]] = []
    lsw = log_softmax(params.switch, axis=-1)
    lhi = log_softmax(params.subgoal, axis=-1)
    llo = log_softmax(params.action, axis=-1)

    def expand(t, state, prev, prob, turns):
        if t == horizon:
            items.append((Trajectory(tuple(turns), truncated=True,
                                     final_state=state), prob))
            return
        choices: list[tuple[int, int, float, float | None, float | None]] = []
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
                turn = TurnRecord(
                    t=t, state=state, prev_subgoal=prev if t > 0 else None,
                    q=q, subgoal=o, action=a, reward=r, raw_reward=r, done=done,
                    lp_switch=lp_sw, lp_subgoal=lp_hi,
                    lp_action=float(llo[state, o, a]))
                turns.append(turn)
                if done:
                    items.append((Trajectory(tuple(turns), final_state=nxt), p))
                else:
                    expand(t + 1, nxt, o, p, turns)
                turns.pop()

    for s0, p0 in env.initial_states():
        expand(0, s0, None, p0, [])
    return TrajectoryDistribution(items)


# ---------------------------------------------------------------------------
# Leaf-averaging oracles (small instances; cross-checks for the DP route)
# ---------------------------------------------------------------------------

def objective_enumerated(env, params, gamma, horizon=None, cap=1e8) -> float:
    """J = E[sum_t gamma^t r_t] by direct leaf averaging."""
    total = 0.0
    for traj, p in enumerate_trajectories(env, params, horizon, cap):
        scale, acc = 1.0, 0.0
        for u in traj.turns:
            acc += scale * u.reward
            scale *= gamma
        total += p * acc
    return total


def oracle_gradient_enumerated(env, params, gamma, horizon=None, cap=1e8) -> GradTables:
    """Exact policy gradient as sum_tau P(tau) (sum_t scores) R_tau."""
    return _enumerated_scores(env, params, horizon, cap, gamma)


def score_expectation_enumerated(env, params, horizon=None, cap=1e8) -> GradTables:
    """E[sum_t grad log pi] over the full enumeration (zero in theory)."""
    return _enumerated_scores(env, params, horizon, cap)


def _enumerated_scores(env, params, horizon, cap, gamma=None) -> GradTables:
    """The score kernel over the whole enumeration as one table, each turn
    weighted by its trajectory's P(tau), times R_tau when `gamma` is given."""
    dist = enumerate_trajectories(env, params, horizon, cap)
    tt = TurnTable.from_trajectories([traj for traj, _ in dist],
                                     weights=[p for _, p in dist])
    w = tt.weight if gamma is None else tt.weight * returns_matrix(tt, gamma)[:, 0]
    rows = gather_rows(tt)
    w = w[rows.episode]
    return score_tables(params, policy_pass(rows, params), (w, w, w))


def oracle_values_enumerated(env, params, gamma, horizon=None, cap=1e8):
    """Leaf-averaged conditional values; cross-check for `oracle_values`."""
    n_s, n_o = params.n_states, params.n_options
    num_low = np.zeros((n_s, n_o))
    den_low = np.zeros((n_s, n_o))
    num_high = np.zeros(n_s)
    den_high = np.zeros(n_s)
    for traj, p in enumerate_trajectories(env, params, horizon, cap):
        g = returns_to_go(traj, gamma)
        for t, u in enumerate(traj.turns):
            num_low[u.state, u.subgoal] += p * g[t]
            den_low[u.state, u.subgoal] += p
            if u.q == SWITCH:
                num_high[u.state] += p * g[t]
                den_high[u.state] += p
    v_low = np.divide(num_low, den_low, out=np.zeros_like(num_low), where=den_low > 0)
    v_high = np.divide(num_high, den_high, out=np.zeros_like(num_high), where=den_high > 0)
    num_flat = num_low.sum(axis=1)
    den_flat = den_low.sum(axis=1)
    v_flat = np.divide(num_flat, den_flat, out=np.zeros_like(num_flat), where=den_flat > 0)
    return OracleValues(v_high=v_high, v_low=v_low, v_flat=v_flat,
                        high_defined=den_high > 0, low_defined=den_low > 0,
                        flat_defined=den_flat > 0)


def conditional_switch_values_enumerated(env, params, gamma, horizon=None, cap=1e8):
    """Leaf-averaged E[G_t | t, s, o_prev, q] as {(t, s, o_prev, q): value}."""
    num: dict[tuple, float] = {}
    den: dict[tuple, float] = {}
    for traj, p in enumerate_trajectories(env, params, horizon, cap):
        g = returns_to_go(traj, gamma)
        for t in range(1, traj.n_turns):
            u = traj.turns[t]
            key = (t, u.state, u.prev_subgoal, u.q)
            num[key] = num.get(key, 0.0) + p * g[t]
            den[key] = den.get(key, 0.0) + p
    return {k: num[k] / den[k] for k in num}


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


def solve_dp(env: EnvModel, params: PolicyParams, gamma: float,
             horizon: int | None = None) -> DpSolution:
    """Exhaustive expectation engine organized by shared turn prefixes."""
    horizon = env.horizon if horizon is None else horizon
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
    for t in range(horizon - 1):
        inflow = np.zeros((n_s, n_o))
        for a in range(n_a):
            mass = occ[t] * pi_lo[:, :, a] * (~done[:, a])[:, None]
            np.add.at(inflow, nxt[:, a], mass)
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


def objective(env: EnvModel, params: PolicyParams, gamma: float,
              horizon: int | None = None) -> float:
    """J = E[sum_t gamma^t r_t], exactly."""
    dp = solve_dp(env, params, gamma, horizon)
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


def oracle_values(env: EnvModel, params: PolicyParams, gamma: float,
                  horizon: int | None = None) -> OracleValues:
    """Occupancy-weighted conditional expectations of the return-to-go.

    V_low(s, o) = E[G | s, o]; V_high(s) = E[G | s, q = 1];
    V_flat(s) = E[G | s]; each averaged over every turn occurrence of its
    context, weighted by occupancy.
    """
    return _values_from_dp(solve_dp(env, params, gamma, horizon))


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


def oracle_gradient(env: EnvModel, params: PolicyParams, gamma: float,
                    horizon: int | None = None) -> GradTables:
    """Exact gradient of the discounted objective.

    Computed as sum_t gamma^t E[score_t * G_t] layer by layer; this equals
    the leaf-enumerated sum_tau P (sum_t scores) R_tau because each
    decision's score has zero conditional mean against its prefix return.
    """
    dp = solve_dp(env, params, gamma, horizon)
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


def success_probability(env: EnvModel, params: PolicyParams,
                        horizon: int | None = None) -> float:
    """Exact probability of entering the environment's goal state."""
    goal = getattr(env, "goal_state", None)
    if goal is None:
        raise ValueError("environment does not declare a goal_state")
    dp = solve_dp(env, params, 1.0, horizon)
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

def exact_critic_batch(env: EnvModel, params: PolicyParams, gamma: float,
                       horizon: int | None = None) -> CriticBatch:
    """The regression problem fit_critic would see on the full enumeration.

    One row per visited cell: its occupancy mass, its mean reward and its
    bootstrap couplings normalised by that mass, so fitting against this
    batch is fitting against the entire trajectory distribution at once,
    with zero sampling noise, and its MSE is the per-cell (reducible) error.
    """
    dp = solve_dp(env, params, gamma, horizon)
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
    cfg = GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0, lambda_flat=1.0)
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
# Variance comparison at a fixed turn
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


def variance_report(env: EnvModel, params: PolicyParams, values: OracleValues,
                    t: int, n: int, seed: int, n_boot: int = 1000,
                    max_rounds: int = 50) -> VarianceReport:
    """Sample variances of the two advantage estimators at a fixed turn.

    Rollouts are restricted to episodes that reach turn t; both estimators
    run with mixing weights 1 and the exact baselines, matching the
    variance-ordering claim's assumptions.
    """
    cfg = GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0, lambda_flat=1.0)
    tables = values.tables
    lows: list[np.ndarray] = []
    flats: list[np.ndarray] = []
    got, offset = 0, 0
    for _ in range(max_rounds):
        tt = rollout_batch(env, params, n, seed, episode_offset=offset)
        offset += n
        if t >= tt.max_turns:
            continue
        adv = advantage_arrays(tt, tables, cfg, v_flat=values.v_flat)
        reach = tt.length > t
        lows.append(adv.a_low[reach, t])
        flats.append(adv.a_flat[reach, t])
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
    diff = bl - bf

    def ci(x):
        return (float(np.quantile(x, 0.025)), float(np.quantile(x, 0.975)))

    return VarianceReport(
        t=t, n=n,
        var_low=float(a_low.var(ddof=1)), var_flat=float(a_flat.var(ddof=1)),
        ci_low=ci(bl), ci_flat=ci(bf), ci_diff=ci(diff))


# ---------------------------------------------------------------------------
# Telescoping identities on random trajectories and random tables
# ---------------------------------------------------------------------------

def random_trajectory(rng: np.random.Generator, n_states: int, n_options: int,
                      n_actions: int, max_turns: int = 10,
                      p_truncated: float = 0.3) -> Trajectory:
    """Structurally valid random trajectory with recorded switch log-probs."""
    t_total = int(rng.integers(1, max_turns + 1))
    p_switch = float(rng.uniform(0.1, 0.9))
    turns = []
    prev = None
    for t in range(t_total):
        if t == 0:
            q, lp_sw = SWITCH, None
        else:
            beta = float(np.clip(rng.uniform(0.05, 0.95), 1e-6, 1 - 1e-6))
            q = SWITCH if rng.random() < p_switch else KEEP
            lp_sw = math.log(beta) if q == SWITCH else math.log(1.0 - beta)
        o = int(rng.integers(n_options)) if q == SWITCH else prev
        done = t == t_total - 1 and rng.random() > p_truncated
        turns.append(TurnRecord(
            t=t, state=int(rng.integers(n_states)), prev_subgoal=prev, q=q,
            subgoal=o, action=int(rng.integers(n_actions)),
            reward=float(rng.normal()), raw_reward=0.0, done=done,
            lp_switch=lp_sw))
        prev = o
    truncated = not turns[-1].done
    return Trajectory(tuple(turns), truncated=truncated,
                      final_state=int(rng.integers(n_states)))


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
    """With mixing weights 1, the backward-recursive estimators must equal
    their closed forms on any trajectory and any tables:

    low:  sum_l gamma^(l-t) r_l (within the segment)
          + gamma^(end-t) * V_boundary(end) - v_low(s_t, o_t)
    high: bootstrapped return from the boundary - v_high(s_boundary)
    """
    from .advantages import high_advantages, low_advantages, low_td_residuals
    from .core import segment_boundaries

    rng = np.random.Generator(np.random.PCG64(seed))
    max_low = 0.0
    max_high = 0.0
    for _ in range(trials):
        traj = random_trajectory(rng, n_states, n_options, n_actions, max_turns)
        tables = random_tables(rng, n_states, n_options)
        gamma = float(rng.uniform(0.2, 1.0))
        cfg = GAEConfig(gamma=gamma, lambda_low=1.0, lambda_high=1.0)
        bounds = segment_boundaries(traj)
        deltas = low_td_residuals(traj, tables, gamma)
        a_low = low_advantages(deltas, bounds, cfg)
        _, a_high = high_advantages(traj, tables, cfg)
        g = returns_to_go(traj, gamma)
        t_total = traj.n_turns

        def boundary_value(b: int) -> float:
            if b < t_total:
                return float(tables.v_high[traj.turns[b].state])
            if traj.terminated:
                return 0.0
            return float(tables.v_high[traj.final_state])

        for k in range(len(bounds) - 1):
            start, end = bounds[k], bounds[k + 1]
            for t in range(start, end):
                tail = g[t] - (gamma ** (end - t)) * (g[end] if end < t_total else 0.0)
                closed = (tail + gamma ** (end - t) * boundary_value(end)
                          - tables.v_low[traj.turns[t].state, traj.turns[t].subgoal])
                max_low = max(max_low, abs(a_low[t] - closed))
            boot = 0.0 if traj.terminated else \
                (gamma ** (t_total - start)) * float(tables.v_high[traj.final_state])
            closed_high = g[start] + boot - tables.v_high[traj.turns[start].state]
            max_high = max(max_high, abs(a_high[k] - closed_high))
    return TelescopeReport(trials=trials, max_dev_low=float(max_low),
                           max_dev_high=float(max_high), tol=tol)
