"""Central finite-difference checks for every analytic gradient.

The per-turn score gradients, the clipped-surrogate actor gradient, the
exact-KL gradient and the critic gradient are all verified against central
differences on randomized configurations.  A configuration passes when
|analytic - numeric| <= tol * max(|analytic|, |numeric|, 1), the usual
relative comparison with a unit floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .batch import (TurnRows, TurnTable, advantage_arrays, gather_rows,
                    policy_pass, record_behavior, score_tables)
from .critic import ValueTables
from .oracle import random_table, random_tables
from .policy import GradTables, PolicyParams, split_tables
from .training import PPOConfig, total_loss

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-6


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))


def fd_params_grad(fn, params: PolicyParams, h: float = DEFAULT_H) -> GradTables:
    """Central differences of a function of the policy logits, bumping and
    restoring each entry of the live tables in place.  A vector-valued `fn`
    gives one table per output entry, stacked on a leading axis."""
    cols = []
    for arr in (params.switch, params.subgoal, params.action):
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + h
            hi = fn(params)
            arr[i] = orig - h
            lo = fn(params)
            arr[i] = orig
            cols.append((np.asarray(hi) - lo) / (2 * h))
    return GradTables(*split_tables(np.moveaxis(np.array(cols), 0, -1), params))


def fd_tables_grad(fn, tables: ValueTables, h: float = DEFAULT_H) -> ValueTables:
    """Central differences of a scalar function of the value tables."""
    out = ValueTables.zeros(tables.n_states, tables.n_options)
    for arr, g in ((tables.v_high, out.v_high), (tables.v_low, out.v_low)):
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn(tables)
            flat[i] = orig - h
            lo = fn(tables)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
    return out


@dataclass
class GradCheckCase:
    params: PolicyParams
    params_old: PolicyParams
    ref: PolicyParams
    tables: ValueTables
    table: TurnTable
    cfg: PPOConfig


def random_case(rng: np.random.Generator) -> GradCheckCase:
    n_s = int(rng.integers(3, 6))
    n_o = int(rng.integers(1, 4))
    n_a = int(rng.integers(2, 5))
    params_old = PolicyParams.random(rng, n_s, n_o, n_a, scale=0.8)
    # live params perturbed off the behavior point so the surrogate ratio
    # sits away from its clipping kinks almost surely
    params = PolicyParams(
        params_old.switch + 0.3 * rng.standard_normal(params_old.switch.shape),
        params_old.subgoal + 0.3 * rng.standard_normal(params_old.subgoal.shape),
        params_old.action + 0.3 * rng.standard_normal(params_old.action.shape))
    ref = PolicyParams.random(rng, n_s, n_o, n_a, scale=0.5)
    table = record_behavior(
        random_table(rng, int(rng.integers(2, 5)), n_s, n_o, n_a, max_turns=6),
        params_old)
    tables = random_tables(rng, n_s, n_o)
    cfg = PPOConfig(gamma=float(rng.uniform(0.5, 1.0)), clip_eps=0.2,
                    c_v=float(rng.uniform(0.2, 2.0)),
                    kl_beta=float(rng.uniform(0.0, 0.1)))
    return GradCheckCase(params, params_old, ref, tables, table, cfg)


def turn_log_likelihood(rows: TurnRows, params: PolicyParams) -> np.ndarray:
    """Each turn's log-likelihood under `params`: its present heads' summed
    log-probabilities from the policy pass."""
    out = np.zeros(len(rows))
    for h in policy_pass(rows, params):
        out[h.at] += h.live()
    return out


def check_log_prob_grads(rng: np.random.Generator, n_turns: int = 20,
                         h: float = DEFAULT_H) -> float:
    """Max relative error, over the turns of a random episode, of the
    score kernel's per-turn scores vs central differences of the per-turn
    log-likelihood (one bump evaluates every turn)."""
    n_s, n_o, n_a = 4, 3, 3
    params = PolicyParams.random(rng, n_s, n_o, n_a)
    rows = gather_rows(random_table(rng, 1, n_s, n_o, n_a, max_turns=n_turns))
    one = np.ones(len(rows))
    analytic = score_tables(params, policy_pass(rows, params), (one,) * 3,
                            group=np.arange(len(rows)), n_groups=len(rows))
    numeric = fd_params_grad(lambda p: turn_log_likelihood(rows, p), params, h)
    return rel_err(analytic.as_vector(), numeric.as_vector())


def check_total_loss_grads(case: GradCheckCase, h: float = DEFAULT_H) -> float:
    """Max relative error of the combined-loss gradients (policy and critic)."""
    adv = advantage_arrays(case.table, case.tables,
                           replace(case.cfg.gae(), whiten=False))
    frozen = case.tables.copy()
    value, g_theta, g_tab = total_loss(case.params, case.ref, case.tables,
                                       case.table, adv, case.cfg,
                                       target_tables=frozen)

    def f_theta(p):
        v, _, _ = total_loss(p, case.ref, case.tables, case.table, adv,
                             case.cfg, target_tables=frozen)
        return v

    def f_tables(tb):
        v, _, _ = total_loss(case.params, case.ref, tb, case.table, adv,
                             case.cfg, target_tables=frozen)
        return v

    num_theta = fd_params_grad(f_theta, case.params, h)
    num_tab = fd_tables_grad(f_tables, case.tables, h)
    worst = rel_err(g_theta.as_vector(), num_theta.as_vector())
    worst = max(worst, rel_err(g_tab.v_high, num_tab.v_high))
    worst = max(worst, rel_err(g_tab.v_low, num_tab.v_low))
    return worst


def gradcheck_report(n_configs: int = 100, seed: int = 0,
                     h: float = DEFAULT_H, tol: float = DEFAULT_TOL) -> dict:
    """Run `n_configs` randomized cases; half score checks, half full-loss."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for i in range(n_configs):
        if i % 2 == 0:
            worst = max(worst, check_log_prob_grads(rng, h=h))
        else:
            worst = max(worst, check_total_loss_grads(random_case(rng), h=h))
    return {"configs": n_configs, "max_rel_err": worst, "tol": tol}
