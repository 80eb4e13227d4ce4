"""Central finite-difference checks for every analytic gradient.

The per-turn score gradients and the gradients of the trainer's step (the
clipped surrogate and the exact KL) and of the critic's MSE are verified
against central differences on randomized configurations.  A configuration
passes when |analytic - numeric| <= tol * max(|analytic|, |numeric|, 1),
the usual relative comparison with a unit floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import (Sites, advantage_arrays, critic_batch_from_table, gather_rows,
                    head_sites, record_behavior, site_pass, site_scores)
from .core import TurnTable
from .critic import ValueTables
from .oracle import _fork_map, random_table, random_tables
from .policy import GradTables, PolicyParams
from .training import PPOConfig, _ref_log_probs, _sites, _step

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-6


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))


def _central_differences(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences of `fn()` wrt each entry of the 1-d array `x`,
    bumped and restored in place; a vector-valued `fn` gives its entries on
    the last axis."""
    cols = []
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        hi = fn()
        x[i] = orig - h
        lo = fn()
        x[i] = orig
        cols.append((np.asarray(hi) - lo) / (2 * h))
    return np.moveaxis(np.array(cols), 0, -1)


def fd_params_grad(fn, params: PolicyParams, h: float = DEFAULT_H) -> GradTables:
    """Central differences of a function of the policy logits, bumping and
    restoring each entry of `params.theta` in place.  A vector-valued `fn`
    gives one table per output entry, stacked on a leading axis."""
    return GradTables.wrap(_central_differences(lambda: fn(params), params.theta, h),
                           params)


@dataclass
class GradCheckCase:
    """The draws of one full-loss check.  `c_v` weighs the critic's MSE in
    the checked loss: the trainer fits its critic apart, with no weight."""

    params: PolicyParams
    params_old: PolicyParams
    ref: PolicyParams
    tables: ValueTables
    table: TurnTable
    cfg: PPOConfig
    c_v: float


def random_case(rng: np.random.Generator) -> GradCheckCase:
    n_s = int(rng.integers(3, 6))
    n_o = int(rng.integers(1, 4))
    n_a = int(rng.integers(2, 5))
    params_old = PolicyParams.random(rng, n_s, n_o, n_a, scale=0.8)
    # live params perturbed off the behavior point so the surrogate ratio
    # sits away from its clipping kinks almost surely
    params = PolicyParams.wrap(
        params_old.theta + 0.3 * rng.standard_normal(params_old.theta.size), params_old)
    ref = PolicyParams.random(rng, n_s, n_o, n_a, scale=0.5)
    table = record_behavior(
        random_table(rng, int(rng.integers(2, 5)), n_s, n_o, n_a, max_turns=6),
        params_old)
    tables = random_tables(rng, n_s, n_o)
    gamma = float(rng.uniform(0.5, 1.0))
    c_v = float(rng.uniform(0.2, 2.0))
    cfg = PPOConfig(gamma=gamma, clip_eps=0.2, kl_beta=float(rng.uniform(0.0, 0.1)))
    return GradCheckCase(params, params_old, ref, tables, table, cfg, c_v)


def turn_log_likelihood(sites: Sites, theta: np.ndarray) -> np.ndarray:
    """Each turn's log-likelihood under the logits `theta`: its present
    heads' summed log-probabilities from the stacked site pass, as the flat
    trainer's joint ratio sums them."""
    sp = site_pass(sites, sites.slab(theta))
    return np.bincount(sp.pos, sp.live, minlength=sites.present.shape[1])


def _score_case(rng: np.random.Generator, n_turns: int = 20):
    """The draws of one score check: a policy and the sites of a random
    episode."""
    n_s, n_o, n_a = 4, 3, 3
    params = PolicyParams.random(rng, n_s, n_o, n_a)
    rows = gather_rows(random_table(rng, 1, n_s, n_o, n_a, max_turns=n_turns))
    return params, head_sites(rows, params)


def _check_scores(params: PolicyParams, sites: Sites, h: float) -> float:
    sp = site_pass(sites, sites.slab(params.theta))
    n_rows = sites.present.shape[1]
    analytic = sites.spread(site_scores(sp, np.ones(sp.site.size), group=sp.pos,
                                        n_groups=n_rows))
    numeric = fd_params_grad(lambda p: turn_log_likelihood(sites, p.theta), params, h)
    return rel_err(analytic, numeric.theta)


def check_total_loss_grads(case: GradCheckCase, h: float = DEFAULT_H) -> float:
    """Max relative error of the gradients, wrt the logits and the value
    tables, of -surrogate + c_v * (MSE_low + MSE_high) + kl_beta * KL: the
    trainer's step over every turn, and the critic batch's MSE with targets
    from a frozen copy of the tables (the regression's stop-gradient).

    Each bump re-evaluates only the part of the loss it changes, the other
    part keeping its value: a logit bump the actor part on the bumped slab
    (the loss reads no logit outside it, so every other logit's difference
    is 0), a table bump the critic part."""
    cfg, tables = case.cfg, case.tables
    adv = advantage_arrays(case.table, tables, cfg)
    frozen = tables.copy()
    sites = _sites(gather_rows(case.table, adv), case.params, False,
                   _ref_log_probs(case.ref))
    critic = critic_batch_from_table(case.table, cfg.gamma, tables.n_states,
                                     tables.n_options)
    every = np.arange(sites.layout.present.shape[1])
    slab = sites.layout.slab(case.params.theta)

    def value(surrogate, kl, mse_lo, mse_hi):
        return -surrogate + case.c_v * (mse_lo + mse_hi) + cfg.kl_beta * kl

    surrogate, g_actor, kl, g_kl = _step(sites, every, slab, cfg.clip_eps)
    mse_lo, mse_hi, g_v = critic.mse_and_grad(tables, frozen)

    def f_slab():
        surrogate, _, kl, _ = _step(sites, every, slab, cfg.clip_eps, grad=False)
        return value(surrogate, kl, mse_lo, mse_hi)

    def f_tables():
        return value(surrogate, kl, *critic.mse_and_grad(tables, frozen)[:2])

    num_v = [_central_differences(f_tables, arr, h)
             for arr in (tables.v_high, tables.v_low.reshape(-1))]
    errs = [rel_err((cfg.kl_beta * g_kl - g_actor)[:-1],
                    _central_differences(f_slab, slab[:-1], h)),
            rel_err(case.c_v * g_v, np.concatenate(num_v))]
    return float(np.max(errs))   # a NaN error stays NaN


def gradcheck_report(n_configs: int = 100, seed: int = 0,
                     h: float = DEFAULT_H, tol: float = DEFAULT_TOL) -> dict:
    """Run `n_configs` randomized cases; even ones score checks, odd ones
    full-loss checks.  Names the first configuration with the largest error
    and its kind; a NaN error is the largest, and fails the gate.

    Every case is drawn here, in order, from one stream seeded by `seed`;
    the checks then run on every CPU the process may use
    (`oracle._fork_map`, the cases reaching the workers through the fork),
    so the report equals a one-CPU run's."""
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = [_score_case(rng) if i % 2 == 0 else random_case(rng)
             for i in range(n_configs)]

    def check(i):
        if i % 2 == 0:
            return _check_scores(*cases[i], h)
        return check_total_loss_grads(cases[i], h)

    errs = np.array(_fork_map(check, range(n_configs)))
    worst = int(np.argmax(errs))   # the first NaN, else the first largest
    return {"configs": n_configs, "max_rel_err": float(errs[worst]), "tol": tol,
            "worst_config": worst, "worst_kind": ("score", "loss")[worst % 2]}
