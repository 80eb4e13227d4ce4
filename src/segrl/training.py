"""PPO-style training loop over the three-head tabular policy.

Each iteration freezes the behavior policy, collects a batch of episodes,
fits the two-head critic, computes the segment-aware advantages once, and
then runs several epochs of clipped-surrogate minibatch ascent with an
exact-KL penalty toward the reference (initial) policy.  A flat baseline
trainer shares the loop but fits a state-only critic (tables without
options), runs only `flat_advantage_arrays` and takes one joint ratio a turn.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .advantages import GAEConfig, whiten
from .batch import (BatchStats, Sites, TurnRows, _advantage_arrays,
                    _critic_batch, batch_stats, cell_rows, critic_batch_from_table,
                    flat_advantage_arrays, flat_batch_from_table, gather_rows,
                    head_sites, rollout_batch, site_pass, site_scores)
from .core import TurnTable
from .critic import CriticBatch, ValueTables, fit_critic, unstacked
from .envs import EnvModel
from .policy import TABLES, GradTables, PolicyParams, log_softmax
from .rng import SEED_BOUND, derive_seed

METRICS_HEADER = ("iter,mean_return,success,mean_segments,mean_seg_len,"
                  "switch_rate,actor_loss,critic_loss,kl")

_EVAL_STREAM = 1_000_003
_TRAIN_STREAM = 17


class TrainingDiverged(RuntimeError):
    """A loss or parameter became non-finite during training."""


# each hyperparameter's range: PPOConfig checks its fields against it, and the
# config reader its values (`config.RANGES`)
RANGES = {
    "gamma": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "lambda_low": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "lambda_high": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "lambda_flat": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "clip_eps": (lambda v: v > 0.0, "> 0"),
    "c_v": (lambda v: v >= 0.0, ">= 0"),
    "kl_beta": (lambda v: v >= 0.0, ">= 0"),
    "c_keep": (lambda v: v >= 0.0, ">= 0"),
    "lr_actor": (lambda v: v >= 0.0, ">= 0"),
    # a critic step scales a cell's error by 1 - 2 * lr_critic
    "lr_critic": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "epochs": (lambda v: v >= 1, ">= 1"),
    "minibatch": (lambda v: v >= 1, ">= 1"),
    "iterations": (lambda v: v >= 1, ">= 1"),
    "episodes_per_iter": (lambda v: v >= 1, ">= 1"),
    "eval_episodes": (lambda v: v >= 1, ">= 1"),
    "seed": (lambda v: 0 <= v < SEED_BOUND, "in [0, 2**64)"),
}
# the fields that count or seed: Python or numpy integers, never bool
_INTEGERS = ("epochs", "minibatch", "iterations", "episodes_per_iter", "eval_episodes",
             "seed")


@dataclass
class PPOConfig:
    """Hyperparameters of the training loop; learning rates are
    tabular-scale."""

    gamma: float = 0.99
    lambda_low: float = 0.95
    lambda_high: float = 0.95
    lambda_flat: float = 0.95
    clip_eps: float = 0.2
    c_v: float = 1.0
    kl_beta: float = 0.01
    c_keep: float = 0.3
    lr_actor: float = 0.05
    lr_critic: float = 0.1
    epochs: int = 4
    minibatch: int = 256
    iterations: int = 300
    episodes_per_iter: int = 64
    eval_episodes: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, (ok, desc) in RANGES.items():
            v = getattr(self, name)
            if name in _INTEGERS and (isinstance(v, bool)
                                      or not isinstance(v, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if not ok(v):
                raise ValueError(f"{name} must be {desc}, got {v}")

    def gae(self) -> GAEConfig:
        return GAEConfig(gamma=self.gamma, lambda_low=self.lambda_low,
                         lambda_high=self.lambda_high, lambda_flat=self.lambda_flat)


@dataclass
class TrainState:
    params: PolicyParams
    params_ref: PolicyParams
    tables: ValueTables
    iteration: int = 0


@dataclass
class MetricsRow:
    iteration: int
    mean_return: float
    success: float
    mean_segments: float
    mean_seg_len: float
    switch_rate: float
    actor_loss: float
    critic_loss: float
    kl: float

    def as_csv(self) -> str:
        return (f"{self.iteration},{self.mean_return:.6g},{self.success:.6g},"
                f"{self.mean_segments:.6g},{self.mean_seg_len:.6g},"
                f"{self.switch_rate:.6g},{self.actor_loss:.6g},"
                f"{self.critic_loss:.6g},{self.kl:.6g}")


@dataclass
class TrainResult:
    params: PolicyParams
    tables: ValueTables
    metrics: list[MetricsRow]

    def metrics_csv(self) -> str:
        buf = io.StringIO()
        buf.write(METRICS_HEADER + "\n")
        for row in self.metrics:
            buf.write(row.as_csv() + "\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# The minibatch step: the stacked site pass over the minibatch's sites, then
# the surrogate and the KL gradients with one bincount each
# ---------------------------------------------------------------------------

def _ref_log_probs(ref: PolicyParams) -> np.ndarray:
    """Log-softmax of every cell of the reference policy, laid out as its
    `theta`."""
    return np.concatenate([log_softmax(cell_rows(getattr(ref, name)), axis=1).ravel()
                           for name in TABLES])


def _clipped_surrogate(ratio: np.ndarray, adv: np.ndarray, eps: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row surrogate min(r*A, clip(r)*A) and the active-branch weight.

    The gradient flows through the unclipped branch whenever it attains the
    min (ties included), so at ratio 1 the clipped and unclipped gradients
    coincide.
    """
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    raw = ratio * adv
    alt = clipped * adv
    take_raw = raw <= alt
    value = np.where(take_raw, raw, alt)
    grad_w = np.where(take_raw, raw, 0.0)
    return value, grad_w


@dataclass
class _Sites:
    """A batch's sites (`batch.head_sites`) with what the trainer weighs
    them by and the reference log-probs, in the layout's block.  The
    hierarchical trainer's `adv` and `beh` (behavior log-prob) are per site,
    and `scored` drops the switch sites the parser flagged malformed from its
    surrogate; the flat trainer's are per row (its advantage and joint
    behavior log-prob), and `scored` is None."""

    layout: Sites
    ref: np.ndarray               # (max width, 3n)
    adv: np.ndarray
    beh: np.ndarray
    scored: np.ndarray | None     # (3n,) bool


def _whiten_sites(sites: _Sites) -> None:
    """Whiten the advantages in place, each head's over its present sites
    (the flat trainer's one row over every turn)."""
    for adv, present in zip(sites.adv.reshape(-1, sites.layout.present.shape[1]),
                            sites.layout.present):
        adv[present] = whiten(adv[present])


def _sites(rows: TurnRows, params: PolicyParams, flat: bool,
           ref_lp: np.ndarray) -> _Sites:
    layout = head_sites(rows, params)
    ref = np.take(layout.slab(ref_lp), layout.block)
    present = layout.present
    if flat:
        beh = rows.lp_action.copy()
        beh[present[1]] += rows.lp_subgoal[present[1]]
        beh[present[2]] += rows.lp_switch[present[2]]
        return _Sites(layout, ref, rows.adv_flat, beh, None)
    scored = present.copy()
    scored[2] &= rows.format_ok
    return _Sites(layout, ref,
                  np.concatenate([rows.adv_low, rows.adv_high, rows.adv_switch]),
                  np.concatenate([rows.lp_action, rows.lp_subgoal, rows.lp_switch]),
                  scored.ravel())


def _step(sites: _Sites, idx: np.ndarray, slab: np.ndarray, eps: float,
          grad: bool = True):
    """The minibatch of turn rows `idx`, in that order, under the live
    logits `slab` (`Sites.slab` of the layout): the clipped surrogate summed
    over its sites and the exact KL(live || ref) averaged over its rows, each
    with its gradient wrt `slab` (None without `grad`).  The log-probs come
    from `batch.site_pass` and the surrogate gradient from
    `batch.site_scores`.

    The flat surrogate takes one joint ratio per row, its score the sum of
    the present heads' scores; the action head's weighs with the explicitly
    normalized softmax, as a last-bit change would re-roll every later
    batch."""
    n = len(idx)
    if n == 0:
        zeros = np.zeros_like(slab) if grad else None
        return 0.0, zeros, 0.0, zeros
    sp = site_pass(sites.layout, slab, idx, soft=sites.scored is None)
    diff = sp.lp - np.take(sites.ref, sp.site, axis=1)
    # a pad row adds p * diff = 0 * (finite) to its column's KL
    kl = (sp.p * diff).sum(axis=0)
    kl_sum, probs = 0.0, None
    for lo, hi in sp.bounds:
        kl_sum += float(kl[lo:hi].sum())
    if sites.scored is None:
        joint = np.bincount(sp.pos, sp.live, minlength=n)  # action, subgoal, switch
        value, w = _clipped_surrogate(np.exp(joint - sites.beh[idx]),
                                      sites.adv[idx], eps)
        surrogate, w = float(value.sum()), w[sp.pos]
        probs = np.concatenate([sp.soft, sp.p[:, sp.soft.shape[1]:]], axis=1)
    else:
        value, w = _clipped_surrogate(np.exp(sp.live - sites.beh[sp.site]),
                                      sites.adv[sp.site], eps)
        scored = sites.scored[sp.site]
        surrogate = 0.0
        for lo, hi in sp.bounds:
            surrogate += float(value[lo:hi][scored[lo:hi]].sum())
        w = np.where(scored, w, 0.0)
    if not grad:
        return surrogate, None, kl_sum / n, None
    g_kl = np.bincount(sp.ent.ravel(), (sp.p * (diff - kl)).ravel(), minlength=slab.size)
    g_kl *= 1.0 / n
    return surrogate, site_scores(sp, w, probs), kl_sum / n, g_kl


@dataclass
class LossPlan:
    """What `total_loss` reads that depends on neither the logits' nor the
    tables' values: the batch's sites (with the reference block) and its
    critic batch.  The actor part is a function of the slab
    (`sites.layout.slab`), the critic part of the tables, and `value` adds
    the two."""

    sites: _Sites
    critic: CriticBatch
    cfg: PPOConfig

    def actor(self, slab: np.ndarray, grad: bool = True):
        """(surrogate, its gradient, KL, its gradient) over every row, the
        gradients wrt `slab` (None without `grad`)."""
        return _step(self.sites, np.arange(self.sites.layout.present.shape[1]), slab,
                     self.cfg.clip_eps, grad)

    def value(self, surrogate: float, kl: float, mse_lo: float, mse_hi: float) -> float:
        """The objective from its actor part (surrogate, KL) and its critic
        part (the two heads' MSE)."""
        cfg = self.cfg
        return -surrogate + cfg.c_v * (mse_lo + mse_hi) + cfg.kl_beta * kl

    def loss(self, params: PolicyParams, tables: ValueTables,
             target_tables: ValueTables | None = None
             ) -> tuple[float, GradTables, ValueTables]:
        """`total_loss` at the logits of `params` and at `tables`."""
        layout = self.sites.layout
        surrogate, g_actor, kl, g_kl = self.actor(layout.slab(params.theta))
        mse_lo, mse_hi, g_v = self.critic.mse_and_grad(tables, target_tables)
        g_theta = layout.spread(self.cfg.kl_beta * g_kl - g_actor)
        return (self.value(surrogate, kl, mse_lo, mse_hi), GradTables.wrap(g_theta, params),
                unstacked(self.cfg.c_v * g_v, tables.n_states))


def loss_plan(params: PolicyParams, ref: PolicyParams, tables: ValueTables,
              tt: TurnTable, adv, cfg: PPOConfig) -> LossPlan:
    """The plan of `total_loss` over `tt` with the advantages `adv`, for
    policies shaped as `params` and tables shaped as `tables`."""
    sites = _sites(gather_rows(tt, adv), params, False, _ref_log_probs(ref))
    return LossPlan(sites, critic_batch_from_table(tt, cfg.gamma, tables.n_states,
                                                   tables.n_options), cfg)


def total_loss(params: PolicyParams, ref: PolicyParams, tables: ValueTables,
               tt: TurnTable, adv, cfg: PPOConfig,
               target_tables: ValueTables | None = None
               ) -> tuple[float, GradTables, ValueTables]:
    """Combined objective -L_actor + c_v * L_critic + kl_beta * KL.

    Returns the scalar, its gradient wrt the policy logits and the gradient
    wrt the value tables.  Critic targets are computed from `target_tables`
    (default: `tables`) and treated as constants, which is the stop-gradient
    semantics of the bootstrapped regression.  Used by the finite-difference
    checks and diagnostics; `train` takes the equivalent staged steps.
    """
    return loss_plan(params, ref, tables, tt, adv, cfg).loss(params, tables, target_tables)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(params: PolicyParams, env: EnvModel, episodes: int,
             mode: str = "greedy", seed: int = 0) -> BatchStats:
    """Roll out without reward shaping; success is the raw goal outcome.

    Greedy mode is deterministic (argmax, ties to the lowest index), so
    repeated calls return identical results.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError("mode must be 'greedy' or 'sample'")
    tt = rollout_batch(env, params, episodes, derive_seed(seed, _EVAL_STREAM),
                       greedy=(mode == "greedy"))
    return batch_stats(tt, goal_state=getattr(env, "goal_state", None))


# ---------------------------------------------------------------------------
# Training drivers
# ---------------------------------------------------------------------------

def _check_finite(name: str, it: int, *values) -> None:
    """Raise TrainingDiverged unless every value or array is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise TrainingDiverged(f"non-finite {name} at iteration {it}")


def _minibatches(n_rows: int, size: int, rng: np.random.Generator):
    order = rng.permutation(n_rows)
    for lo in range(0, n_rows, size):
        yield order[lo:lo + size]


def _policy_fingerprint(theta: np.ndarray) -> int:
    """64-bit digest of the parameter bytes, a policy's `theta`.

    Rollout streams are keyed by (seed, fingerprint): identical policies
    reproduce identical batches (so zero learning rates are an exact no-op)
    while any parameter update refreshes the exploration stream.
    """
    import hashlib
    return int.from_bytes(hashlib.blake2b(theta.tobytes(), digest_size=8).digest(),
                          "little")


def train(cfg: PPOConfig, env: EnvModel, init_params: PolicyParams | None = None,
          n_options: int = 2, on_iteration=None) -> TrainResult:
    """Full hierarchical training loop; deterministic under a fixed seed."""
    return _run_loop(cfg, env, init_params, n_options, on_iteration, flat=False)


def train_flat_baseline(cfg: PPOConfig, env: EnvModel,
                        init_params: PolicyParams | None = None,
                        n_options: int = 2, on_iteration=None) -> TrainResult:
    """Comparison loop: state-only critic, whole-episode GAE, joint ratio."""
    return _run_loop(cfg, env, init_params, n_options, on_iteration, flat=True)


def _run_loop(cfg: PPOConfig, env: EnvModel, init_params: PolicyParams | None,
              n_options: int, on_iteration, flat: bool) -> TrainResult:
    # a copy, as the steps update its `theta` in place
    params = (init_params.copy() if init_params is not None
              else PolicyParams.uniform(env.n_states, n_options, env.n_actions))
    theta = params.theta
    # the flat baseline's v_flat is the high head of tables without options
    state = TrainState(params=params, params_ref=params.copy(),
                       tables=ValueTables.zeros(env.n_states,
                                                0 if flat else params.n_options))
    ref_lp = _ref_log_probs(state.params_ref)  # the reference stays frozen
    rollout_seed = derive_seed(cfg.seed, _TRAIN_STREAM)
    metrics: list[MetricsRow] = []
    goal = getattr(env, "goal_state", None)
    for it in range(cfg.iterations):
        state.iteration = it
        it_seed = derive_seed(rollout_seed, _policy_fingerprint(theta))
        tt = rollout_batch(env, state.params, cfg.episodes_per_iter,
                           it_seed, c_keep=cfg.c_keep)
        if flat:
            cb = flat_batch_from_table(tt, cfg.gamma, env.n_states)
        else:
            # the critic batch and the advantages' TD residuals read one set of rows
            cb, built = _critic_batch(tt, cfg.gamma, env.n_states,
                                      state.tables.n_options)
        if cfg.lr_critic > 0:
            state.tables, rep = fit_critic(state.tables, cb, cfg.lr_critic,
                                           cfg.epochs)
            critic_mse = rep.final_mse
        else:
            critic_mse = sum(cb.batch_mse(state.tables))
        _check_finite("critic", it, critic_mse, state.tables.v_high,
                      state.tables.v_low)
        if flat:
            rows = gather_rows(tt)
            rows.adv_flat = flat_advantage_arrays(tt, state.tables.v_high,
                                                  cfg.gae())[tt.mask]
        else:
            rows = gather_rows(tt, _advantage_arrays(tt, state.tables, cfg.gae(),
                                                     cfg.gamma, built=built))
        # the steps read and update the slab of the entries the batch's
        # sites touch, written back once
        sites = _sites(rows, state.params, flat, ref_lp)
        _whiten_sites(sites)
        slab = sites.layout.slab(theta)

        surrogate_sum, turn_count = 0.0, 0
        shuffle = np.random.Generator(np.random.PCG64(
            derive_seed(cfg.seed, 23, it)))
        for _ in range(cfg.epochs):
            for idx in _minibatches(len(rows), cfg.minibatch, shuffle):
                value, g_actor, kl, g_kl = _step(sites, idx, slab, cfg.clip_eps)
                _check_finite("actor surrogate", it, value, kl)
                # the surrogate is a sum over minibatch turns while the KL is
                # a per-turn mean; scale the KL gradient to the same footing
                slab += cfg.lr_actor * (g_actor - cfg.kl_beta * len(idx) * g_kl)
                surrogate_sum += value
                turn_count += len(idx)
        # as a step over the whole vector would, turn each -0.0 logit outside
        # the slab into +0.0: the rollout streams hash the logits' bytes (an
        # episode has at least one turn, so a step ran)
        theta += 0.0
        theta[sites.layout.cells] = slab[:-1]
        _check_finite("policy parameters", it, theta)

        kl_now = _step(sites, np.arange(len(rows)), slab, cfg.clip_eps,
                       grad=False)[2]
        st = batch_stats(tt, goal_state=goal)
        greedy = evaluate(state.params, env, cfg.eval_episodes, "greedy",
                          seed=derive_seed(cfg.seed, 31, it))
        row = MetricsRow(
            iteration=it,
            mean_return=st.mean_return,
            success=greedy.success_rate,
            mean_segments=st.mean_segments,
            mean_seg_len=st.mean_seg_len,
            switch_rate=st.switch_rate,
            actor_loss=-surrogate_sum / max(turn_count, 1),
            critic_loss=critic_mse,
            kl=kl_now,
        )
        metrics.append(row)
        if on_iteration is not None:
            on_iteration(state, row)
    return TrainResult(params=state.params, tables=state.tables, metrics=metrics)
