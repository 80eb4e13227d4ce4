"""PPO-style training loop over the three-head tabular policy.

Each iteration freezes the behavior policy, collects a batch of episodes,
fits the two-head critic, computes the segment-aware advantages once, and
then runs several epochs of clipped-surrogate minibatch ascent with an
exact-KL penalty toward the reference (initial) policy.  A flat baseline
trainer shares the loop but uses a state-only critic, whole-episode GAE and
a single joint ratio per turn.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .advantages import GAEConfig
from .batch import (TurnTable, advantage_arrays, batch_stats,
                    critic_batch_from_table, flat_batch_from_table,
                    rollout_batch, segment_masks)
from .core import SWITCH
from .critic import ValueTables, fit_critic, fit_flat_critic, unstacked
from .envs import EnvModel
from .policy import GradTables, PolicyParams, log_softmax, softmax
from .rng import derive_seed

METRICS_HEADER = ("iter,mean_return,success,mean_segments,mean_seg_len,"
                  "switch_rate,actor_loss,critic_loss,kl")

_EVAL_STREAM = 1_000_003
_TRAIN_STREAM = 17


class TrainingDiverged(RuntimeError):
    """A loss or parameter became non-finite during training."""


@dataclass
class PPOConfig:
    """Hyperparameters of the training loop.

    Learning rates are tabular-scale.  `whiten` turns per-level advantage
    normalization on (training default); verification code paths construct
    their own GAEConfig with whitening off.
    """

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
    whiten: bool = True

    def __post_init__(self):
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be > 0")
        for name in ("c_v", "kl_beta", "c_keep", "lr_actor", "lr_critic"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("epochs", "minibatch", "iterations",
                     "episodes_per_iter", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # GAEConfig validates gamma and the lambdas
        self.gae()

    def gae(self, whiten: bool | None = None) -> GAEConfig:
        on = self.whiten if whiten is None else whiten
        return GAEConfig(gamma=self.gamma, lambda_low=self.lambda_low,
                         lambda_high=self.lambda_high, lambda_flat=self.lambda_flat,
                         whiten="per-level" if on else "off")


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
    flat_values: np.ndarray | None = None

    def metrics_csv(self) -> str:
        buf = io.StringIO()
        buf.write(METRICS_HEADER + "\n")
        for row in self.metrics:
            buf.write(row.as_csv() + "\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Flattened turn rows: the minibatch unit
# ---------------------------------------------------------------------------

@dataclass
class TurnRows:
    """Per-turn arrays gathered from a TurnTable plus frozen advantages."""

    state: np.ndarray
    prev_subgoal: np.ndarray
    q: np.ndarray
    subgoal: np.ndarray
    action: np.ndarray
    t: np.ndarray
    lp_switch: np.ndarray
    lp_subgoal: np.ndarray
    lp_action: np.ndarray
    format_ok: np.ndarray
    adv_low: np.ndarray
    adv_high: np.ndarray
    adv_switch: np.ndarray
    adv_flat: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.state)

    def take(self, idx: np.ndarray) -> "TurnRows":
        return TurnRows(*[None if v is None else v[idx]
                          for v in self.__dict__.values()])


def gather_rows(tt: TurnTable, adv) -> TurnRows:
    eps, ts = np.nonzero(tt.mask)
    return TurnRows(
        state=tt.state[eps, ts],
        prev_subgoal=tt.prev_subgoal[eps, ts],
        q=tt.q[eps, ts],
        subgoal=tt.subgoal[eps, ts],
        action=tt.action[eps, ts],
        t=ts,
        lp_switch=tt.lp_switch[eps, ts],
        lp_subgoal=tt.lp_subgoal[eps, ts],
        lp_action=tt.lp_action[eps, ts],
        format_ok=tt.format_ok[eps, ts],
        adv_low=adv.a_low[eps, ts],
        adv_high=adv.a_high[eps, ts],
        adv_switch=adv.a_switch[eps, ts],
        adv_flat=None if adv.a_flat is None else adv.a_flat[eps, ts],
    )


# ---------------------------------------------------------------------------
# Ratios, surrogates, KL
# ---------------------------------------------------------------------------

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
    grad_w = np.where(take_raw, ratio * adv, 0.0)
    return value, grad_w


def _scatter_head(grad_table: np.ndarray, rows_idx: tuple, chosen: np.ndarray,
                  probs: np.ndarray, weight: np.ndarray) -> None:
    """Accumulate weight * (e_chosen - probs) into softmax rows."""
    np.add.at(grad_table, rows_idx + (chosen,), weight)
    np.add.at(grad_table, rows_idx, -weight[:, None] * probs)


def actor_loss(rows: TurnRows, params: PolicyParams, eps: float
               ) -> tuple[float, GradTables]:
    """Summed clipped surrogate over the three levels, with its gradient.

    The subgoal surrogate is gated on switch turns; the switch surrogate
    skips the forced first turn and any turn flagged malformed by the
    parser.
    """
    grads = GradTables.zeros_like(params)
    total = 0.0
    # action level
    logits = params.action[rows.state, rows.subgoal]
    lp = log_softmax(logits, axis=1)
    live = lp[np.arange(len(rows)), rows.action]
    ratio = np.exp(live - rows.lp_action)
    value, w = _clipped_surrogate(ratio, rows.adv_low, eps)
    total += float(value.sum())
    _scatter_head(grads.action, (rows.state, rows.subgoal), rows.action,
                  np.exp(lp), w)
    # subgoal level at switch turns
    hi = rows.q == SWITCH
    if hi.any():
        logits = params.subgoal[rows.state[hi]]
        lp = log_softmax(logits, axis=1)
        live = lp[np.arange(int(hi.sum())), rows.subgoal[hi]]
        ratio = np.exp(live - rows.lp_subgoal[hi])
        value, w = _clipped_surrogate(ratio, rows.adv_high[hi], eps)
        total += float(value.sum())
        _scatter_head(grads.subgoal, (rows.state[hi],), rows.subgoal[hi],
                      np.exp(lp), w)
    # switch level, t >= 1, well-formed turns only
    sw = (rows.t > 0) & rows.format_ok
    if sw.any():
        logits = params.switch[rows.state[sw], rows.prev_subgoal[sw]]
        lp = log_softmax(logits, axis=1)
        live = lp[np.arange(int(sw.sum())), rows.q[sw]]
        ratio = np.exp(live - rows.lp_switch[sw])
        value, w = _clipped_surrogate(ratio, rows.adv_switch[sw], eps)
        total += float(value.sum())
        _scatter_head(grads.switch, (rows.state[sw], rows.prev_subgoal[sw]),
                      rows.q[sw], np.exp(lp), w)
    return total, grads


def flat_actor_loss(rows: TurnRows, params: PolicyParams, eps: float
                    ) -> tuple[float, GradTables]:
    """Single-level surrogate on the joint turn ratio, flat advantages.

    The ratio multiplies the product of present-head likelihoods; its score
    is the sum of the per-head scores, all weighted by the same advantage.
    """
    grads = GradTables.zeros_like(params)
    n = len(rows)
    lp_lo = log_softmax(params.action[rows.state, rows.subgoal], axis=1)
    live = lp_lo[np.arange(n), rows.action]
    beh = rows.lp_action.copy()
    hi = rows.q == SWITCH
    lp_hi = log_softmax(params.subgoal[rows.state[hi]], axis=1)
    live_hi = np.zeros(n)
    live_hi[hi] = lp_hi[np.arange(int(hi.sum())), rows.subgoal[hi]]
    live = live + live_hi
    beh[hi] += rows.lp_subgoal[hi]
    sw = rows.t > 0
    lp_sw = log_softmax(params.switch[rows.state[sw], rows.prev_subgoal[sw]], axis=1)
    live_sw = np.zeros(n)
    live_sw[sw] = lp_sw[np.arange(int(sw.sum())), rows.q[sw]]
    live = live + live_sw
    beh[sw] += rows.lp_switch[sw]
    ratio = np.exp(live - beh)
    value, w = _clipped_surrogate(ratio, rows.adv_flat, eps)
    _scatter_head(grads.action, (rows.state, rows.subgoal), rows.action,
                  softmax(params.action[rows.state, rows.subgoal], axis=1), w)
    if hi.any():
        _scatter_head(grads.subgoal, (rows.state[hi],), rows.subgoal[hi],
                      np.exp(lp_hi), w[hi])
    if sw.any():
        _scatter_head(grads.switch, (rows.state[sw], rows.prev_subgoal[sw]),
                      rows.q[sw], np.exp(lp_sw), w[sw])
    return float(value.sum()), grads


def _kl_rows(live_logits: np.ndarray, ref_logits: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row KL(live || ref) and its gradient wrt the live logits."""
    lp = log_softmax(live_logits, axis=1)
    lq = log_softmax(ref_logits, axis=1)
    p = np.exp(lp)
    diff = lp - lq
    kl = np.sum(p * diff, axis=1)
    grad = p * (diff - kl[:, None])
    return kl, grad


def kl_penalty(rows: TurnRows, params: PolicyParams, ref: PolicyParams
               ) -> tuple[float, GradTables]:
    """Exact categorical KL to the reference policy, averaged over turns.

    Heads present at each turn contribute: the action head always, the
    subgoal head on switch turns, the switch head from t = 1 on.
    """
    grads = GradTables.zeros_like(params)
    n = len(rows)
    if n == 0:
        return 0.0, grads
    total = 0.0
    kl, g = _kl_rows(params.action[rows.state, rows.subgoal],
                     ref.action[rows.state, rows.subgoal])
    total += float(kl.sum())
    np.add.at(grads.action, (rows.state, rows.subgoal), g)
    hi = rows.q == SWITCH
    if hi.any():
        kl, g = _kl_rows(params.subgoal[rows.state[hi]], ref.subgoal[rows.state[hi]])
        total += float(kl.sum())
        np.add.at(grads.subgoal, (rows.state[hi],), g)
    sw = rows.t > 0
    if sw.any():
        kl, g = _kl_rows(params.switch[rows.state[sw], rows.prev_subgoal[sw]],
                         ref.switch[rows.state[sw], rows.prev_subgoal[sw]])
        total += float(kl.sum())
        np.add.at(grads.switch, (rows.state[sw], rows.prev_subgoal[sw]), g)
    grads.scale(1.0 / n)
    return total / n, grads


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
    rows = gather_rows(tt, adv)
    surrogate, g_actor = actor_loss(rows, params, cfg.clip_eps)
    kl, g_kl = kl_penalty(rows, params, ref)
    cb = critic_batch_from_table(tt, cfg.gamma, tables.n_states, tables.n_options)
    mse_lo, mse_hi, g_v = cb.mse_and_grad(tables, target_tables)
    value = -surrogate + cfg.c_v * (mse_lo + mse_hi) + cfg.kl_beta * kl
    g_theta = GradTables.zeros_like(params)
    g_theta.add(g_actor, weight=-1.0)
    g_theta.add(g_kl, weight=cfg.kl_beta)
    return value, g_theta, unstacked(cfg.c_v * g_v, tables.n_states)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    success_rate: float
    mean_return: float      # raw, undiscounted
    switch_rate: float
    mean_segments: float
    mean_seg_len: float


def evaluate(params: PolicyParams, env: EnvModel, episodes: int,
             mode: str = "greedy", seed: int = 0) -> EvalReport:
    """Roll out without reward shaping; success is the raw goal outcome.

    Greedy mode is deterministic (argmax, ties to the lowest index), so
    repeated calls return identical results.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError("mode must be 'greedy' or 'sample'")
    tt = rollout_batch(env, params, episodes, derive_seed(seed, _EVAL_STREAM),
                       greedy=(mode == "greedy"))
    st = batch_stats(tt, goal_state=getattr(env, "goal_state", None))
    return EvalReport(success_rate=st.success_rate, mean_return=st.mean_return,
                      switch_rate=st.switch_rate, mean_segments=st.mean_segments,
                      mean_seg_len=st.mean_seg_len)


# ---------------------------------------------------------------------------
# Training drivers
# ---------------------------------------------------------------------------

def _check_finite(name: str, it: int, *values) -> None:
    """Raise TrainingDiverged unless every value or array is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise TrainingDiverged(f"non-finite {name} at iteration {it}")


def _minibatches(n_rows: int, size: int, rng: np.random.Generator):
    order = rng.permutation(n_rows)
    for lo in range(0, n_rows, size):
        yield order[lo:lo + size]


def _ascent_step(params: PolicyParams, g_actor: GradTables, g_kl: GradTables,
                 lr: float, kl_beta: float) -> None:
    params.switch += lr * (g_actor.switch - kl_beta * g_kl.switch)
    params.subgoal += lr * (g_actor.subgoal - kl_beta * g_kl.subgoal)
    params.action += lr * (g_actor.action - kl_beta * g_kl.action)


def _policy_fingerprint(params: PolicyParams) -> int:
    """64-bit digest of the parameter bytes.

    Rollout streams are keyed by (seed, fingerprint): identical policies
    reproduce identical batches (so zero learning rates are an exact no-op)
    while any parameter update refreshes the exploration stream.
    """
    import hashlib
    h = hashlib.blake2b(digest_size=8)
    h.update(params.switch.tobytes())
    h.update(params.subgoal.tobytes())
    h.update(params.action.tobytes())
    return int.from_bytes(h.digest(), "little")


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
    params = (init_params.copy() if init_params is not None
              else PolicyParams.uniform(env.n_states, n_options, env.n_actions))
    state = TrainState(params=params, params_ref=params.copy(),
                       tables=ValueTables.zeros(env.n_states, params.n_options))
    rollout_seed = derive_seed(cfg.seed, _TRAIN_STREAM)
    v_flat = np.zeros(env.n_states)
    metrics: list[MetricsRow] = []
    goal = getattr(env, "goal_state", None)
    for it in range(cfg.iterations):
        state.iteration = it
        it_seed = derive_seed(rollout_seed, _policy_fingerprint(state.params))
        tt = rollout_batch(env, state.params, cfg.episodes_per_iter,
                           it_seed, c_keep=cfg.c_keep)
        if flat:
            fb = flat_batch_from_table(tt, cfg.gamma, env.n_states)
            if cfg.lr_critic > 0:
                v_flat, mses = fit_flat_critic(v_flat, fb, cfg.lr_critic, cfg.epochs)
                critic_mse = mses[-1]
            else:
                critic_mse = 0.0
            critic = (v_flat,)
        else:
            cb = critic_batch_from_table(tt, cfg.gamma, env.n_states,
                                         state.tables.n_options)
            if cfg.lr_critic > 0:
                state.tables, rep = fit_critic(state.tables, cb, cfg.gamma,
                                               cfg.lr_critic, cfg.epochs)
                critic_mse = rep.final_mse
            else:
                critic_mse = sum(cb.batch_mse(state.tables))
            critic = (state.tables.v_high, state.tables.v_low)
        _check_finite("critic", it, critic_mse, *critic)
        adv = advantage_arrays(tt, state.tables, cfg.gae(),
                               v_flat=v_flat if flat else None)
        rows = gather_rows(tt, adv)

        surrogate_sum, turn_count = 0.0, 0
        shuffle = np.random.Generator(np.random.PCG64(
            derive_seed(cfg.seed, 23, it)))
        loss_fn = flat_actor_loss if flat else actor_loss
        for _ in range(cfg.epochs):
            for idx in _minibatches(len(rows), cfg.minibatch, shuffle):
                mb = rows.take(idx)
                value, g_actor = loss_fn(mb, state.params, cfg.clip_eps)
                kl, g_kl = kl_penalty(mb, state.params, state.params_ref)
                _check_finite("actor surrogate", it, value, kl)
                # the surrogate is a sum over minibatch turns while the KL is
                # a per-turn mean; scale the KL gradient to the same footing
                _ascent_step(state.params, g_actor, g_kl, cfg.lr_actor,
                             cfg.kl_beta * len(idx))
                surrogate_sum += value
                turn_count += len(idx)
        _check_finite("policy parameters", it, state.params.switch,
                      state.params.subgoal, state.params.action)

        kl_now, _ = kl_penalty(rows, state.params, state.params_ref)
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
    return TrainResult(params=state.params, tables=state.tables, metrics=metrics,
                       flat_values=v_flat if flat else None)
