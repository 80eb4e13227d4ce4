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
from .batch import (HEADS, HeadPass, TurnRows, TurnTable, advantage_arrays,
                    batch_stats, cell_rows, critic_batch_from_table,
                    flat_batch_from_table, gather_rows, policy_pass,
                    rollout_batch, row_sums, score_sums)
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
# One log-softmax pass per head (`batch.policy_pass`); the surrogates and
# the KL read it
# ---------------------------------------------------------------------------

def _ref_log_probs(ref: PolicyParams) -> tuple[np.ndarray, ...]:
    """Log-softmax of every cell of the reference policy, per head."""
    return tuple(log_softmax(cell_rows(getattr(ref, name)), axis=1)
                 for name in HEADS)


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


def _grad_tables(params: PolicyParams, parts: dict) -> GradTables:
    """GradTables from the heads in `parts`, zero for the others."""
    return GradTables(*[parts[name] if name in parts
                        else np.zeros_like(getattr(params, name))
                        for name in ("switch", "subgoal", "action")])


def _surrogate(rows: TurnRows, heads: tuple[HeadPass, ...],
               params: PolicyParams, eps: float) -> tuple[float, GradTables]:
    """Summed clipped surrogate of the three levels over one pass."""
    total = 0.0
    parts = {}
    # the switch surrogate skips turns the parser flagged malformed
    act, sub, sw = heads
    sw = sw.take(rows.format_ok[sw.at])
    for name, h, adv, lp_beh in (
            ("action", act, rows.adv_low, rows.lp_action),
            ("subgoal", sub, rows.adv_high, rows.lp_subgoal),
            ("switch", sw, rows.adv_switch, rows.lp_switch)):
        if name != "action" and not h.at.any():
            continue
        ratio = np.exp(h.live() - lp_beh[h.at])
        value, w = _clipped_surrogate(ratio, adv[h.at], eps)
        total += float(value.sum())
        parts[name] = score_sums(getattr(params, name), h, w)
    return total, _grad_tables(params, parts)


def _flat_surrogate(rows: TurnRows, heads: tuple[HeadPass, ...],
                    params: PolicyParams, eps: float
                    ) -> tuple[float, GradTables]:
    """Single-level surrogate on the joint turn ratio over one pass."""
    act, sub, sw = heads
    n = len(rows)
    live = act.live()
    beh = rows.lp_action.copy()
    live_hi = np.zeros(n)
    live_hi[sub.at] = sub.live()
    live = live + live_hi
    beh[sub.at] += rows.lp_subgoal[sub.at]
    live_sw = np.zeros(n)
    live_sw[sw.at] = sw.live()
    live = live + live_sw
    beh[sw.at] += rows.lp_switch[sw.at]
    ratio = np.exp(live - beh)
    value, w = _clipped_surrogate(ratio, rows.adv_flat, eps)
    # the action head weighs with the explicitly normalized softmax; exp(lp)
    # differs from it in the last bits, which would change every run
    probs = softmax(cell_rows(params.action)[act.cell], axis=1)
    parts = {"action": score_sums(params.action, act, w, probs)}
    for name, h in (("subgoal", sub), ("switch", sw)):
        if h.at.any():
            parts[name] = score_sums(getattr(params, name), h, w[h.at])
    return float(value.sum()), _grad_tables(params, parts)


def _kl(rows: TurnRows, heads: tuple[HeadPass, ...], ref_lp: tuple,
        params: PolicyParams, grad: bool = True
        ) -> tuple[float, GradTables | None]:
    """Exact categorical KL(live || ref) averaged over turns, and (with
    `grad`) its gradient wrt the live logits."""
    n = len(rows)
    if n == 0:
        return 0.0, _grad_tables(params, {}) if grad else None
    total = 0.0
    parts = {}
    for name, h, lq in zip(HEADS, heads, ref_lp):
        if name != "action" and not h.at.any():
            continue
        diff = h.lp - lq[h.cell]
        kl = np.sum(h.p * diff, axis=1)
        total += float(kl.sum())
        if grad:
            parts[name] = row_sums(getattr(params, name), h.cell,
                                   h.p * (diff - kl[:, None]))
    if not grad:
        return total / n, None
    return total / n, _grad_tables(params, parts).scale(1.0 / n)


def actor_loss(rows: TurnRows, params: PolicyParams, eps: float
               ) -> tuple[float, GradTables]:
    """Summed clipped surrogate over the three levels, with its gradient.

    The subgoal surrogate is gated on switch turns; the switch surrogate
    skips the forced first turn and any turn flagged malformed by the
    parser.
    """
    return _surrogate(rows, policy_pass(rows, params), params, eps)


def flat_actor_loss(rows: TurnRows, params: PolicyParams, eps: float
                    ) -> tuple[float, GradTables]:
    """Single-level surrogate on the joint turn ratio, flat advantages.

    The ratio multiplies the product of present-head likelihoods; its score
    is the sum of the per-head scores, all weighted by the same advantage.
    """
    return _flat_surrogate(rows, policy_pass(rows, params), params, eps)


def kl_penalty(rows: TurnRows, params: PolicyParams, ref: PolicyParams
               ) -> tuple[float, GradTables]:
    """Exact categorical KL to the reference policy, averaged over turns.

    Heads present at each turn contribute: the action head always, the
    subgoal head on switch turns, the switch head from t = 1 on.
    """
    return _kl(rows, policy_pass(rows, params), _ref_log_probs(ref), params)


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
    heads = policy_pass(rows, params)
    surrogate, g_actor = _surrogate(rows, heads, params, cfg.clip_eps)
    kl, g_kl = _kl(rows, heads, _ref_log_probs(ref), params)
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
    ref_lp = _ref_log_probs(state.params_ref)  # the reference stays frozen
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
        surrogate = _flat_surrogate if flat else _surrogate
        for _ in range(cfg.epochs):
            for idx in _minibatches(len(rows), cfg.minibatch, shuffle):
                mb = rows.take(idx)
                heads = policy_pass(mb, state.params)
                value, g_actor = surrogate(mb, heads, state.params, cfg.clip_eps)
                kl, g_kl = _kl(mb, heads, ref_lp, state.params)
                _check_finite("actor surrogate", it, value, kl)
                # the surrogate is a sum over minibatch turns while the KL is
                # a per-turn mean; scale the KL gradient to the same footing
                _ascent_step(state.params, g_actor, g_kl, cfg.lr_actor,
                             cfg.kl_beta * len(idx))
                surrogate_sum += value
                turn_count += len(idx)
        _check_finite("policy parameters", it, state.params.switch,
                      state.params.subgoal, state.params.action)

        kl_now, _ = _kl(rows, policy_pass(rows, state.params), ref_lp,
                        state.params, grad=False)
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
