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
from dataclasses import dataclass, fields

import numpy as np

from .advantages import whiten
from .batch import (BatchStats, Sites, SitePass, TurnRows, _advantage_arrays,
                    _critic_batch, batch_stats, cell_rows, flat_advantage_arrays,
                    flat_batch_from_table, gather_rows, head_sites, rollout_batch,
                    site_pass, site_scores)
from .critic import ValueTables, fit_critic
from .envs import EnvModel
from .policy import TABLES, PolicyParams, log_softmax
from .rng import SEED_BOUND, _absorb, counter_hash, derive_seed

METRICS_HEADER = ("iter,mean_return,success,mean_segments,mean_seg_len,"
                  "switch_rate,actor_loss,critic_loss,kl")

_EVAL_STREAM = 1_000_003
_TRAIN_STREAM = 17


class TrainingDiverged(RuntimeError):
    """A loss or parameter became non-finite during training."""


# each hyperparameter's range: PPOConfig checks its fields against it, the
# config reader its values and the CLI its flags (`config.RANGES`)
RANGES = {
    "gamma": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "lambda_low": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "lambda_high": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "lambda_flat": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "clip_eps": (lambda v: v > 0.0, "> 0"),
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


@dataclass
class PPOConfig:
    """Hyperparameters of the training loop; learning rates are
    tabular-scale.  Each field's default gives its type and `RANGES` its
    range; the config reader and the CLI read both from here."""

    gamma: float = 0.99
    lambda_low: float = 0.95
    lambda_high: float = 0.95
    lambda_flat: float = 0.95
    clip_eps: float = 0.2
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
        for f in fields(self):
            (ok, desc), v = RANGES[f.name], getattr(self, f.name)
            # a count or the seed is a Python or numpy integer, never a bool
            if type(f.default) is int and (isinstance(v, bool)
                                           or not isinstance(v, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
            if not ok(v):
                raise ValueError(f"{f.name} must be {desc}, got {v}")


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
    """Per-row surrogate min(r*A, clip(r)*A) and the active-branch weight;
    the weight overwrites `ratio`.

    The gradient flows through the unclipped branch whenever it attains the
    min (ties included), so at ratio 1 the clipped and unclipped gradients
    coincide.
    """
    value = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    value *= adv
    raw = np.multiply(ratio, adv, out=ratio)
    take_raw = raw <= value
    np.copyto(value, raw, where=take_raw)
    np.copyto(raw, 0.0, where=~take_raw)
    return value, raw


def _head_sums(x: np.ndarray, bounds: list) -> float:
    """The sum of `x` over each head's columns (`SitePass.bounds`), the heads'
    sums added as Python floats in `HEADS` order."""
    total = 0.0
    for lo, hi in bounds:
        total += float(x[lo:hi].sum())
    return total


@dataclass
class _Sites:
    """A batch's sites (`batch.head_sites`) with what the trainer weighs
    them by, packed in one block whose site columns a minibatch reads with
    one `take`: each column holds the reference log-probs of the site's cell
    (laid out as the layout's block), then a behavior log-prob and an
    advantage.  The hierarchical trainer's are per site, and `scored` drops
    the switch sites the parser flagged malformed from its surrogate (None
    when every site is scored, as in every rollout).  The flat trainer's
    are per row (its joint behavior log-prob and its advantage), in the
    action head's columns, which are the rows'."""

    layout: Sites
    packed: np.ndarray            # (max width + 2, 3n)
    scored: np.ndarray | None     # (3n,) bool
    flat: bool

    @property
    def beh(self) -> np.ndarray:
        """The behavior log-probs, per site (per row when flat); a view."""
        return self.packed[-2, :self._cols]

    @property
    def adv(self) -> np.ndarray:
        """The advantages, per site (per row when flat); a view."""
        return self.packed[-1, :self._cols]

    @property
    def _cols(self) -> int:
        return self.layout.present.shape[1] if self.flat else self.packed.shape[1]


def _whiten_sites(sites: _Sites) -> None:
    """Whiten the advantages in place, each head's over its present sites
    (the flat trainer's one row over every turn)."""
    for adv, present in zip(sites.adv.reshape(-1, sites.layout.present.shape[1]),
                            sites.layout.present):
        adv[present] = whiten(adv[present])


def _sites(rows: TurnRows, params: PolicyParams, flat: bool,
           ref_lp: np.ndarray) -> _Sites:
    layout = head_sites(rows, params)
    width, n = layout.block.shape[0], len(rows)
    packed = np.zeros((width + 2, layout.block.shape[1]))
    # the block is in range: "clip" writes `out` without the copy "raise" makes
    layout.slab(ref_lp).take(layout.block, out=packed[:width], mode="clip")
    present = layout.present
    if flat:
        beh = packed[width, :n]
        beh[:] = rows.lp_action
        beh[present[1]] += rows.lp_subgoal[present[1]]
        beh[present[2]] += rows.lp_switch[present[2]]
        packed[-1, :n] = rows.adv_flat
        return _Sites(layout, packed, None, True)
    np.concatenate([rows.lp_action, rows.lp_subgoal, rows.lp_switch], out=packed[width])
    np.concatenate([rows.adv_low, rows.adv_high, rows.adv_switch], out=packed[-1])
    scored = present.copy()
    scored[2] &= rows.format_ok
    return _Sites(layout, packed, None if (scored == present).all() else scored.ravel(),
                  False)


def _kl_terms(sp: SitePass, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pass's log-prob differences to the reference log-probs `ref` (one
    column per site), written over `ref`, and each site's KL(live || ref),
    its terms written over `sp.lp`.  A pad row adds p * diff = 0 * (finite)
    to its column's KL."""
    diff = np.subtract(sp.lp, ref, out=ref)
    return diff, np.multiply(sp.p, diff, out=sp.lp).sum(axis=0)


def _kl(sites: _Sites, slab: np.ndarray) -> float:
    """The exact KL(live || ref) averaged over every turn row, with the bits
    `_step` over every row gives it, but no surrogate: the metrics' KL."""
    sp = site_pass(sites.layout, slab)
    kl = _kl_terms(sp, sites.packed[:-2].take(sp.site, axis=1))[1]
    return _head_sums(kl, sp.bounds) / sites.layout.present.shape[1]


def _step(sites: _Sites, idx: np.ndarray, slab: np.ndarray, eps: float,
          grad: bool = True, kl_per_head: bool = True):
    """The minibatch of turn rows `idx`, in that order, under the live
    logits `slab` (`Sites.slab` of the layout): the clipped surrogate summed
    over its sites and the exact KL(live || ref) averaged over its rows, each
    with its gradient wrt `slab` (None without `grad`).  The log-probs come
    from `batch.site_pass` and the surrogate gradient from
    `batch.site_scores`.  The KL is summed head by head, as `_kl` sums it;
    without `kl_per_head` it is one sum over the sites, which differs in the
    last bits and serves only to check that it is finite.

    The flat surrogate takes one joint ratio per row, its score the sum of
    the present heads' scores; the action head's weighs with the explicitly
    normalized softmax, as a last-bit change would re-roll every later
    batch."""
    n = len(idx)
    if n == 0:
        zeros = np.zeros_like(slab) if grad else None
        return 0.0, zeros, 0.0, zeros
    sp = site_pass(sites.layout, slab, idx, soft=sites.flat)
    # each site's reference log-probs, behavior log-prob and advantage; the
    # log-prob differences overwrite the reference log-probs, and the KL
    # terms the log-probs, which nothing reads after
    packed = sites.packed.take(sp.site, axis=1)
    diff, kl = _kl_terms(sp, packed[:-2])
    kl_mean = (_head_sums(kl, sp.bounds) if kl_per_head else kl.sum()) / n
    probs = None
    if sites.flat:
        joint = np.bincount(sp.pos, sp.live, minlength=n)  # action, subgoal, switch
        # the action sites come first, one per row in `idx` order
        value, w = _clipped_surrogate(np.exp(joint - packed[-2, :n]), packed[-1, :n], eps)
        surrogate, w = float(value.sum()), w[sp.pos]
        probs = np.concatenate([sp.soft, sp.p[:, sp.soft.shape[1]:]], axis=1)
    else:
        value, w = _clipped_surrogate(np.exp(sp.live - packed[-2]), packed[-1], eps)
        if sites.scored is None:
            surrogate = _head_sums(value, sp.bounds)
        else:
            scored = sites.scored[sp.site]
            surrogate = 0.0
            for lo, hi in sp.bounds:
                surrogate += float(value[lo:hi][scored[lo:hi]].sum())
            w = np.where(scored, w, 0.0)
    if not grad:
        return surrogate, None, kl_mean, None
    terms = np.multiply(sp.p, np.subtract(diff, kl, out=diff), out=diff)
    g_kl = np.bincount(sp.ent.ravel(), terms.ravel(), minlength=slab.size)
    g_kl *= 1.0 / n
    return surrogate, site_scores(sp, w, probs), kl_mean, g_kl


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
    if episodes < 1:  # zero episodes have no success rate or mean
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    tt = rollout_batch(env, params, episodes, derive_seed(seed, _EVAL_STREAM),
                       greedy=(mode == "greedy"))
    return batch_stats(tt, goal_state=getattr(env, "goal_state", None))


# ---------------------------------------------------------------------------
# Training drivers
# ---------------------------------------------------------------------------

def _check_finite(name: str, it: int, *values) -> None:
    """Raise TrainingDiverged unless every value or array is finite."""
    if not all(math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()
               for v in values):
        raise TrainingDiverged(f"non-finite {name} at iteration {it}")


def _minibatch_keys(key: int, n_rows: int, epochs: int) -> np.ndarray:
    """(epochs, n_rows) sort keys: row i of epoch e takes the counter hash of
    (key, i, e) with its low bits replaced by i, so the keys are distinct by
    construction and no sort has a tie to break."""
    rows = np.arange(n_rows, dtype=np.uint64)
    low = max(n_rows - 1, 0).bit_length()
    return counter_hash(key, rows, np.arange(epochs)[:, None]) >> low << low | rows


def _minibatches(key: int, n_rows: int, epochs: int, size: int):
    """Each epoch's minibatches of `size` rows (the last one short), in an
    order of the rows that is a pure function of (key, epoch, n_rows): the
    sorted keys' low bits."""
    mask = (1 << max(n_rows - 1, 0).bit_length()) - 1
    for order in (np.sort(_minibatch_keys(key, n_rows, epochs), axis=1) & mask).astype(np.intp):
        for lo in range(0, n_rows, size):
            yield order[lo:lo + size]


def _policy_fingerprint(theta: np.ndarray) -> int:
    """64-bit digest of a policy's `theta`: the XOR of the SplitMix
    finalizer over its 64-bit words, each keyed by its position.

    Rollout streams are keyed by (seed, fingerprint): identical policies
    reproduce identical batches (so zero learning rates are an exact no-op)
    while any parameter update refreshes the exploration stream.  The
    finalizer is a bijection, so a change to any one word (a last-bit update,
    or -0.0 against +0.0) always changes the digest.
    """
    pos = np.arange(theta.size, dtype=np.uint64)
    return int(np.bitwise_xor.reduce(_absorb(theta.view(np.uint64), pos)))


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
        state.tables, rep = fit_critic(state.tables, cb, cfg.lr_critic, cfg.epochs)
        critic_mse = rep.final_mse
        _check_finite("critic", it, critic_mse, state.tables.v_high,
                      state.tables.v_low)
        if flat:
            rows = gather_rows(tt)
            rows.adv_flat = flat_advantage_arrays(tt, state.tables.v_high, cfg)[tt.mask]
        else:
            rows = gather_rows(tt, _advantage_arrays(tt, state.tables, cfg, cfg.gamma,
                                                     built=built))
        # the steps read and update the slab of the entries the batch's
        # sites touch, written back once
        sites = _sites(rows, state.params, flat, ref_lp)
        _whiten_sites(sites)
        slab = sites.layout.slab(theta)

        surrogate_sum, turn_count = 0.0, 0
        for idx in _minibatches(derive_seed(cfg.seed, 23, it), len(rows), cfg.epochs,
                                cfg.minibatch):
            value, g_actor, kl, g_kl = _step(sites, idx, slab, cfg.clip_eps,
                                             kl_per_head=False)
            _check_finite("actor surrogate", it, value, kl)
            # the surrogate is a sum over minibatch turns while the KL is a
            # per-turn mean; scale the KL gradient to the same footing
            slab += cfg.lr_actor * (g_actor - cfg.kl_beta * len(idx) * g_kl)
            surrogate_sum += value
            turn_count += len(idx)
        # as a step over the whole vector would, turn each -0.0 logit outside
        # the slab into +0.0: the rollout streams hash the logits' bytes (an
        # episode has at least one turn, so a step ran)
        theta += 0.0
        theta[sites.layout.cells] = slab[:-1]
        _check_finite("policy parameters", it, theta)

        kl_now = _kl(sites, slab)
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
