import math
from dataclasses import fields

import numpy as np
import pytest

from segrl.advantages import GAEConfig
from segrl.batch import (advantage_arrays, flat_advantage_arrays,
                         gather_rows, head_sites, record_behavior, rollout_batch,
                         site_pass, site_scores)
from segrl.core import KEEP, SWITCH
from segrl.critic import ValueTables
from segrl.envs import FetchChain, OneStep
from segrl.oracle import random_tables, solve_dp, success_probability
from segrl.policy import PolicyParams, fetchchain_phased
from segrl.rng import derive_seed
from segrl.training import (PPOConfig, TrainingDiverged, _clipped_surrogate,
                            _minibatch_keys, _minibatches, _policy_fingerprint,
                            _kl, _ref_log_probs, _sites, _step, evaluate,
                            train, train_flat_baseline)

import spec
from spec import Trajectory, TurnRecord, fetchchain_expert
from conftest import (actor_loss, flat_actor_loss, head_ratios, kl_penalty,
                      minibatch_step, take)


def make_rows(env, params, seed=7, n=24, c_keep=0.0, tables=None, cfg=None):
    tt = rollout_batch(env, params, n, seed=seed, c_keep=c_keep)
    tables = tables if tables is not None else ValueTables.zeros(env.n_states, 2)
    cfg = cfg or GAEConfig(gamma=0.95)
    adv = advantage_arrays(tt, tables, cfg)
    return tt, adv, gather_rows(tt, adv)


class TestRatios:
    def test_identity_at_behavior_point(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        tt = rollout_batch(env, params, 8, seed=2)
        rows, ratios = head_ratios(tt, params)
        for t, q, (r_sw, r_hi, r_lo) in zip(rows.t, rows.q, ratios):
            assert r_lo == pytest.approx(1.0, abs=1e-12)
            if t > 0:
                assert r_sw == pytest.approx(1.0, abs=1e-12)
            if q == SWITCH:
                assert r_hi == pytest.approx(1.0, abs=1e-12)
            else:
                assert r_hi == 0.0

    def test_logit_shift_arithmetic(self):
        turn = TurnRecord(0, 0, None, SWITCH, 0, 1, 0.0, 0.0, False,
                          lp_switch=None, lp_subgoal=math.log(0.5),
                          lp_action=math.log(0.5))
        tt = spec.table([Trajectory((turn,), truncated=True, final_state=1)])
        live = PolicyParams.uniform(2, 2, 2)
        live.action[0, 0, 1] += math.log(2.0)
        _, ratios = head_ratios(tt, live)
        assert ratios[0, 2] == pytest.approx((2 / 3) / 0.5, abs=1e-12)

    def test_missing_behavior_record(self):
        # no recorded log-probs: the surrogate is NaN, which the trainer's
        # finite check turns into TrainingDiverged
        turn = TurnRecord(0, 0, None, SWITCH, 0, 1, 0.0, 0.0, False)
        tt = spec.table([Trajectory((turn,), truncated=True, final_state=1)])
        _, ratios = head_ratios(tt, PolicyParams.uniform(2, 2, 2))
        assert np.isnan(ratios[0, 2]) and np.isnan(ratios[0, 1])


class TestClippedSurrogate:
    def test_positive_advantage_clip(self):
        value, _ = _clipped_surrogate(np.array([1.5]), np.array([1.0]), 0.2)
        assert value[0] == pytest.approx(1.2)

    def test_negative_advantage_clip(self):
        value, _ = _clipped_surrogate(np.array([0.5]), np.array([-1.0]), 0.2)
        assert value[0] == pytest.approx(-0.8)

    def test_gradient_flows_on_ties(self):
        _, w = _clipped_surrogate(np.array([1.0]), np.array([2.0]), 0.2)
        assert w[0] == pytest.approx(2.0)  # ratio * advantage

    def test_no_gradient_when_clipped(self):
        _, w = _clipped_surrogate(np.array([1.5]), np.array([1.0]), 0.2)
        assert w[0] == 0.0


class TestActorLoss:
    def test_surrogate_equals_advantage_sum_at_behavior_point(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        tables = random_tables(rng, env.n_states, 2)
        tt, adv, rows = make_rows(env, params, tables=tables)
        value, _ = actor_loss(rows, params, eps=0.2)
        expected = float(adv.a_low[tt.mask].sum()
                         + adv.a_high[adv.masks.is_boundary].sum()
                         + np.nansum(adv.a_switch[tt.mask]))
        assert value == pytest.approx(expected, abs=1e-8)

    def test_first_epoch_gradient_equivalence(self, rng):
        # at the behavior point the clipped gradient equals the unclipped one
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        tables = random_tables(rng, env.n_states, 2)
        _, _, rows = make_rows(env, params, tables=tables)
        _, g_clipped = actor_loss(rows, params, eps=0.2)
        _, g_free = actor_loss(rows, params, eps=1e9)
        assert np.allclose(g_clipped.theta, g_free.theta, atol=1e-12)

    def test_high_gradient_only_at_switch_turns(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        _, _, rows = make_rows(env, params)
        keep_rows = take(rows, np.flatnonzero(rows.q == KEEP))
        keep_rows.adv_high[:] = 99.0
        _, grads = actor_loss(keep_rows, params, eps=0.2)
        assert np.max(np.abs(grads.subgoal)) == 0.0

    def test_no_switch_gradient_at_first_turn(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        _, _, rows = make_rows(env, params)
        first = take(rows, np.flatnonzero(rows.t == 0))
        _, grads = actor_loss(first, params, eps=0.2)
        assert np.max(np.abs(grads.switch)) == 0.0

    def test_malformed_turns_excluded_from_switch_loss(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        _, _, rows = make_rows(env, params)
        later = take(rows, np.flatnonzero(rows.t > 0))
        later.format_ok[:] = False
        _, grads = actor_loss(later, params, eps=0.2)
        assert np.max(np.abs(grads.switch)) == 0.0


class TestKlPenalty:
    def test_zero_at_reference(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        _, _, rows = make_rows(env, params)
        kl, grads = kl_penalty(rows, params, params)
        assert kl == pytest.approx(0.0, abs=1e-14)
        assert np.abs(grads.theta).max() < 1e-14

    def test_closed_form_two_way(self):
        params = PolicyParams.uniform(1, 1, 2)
        params.action[0, 0, 0] = math.log(3.0)   # p = (0.75, 0.25)
        ref = PolicyParams.uniform(1, 1, 2)
        rows_tt = rollout_batch(OneStep(n_actions=2), params, 1, seed=0)
        adv = advantage_arrays(rows_tt, ValueTables.zeros(2, 1), GAEConfig(gamma=1.0))
        rows = gather_rows(rows_tt, adv)
        kl, _ = kl_penalty(rows, params, ref)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        # one action-head occurrence plus one (uniform vs uniform) subgoal head
        assert kl == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        ref = PolicyParams.random(rng, env.n_states, 2, env.n_actions)
        _, _, rows = make_rows(env, params)
        kl, _ = kl_penalty(rows, params, ref)
        assert kl >= 0.0


@pytest.fixture(scope="module")
def shared_pass_case():
    """Rows of a sampled batch with some malformed turns, live logits away
    from the behavior ones (so ratios clip) and a random reference."""
    env = FetchChain(3, 6)
    rng = np.random.default_rng(11)
    behavior = fetchchain_phased(env, rng)
    tt = rollout_batch(env, behavior, 40, seed=9, c_keep=0.1)
    cfg = GAEConfig(gamma=0.95)
    rows = gather_rows(tt, advantage_arrays(tt, random_tables(rng, env.n_states, 2),
                                            cfg))
    rows.adv_flat = flat_advantage_arrays(tt, rng.standard_normal(env.n_states),
                                          cfg)[tt.mask]
    rows.format_ok = rng.random(len(rows)) > 0.3
    live = PolicyParams(*[t + 0.6 * rng.standard_normal(t.shape) for t in
                          (behavior.switch, behavior.subgoal, behavior.action)])
    ref = PolicyParams.random(rng, env.n_states, 2, env.n_actions)
    picks = {
        "all": np.arange(len(rows)),
        "random": rng.permutation(len(rows))[:57],
        "no-switch": np.flatnonzero(rows.q == KEEP),
        "first-turns": np.flatnonzero(rows.t == 0),
        "first-row": np.array([0]),
        "keep-row": np.flatnonzero(rows.q == KEEP)[:1],
        "malformed-row": np.flatnonzero(~rows.format_ok & (rows.t > 0))[:1],
        "empty": np.array([], dtype=np.int64),
    }
    return rows, live, ref, picks


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in
               ((a.switch, b.switch), (a.subgoal, b.subgoal), (a.action, b.action)))


class TestSharedPass:
    """The one log-softmax pass per head against the per-function spec,
    bit for bit."""

    @pytest.mark.parametrize("pick", ["all", "random", "no-switch", "first-turns",
                                      "first-row", "keep-row", "malformed-row",
                                      "empty"])
    def test_matches_spec_bitwise(self, shared_pass_case, pick):
        rows, live, ref, picks = shared_pass_case
        mb = take(rows, picks[pick])
        if pick != "empty":
            assert len(mb) > 0
        for fn, ref_fn, args in ((actor_loss, spec.actor_loss, (live, 0.2)),
                                 (flat_actor_loss, spec.flat_actor_loss, (live, 0.2)),
                                 (kl_penalty, spec.kl_penalty, (live, ref))):
            value, grads = fn(mb, *args)
            want, want_grads = ref_fn(mb, *args)
            assert value == want, fn.__name__
            assert _same(grads, want_grads), fn.__name__
        # the trainer's iteration-end KL builds no gradient
        kl, none = minibatch_step(mb, live, ref, 0.2, grad=False)[2:]
        assert none is None and kl == spec.kl_penalty(mb, live, ref)[0]

    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("pick", ["all", "random", "no-switch", "first-turns",
                                      "keep-row", "malformed-row", "empty"])
    def test_minibatch_of_the_batch_matches_spec_bitwise(self, shared_pass_case,
                                                         pick, flat):
        # the trainer builds the batch's sites once and steps on minibatches
        # of their rows, in shuffled order
        rows, live, ref, picks = shared_pass_case
        mb = take(rows, picks[pick])
        value, grads, kl, kl_grads = minibatch_step(rows, live, ref, 0.2, flat=flat,
                                                    idx=picks[pick])
        want, want_grads = (spec.flat_actor_loss if flat else spec.actor_loss)(
            mb, live, 0.2)
        want_kl, want_kl_grads = spec.kl_penalty(mb, live, ref)
        assert value == want and _same(grads, want_grads)
        assert kl == want_kl and _same(kl_grads, want_kl_grads)

    @pytest.mark.parametrize("flat", [False, True])
    def test_kl_only_pass_matches_the_full_pass(self, shared_pass_case, flat):
        # the iteration-end KL skips the surrogate and keeps the bits; the
        # minibatch loop's one-sum KL only feeds the finiteness check
        rows, live, ref, _ = shared_pass_case
        sites = _sites(rows, live, flat, _ref_log_probs(ref))
        slab = sites.layout.slab(live.theta)
        every = np.arange(len(rows))
        full = _step(sites, every, slab, 0.2, grad=False)
        stepped = _step(sites, every, slab, 0.2)
        assert _kl(sites, slab) == full[2] == stepped[2] == spec.kl_penalty(rows, live, ref)[0]
        checked = _step(sites, every, slab, 0.2, kl_per_head=False)
        assert math.isfinite(checked[2]) and checked[2] == pytest.approx(full[2], rel=1e-12)
        assert checked[0] == stepped[0]
        assert np.array_equal(checked[1], stepped[1]) and np.array_equal(checked[3], stepped[3])

    def test_cases_cover_what_they_name(self, shared_pass_case):
        rows, _, _, picks = shared_pass_case
        assert not (rows.q[picks["no-switch"]] == SWITCH).any()
        assert (~rows.format_ok[picks["random"]]).any()
        assert (rows.q[picks["random"]] == SWITCH).any()
        assert not rows.format_ok[picks["malformed-row"]].any()


class TestOneKernel:
    """The trainer's step and the oracles run one score-function kernel."""

    @pytest.mark.parametrize("flat", [False, True])
    def test_surrogate_gradient_at_ratio_one_is_the_shared_score_sum(self, flat):
        # behavior recorded from the live policy: every ratio is exactly 1,
        # so the surrogate gradient is the score sum of the advantages, also
        # as the oracles take it: one head's pass at a time into its span of
        # the slab, or over a layout of the minibatch's rows alone
        env = FetchChain(3, 6)
        rng = np.random.default_rng(3)
        params = fetchchain_phased(env, rng)
        tt = record_behavior(rollout_batch(env, params, 40, seed=9), params)
        tt.format_ok[:] = rng.random(tt.mask.shape) > 0.3
        cfg = GAEConfig(gamma=0.95)
        rows = gather_rows(tt, advantage_arrays(tt, random_tables(rng, env.n_states, 2),
                                                cfg))
        rows.adv_flat = flat_advantage_arrays(tt, rng.standard_normal(env.n_states),
                                              cfg)[tt.mask]
        sites = _sites(rows, params, flat, _ref_log_probs(params))
        theta = params.theta
        slab = sites.layout.slab(theta)
        idx = rng.permutation(len(rows))[:57]
        _, g_sur, _, _ = _step(sites, idx, slab, 0.2)

        sp = site_pass(sites.layout, slab, idx, soft=flat)
        if flat:
            joint = np.bincount(sp.pos, sp.live, minlength=len(idx))
            assert (np.exp(joint - sites.beh[idx]) == 1.0).all()
            weight = sites.adv[idx][sp.pos]
            probs = lambda sp: np.concatenate([sp.soft, sp.p[:, sp.soft.shape[1]:]], axis=1)
        else:
            assert (np.exp(sp.live - sites.beh[sp.site]) == 1.0).all()
            assert not sites.scored[sp.site].all()
            weight = np.where(sites.scored[sp.site], sites.adv[sp.site], 0.0)
            probs = lambda sp: None
        assert np.array_equal(g_sur, site_scores(sp, weight, probs(sp)))
        for h, (lo, hi) in enumerate(sp.bounds):
            one, k = site_pass(sites.layout, slab, idx, head=h), sites.layout.widths[h]
            start, stop = one.span
            assert np.array_equal(one.lp, sp.lp[:k, lo:hi])
            assert np.array_equal(g_sur[start:stop], site_scores(
                one, weight[lo:hi], probs(sp)[:k, lo:hi] if flat else None))
        alone = head_sites(take(rows, idx), params)
        assert alone.cells.size < sites.layout.cells.size
        one = site_pass(alone, alone.slab(theta), soft=flat)
        assert np.array_equal(one.lp, sp.lp) and np.array_equal(one.live, sp.live)
        assert np.array_equal(sites.layout.spread(g_sur),
                              alone.spread(site_scores(one, weight, probs(one))))


class TestTotalLoss:
    def test_finite_difference_check(self, rng):
        from segrl.gradcheck import check_total_loss_grads, random_case
        for _ in range(5):
            assert check_total_loss_grads(random_case(rng)) < 1e-6

    def test_flat_loss_finite_differences(self, rng):
        from segrl.gradcheck import fd_params_grad, rel_err
        env = FetchChain(3, 6)
        behavior = fetchchain_phased(env, rng)
        params = PolicyParams(
            behavior.switch + 0.2 * rng.standard_normal(behavior.switch.shape),
            behavior.subgoal + 0.2 * rng.standard_normal(behavior.subgoal.shape),
            behavior.action + 0.2 * rng.standard_normal(behavior.action.shape))
        tt = rollout_batch(env, behavior, 12, seed=5)
        v_flat = rng.standard_normal(env.n_states)
        rows = gather_rows(tt)
        rows.adv_flat = flat_advantage_arrays(tt, v_flat, GAEConfig(gamma=0.95))[tt.mask]
        _, analytic = flat_actor_loss(rows, params, eps=0.2)

        def f(p):
            value, _ = flat_actor_loss(rows, p, eps=0.2)
            return value

        numeric = fd_params_grad(f, params)
        assert rel_err(analytic.theta, numeric.theta) < 1e-6


class TestTrainLoop:
    def test_zero_learning_rates_no_op(self):
        env = FetchChain(3, 6)
        cfg = PPOConfig(seed=0, iterations=3, episodes_per_iter=8,
                        lr_actor=0.0, lr_critic=0.0)
        res = train(cfg, env)
        p0 = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        assert np.array_equal(res.params.switch, p0.switch)
        assert np.array_equal(res.params.action, p0.action)
        assert len({r.mean_return for r in res.metrics}) == 1

    def test_every_hyperparameter_is_read(self):
        # a field that neither trainer reads would be a knob that does nothing
        names = {f.name for f in fields(PPOConfig)}
        read = set()

        class Recording(PPOConfig):
            def __getattribute__(self, name):
                if name in names:
                    read.add(name)
                return super().__getattribute__(name)

        cfg = Recording(seed=0, iterations=1, episodes_per_iter=8)
        read.clear()   # validation reads every field
        for trainer in (train, train_flat_baseline):
            trainer(cfg, FetchChain(3, 6))
        assert read == names, names - read

    @pytest.mark.parametrize("trainer", [train, train_flat_baseline])
    def test_no_logit_stays_negative_zero(self, trainer):
        # a step of the whole vector adds +0.0 to each logit it does not
        # touch, which turns -0.0 into +0.0, inside the batch's slab or not
        env = FetchChain(5, 20)
        init = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        for table in (init.switch, init.subgoal, init.action):
            table[...] = -0.0
        cfg = PPOConfig(seed=0, iterations=1, episodes_per_iter=8)
        theta = trainer(cfg, env, init_params=init).params.theta
        # most logits lie outside the slab of 8 episodes and stay zero
        assert (theta == 0).sum() > theta.size // 2
        assert not np.signbit(theta[theta == 0]).any()

    def test_deterministic_metrics(self):
        env = FetchChain(3, 8)
        cfg = PPOConfig(seed=3, iterations=10, episodes_per_iter=16)
        a = train(cfg, env).metrics_csv()
        b = train(cfg, env).metrics_csv()
        assert a == b

    def test_advantages_frozen_across_epochs(self, rng):
        # the loop computes advantages once per iteration; epochs only read
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        tables = random_tables(rng, env.n_states, 2)
        tt, adv, rows = make_rows(env, params, tables=tables)
        snapshot = (adv.a_low.copy(), adv.a_high.copy(), adv.a_switch.copy())
        live = params.copy()
        for _ in range(3):
            _, g = actor_loss(rows, live, eps=0.2)
            live.action += 0.05 * g.action
            live.subgoal += 0.05 * g.subgoal
            live.switch += 0.05 * g.switch
        assert np.array_equal(adv.a_low, snapshot[0])
        assert np.array_equal(adv.a_high, snapshot[1])
        assert np.array_equal(adv.a_switch, snapshot[2], equal_nan=True)

    def test_strong_kl_keeps_policy_near_reference(self):
        env = FetchChain(3, 8)
        base = PPOConfig(seed=1, iterations=12, episodes_per_iter=16,
                         lr_actor=0.002, kl_beta=0.01)
        strong = PPOConfig(seed=1, iterations=12, episodes_per_iter=16,
                           lr_actor=0.002, kl_beta=20.0)
        free = train(base, env)
        pulled = train(strong, env)
        assert pulled.metrics[-1].kl < free.metrics[-1].kl
        assert max(r.kl for r in pulled.metrics) < 0.01

    def test_divergence_raises(self, monkeypatch):
        # poison the advantages so the surrogate goes non-finite
        import segrl.training as tr
        real = tr._advantage_arrays

        def poisoned(*args, **kwargs):
            adv = real(*args, **kwargs)
            adv.a_low[:] = np.nan
            return adv

        monkeypatch.setattr(tr, "_advantage_arrays", poisoned)
        env = FetchChain(3, 6)
        cfg = PPOConfig(seed=0, iterations=2, episodes_per_iter=8)
        with pytest.raises(TrainingDiverged):
            train(cfg, env)

    @pytest.mark.parametrize("driver", [train, train_flat_baseline])
    def test_non_finite_kl_raises_at_its_iteration(self, driver, monkeypatch):
        # a NaN reference log-prob leaves the surrogate finite and makes the
        # KL of the next iteration's first step NaN
        import segrl.training as tr
        real, refs = tr._ref_log_probs, []

        def kept(params):
            refs.append(real(params))
            return refs[-1]

        monkeypatch.setattr(tr, "_ref_log_probs", kept)

        def poison(state, row):
            if state.iteration == 1:
                refs[0][:] = np.nan

        cfg = PPOConfig(iterations=4, episodes_per_iter=8, seed=0)
        with pytest.raises(TrainingDiverged, match="^non-finite actor surrogate at iteration 2$"):
            driver(cfg, FetchChain(3, 6), on_iteration=poison)

    @pytest.mark.parametrize("driver", [train, train_flat_baseline])
    def test_critic_divergence_raises(self, driver, monkeypatch):
        # both trainers fit their critic with `fit_critic`; poison its tables
        import segrl.training as tr
        real = tr.fit_critic

        def blown(*args, **kwargs):
            tables, rep = real(*args, **kwargs)
            tables.v_high[0] = np.inf
            return tables, rep

        monkeypatch.setattr(tr, "fit_critic", blown)
        cfg = PPOConfig(iterations=2, episodes_per_iter=8, seed=0)
        with pytest.raises(TrainingDiverged, match="critic at iteration 0"):
            driver(cfg, FetchChain(3, 6))

    @pytest.mark.parametrize("trainer,other", [
        (train, "flat_advantage_arrays"),
        pytest.param(train_flat_baseline, "_advantage_arrays",
                     id="train_flat_baseline-advantage_arrays")])
    def test_each_trainer_runs_only_its_own_estimator(self, trainer, other,
                                                      monkeypatch):
        import segrl.training as tr

        def refused(*args, **kwargs):
            raise AssertionError(f"{trainer.__name__} called {other}")

        monkeypatch.setattr(tr, other, refused)
        res = trainer(PPOConfig(iterations=2, episodes_per_iter=8, seed=0),
                      FetchChain(3, 6))
        assert len(res.metrics) == 2

    @pytest.mark.parametrize("name", [f.name for f in fields(PPOConfig)
                                      if isinstance(f.default, float)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_hyperparameter_refused(self, name, value):
        # a NaN passes no range test, so it is refused rather than dropped
        with pytest.raises(ValueError, match=f"^{name} must be"):
            PPOConfig(**{name: value})

    @pytest.mark.parametrize("name", ["epochs", "minibatch", "iterations",
                                      "episodes_per_iter", "eval_episodes", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    def test_non_integer_count_refused(self, name, value):
        # a float seed would train as its truncation, a bool count as 0 or 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            PPOConfig(**{name: value})
        assert getattr(PPOConfig(**{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("lr", [1.0 + 1e-9, 5.0])
    def test_diverging_critic_step_refused(self, lr):
        # a step scales a cell's error by 1 - 2 * lr_critic
        with pytest.raises(ValueError, match="lr_critic"):
            PPOConfig(lr_critic=lr)
        PPOConfig(lr_critic=1.0)

    def test_flat_baseline_runs_and_reports(self):
        env = FetchChain(3, 8)
        cfg = PPOConfig(seed=0, iterations=30, episodes_per_iter=64, c_keep=0.0)
        res = train_flat_baseline(cfg, env)
        assert res.tables.n_options == 0
        assert len(res.metrics) == 30
        assert res.metrics[-1].success >= 0.9


def _orders(seed, it, n_rows, epochs, size=256):
    """Each epoch's order of the rows, as `_run_loop` draws it at iteration
    `it`."""
    batches = list(_minibatches(derive_seed(seed, 23, it), n_rows, epochs, size))
    per_epoch = len(batches) // epochs
    return [np.concatenate(batches[e * per_epoch:(e + 1) * per_epoch])
            for e in range(epochs)]


class TestMinibatchOrder:
    @pytest.mark.parametrize("n_rows,size", [(1000, 256), (1100, 256), (1024, 256),
                                             (100, 256), (1, 256), (7, 3)])
    def test_each_epoch_is_a_permutation_with_the_short_batch_last(self, n_rows, size):
        batches = list(_minibatches(12345, n_rows, 3, size))
        per_epoch = -(-n_rows // size)
        assert len(batches) == 3 * per_epoch
        sizes = [size] * (per_epoch - 1) + [n_rows - size * (per_epoch - 1)]
        for e in range(3):
            epoch = batches[e * per_epoch:(e + 1) * per_epoch]
            assert [len(b) for b in epoch] == sizes
            assert np.array_equal(np.sort(np.concatenate(epoch)), np.arange(n_rows))

    def test_order_is_a_function_of_seed_iteration_epoch_and_rows(self):
        base = _orders(0, 5, 1100, 4)
        assert all(np.array_equal(a, b) for a, b in zip(base, _orders(0, 5, 1100, 4)))
        # an epoch's order does not depend on how many epochs follow it
        assert all(np.array_equal(a, b) for a, b in zip(base, _orders(0, 5, 1100, 2)))
        assert not any(np.array_equal(base[0], other) for other in base[1:])
        for seed, it in ((0, 6), (1, 5)):
            assert not np.array_equal(base[0], _orders(seed, it, 1100, 1)[0])

    @pytest.mark.parametrize("n_rows", [1, 2, 1100, 3840])
    def test_keys_are_distinct_so_any_sort_gives_the_order(self, n_rows):
        keys = _minibatch_keys(derive_seed(0, 23, 3), n_rows, 4)
        for k, order in zip(keys, _orders(0, 3, n_rows, 4)):
            assert np.unique(k).size == n_rows
            assert np.array_equal(np.argsort(k), order)
            assert np.array_equal(np.argsort(k, kind="stable"), order)


class TestPolicyFingerprint:
    @pytest.fixture
    def theta(self, rng):
        return fetchchain_phased(FetchChain(5, 20), rng).theta

    def test_equal_parameters_give_equal_digests(self, theta):
        assert _policy_fingerprint(theta.copy()) == _policy_fingerprint(theta)

    def test_any_last_bit_change_refreshes_the_digest(self, theta):
        digest = _policy_fingerprint(theta)
        for i in (0, theta.size // 2, theta.size - 1):
            bumped = theta.copy()
            bumped[i] = np.nextafter(bumped[i], np.inf)
            assert _policy_fingerprint(bumped) != digest, i

    def test_a_swap_refreshes_the_digest(self, theta):
        swapped = theta.copy()
        i, j = 0, int(np.flatnonzero(theta != theta[0])[0])
        swapped[[i, j]] = swapped[[j, i]]
        assert _policy_fingerprint(swapped) != _policy_fingerprint(theta)

    def test_negative_zero_differs_from_zero(self):
        zeros = np.zeros(40)
        assert _policy_fingerprint(-zeros) != _policy_fingerprint(zeros)
        one = zeros.copy()
        one[17] = -0.0
        assert _policy_fingerprint(one) != _policy_fingerprint(zeros)


class TestEvaluate:
    def test_expert_success(self):
        env = FetchChain(3, 8)
        rep = evaluate(fetchchain_expert(env), env, episodes=4, mode="greedy")
        assert rep.success_rate == 1.0 and rep.mean_return == pytest.approx(10.0)

    def test_greedy_deterministic(self, rng):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, rng)
        a = evaluate(params, env, episodes=16, mode="greedy", seed=0)
        b = evaluate(params, env, episodes=16, mode="greedy", seed=99)
        assert a == b

    def test_sampled_success_matches_exact_probability(self):
        env = FetchChain(5, 20)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        p_exact = success_probability(solve_dp(env, params, 1.0))
        n = 60000
        rep = evaluate(params, env, episodes=n, mode="sample", seed=5)
        se = math.sqrt(p_exact * (1 - p_exact) / n)
        assert abs(rep.success_rate - p_exact) <= 3 * se

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_no_episodes_refused(self, mode):
        # zero episodes would report NaN success, return and length
        env = FetchChain(3, 6)
        with pytest.raises(ValueError, match="episodes must be >= 1, got 0"):
            evaluate(PolicyParams.uniform(env.n_states, 2, 4), env, 0, mode)

    def test_mode_validation(self, rng):
        env = FetchChain(3, 6)
        with pytest.raises(ValueError):
            evaluate(PolicyParams.uniform(env.n_states, 2, 4), env, 1, "argmax")
