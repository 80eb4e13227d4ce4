import inspect
import math
import textwrap

import numpy as np
import pytest

from segrl import batch, oracle
from segrl.advantages import whiten
from segrl.batch import advantage_arrays, flat_advantage_arrays, gather_rows
from segrl.critic import ValueTables
from segrl.oracle import random_tables, telescope_check
from segrl.policy import PolicyParams
from segrl.training import PPOConfig, _ref_log_probs, _sites, _whiten_sites

import spec
from spec import segment_boundaries
from conftest import random_trajectory, traj_from


def cfg_with(**kw):
    base = dict(gamma=1.0, lambda_low=1.0, lambda_high=1.0, lambda_flat=1.0)
    base.update(kw)
    return PPOConfig(**base)


def one_episode(traj, tables, cfg, params=None):
    """`advantage_arrays` on a one-episode TurnTable, unpadded: a_low per
    turn, a_high per segment, a_switch for t = 1 .. T-1."""
    adv = advantage_arrays(spec.table([traj]), tables, cfg, params=params)
    n = traj.n_turns
    a_high = adv.a_high[0, :n][adv.masks.is_boundary[0, :n]]
    return adv.a_low[0, :n], a_high, adv.a_switch[0, 1:n]


def switch_advantages(traj, tables, params=None):
    return one_episode(traj, tables, cfg_with(), params=params)[2]


def flat_gae(traj, v_flat, cfg):
    """`flat_advantage_arrays` on a one-episode TurnTable, unpadded."""
    tt = spec.table([traj])
    return flat_advantage_arrays(tt, v_flat, cfg)[0, :traj.n_turns]


def low_high(traj, tables, cfg):
    """The kernel's low and high advantages of one episode; the switching
    level needs switch probabilities, and any will do."""
    params = PolicyParams.uniform(tables.n_states, tables.n_options, 1)
    return one_episode(traj, tables, cfg, params=params)[:2]


def residuals(traj, tables, gamma):
    """The kernel's low TD residuals: its low advantages at lambda_low 0."""
    return low_high(traj, tables, cfg_with(gamma=gamma, lambda_low=0.0))[0]


class TestLowResiduals:
    def test_exact_cancellation_at_boundary(self):
        tables = ValueTables.zeros(10, 2)
        tables.v_high[2] = 3.0
        tables.v_low[1, 0] = 3.0
        traj = traj_from([1, 0, 1], [0.0] * 3, states=[0, 1, 2])
        d = residuals(traj, tables, 1.0)
        assert d[1] == pytest.approx(0.0, abs=1e-15)

    def test_interior_arithmetic(self):
        tables = ValueTables.zeros(10, 2)
        tables.v_low[1, 0] = 2.0   # next state, same subgoal
        tables.v_low[0, 0] = 1.0
        traj = traj_from([1, 0], [0.5, 0.0], states=[0, 1])
        d = residuals(traj, tables, 0.9)
        assert d[0] == pytest.approx(0.5 + 0.9 * 2.0 - 1.0)


class TestLowAdvantages:
    def test_lambda_zero_is_one_step(self, rng):
        traj = random_trajectory(rng, 8, 2, 3)
        tables = random_tables(rng, 8, 2)
        assert np.allclose(residuals(traj, tables, 0.9),
                           spec.low_td_residuals(traj, tables, 0.9))

    def test_direct_sum_within_segment(self):
        # zero tables at gamma 1: each residual is its turn's reward
        traj = traj_from([1, 0], [1.0, 0.5])
        a = low_high(traj, ValueTables.zeros(2, 1), cfg_with())[0]
        assert a[0] == pytest.approx(1.5)

    def test_accumulation_resets_at_boundaries(self):
        traj = traj_from([1, 0, 1, 0], [1.0] * 4)
        a = low_high(traj, ValueTables.zeros(4, 2), cfg_with())[0]
        assert a.tolist() == [2.0, 1.0, 2.0, 1.0]


class TestHighAdvantages:
    """The kernel's high residuals are its high advantages at lambda_high 0."""

    def test_single_segment(self, rng):
        traj = traj_from([1, 0, 0], [1.0, 2.0, 3.0])
        tables = random_tables(rng, 8, 3)
        adv = low_high(traj, tables, cfg_with())[1]
        deltas = low_high(traj, tables, cfg_with(lambda_high=0.0))[1]
        assert len(deltas) == 1 and adv[0] == deltas[0]

    def test_two_segment_product(self):
        # durations 2 and 1 under gamma=0.5 give duration discounts 0.25, 0.5
        tables = ValueTables.zeros(10, 2)
        tables.v_high[:] = np.arange(10.0)
        traj = traj_from([1, 0, 1], [1.0, 2.0, 4.0], states=[0, 1, 2])
        adv = low_high(traj, tables, cfg_with(gamma=0.5))[1]
        deltas = low_high(traj, tables, cfg_with(gamma=0.5, lambda_high=0.0))[1]
        assert adv[0] == pytest.approx(deltas[0] + 0.25 * deltas[1])

    def test_monte_carlo_closed_form(self, rng):
        cfg = cfg_with(gamma=0.9)
        for _ in range(50):
            traj = random_trajectory(rng, 8, 3, 4, p_truncated=0.0)
            tables = random_tables(rng, 8, 3)
            adv = one_episode(traj, tables, cfg)[1]
            g = spec.returns_to_go(traj, 0.9)
            bounds = segment_boundaries(traj)
            for k, b in enumerate(bounds[:-1]):
                closed = g[b] - tables.v_high[traj.turns[b].state]
                assert adv[k] == pytest.approx(closed, abs=1e-10)


class TestSwitchAdvantages:
    def test_centered_weight_vanishes(self):
        tables = ValueTables.zeros(8, 2)
        tables.v_high[:] = 5.0
        traj = traj_from([1, 1], [0.0, 0.0], states=[0, 1],
                         lp_switch=[None, 0.0])  # beta = 1 on a switch turn
        a = switch_advantages(traj, tables)
        assert a[0] == pytest.approx(0.0)

    def test_keep_against_even_odds(self):
        tables = ValueTables.zeros(8, 2)
        tables.v_high[1] = 2.0
        traj = traj_from([1, 0], [0.0, 0.0], states=[0, 1],
                         lp_switch=[None, math.log(0.5)])
        a = switch_advantages(traj, tables)
        assert a[0] == pytest.approx((0 - 0.5) * 2.0)

    def test_params_fallback(self, rng):
        params = PolicyParams.random(rng, 8, 2, 3)
        traj = random_trajectory(rng, 8, 2, 3)
        stripped = traj.__class__(
            turns=tuple(u._replace(lp_switch=None) for u in traj.turns),
            truncated=traj.truncated, final_state=traj.final_state)
        tables = random_tables(rng, 8, 2)
        a = switch_advantages(stripped, tables, params=params)
        assert np.all(np.isfinite(a))
        with pytest.raises(ValueError):
            switch_advantages(stripped, tables)


class TestFlatGae:
    def test_zero_everything(self):
        traj = traj_from([1, 0, 0], [0.0] * 3)
        a = flat_gae(traj, np.zeros(8), cfg_with())
        assert np.allclose(a, 0.0)

    def test_single_turn_is_delta(self, rng):
        traj = traj_from([1], [2.5])
        v = rng.standard_normal(8)
        a = flat_gae(traj, v, cfg_with(gamma=0.9))
        assert a[0] == pytest.approx(2.5 - v[0])

    def test_monte_carlo_closed_form(self, rng):
        cfg = cfg_with(gamma=0.85)
        for _ in range(50):
            traj = random_trajectory(rng, 8, 3, 4, p_truncated=0.0)
            v = rng.standard_normal(8)
            a = flat_gae(traj, v, cfg)
            g = spec.returns_to_go(traj, 0.85)
            for t in range(traj.n_turns):
                assert a[t] == pytest.approx(
                    g[t] - v[traj.turns[t].state], abs=1e-10)


class TestEstimateAll:
    def test_passthrough_components(self, rng):
        traj = random_trajectory(rng, 8, 3, 4)
        tables = random_tables(rng, 8, 3)
        cfg = PPOConfig(gamma=0.9, lambda_low=0.7, lambda_high=0.6)
        a_low, a_high, a_switch = one_episode(traj, tables, cfg)
        bounds = segment_boundaries(traj)
        d = spec.low_td_residuals(traj, tables, 0.9)
        assert np.allclose(a_low, spec.low_advantages(d, bounds, cfg))
        assert np.allclose(a_high, spec.high_advantages(traj, tables, cfg)[1])
        assert np.allclose(a_switch, spec.switch_advantages(traj, tables))
        assert len(a_low) == traj.n_turns
        assert len(a_high) == len(bounds) - 1
        assert len(a_switch) == traj.n_turns - 1

    def test_batch_whitening_moments(self, rng):
        # the kernel returns raw advantages; the trainer whitens each head's
        # over its present sites: every turn, the switch turns, turns t >= 1
        trajs = [random_trajectory(rng, 8, 3, 4, max_turns=8) for _ in range(40)]
        tables = random_tables(rng, 8, 3)
        cfg = PPOConfig(gamma=0.9)
        tt = spec.table(trajs)
        adv = advantage_arrays(tt, tables, cfg)
        params = PolicyParams.uniform(8, 3, 4)
        sites = _sites(gather_rows(tt, adv), params, False, _ref_log_probs(params))
        _whiten_sites(sites)
        later = tt.mask & (np.arange(tt.max_turns) > 0)
        for white, present, raw in zip(
                sites.adv.reshape(3, -1), sites.layout.present,
                (adv.a_low[tt.mask], adv.a_high[adv.masks.is_boundary],
                 adv.a_switch[later])):
            flat = white[present]
            assert np.array_equal(flat, whiten(raw))
            assert abs(flat.mean()) < 1e-10
            assert flat.var() == pytest.approx(1.0, abs=1e-6)

    def test_identical_trajectories_identical_advantages(self, rng):
        traj = random_trajectory(rng, 8, 3, 4)
        tables = random_tables(rng, 8, 3)
        cfg = PPOConfig(gamma=0.9)
        adv = advantage_arrays(spec.table([traj, traj, traj]), tables, cfg)
        for i in (1, 2):
            assert np.array_equal(adv.a_low[i], adv.a_low[0])
            assert np.array_equal(adv.a_high[i], adv.a_high[0])

    def test_whiten_degenerate_guard(self):
        out = whiten(np.full(5, 3.0))
        assert np.allclose(out, 0.0)


class TestSegmentLocality:
    def test_reward_perturbation_stays_in_segment(self, rng):
        cfg = PPOConfig(gamma=0.9, lambda_low=0.6, lambda_high=0.8)
        for _ in range(30):
            traj = random_trajectory(rng, 8, 3, 4, max_turns=10)
            tables = random_tables(rng, 8, 3)
            bounds = segment_boundaries(traj)
            if len(bounds) < 3:
                continue
            j = int(rng.integers(len(bounds) - 1))
            t_hit = int(rng.integers(bounds[j], bounds[j + 1]))
            bumped = traj.__class__(
                turns=tuple(u._replace(reward=u.reward + 1.0) if u.t == t_hit else u
                            for u in traj.turns),
                truncated=traj.truncated, final_state=traj.final_state)
            base_low, base_high, _ = one_episode(traj, tables, cfg)
            bump_low, bump_high, _ = one_episode(bumped, tables, cfg)
            diff_low = bump_low - base_low
            # later segments untouched; the perturbed segment feels it only
            # at or before the perturbed turn
            assert np.allclose(diff_low[bounds[j + 1]:], 0.0, atol=1e-12)
            assert np.allclose(diff_low[t_hit + 1:bounds[j + 1]], 0.0, atol=1e-12)
            assert abs(diff_low[t_hit]) > 1e-9
            diff_high = bump_high - base_high
            assert np.allclose(diff_high[j + 1:], 0.0, atol=1e-12)
            assert abs(diff_high[j]) > 1e-9


def mutated(fn, old, new):
    """`fn` recompiled in its own module with the one occurrence of `old` in
    its source replaced by `new`."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, old
    scope = {}
    exec(compile(src.replace(old, new), inspect.getfile(fn), "exec"),
         fn.__globals__, scope)
    return scope[fn.__name__]


class TestTelescoping:
    def test_random_corpus_identities(self):
        rep = telescope_check(trials=2000, seed=11)
        assert rep.passed, (rep.max_dev_low, rep.max_dev_high)

    def test_reports_the_worst_of_its_blocks(self, monkeypatch):
        # 2500 trials run as blocks of 1000, 1000 and 500
        sizes, devs = [], iter([(1.0, 0.0), (0.0, 2.0), (0.5, 0.5)])

        def block(rng, trials, *dims):
            sizes.append(trials)
            return next(devs)

        monkeypatch.setattr(oracle, "_telescope_deviations", block)
        rep = telescope_check(trials=2500, seed=0)
        assert sizes == [1000, 1000, 500]
        assert (rep.max_dev_low, rep.max_dev_high) == (1.0, 2.0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            telescope_check(trials=0, seed=0)

    def test_catches_a_dropped_truncation_bootstrap(self, monkeypatch):
        original = batch._critic_rows

        def no_final_state(tt, gamma, sm, *dims):
            # the low rows of truncated last turns lose their coupling
            rows, lo, hi, gtilde = original(tt, gamma, sm, *dims)
            cut = np.flatnonzero((sm.is_last & ~tt.terminated[:, None])[lo])
            keep = ~np.isin(rows["row"], cut)
            for key in ("row", "boot", "coef"):
                rows[key] = rows[key][keep]
            return rows, lo, hi, gtilde

        monkeypatch.setattr(batch, "_critic_rows", no_final_state)
        rep = telescope_check(trials=300, seed=0)
        assert not rep.passed and rep.max_dev_low > 1e-3

    def test_catches_a_shifted_duration_discount(self, monkeypatch):
        shifted = mutated(batch._critic_rows, "gamma[b_rows] ** (ends - b_ts).astype",
                          "gamma[b_rows] ** (ends - b_ts + 1).astype")
        monkeypatch.setattr(batch, "_critic_rows", shifted)
        rep = telescope_check(trials=300, seed=0)
        assert not rep.passed and rep.max_dev_high > 1e-3


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            PPOConfig(gamma=0.0)
        with pytest.raises(ValueError):
            PPOConfig(gamma=1.2)
        with pytest.raises(ValueError):
            PPOConfig(lambda_low=1.5)
        PPOConfig(gamma=1.0, lambda_low=1.0)  # boundary values accepted
