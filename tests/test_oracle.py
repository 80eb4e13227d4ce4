import dataclasses

import numpy as np
import pytest

from segrl.advantages import GAEConfig
from segrl.batch import (TurnTable, advantage_arrays, critic_batch_from_table,
                         flat_advantage_arrays, rollout_batch)
from segrl.core import KEEP
from segrl.envs import FetchChain, OneStep
from segrl.oracle import (EnumerationCapExceeded, branching_bound,
                          conditional_switch_values_enumerated,
                          enumeration_table, exact_critic_batch,
                          mc_gradient_hae, objective,
                          objective_enumerated, oracle_gradient,
                          oracle_gradient_enumerated, oracle_values,
                          oracle_values_enumerated, score_expectation_enumerated,
                          solve_dp, success_probability,
                          random_table, switching_exactness_report,
                          unbiasedness_report, variance_reports)
from segrl.policy import PolicyParams, fetchchain_phased

import spec
from conftest import Walk, weighted_target_maps


@pytest.fixture(scope="module")
def small_env_policy():
    env = FetchChain(2, 3)
    rng = np.random.default_rng(5)
    params = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.8)
    return env, params


class TestEnumeration:
    def test_onestep_leaf_count_and_probability(self):
        env = OneStep(n_actions=3, reward=10.0)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        tt = enumeration_table(env, params)
        # the forced first switch leaves |O| * |A| leaves
        assert tt.n_episodes == 2 * 3
        assert tt.weight.sum() == pytest.approx(1.0, abs=1e-9)
        for p, n_turns, terminated in zip(tt.weight, tt.length, tt.terminated):
            assert p == pytest.approx(1.0 / 6.0)
            assert n_turns == 1 and terminated

    def test_fetchchain_leaf_count_matches_branching_product(self):
        env = FetchChain(3, 4)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        tt = enumeration_table(env, params)
        # no episode can terminate early within 4 turns, so the count is the
        # full product: (O*A) * ((1+O)*A)^(H-1)
        assert tt.n_episodes == branching_bound(2, 4, 4) == 8 * 12 ** 3
        assert tt.weight.sum() == pytest.approx(1.0, abs=1e-9)

    def test_cap_enforced(self):
        env = FetchChain(5, 20)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        with pytest.raises(EnumerationCapExceeded):
            enumeration_table(env, params, cap=1e6)


def _zero_branch_policy():
    """FetchChain(2, 3) with some -1e3 logits: their branches have mass 0."""
    env = FetchChain(2, 3)
    params = PolicyParams.random(np.random.default_rng(9), env.n_states, 2,
                                 env.n_actions, scale=0.8)
    params.action[::2, :, 0] = -1e3
    params.subgoal[1::3, 1] = -1e3
    params.switch[::2, 0, KEEP] = -1e3
    return env, params


class TestEnumerationTable:
    """`enumeration_table` against the depth-first recursion of the spec,
    validated through `TurnTable.from_trajectories`: equal column by column,
    bit for bit, in the same leaf order."""

    @pytest.mark.parametrize("case", ["onestep", "chain23", "chain34", "walk",
                                      "zero_branches"])
    def test_equals_the_recursion(self, case):
        if case == "zero_branches":
            env, params = _zero_branch_policy()
        else:
            env = {"onestep": lambda: OneStep(n_actions=3, reward=10.0),
                   "chain23": lambda: FetchChain(2, 3),
                   "chain34": lambda: FetchChain(3, 4), "walk": Walk}[case]()
            params = PolicyParams.random(np.random.default_rng(7), env.n_states, 2,
                                         env.n_actions, scale=0.8)
        items = spec.enumerate_trajectories(env, params)
        want = TurnTable.from_trajectories([traj for traj, _ in items],
                                           weights=[p for _, p in items])
        got = enumeration_table(env, params)
        for field in dataclasses.fields(TurnTable):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.dtype == b.dtype and np.array_equal(
                a, b, equal_nan=a.dtype.kind == "f"), field.name

    def test_zero_mass_branches_are_dropped(self):
        env, params = _zero_branch_policy()
        tt = enumeration_table(env, params)
        assert tt.n_episodes < branching_bound(2, env.n_actions, env.horizon)
        assert (tt.weight > 0).all()
        assert not (tt.mask & (tt.action == 0) & (tt.state % 2 == 0)).any()


class TestDualRoutes:
    def test_objective(self, small_env_policy):
        env, params = small_env_policy
        for gamma in (1.0, 0.9, 0.5):
            assert objective(env, params, gamma) == pytest.approx(
                objective_enumerated(env, params, gamma), abs=1e-12)

    def test_gradient(self, small_env_policy):
        env, params = small_env_policy
        for gamma in (1.0, 0.8):
            dp = oracle_gradient(env, params, gamma)
            leaf = oracle_gradient_enumerated(env, params, gamma)
            assert np.max(np.abs(dp.as_vector() - leaf.as_vector())) < 1e-12

    def test_values(self, small_env_policy):
        env, params = small_env_policy
        dp = oracle_values(env, params, 0.9)
        leaf = oracle_values_enumerated(env, params, 0.9)
        for name in ("v_high", "v_low", "v_flat"):
            assert np.allclose(getattr(dp, name), getattr(leaf, name), atol=1e-11)
        assert np.array_equal(dp.low_defined, leaf.low_defined)
        assert np.array_equal(dp.high_defined, leaf.high_defined)

    def test_switch_conditionals(self, small_env_policy):
        env, params = small_env_policy
        dp = solve_dp(env, params, 0.9)
        leaf = conditional_switch_values_enumerated(env, params, 0.9)
        for (t, s, o_prev, q), val in leaf.items():
            expect = dp.g_low[t, s, o_prev] if q == 0 else dp.g_high[t, s]
            assert val == pytest.approx(expect, abs=1e-10)


class TestTruncatedLeaves:
    @pytest.fixture(scope="class")
    def walk(self):
        env = Walk()
        rng = np.random.default_rng(7)
        return env, PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.8)

    def test_enumeration_cuts_at_the_horizon(self, walk):
        tt = enumeration_table(*walk)
        assert tt.n_episodes == 1248
        assert np.sum(~tt.terminated) == 864
        assert tt.weight.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dual_routes(self, walk):
        env, params = walk
        for gamma in (1.0, 0.9):
            assert objective(env, params, gamma) == pytest.approx(
                objective_enumerated(env, params, gamma), abs=1e-12)
            dp = oracle_gradient(env, params, gamma)
            leaf = oracle_gradient_enumerated(env, params, gamma)
            assert np.max(np.abs(dp.as_vector() - leaf.as_vector())) < 1e-12
            dp = oracle_values(env, params, gamma)
            leaf = oracle_values_enumerated(env, params, gamma)
            for name in ("v_high", "v_low", "v_flat"):
                assert np.allclose(getattr(dp, name), getattr(leaf, name), atol=1e-11)
        tt = enumeration_table(env, params)
        mass = tt.weight[tt.terminated & (tt.final_state == env.goal_state)].sum()
        assert 0.0 < mass < 1.0
        assert success_probability(env, params) == pytest.approx(mass, abs=1e-12)

    def test_exact_critic_batch_matches_the_enumeration(self, walk):
        env, params = walk
        gamma = 0.9
        tt = enumeration_table(env, params)
        cb_t = critic_batch_from_table(tt, gamma, env.n_states, 2)
        cb_e = exact_critic_batch(env, params, gamma)
        assert np.allclose(cb_t.w, cb_e.w, atol=1e-12)
        for j, (a, b) in enumerate(zip(weighted_target_maps(cb_t),
                                       weighted_target_maps(cb_e))):
            assert np.allclose(a, b, atol=1e-12), j


class TestOracleValues:
    def test_onestep_constant_reward(self):
        env = OneStep(n_actions=2, reward=10.0)
        params = PolicyParams.uniform(env.n_states, 3, env.n_actions)
        vals = oracle_values(env, params, 0.9)
        assert np.allclose(vals.v_high[vals.high_defined], 10.0)
        assert np.allclose(vals.v_low[vals.low_defined], 10.0)
        assert np.allclose(vals.v_flat[vals.flat_defined], 10.0)

    def test_tower_property_at_switch_states(self, small_env_policy):
        env, params = small_env_policy
        dp = solve_dp(env, params, 0.9)
        # mixing the subgoal head over the low values gives the high value
        mix = np.sum(dp.pi_hi[None] * dp.g_low, axis=2)
        assert np.allclose(mix, dp.g_high, atol=1e-12)

    def test_values_match_monte_carlo(self):
        env = FetchChain(3, 6)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        gamma = 1.0
        vals = oracle_values(env, params, gamma)
        tt = rollout_batch(env, params, 200000, seed=3)
        from segrl.batch import returns_matrix
        g = returns_matrix(tt, gamma)
        eps, ts = np.nonzero(tt.mask)
        cells = tt.state[eps, ts] * 2 + tt.subgoal[eps, ts]
        gsel = g[eps, ts]
        checked = 0
        for cell in np.unique(cells):
            sel = gsel[cells == cell]
            if len(sel) < 2000:
                continue
            s, o = divmod(int(cell), 2)
            se = sel.std(ddof=1) / np.sqrt(len(sel))
            # 4 standard errors: ~30 cells are tested simultaneously
            assert abs(sel.mean() - vals.v_low[s, o]) <= 4.0 * se + 1e-9
            checked += 1
        assert checked > 10

    def test_undefined_cells_flagged(self):
        env = FetchChain(3, 6)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        vals = oracle_values(env, params, 1.0)
        # carrying at clock 0 is impossible
        impossible = env.encode(1, True, 0)
        assert not vals.low_defined[impossible].any()
        assert vals.v_low[impossible].tolist() == [0.0, 0.0]


class TestOracleGradient:
    def test_zero_reward_env_zero_gradient(self, rng):
        env = OneStep(n_actions=3, reward=0.0)
        params = PolicyParams.random(rng, env.n_states, 2, env.n_actions)
        g = oracle_gradient(env, params, 1.0)
        assert g.max_abs() < 1e-15

    def test_matches_finite_differences_of_objective(self, small_env_policy):
        env, params = small_env_policy
        gamma = 0.9
        g = oracle_gradient(env, params, gamma)
        h = 1e-5
        rng = np.random.default_rng(3)
        from segrl.policy import params_as_vector, params_from_vector
        vec = params_as_vector(params)
        for i in rng.choice(vec.size, size=25, replace=False):
            bump = vec.copy()
            bump[i] = vec[i] + h
            hi = objective(env, params_from_vector(bump, params), gamma)
            bump[i] = vec[i] - h
            lo = objective(env, params_from_vector(bump, params), gamma)
            numeric = (hi - lo) / (2 * h)
            analytic = g.as_vector()[i]
            assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(analytic))

    def test_reward_shift_linearity(self, small_env_policy):
        env, params = small_env_policy

        class Shifted:
            def __init__(self, base, c):
                self.base, self.c = base, c
                self.n_states, self.n_actions = base.n_states, base.n_actions
                self.horizon = base.horizon
            def initial_states(self):
                return self.base.initial_states()
            def is_terminal(self, s):
                return self.base.is_terminal(s)
            def transition(self, s, a):
                nxt, r, done = self.base.transition(s, a)
                return nxt, r + self.c, done

        gamma = 0.9
        c = 0.7
        g0 = oracle_gradient(env, params, gamma)
        gc = oracle_gradient(Shifted(env, c), params, gamma)
        g1 = oracle_gradient(Shifted(env, 1.0), params, gamma)  # rewards + 1
        # gradient shifts by c * gradient of E[sum gamma^t * 1]
        lhs = gc.as_vector() - g0.as_vector()
        rhs = c * (g1.as_vector() - g0.as_vector())
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_score_identity(self, small_env_policy):
        env, params = small_env_policy
        assert score_expectation_enumerated(env, params).max_abs() < 1e-10


class TestSuccessProbability:
    def test_expert_reaches_goal_surely(self):
        from segrl.policy import fetchchain_expert
        env = FetchChain(3, 8)
        assert success_probability(env, fetchchain_expert(env)) == pytest.approx(1.0, abs=1e-8)

    def test_matches_enumeration_mass(self, small_env_policy):
        env = FetchChain(2, 5)
        rng = np.random.default_rng(8)
        params = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.5)
        tt = enumeration_table(env, params)
        mass = tt.weight[tt.terminated & (tt.final_state == env.goal_state)].sum()
        assert success_probability(env, params) == pytest.approx(mass, abs=1e-12)


class TestSwitchingExactness:
    def test_exact_on_phased_policy(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        rep = switching_exactness_report(env, params, 1.0)
        assert rep.passed and rep.n_contexts > 0


class TestMonteCarloHarnesses:
    def test_unbiasedness_smoke(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        rep = unbiasedness_report(env, params, n=30000, seed=4)
        assert rep.passed, (rep.max_z, rep.n_failed)

    def test_deterministic_gradient_equals_its_mean(self):
        # near-deterministic policy and env: a single sample is its own mean
        env = FetchChain(2, 4)
        from segrl.policy import fetchchain_expert
        params = fetchchain_expert(env, sharpness=40.0)
        cfg = GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0,
                        lambda_flat=1.0)
        tables = oracle_values(env, params, 1.0).tables
        one = mc_gradient_hae(env, params, tables, cfg, n=1, seed=0)
        many = mc_gradient_hae(env, params, tables, cfg, n=64, seed=1)
        assert np.max(np.abs(one.mean.as_vector() - many.mean.as_vector())) < 1e-9

    def test_variance_ci_width_shrinks_with_n(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        vals = oracle_values(env, params, 1.0)
        small, = variance_reports(env, params, vals, [2], n=400, seed=2)
        large, = variance_reports(env, params, vals, [2], n=8000, seed=2)
        width = lambda ci: ci[1] - ci[0]
        assert width(small.ci_diff) > width(large.ci_diff)

    def test_unreachable_turn_rejected(self):
        env = FetchChain(2, 3)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        vals = oracle_values(env, params, 1.0)
        with pytest.raises(RuntimeError):
            variance_reports(env, params, vals, [7], n=100, seed=0, max_rounds=2)

    def test_equality_case_single_subgoal_never_switching(self):
        env = FetchChain(3, 6)
        params = PolicyParams.uniform(env.n_states, 1, env.n_actions)
        params.switch[:, :, 0] = 30.0   # never switch after the forced first
        vals = oracle_values(env, params, 1.0)
        cfg = GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0,
                        lambda_flat=1.0)
        tt = rollout_batch(env, params, 2000, seed=6)
        a_low = advantage_arrays(tt, vals.tables, cfg).a_low
        a_flat = flat_advantage_arrays(tt, vals.v_flat, cfg)
        sel = tt.mask
        assert np.allclose(a_low[sel], a_flat[sel], atol=1e-10)


class TestVarianceReports:
    @pytest.fixture(scope="class")
    def phased(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        return env, params, oracle_values(env, params, 1.0)

    @pytest.mark.parametrize("n,t", [(3000, 4), (10000, 1)])
    def test_equals_the_dense_one_shot_bootstrap(self, phased, n, t):
        env, params, vals = phased
        assert (variance_reports(env, params, vals, [t], n=n, seed=3)
                == [spec.variance_report(env, params, vals, t=t, n=n, seed=3)])

    def test_an_unreachable_turn_is_named(self, phased):
        env, params, vals = phased
        with pytest.raises(RuntimeError, match="turn 6 "):
            variance_reports(env, params, vals, [1, 6], n=100, seed=0, max_rounds=2)


class TestRandomTable:
    @staticmethod
    def assert_round_trips(tt):
        back = TurnTable.from_trajectories(tt.to_trajectories())
        for name, value in vars(tt).items():
            assert np.array_equal(getattr(back, name), value, equal_nan=True), name

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trips_through_the_validator(self, seed):
        rng = np.random.default_rng(seed)
        tt = random_table(rng, 300, 6, 3, 4, max_turns=int(rng.integers(2, 12)))
        assert (tt.length == 1).any() and (~tt.terminated).any()
        assert (tt.terminated & (tt.length > 1)).any()
        # the forced first switch records no switch log-prob; later turns
        # record log(beta) or log(1 - beta) with beta in [0.05, 0.95)
        assert np.isnan(tt.lp_switch[:, 0]).all() and (tt.q[:, 0] == 1).all()
        p = np.exp(tt.lp_switch[:, 1:][tt.mask[:, 1:]])
        beta = np.where(tt.q[:, 1:][tt.mask[:, 1:]] == 1, p, 1.0 - p)
        assert ((beta >= 0.05 - 1e-12) & (beta < 0.95 + 1e-12)).all()
        self.assert_round_trips(tt)

    def test_one_episode_is_as_wide_as_it_is_long(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tt = random_table(rng, 1, 6, 3, 4)
            assert tt.max_turns == tt.length[0]
            self.assert_round_trips(tt)

    def test_frequencies(self):
        n, max_turns, p_truncated = 20000, 8, 0.3
        tt = random_table(np.random.default_rng(11), n, 6, 3, 4, max_turns, p_truncated)
        # each count within 5 binomial standard deviations of its expectation
        lengths = np.bincount(tt.length, minlength=max_turns + 1)
        assert lengths[0] == 0 and lengths.size == max_turns + 1
        p = 1.0 / max_turns
        assert np.all(np.abs(lengths[1:] - n * p) <= 5 * np.sqrt(n * p * (1 - p)))
        truncated = int((~tt.terminated).sum())
        assert abs(truncated - n * p_truncated) <= 5 * np.sqrt(
            n * p_truncated * (1 - p_truncated))
