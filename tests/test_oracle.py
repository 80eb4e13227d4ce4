import dataclasses
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from segrl import oracle
from segrl.batch import (TurnTable, advantage_arrays, critic_batch_from_table,
                         flat_advantage_arrays, rollout_batch)
from segrl.core import KEEP
from segrl.critic import ValueTables
from segrl.envs import FetchChain, OneStep
from segrl.oracle import (EnumerationCapExceeded, branching_bound,
                          enumeration_table, exact_critic_batch,
                          mc_gradient_hae, objective,
                          objective_enumerated, oracle_gradient,
                          oracle_gradient_enumerated, oracle_values,
                          oracle_values_enumerated,
                          solve_dp, success_probability,
                          random_table, switching_exactness_report,
                          McGradient, unbiasedness,
                          variance_reports)
from segrl.policy import GradTables, PolicyParams, fetchchain_phased
from segrl.training import PPOConfig

import spec
from conftest import Walk, cpus as _cpus, weighted_target_maps


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

    def test_default_cap_bounds_the_cells(self):
        # FetchChain(3, 7): 23.9M leaves x 7 turns, refused before expanding
        env = FetchChain(3, 7)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        with pytest.raises(EnumerationCapExceeded, match="167,215,104 cells"):
            enumeration_table(env, params)


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
    validated through `TurnTable.from_columns`: equal column by column,
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
        want = spec.table([traj for traj, _ in items], weights=[p for _, p in items])
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
            dp = oracle_gradient(solve_dp(env, params, gamma))
            leaf = oracle_gradient_enumerated(env, params, gamma)
            assert np.max(np.abs(dp.theta - leaf.theta)) < 1e-12

    def test_values(self, small_env_policy):
        env, params = small_env_policy
        dp = oracle_values(solve_dp(env, params, 0.9))
        leaf = oracle_values_enumerated(env, params, 0.9)
        for name in ("v_high", "v_low", "v_flat"):
            assert np.allclose(getattr(dp, name), getattr(leaf, name), atol=1e-11)
        assert np.array_equal(dp.low_defined, leaf.low_defined)
        assert np.array_equal(dp.high_defined, leaf.high_defined)

    def test_switch_conditionals(self, small_env_policy):
        env, params = small_env_policy
        dp = solve_dp(env, params, 0.9)
        leaf = spec.conditional_switch_values_enumerated(env, params, 0.9)
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
            dp = oracle_gradient(solve_dp(env, params, gamma))
            leaf = oracle_gradient_enumerated(env, params, gamma)
            assert np.max(np.abs(dp.theta - leaf.theta)) < 1e-12
            dp = oracle_values(solve_dp(env, params, gamma))
            leaf = oracle_values_enumerated(env, params, gamma)
            for name in ("v_high", "v_low", "v_flat"):
                assert np.allclose(getattr(dp, name), getattr(leaf, name), atol=1e-11)
        tt = enumeration_table(env, params)
        mass = tt.weight[tt.terminated & (tt.final_state == env.goal_state)].sum()
        assert 0.0 < mass < 1.0
        assert success_probability(solve_dp(env, params, 1.0)) == pytest.approx(mass, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    @pytest.mark.parametrize("horizon", [4, 6])
    def test_exact_critic_batch_matches_the_enumeration(self, horizon, gamma):
        # no clock in the state: segments started on different turns meet at
        # one (start, state, subgoal) and must merge in the high head's flow
        env = Walk(horizon)
        params = PolicyParams.random(np.random.default_rng(7), env.n_states, 2,
                                     env.n_actions, scale=0.8)
        tt = enumeration_table(env, params)
        cb_t = critic_batch_from_table(tt, gamma, env.n_states, 2)
        cb_e = exact_critic_batch(solve_dp(env, params, gamma))
        assert np.allclose(cb_t.w, cb_e.w, atol=1e-12)
        for j, (a, b) in enumerate(zip(weighted_target_maps(cb_t),
                                       weighted_target_maps(cb_e))):
            assert np.allclose(a, b, atol=1e-12), j

    def test_exact_critic_batch_holds_no_dense_state_pairs(self):
        # 514 states: one dense (S, O, S) array per turn would take 135 MB
        env = FetchChain(8, 32)
        params = fetchchain_phased(env, np.random.default_rng(0))
        tracemalloc.start()
        try:
            exact_critic_batch(solve_dp(env, params, 0.97))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, peak


class TestOracleValues:
    def test_onestep_constant_reward(self):
        env = OneStep(n_actions=2, reward=10.0)
        params = PolicyParams.uniform(env.n_states, 3, env.n_actions)
        vals = oracle_values(solve_dp(env, params, 0.9))
        assert np.allclose(vals.v_high[vals.high_defined], 10.0)
        assert np.allclose(vals.v_low[vals.low_defined], 10.0)
        assert np.allclose(vals.v_flat[vals.flat_defined], 10.0)

    def test_tower_property_at_switch_states(self, small_env_policy):
        env, params = small_env_policy
        dp = solve_dp(env, params, 0.9)
        # mixing the subgoal head over the low values gives the high value
        mix = np.sum(dp.pi_hi[None] * dp.g_low, axis=2)
        assert np.allclose(mix, dp.g_high, atol=1e-12)
        # and the action head over the action values gives the low value
        mix = np.sum(dp.pi_lo[None] * dp.q, axis=3)
        assert np.allclose(mix, dp.g_low, atol=1e-12)

    def test_values_match_monte_carlo(self):
        env = FetchChain(3, 6)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        gamma = 1.0
        vals = oracle_values(solve_dp(env, params, gamma))
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
        vals = oracle_values(solve_dp(env, params, 1.0))
        # carrying at clock 0 is impossible
        impossible = env.encode(1, True, 0)
        assert not vals.low_defined[impossible].any()
        assert vals.v_low[impossible].tolist() == [0.0, 0.0]


class TestOracleGradient:
    def test_zero_reward_env_zero_gradient(self, rng):
        env = OneStep(n_actions=3, reward=0.0)
        params = PolicyParams.random(rng, env.n_states, 2, env.n_actions)
        g = oracle_gradient(solve_dp(env, params, 1.0))
        assert np.abs(g.theta).max() < 1e-15

    def test_matches_finite_differences_of_objective(self, small_env_policy):
        env, params = small_env_policy
        gamma = 0.9
        g = oracle_gradient(solve_dp(env, params, gamma))
        h = 1e-5
        rng = np.random.default_rng(3)
        vec = params.theta
        for i in rng.choice(vec.size, size=25, replace=False):
            bump = vec.copy()
            bump[i] = vec[i] + h
            hi = objective(env, PolicyParams.wrap(bump, params), gamma)
            bump[i] = vec[i] - h
            lo = objective(env, PolicyParams.wrap(bump, params), gamma)
            numeric = (hi - lo) / (2 * h)
            analytic = g.theta[i]
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
        g0 = oracle_gradient(solve_dp(env, params, gamma))
        gc = oracle_gradient(solve_dp(Shifted(env, c), params, gamma))
        g1 = oracle_gradient(solve_dp(Shifted(env, 1.0), params, gamma))  # rewards + 1
        # gradient shifts by c * gradient of E[sum gamma^t * 1]
        lhs = gc.theta - g0.theta
        rhs = c * (g1.theta - g0.theta)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_score_identity(self, small_env_policy):
        env, params = small_env_policy
        assert np.abs(spec.score_expectation_enumerated(env, params).theta).max() < 1e-10


class TestSuccessProbability:
    def test_expert_reaches_goal_surely(self):
        from spec import fetchchain_expert
        env = FetchChain(3, 8)
        dp = solve_dp(env, fetchchain_expert(env), 1.0)
        assert success_probability(dp) == pytest.approx(1.0, abs=1e-8)

    def test_matches_enumeration_mass(self, small_env_policy):
        env = FetchChain(2, 5)
        rng = np.random.default_rng(8)
        params = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.5)
        tt = enumeration_table(env, params)
        mass = tt.weight[tt.terminated & (tt.final_state == env.goal_state)].sum()
        assert success_probability(solve_dp(env, params, 1.0)) == pytest.approx(mass, abs=1e-12)


class TestOneSolution:
    """Every DP oracle reads one `solve_dp` solution and leaves it as it was."""

    def test_oracles_leave_the_solution_bitwise_unchanged(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        dp = solve_dp(env, params, 0.97)

        def snapshot():
            arrays = {name: x for name, x in vars(dp).items() if isinstance(x, np.ndarray)}
            arrays["params.theta"] = dp.params.theta
            return {name: (x.dtype, x.shape, x.tobytes()) for name, x in arrays.items()}

        before = snapshot()
        assert len(before) == 14
        oracle_values(dp)
        oracle_gradient(dp)
        success_probability(dp)
        switching_exactness_report(dp)
        exact_critic_batch(dp)
        assert snapshot() == before

    def test_success_probability_does_not_depend_on_gamma(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        p = success_probability(solve_dp(env, params, 1.0))
        assert 0.0 < p < 1.0
        assert success_probability(solve_dp(env, params, 0.9)) == p


class TestSwitchingExactness:
    def test_exact_on_phased_policy(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        rep = switching_exactness_report(solve_dp(env, params, 1.0))
        assert rep.passed and rep.n_contexts > 0


class TestMonteCarloHarnesses:
    def test_unbiasedness_smoke(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0)
        dp = solve_dp(env, params, cfg.gamma)
        mc, = mc_gradient_hae(env, params, oracle_values(dp).tables, [(cfg, 30000)], seed=4)
        rep = unbiasedness(mc, oracle_gradient(dp))
        assert rep.passed, (rep.max_z, rep.n_failed)

    def test_failed_coordinates_counted_once(self):
        # coordinate 0 deviates with zero standard error (z = inf), 1 sits
        # at z = 5 and 2 at z = 3: two of three fail the 4-SE gate
        exact = GradTables(np.zeros((1, 1, 2)), np.zeros((1, 1)), np.zeros((1, 1, 1)))
        mc = McGradient(
            mean=GradTables(np.array([[[0.5, 1.0]]]), np.array([[0.3]]),
                            np.zeros((1, 1, 1))),
            se=GradTables(np.array([[[0.0, 0.2]]]), np.array([[0.1]]),
                          np.zeros((1, 1, 1))), n=100)
        rep = unbiasedness(mc, exact)
        assert (rep.n_failed, rep.n_coords) == (2, 4)
        assert rep.max_z == 5.0 and not rep.passed
        assert rep.worst == dict(worst_head="switch", worst_cell=[0, 0], worst_choice=1,
                                 worst_z=5.0, worst_dev=1.0)

    def test_deterministic_gradient_equals_its_mean(self):
        # near-deterministic policy and env: a single sample is its own mean
        env = FetchChain(2, 4)
        from spec import fetchchain_expert
        params = fetchchain_expert(env, sharpness=40.0)
        cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0,
                        lambda_flat=1.0)
        tables = oracle_values(solve_dp(env, params, 1.0)).tables
        one, = mc_gradient_hae(env, params, tables, [(cfg, 1)], seed=0)
        many, = mc_gradient_hae(env, params, tables, [(cfg, 64)], seed=1)
        assert np.max(np.abs(one.mean.theta - many.mean.theta)) < 1e-9

    def test_variance_ci_width_shrinks_with_n(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        vals = oracle_values(solve_dp(env, params, 1.0))
        small, = variance_reports(env, params, vals, [2], n=400, seed=2)
        large, = variance_reports(env, params, vals, [2], n=8000, seed=2)
        width = lambda ci: ci[1] - ci[0]
        assert width(small.ci_diff) > width(large.ci_diff)

    def test_unreachable_turn_rejected(self):
        env = FetchChain(2, 3)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        vals = oracle_values(solve_dp(env, params, 1.0))
        with pytest.raises(RuntimeError):
            variance_reports(env, params, vals, [7], n=100, seed=0, max_rounds=2)

    def test_equality_case_single_subgoal_never_switching(self):
        env = FetchChain(3, 6)
        params = PolicyParams.uniform(env.n_states, 1, env.n_actions)
        params.switch[:, :, 0] = 30.0   # never switch after the forced first
        vals = oracle_values(solve_dp(env, params, 1.0))
        cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0,
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
        return env, params, oracle_values(solve_dp(env, params, 1.0))

    @pytest.mark.parametrize("n,t", [(3000, 4), (10000, 1)])
    def test_equals_the_dense_one_shot_bootstrap(self, phased, n, t):
        env, params, vals = phased
        assert (variance_reports(env, params, vals, [t], n=n, seed=3)
                == [spec.variance_report(env, params, vals, t=t, n=n, seed=3)])

    def test_an_unreachable_turn_is_named(self, phased):
        env, params, vals = phased
        with pytest.raises(RuntimeError, match="turn 6 "):
            variance_reports(env, params, vals, [1, 6], n=100, seed=0, max_rounds=2)


class TestForkedWorkers:
    """The Monte-Carlo gates on a pool of forked workers: the same bits as in
    one process, and no process left behind."""

    CFG = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0)

    @pytest.fixture(scope="class")
    def phased(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        return env, params, oracle_values(solve_dp(env, params, 1.0))

    def test_mc_gradient_is_bit_identical_to_one_process(self, phased, monkeypatch):
        env, params, vals = phased
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            # 20 chunks: two jobs of ten, and so two workers
            runs.extend(mc_gradient_hae(env, params, vals.tables, [(self.CFG, 5000)],
                                        seed=7, chunk=250))
            assert multiprocessing.active_children() == []
        one, pooled = runs
        assert np.array_equal(one.mean.theta, pooled.mean.theta)
        assert np.array_equal(one.se.theta, pooled.se.theta)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_runs_equal_separate_calls(self, phased, monkeypatch, cpus):
        env, params, vals = phased
        _cpus(monkeypatch, cpus)
        # 13 chunks of 150 (two jobs): 1900 and 620 end inside a chunk, and
        # 90 inside the first one
        runs = [(self.CFG, 1900),
                (PPOConfig(gamma=1.0, lambda_low=0.95, lambda_high=0.95), 620),
                (PPOConfig(gamma=0.9, lambda_low=0.5, lambda_high=0.8), 90)]
        together = mc_gradient_hae(env, params, vals.tables, runs, seed=4, chunk=150)
        assert [mc.n for mc in together] == [1900, 620, 90]
        for run, got in zip(runs, together):
            alone, = mc_gradient_hae(env, params, vals.tables, [run], seed=4, chunk=150)
            assert np.array_equal(got.mean.theta, alone.mean.theta)
            assert np.array_equal(got.se.theta, alone.se.theta)
        assert multiprocessing.active_children() == []

    def test_variance_reports_equal_one_process(self, phased, monkeypatch):
        env, params, vals = phased
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            runs.append(variance_reports(env, params, vals, range(6), n=2000, seed=3))
            assert multiprocessing.active_children() == []
        assert runs[0] == runs[1] and [r.t for r in runs[0]] == list(range(6))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_worker_error_reaches_the_caller(self, phased, monkeypatch, cpus):
        env, params, _ = phased
        _cpus(monkeypatch, cpus)
        # value tables with one state: the chunks index past them
        short = ValueTables(np.zeros(1), np.zeros((1, params.n_options)))
        with pytest.raises(IndexError):
            mc_gradient_hae(env, params, short, [(self.CFG, 3000)], seed=0, chunk=100)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_bootstrap_error_reaches_the_caller(self, phased, monkeypatch, cpus):
        env, params, vals = phased
        _cpus(monkeypatch, cpus)

        def fails(rng, samples, n_boot):
            raise FloatingPointError("bootstrap")

        monkeypatch.setattr(oracle, "_bootstrap_variances", fails)
        with pytest.raises(FloatingPointError, match="bootstrap"):
            variance_reports(env, params, vals, range(3), n=100, seed=0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_map_keeps_job_order(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        got = oracle._fork_map(lambda x: (x * x, os.getpid()), range(7))
        assert [y for y, _ in got] == [x * x for x in range(7)]
        in_process = {pid for _, pid in got} == {os.getpid()}
        assert in_process == (cpus == 1)
        assert oracle._fork_map(lambda x: x, []) == []
        assert multiprocessing.active_children() == []


class TestDegenerateSizes:
    """Sizes with no meaningful estimate are refused by name, before any
    rollout."""

    @pytest.fixture
    def phased(self, monkeypatch):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        vals = oracle_values(solve_dp(env, params, 1.0))

        def no_rollout(*args, **kwargs):
            raise AssertionError("rolled episodes")

        monkeypatch.setattr(oracle, "rollout_batch", no_rollout)
        return env, params, vals

    @pytest.mark.parametrize("n,chunk,name", [(0, 1000, "n"), (-3, 1000, "n"),
                                              (100, 0, "chunk"), (100, -5, "chunk")])
    def test_mc_gradient(self, phased, n, chunk, name):
        env, params, vals = phased
        cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            mc_gradient_hae(env, params, vals.tables, [(cfg, n)], seed=0, chunk=chunk)

    def test_mc_gradient_runs(self, phased):
        env, params, vals = phased
        cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0)
        with pytest.raises(ValueError, match="^runs must not be empty"):
            mc_gradient_hae(env, params, vals.tables, [], seed=0)
        with pytest.raises(ValueError, match="^n must be >= 1"):
            mc_gradient_hae(env, params, vals.tables, [(cfg, 100), (cfg, 0)], seed=0)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(n=1), "n must be >= 2"), (dict(n=0), "n must be >= 2"),
        (dict(n=100, n_boot=0), "n_boot must be >= 1"),
        (dict(n=100, max_rounds=0), "max_rounds must be >= 1")])
    def test_variance_reports(self, phased, kwargs, message):
        env, params, vals = phased
        with pytest.raises(ValueError, match=f"^{message}"):
            variance_reports(env, params, vals, [1], seed=0, **kwargs)


class TestRandomTable:
    @staticmethod
    def assert_round_trips(tt):
        back = spec.table(spec.records(tt))
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
