import numpy as np
import pytest

from segrl.batch import (_critic_rows, critic_batch_from_table, flat_batch_from_table,
                         segment_masks)
from segrl.core import MalformedTrajectory
from segrl.critic import ValueTables, fit_critic, stacked
from segrl.envs import FetchChain
from segrl.oracle import (enumeration_table, exact_critic_batch,
                          oracle_values, random_tables, solve_dp)
from segrl.policy import PolicyParams, fetchchain_phased

import spec
from spec import segment_boundaries
from conftest import random_trajectory, traj_from, weighted_target_maps


def sentinel_tables(n_states, n_options, high=1000.0, low=-7.0):
    return ValueTables(np.full(n_states, high), np.full((n_states, n_options), low))


def one_episode_batch(traj, gamma, n_states, n_options):
    """`critic_batch_from_table` on a one-episode TurnTable: rows 0 .. T-1
    are the turns (low head), the rest the segments (high head)."""
    return critic_batch_from_table(spec.table([traj]), gamma, n_states, n_options)


def high_targets(traj, tables, gamma):
    cb = one_episode_batch(traj, gamma, tables.n_states, tables.n_options)
    return cb.row_targets(tables)[traj.n_turns:]


def low_targets(traj, tables, gamma):
    cb = one_episode_batch(traj, gamma, tables.n_states, tables.n_options)
    return cb.row_targets(tables)[:traj.n_turns]


def v_next(traj, tables, t):
    """The table value that turn t's low row (the one the advantage kernel
    takes its residual from) bootstraps to; 0 where it has none."""
    tt = spec.table([traj])
    rows = _critic_rows(tt, 1.0, segment_masks(tt), tables.n_states,
                        tables.n_options)[0]
    return stacked(tables)[rows["boot"][rows["row"] == t]].sum()


def fit_flat_critic(v_flat, batch, lr, epochs):
    """`fit_critic` on a flat batch: the fitted v_flat and the per-epoch MSEs."""
    fitted, rep = fit_critic(ValueTables(v_flat, np.zeros((v_flat.size, 0))),
                             batch, lr, epochs)
    return fitted.v_high, rep.mse_high


def flat_mean_targets(batch):
    """Per-state mean return-to-go of a flat batch (its targets read no table)."""
    return batch.mean_targets(ValueTables.zeros(batch.n_states, 0))


class TestVNext:
    def test_interior_uses_low_head(self):
        tables = sentinel_tables(10, 3)
        traj = traj_from([1, 0, 0], [0.0] * 3, states=[4, 5, 6])
        assert v_next(traj, tables, 0) == -7.0
        assert v_next(traj, tables, 1) == -7.0

    def test_terminal_next_is_zero(self):
        tables = sentinel_tables(10, 3)
        traj = traj_from([1, 0], [0.0, 1.0])
        assert v_next(traj, tables, 1) == 0.0

    def test_segment_final_uses_high_head(self):
        tables = sentinel_tables(10, 3)
        traj = traj_from([1, 0, 1, 0], [0.0] * 4, states=[4, 5, 6, 7])
        assert v_next(traj, tables, 1) == 1000.0

    def test_truncated_bootstraps_table(self):
        tables = sentinel_tables(10, 3)
        traj = traj_from([1, 0], [0.0] * 2, done=False, final_state=9)
        assert v_next(traj, tables, 1) == 1000.0

    def test_truncated_requires_final_state(self):
        # the kernel has nothing to bootstrap from; the table refuses it
        traj = traj_from([1, 0], [0.0] * 2, done=False)
        object.__setattr__(traj, "final_state", None)
        with pytest.raises(MalformedTrajectory, match="truncated without final_state"):
            spec.table([traj])


class TestTargets:
    def test_high_target_hand_value(self):
        tables = ValueTables.zeros(10, 2)
        tables.v_high[6] = 4.0
        # one two-turn segment with macro reward 2 and duration discount 0.5
        traj = traj_from([1, 0, 1], [2.0, 0.0, 0.0], states=[4, 5, 6])
        y = high_targets(traj, tables, gamma=np.sqrt(0.5))
        assert y[0] == pytest.approx(2.0 + 0.5 * 4.0)

    def test_last_segment_terminal_zero_bootstrap(self):
        tables = sentinel_tables(10, 2)
        traj = traj_from([1, 0], [1.0, 2.0])
        y = high_targets(traj, tables, gamma=1.0)
        assert y[-1] == pytest.approx(3.0)

    def test_unit_segments_reduce_to_one_step(self):
        tables = ValueTables.zeros(10, 2)
        tables.v_high[:] = np.arange(10.0)
        traj = traj_from([1, 1, 1], [5.0, 6.0, 7.0], states=[1, 2, 3])
        y = high_targets(traj, tables, gamma=1.0)
        assert y.tolist() == pytest.approx([5.0 + 2.0, 6.0 + 3.0, 7.0])

    def test_low_targets_zero(self):
        tables = ValueTables.zeros(8, 2)
        traj = traj_from([1, 0, 0], [0.0] * 3)
        assert low_targets(traj, tables, 0.9).tolist() == [0.0, 0.0, 0.0]

    def test_low_target_terminal(self):
        tables = sentinel_tables(8, 2)
        traj = traj_from([1, 0], [0.0, 3.0])
        assert low_targets(traj, tables, 0.9)[-1] == pytest.approx(3.0)

    def test_low_target_interior_value(self):
        tables = ValueTables.zeros(8, 2)
        tables.v_low[:, :] = 2.0
        traj = traj_from([1, 0, 0], [1.0, 0.0, 0.0])
        assert low_targets(traj, tables, 0.9)[0] == pytest.approx(2.8)

    def test_coupling_final_turn_uses_high_never_low(self, rng):
        # with sentinel tables the branch taken is visible in the value
        tables = sentinel_tables(12, 3)
        for _ in range(50):
            traj = random_trajectory(rng, 12, 3, 4)
            y = low_targets(traj, tables, 1.0)
            bounds = segment_boundaries(traj)
            for k in range(len(bounds) - 1):
                t_final = bounds[k + 1] - 1
                r = traj.turns[t_final].reward
                if traj.turns[t_final].done:
                    assert y[t_final] == pytest.approx(r)
                else:
                    assert y[t_final] == pytest.approx(r + 1000.0)
                for t in range(bounds[k], t_final):
                    assert y[t] == pytest.approx(traj.turns[t].reward - 7.0)


class TestFitCritic:
    def test_fixed_point_untouched(self, rng):
        env = FetchChain(2, 4)
        p = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.5)
        gamma = 0.9
        dp = solve_dp(env, p, gamma)
        vals, batch = oracle_values(dp), exact_critic_batch(dp)
        fitted, rep = fit_critic(vals.tables, batch, lr=0.3, epochs=5)
        assert np.allclose(fitted.v_high, vals.v_high, atol=1e-12)
        assert np.allclose(fitted.v_low, vals.v_low, atol=1e-12)
        assert rep.mse_low[0] == pytest.approx(0.0, abs=1e-20)

    def test_scalar_recursion(self):
        # one cell, one target: v <- v - 2*lr*(v - y)
        traj = traj_from([1], [5.0], states=[0])
        tables = ValueTables.zeros(1, 1)
        batch = one_episode_batch(traj, 1.0, 1, 1)
        fitted, _ = fit_critic(tables, batch, lr=0.25, epochs=1)
        assert fitted.v_low[0, 0] == pytest.approx(0.0 - 2 * 0.25 * (0.0 - 5.0))
        fitted, _ = fit_critic(tables, batch, lr=0.25, epochs=50)
        assert fitted.v_low[0, 0] == pytest.approx(5.0, abs=1e-9)

    def test_converges_to_oracle_values(self, rng):
        env = FetchChain(3, 6)
        p = fetchchain_phased(env, rng)
        gamma = 0.97
        dp = solve_dp(env, p, gamma)
        vals, batch = oracle_values(dp), exact_critic_batch(dp)
        tables = ValueTables.zeros(env.n_states, 2)
        fitted, _ = fit_critic(tables, batch, lr=0.5, epochs=30)
        assert np.max(np.abs(fitted.v_high - vals.v_high)[vals.high_defined]) < 1e-10
        assert np.max(np.abs(fitted.v_low - vals.v_low)[vals.low_defined]) < 1e-10

    def test_monotone_mse_for_small_lr(self, rng):
        from segrl.batch import rollout_batch
        env = FetchChain(3, 6)
        p = fetchchain_phased(env, rng)
        tt = rollout_batch(env, p, 200, seed=5)
        cb = critic_batch_from_table(tt, 0.95, env.n_states, 2)
        tables = ValueTables.zeros(env.n_states, 2)
        # against the targets it starts from, an epoch's step with per-cell
        # lr < 0.5 never raises the batch squared error
        for _ in range(40):
            new, _ = fit_critic(tables, cb, lr=0.1, epochs=1)
            assert sum(cb.batch_mse(new, target_tables=tables)) <= \
                sum(cb.batch_mse(tables, target_tables=tables)) + 1e-12
            tables = new

    def test_trajectory_and_exact_batches_agree(self, rng):
        env = FetchChain(2, 3)
        p = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.6)
        gamma = 0.9
        tt = enumeration_table(env, p)
        cb_t = critic_batch_from_table(tt, gamma, env.n_states, 2)
        cb_e = exact_critic_batch(solve_dp(env, p, gamma))
        assert np.allclose(cb_t.w, cb_e.w, atol=1e-12)
        for j, (a, b) in enumerate(zip(weighted_target_maps(cb_t),
                                       weighted_target_maps(cb_e))):
            assert np.allclose(a, b, atol=1e-12), j


class TestFlatCritic:
    def test_converges_to_per_state_mean_return(self, rng):
        trajs = [random_trajectory(rng, 6, 2, 3) for _ in range(100)]
        batch = flat_batch_from_table(spec.table(trajs), 0.9, 6)
        v, mses = fit_flat_critic(np.zeros(6), batch, lr=0.5, epochs=5)
        assert np.allclose(v[batch.w > 0], flat_mean_targets(batch)[batch.w > 0])
        assert mses[0] >= mses[-1]

    def test_flat_fixed_point_matches_oracle(self, rng):
        env = FetchChain(2, 3)
        p = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.6)
        gamma = 0.9
        tt = enumeration_table(env, p)
        batch = flat_batch_from_table(tt, gamma, env.n_states)
        v, _ = fit_flat_critic(np.zeros(env.n_states), batch, lr=0.5, epochs=5)
        vals = oracle_values(solve_dp(env, p, gamma))
        assert np.max(np.abs(v - vals.v_flat)[vals.flat_defined]) < 1e-12
