import math
import pickle

import numpy as np
import pytest

from segrl.batch import gather_rows, head_sites, record_behavior, rollout_batch
from segrl.core import KEEP, SWITCH
from segrl.envs import PICKUP, RIGHT, FetchChain
from segrl.gradcheck import turn_log_likelihood
from segrl.oracle import enumeration_table
from segrl.policy import CheckpointError, GradTables, PolicyParams, load_policy, save_policy
from segrl.training import PPOConfig, train, train_flat_baseline

from conftest import (Walk, kernel_log_probs, kernel_scores, one_turn,
                      random_trajectory)
import spec
from spec import Trajectory, TurnRecord, fetchchain_expert, switch_prob


def small_params(rng, n_s=5, n_o=3, n_a=4, scale=1.0):
    return PolicyParams.random(rng, n_s, n_o, n_a, scale=scale)


def rollout(env, params, seed, episode=0, **kw):
    """Episode `episode` of the `rollout_batch` stream `seed`, as a
    Trajectory."""
    return spec.records(rollout_batch(env, params, 1, seed, episode_offset=episode,
                                      **kw))[0]


class TestSwitchProb:
    def test_symmetry(self):
        p = PolicyParams.uniform(2, 2, 2)
        assert switch_prob(p, 0, 0) == pytest.approx(0.5)

    def test_softmax_arithmetic(self):
        p = PolicyParams.uniform(2, 2, 2)
        p.switch[0, 0] = [0.0, math.log(3.0)]
        assert switch_prob(p, 0, 0) == pytest.approx(0.75, abs=1e-12)

    def test_saturation(self):
        p = PolicyParams.uniform(2, 2, 2)
        p.switch[0, 0] = [0.0, -1e9]
        assert switch_prob(p, 0, 0) == pytest.approx(0.0, abs=1e-300)


class TestSampleTurn:
    def test_deterministic_heads(self):
        env = FetchChain(3, 2)
        p = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        s0, s1 = env.encode(0, False, 0), env.encode(1, False, 1)
        p.subgoal[s0, 0] = 1e9
        p.action[s0, 0, RIGHT] = 1e9
        # turn 1 at s1 with previous subgoal 0
        p.switch[s1, 0, SWITCH] = 1e9
        p.subgoal[s1, 1] = 1e9
        p.action[s1, 1, PICKUP] = 1e9
        turn = rollout(env, p, seed=0).turns[1]
        assert (turn.state, turn.prev_subgoal) == (s1, 0)
        assert (turn.q, turn.subgoal, turn.action) == (SWITCH, 1, PICKUP)
        assert turn.lp_switch == pytest.approx(0.0, abs=1e-12)
        assert turn.lp_subgoal == pytest.approx(0.0, abs=1e-12)
        assert turn.lp_action == pytest.approx(0.0, abs=1e-12)

    def test_first_turn_forces_switch(self, rng):
        env = FetchChain(3, 6)
        p = small_params(rng, env.n_states, 2, env.n_actions)
        turn = rollout(env, p, seed=1).turns[0]
        assert turn.q == SWITCH and turn.lp_switch is None
        assert turn.lp_subgoal is not None

    def test_seeded_reproducibility(self, rng):
        env = FetchChain(3, 6)
        p = small_params(rng, env.n_states, 2, env.n_actions)
        draws = {tuple((u.q, u.subgoal, u.action)
                       for u in rollout(env, p, seed=7, episode=5).turns)
                 for _ in range(5)}
        assert len(draws) == 1


class TestLogProb:
    """The per-head log-probabilities of the policy pass, one turn at a time."""

    def test_uniform_two_actions(self):
        p = PolicyParams.uniform(2, 2, 2)
        turn = TurnRecord(0, 0, None, SWITCH, 0, 1, 0.0, 0.0, False)
        (_, _, lp_lo), = kernel_log_probs(p, [one_turn(turn)])
        assert lp_lo == pytest.approx(math.log(0.5), abs=1e-12)

    def test_keep_has_no_subgoal_likelihood(self, rng):
        p = small_params(rng)
        turns = (TurnRecord(0, 1, None, SWITCH, 1, 2, 0.0, 0.0, False),
                 TurnRecord(1, 1, 1, KEEP, 1, 0, 0.0, 0.0, False))
        _, (lp_sw, lp_hi, lp_lo) = kernel_log_probs(
            p, [Trajectory(turns, truncated=True, final_state=0)])
        assert lp_hi is None and lp_sw is not None

    def test_first_turn_has_no_switch_likelihood(self, rng):
        p = small_params(rng)
        turn = TurnRecord(0, 0, None, SWITCH, 2, 1, 0.0, 0.0, False)
        (lp_sw, lp_hi, _), = kernel_log_probs(p, [one_turn(turn)])
        assert lp_sw is None and lp_hi is not None

    def test_inconsistent_turn_rejected(self, rng):
        p = small_params(rng)
        turns = (TurnRecord(0, 0, None, SWITCH, 0, 0, 0.0, 0.0, False),
                 TurnRecord(1, 0, 0, KEEP, 1, 0, 0.0, 0.0, False))
        with pytest.raises(ValueError):
            kernel_log_probs(p, [Trajectory(turns, truncated=True, final_state=0)])

    def test_density_matches_enumeration(self, rng):
        env = FetchChain(2, 3)
        p = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.8)
        tt = enumeration_table(env, p)
        rows = gather_rows(tt)
        total = np.bincount(rows.episode, turn_log_likelihood(head_sites(rows, p), p.theta))
        for got, prob in zip(total, tt.weight):
            assert got == pytest.approx(math.log(prob), abs=1e-10)

    def test_head_normalization(self, rng):
        p = small_params(rng)
        for s in range(p.n_states):
            for o in range(p.n_options):
                lps = kernel_log_probs(p, [
                    one_turn(TurnRecord(0, s, None, SWITCH, o, a, 0.0, 0.0, False))
                    for a in range(p.n_actions)])
                probs = [math.exp(lp_lo) for _, _, lp_lo in lps]
                assert sum(probs) == pytest.approx(1.0, abs=1e-10)


class TestGradLogProb:
    """The score kernel's per-turn scores (one group per turn)."""

    def test_softmax_score_row(self):
        p = PolicyParams.uniform(1, 1, 2)
        turn = TurnRecord(0, 0, None, SWITCH, 0, 0, 0.0, 0.0, False)
        g = kernel_scores(p, [one_turn(turn)])
        assert g.action[0, 0, 0].tolist() == pytest.approx([0.5, -0.5], abs=1e-12)

    def test_deterministic_head_zero_row(self):
        p = PolicyParams.uniform(1, 1, 2)
        p.action[0, 0, 0] = 60.0
        turn = TurnRecord(0, 0, None, SWITCH, 0, 0, 0.0, 0.0, False)
        g = kernel_scores(p, [one_turn(turn)])
        assert np.max(np.abs(g.action)) < 1e-12

    def test_rows_sum_to_zero(self, rng):
        p = small_params(rng)
        for _ in range(20):
            traj = random_trajectory(rng, p.n_states, p.n_options, p.n_actions)
            g = kernel_scores(p, [traj])
            for k, u in enumerate(traj.turns):
                assert abs(g.action[k, u.state, u.subgoal].sum()) < 1e-12
                if u.q == SWITCH:
                    assert abs(g.subgoal[k, u.state].sum()) < 1e-12
                if u.t > 0:
                    assert abs(g.switch[k, u.state, u.prev_subgoal].sum()) < 1e-12

    def test_finite_differences(self, rng):
        from spec import check_log_prob_grads
        assert check_log_prob_grads(rng) < 1e-6

    def test_score_expectation_vanishes(self, rng):
        from spec import score_expectation_enumerated
        env = FetchChain(2, 3)
        p = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.9)
        zero = score_expectation_enumerated(env, p)
        assert np.abs(zero.theta).max() < 1e-10


class TestRollout:
    def test_single_turn_horizon(self, rng):
        # an env without a clock is cut by the sampler at its horizon
        env = Walk(horizon=1)
        p = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        traj = rollout(env, p, seed=0)
        assert traj.n_turns == 1 and traj.turns[0].q == SWITCH
        assert traj.truncated and traj.final_state is not None

    def test_expert_reaches_optimum(self):
        env = FetchChain(3, 8)
        p = fetchchain_expert(env)
        traj = rollout(env, p, seed=0)
        assert sum(u.raw_reward for u in traj.turns) == pytest.approx(10.0)
        assert traj.terminated

    def test_fixed_seed_identical_serialization(self, rng):
        import io
        from segrl.core import write_trajectories
        env = FetchChain(3, 6)
        p = small_params(rng, env.n_states, 2, env.n_actions)
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_trajectories(buf, spec.table([rollout(env, p, seed=9, episode=4)]))
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_keep_penalty_applied(self, rng):
        env = FetchChain(3, 6)
        p = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        traj = rollout(env, p, seed=3, c_keep=0.3)
        for u in traj.turns:
            expected = u.raw_reward - (0.3 if u.q == KEEP else 0.0)
            assert u.reward == pytest.approx(expected, abs=1e-12)
        spec.table([traj])

    def test_behavior_logprob_attachment(self, rng):
        env = FetchChain(3, 6)
        p = small_params(rng, env.n_states, 2, env.n_actions)
        traj = rollout(env, p, seed=2, episode=1)
        again = spec.records(record_behavior(spec.table([traj]), p))[0]
        for a, b in zip(traj.turns, again.turns):
            if a.lp_switch is not None:
                assert a.lp_switch == pytest.approx(b.lp_switch, abs=1e-12)
            assert a.lp_action == pytest.approx(b.lp_action, abs=1e-12)


class TestCheckpoint:
    def test_exact_round_trip(self, rng, tmp_path):
        p = small_params(rng)
        path = tmp_path / "policy.txt"
        save_policy(path, p)
        back = load_policy(path)
        assert np.array_equal(back.switch, p.switch)
        assert np.array_equal(back.subgoal, p.subgoal)
        assert np.array_equal(back.action, p.action)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_policy(path)


class TestParameterVector:
    """The three tables are views of one vector `theta`, laid out switch,
    subgoal, action, each row-major."""

    def test_layout(self, rng):
        p = small_params(rng)
        assert np.array_equal(p.theta, np.concatenate(
            [p.switch.ravel(), p.subgoal.ravel(), p.action.ravel()]))
        assert p.offsets == {"switch": 0, "subgoal": p.switch.size,
                             "action": p.switch.size + p.subgoal.size}

    def test_edits_show_both_ways(self, rng):
        p = small_params(rng)
        p.subgoal[2, 1] = 7.0
        assert p.theta[p.offsets["subgoal"] + 2 * p.n_options + 1] == 7.0
        p.theta[-1] = -3.0
        assert p.action[-1, -1, -1] == -3.0
        p.theta[1] += 0.5
        assert p.switch[0, 0, 1] == p.theta[1]

    def test_copy_shares_no_memory(self, rng):
        p = small_params(rng)
        q = p.copy()
        assert np.array_equal(q.theta, p.theta)
        for name in ("theta", "switch", "subgoal", "action"):
            assert not np.shares_memory(getattr(p, name), getattr(q, name)), name

    def test_wrap_shares_the_vector(self, rng):
        p = small_params(rng)
        vec = rng.standard_normal(p.theta.size)
        q = PolicyParams.wrap(vec, p)
        assert q.theta is vec
        for name in ("switch", "subgoal", "action"):
            assert np.shares_memory(getattr(q, name), vec), name
        vec[p.offsets["action"]] = 11.0
        assert q.action[0, 0, 0] == 11.0

    def test_grad_tables_with_a_leading_axis(self, rng):
        p = small_params(rng)
        stack = rng.standard_normal((4, p.theta.size))
        g = GradTables.wrap(stack, p)
        assert g.switch.shape == (4,) + p.switch.shape
        assert g.action.shape == (4,) + p.action.shape
        for k in range(4):
            one = GradTables.wrap(stack[k], p)
            for name in ("switch", "subgoal", "action"):
                assert np.array_equal(getattr(g, name)[k], getattr(one, name)), (k, name)
                assert np.shares_memory(getattr(g, name), stack)
        assert g.locate(p.offsets["action"] + 5) == ("action", (0, 1, 1))

    @pytest.mark.parametrize("cls,lead", [(PolicyParams, ()), (GradTables, ()),
                                          (GradTables, (3,))])
    def test_pickling_keeps_the_views(self, rng, cls, lead):
        p = small_params(rng)
        q = pickle.loads(pickle.dumps(cls.wrap(rng.standard_normal(lead + p.theta.shape), p)))
        assert type(q) is cls and q.offsets == p.offsets
        for name in ("switch", "subgoal", "action"):
            assert np.shares_memory(getattr(q, name), q.theta), name
        q.theta[..., p.offsets["action"]] = 5.0
        q.theta[..., 1] = -2.0
        assert (q.action[..., 0, 0, 0] == 5.0).all() and (q.switch[..., 0, 0, 1] == -2.0).all()

    @pytest.mark.parametrize("trainer", [train, train_flat_baseline])
    def test_training_leaves_init_params_alone(self, rng, trainer):
        env = FetchChain(3, 6)
        init = small_params(rng, env.n_states, 2, env.n_actions, scale=0.3)
        before = init.theta.copy()
        res = trainer(PPOConfig(seed=0, iterations=2, episodes_per_iter=8), env,
                      init_params=init)
        assert np.array_equal(init.theta, before)
        assert not np.array_equal(res.params.theta, before)
        assert not np.shares_memory(res.params.theta, init.theta)

    def test_shape_refusals_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"switch table shape \(3, 2, 3\) != \(3, 2, 2\)"):
            PolicyParams(np.zeros((3, 2, 3)), np.zeros((3, 2)), np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="action table must be indexed by"):
            PolicyParams(np.zeros((3, 2, 2)), np.zeros((3, 2)), np.zeros((3, 1, 4)))
        with pytest.raises(ValueError, match="action table must be indexed by"):
            PolicyParams(np.zeros((3, 2, 2)), np.zeros((3, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("name", ["switch", "subgoal", "action"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_name_their_table(self, rng, name, value):
        p = small_params(rng)
        getattr(p, name).flat[-1] = value
        with pytest.raises(ValueError, match=f"non-finite entries in {name} logits"):
            PolicyParams(p.switch, p.subgoal, p.action)
        with pytest.raises(ValueError, match=f"non-finite entries in {name} logits"):
            p.copy()

    @pytest.mark.parametrize("sizes", [(4, 0, 3), (4, 2, 0)])
    def test_no_subgoals_or_no_actions_refused(self, tmp_path, sizes):
        with pytest.raises(ValueError, match="at least one subgoal and one action"):
            PolicyParams.uniform(*sizes)
        n_s, n_o, n_a = sizes
        path = tmp_path / "policy.txt"
        path.write_text(f"segrl-policy v1\n{n_s} {n_o} {n_a}\n"
                        f"table switch {n_s * n_o * 2}\n" + "0.0\n" * (n_s * n_o * 2)
                        + f"table subgoal {n_s * n_o}\n" + "0.0\n" * (n_s * n_o)
                        + f"table action {n_s * n_o * n_a}\n" + "0.0\n" * (n_s * n_o * n_a))
        with pytest.raises(CheckpointError, match="line 2"):
            load_policy(path)
