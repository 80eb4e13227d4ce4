import re
from dataclasses import replace

import numpy as np
import pytest

from segrl.batch import (_advantage_arrays, _backward_sums, _critic_rows, advantage_arrays,
                         batch_stats, critic_batch_from_table,
                         flat_advantage_arrays, flat_batch_from_table,
                         gather_rows, head_sites, record_behavior, returns_matrix,
                         rollout_batch, segment_masks, site_pass)
from segrl.core import KEEP, SWITCH, MalformedTrajectory, _empty_table
from segrl.critic import ValueTables, stacked
from segrl.envs import FetchChain, OneStep
from segrl.gradcheck import turn_log_likelihood
from segrl.oracle import (mc_gradient_hae, oracle_values, random_table, random_tables,
                          solve_dp)
from segrl.policy import GradTables, PolicyParams, fetchchain_phased, log_softmax, softmax
from segrl.training import PPOConfig, _ref_log_probs, _sites, _whiten_sites

import spec
from spec import CounterRng, segment_boundaries
from conftest import (Walk, head_ratios, kernel_scores, random_trajectory, take,
                      traj_from, weighted_target_maps)


class _TwoStarts(FetchChain):
    """FetchChain started at cell 0 or, more often, at cell 1."""

    def initial_states(self):
        return [(self.encode(0, False, 0), 0.4), (self.encode(1, False, 0), 0.6)]


@pytest.fixture(scope="module")
def env_and_params():
    env = FetchChain(3, 6)
    params = fetchchain_phased(env, np.random.default_rng(2))
    return env, params


def _assert_matches_single_rollouts(env, params, tt, seed, c_keep, offset=0):
    trajs = spec.records(tt)
    for ep, traj in enumerate(trajs):
        single = spec.rollout(env, params, env.horizon, CounterRng(seed, offset + ep),
                              c_keep=c_keep)
        assert len(single.turns) == len(traj.turns)
        for a, b in zip(single.turns, traj.turns):
            assert a.state == b.state and a.q == b.q
            assert a.subgoal == b.subgoal and a.action == b.action
            assert a.reward == b.reward and a.raw_reward == b.raw_reward
            assert (a.lp_action == b.lp_action
                    and a.lp_switch == b.lp_switch
                    and a.lp_subgoal == b.lp_subgoal)
        assert single.truncated == traj.truncated
        assert single.final_state == traj.final_state


def _tied_params(env, scale=1e3):
    """Logits of 0 or +-`scale`: exact ties, and entries whose probability
    underflows to zero, so CDF rows hold repeated values."""
    rng = np.random.default_rng(21)
    shapes = ((env.n_states, 2, 2), (env.n_states, 2), (env.n_states, 2, env.n_actions))
    return PolicyParams(*[scale * rng.integers(-1, 2, size=s) for s in shapes])


class TestRolloutBatch:
    def test_matches_single_rollouts_bitwise(self, env_and_params):
        env, params = env_and_params
        tt = rollout_batch(env, params, 32, seed=13, c_keep=0.2)
        _assert_matches_single_rollouts(env, params, tt, 13, 0.2)

    @pytest.mark.parametrize("case", ["walk", "one-step", "tied-logits", "ragged"])
    def test_more_envs_match_single_rollouts_bitwise(self, case):
        if case == "walk":  # clockless, truncated at the horizon
            env = Walk()
            params = PolicyParams.random(np.random.default_rng(4), env.n_states, 2,
                                         env.n_actions, scale=0.8)
        elif case == "one-step":
            env = OneStep()
            params = PolicyParams.random(np.random.default_rng(5), env.n_states, 2,
                                         env.n_actions)
        elif case == "tied-logits":
            env = FetchChain(3, 6)
            params = _tied_params(env)
        else:  # episodes end at different turns: success or the clock
            env = _TwoStarts(3, 7)
            params = fetchchain_phased(env, np.random.default_rng(6))
        tt = rollout_batch(env, params, 48, seed=17, c_keep=0.1, episode_offset=2)
        _assert_matches_single_rollouts(env, params, tt, 17, 0.1, offset=2)
        if case == "walk":
            assert tt.terminated.any() and not tt.terminated.all()
        if case == "tied-logits":
            probs = np.exp(tt.lp_action[tt.mask])
            assert (probs == 1.0).any() and (probs < 1.0).any()
        if case == "ragged":
            assert tt.length.min() < tt.length.max()

    def test_blocks_leave_the_batch_unchanged(self, env_and_params, monkeypatch):
        # a large batch is rolled in blocks of episodes; 7 episodes a block
        # here, the last one short
        import segrl.batch as batch

        env, params = env_and_params
        whole = rollout_batch(env, params, 40, seed=3, c_keep=0.2, episode_offset=1)
        monkeypatch.setattr(batch, "_ROLL_SLOTS", 7 * env.horizon)
        blocks = rollout_batch(env, params, 40, seed=3, c_keep=0.2, episode_offset=1)
        for name, col in vars(whole).items():
            assert col.tobytes() == getattr(blocks, name).tobytes(), name

    def test_draws_use_the_renormalized_cdf(self, monkeypatch):
        # these logits' softmax cumsum ends one ulp below 1.0, so dividing by
        # its last entry moves the first entry up by one ulp; a uniform equal
        # to the unnormalized entry then draws action 0 only when the sampler
        # renormalizes, as the per-turn spec does
        import segrl.batch as batch

        logits = np.array([1.3, 0.95, -0.7])
        raw = np.cumsum(softmax(logits))
        u = raw[0]
        assert raw[-1] != 1.0 and np.count_nonzero(raw[:-1] <= u) == 1
        env = OneStep(n_actions=3)
        params = PolicyParams.uniform(env.n_states, 1, env.n_actions)
        params.action[0, 0] = logits
        monkeypatch.setattr(batch, "counter_uniform",
                            lambda *key: np.full(np.broadcast(*key).shape, u))
        tt = rollout_batch(env, params, 2, seed=0)
        assert spec._sample_row(logits, u) == 0
        assert (tt.action[:, 0] == 0).all()

    def test_greedy_batch_is_constant(self, env_and_params):
        env, params = env_and_params
        tt = rollout_batch(env, params, 8, seed=0, greedy=True)
        first = tt.state[0]
        for ep in range(1, 8):
            assert np.array_equal(tt.state[ep], first)

    def test_greedy_matches_single_rollouts_bitwise(self, env_and_params):
        # one greedy episode is rolled per distinct start and copied
        _, params = env_and_params
        env = _TwoStarts(3, 6)
        tt = rollout_batch(env, params, 24, seed=5, c_keep=0.2,
                           episode_offset=3, greedy=True)
        assert set(tt.state[:, 0].tolist()) == {0, 1}
        assert np.isnan(tt.lp_switch).all() and np.isnan(tt.lp_action).all()
        for ep, traj in enumerate(spec.records(tt)):
            single = spec.rollout(env, params, env.horizon, CounterRng(5, 3 + ep),
                                  c_keep=0.2, greedy=True)
            assert single.turns == traj.turns
            assert single.truncated == traj.truncated
            assert single.final_state == traj.final_state

    @pytest.mark.parametrize("case", ["walk", "one-step", "tied-logits"])
    def test_greedy_walk_matches_single_rollouts_bitwise(self, case):
        if case == "walk":  # clockless: waiting at cell 0 revisits a context
            env = Walk(horizon=7)
            params = PolicyParams.random(np.random.default_rng(4), env.n_states, 2,
                                         env.n_actions, scale=0.8)
            params.action[0, :, 1] = params.action[1:3, :, 0] = 5.0
        elif case == "one-step":
            env = OneStep()
            params = PolicyParams.random(np.random.default_rng(5), env.n_states, 2,
                                         env.n_actions)
        else:  # argmax ties go to the lowest index
            env = FetchChain(3, 6)
            params = _tied_params(env)
        tt = rollout_batch(env, params, 24, seed=5, c_keep=0.2, episode_offset=3,
                           greedy=True)
        for ep, traj in enumerate(spec.records(tt)):
            single = spec.rollout(env, params, env.horizon, CounterRng(5, 3 + ep),
                                  c_keep=0.2, greedy=True)
            assert single.turns == traj.turns
            assert single.truncated == traj.truncated
            assert single.final_state == traj.final_state
        if case == "walk":  # from cell 1 the goal is two steps away
            from_0 = tt.state[:, 0] == 0
            assert from_0.any() and not from_0.all()
            assert (tt.length[from_0] == env.horizon).all()
            assert not tt.terminated[from_0].any() and tt.terminated[~from_0].all()
            assert (tt.length[~from_0] == 2).all()
            ep = np.argmax(from_0)
            contexts = set(zip(tt.state[ep].tolist(), tt.prev_subgoal[ep].tolist()))
            assert len(contexts) < env.horizon

    def test_greedy_walk_of_no_episodes(self, env_and_params):
        env, params = env_and_params
        sampled = rollout_batch(env, params, 0, seed=5)
        greedy = rollout_batch(env, params, 0, seed=5, greedy=True)
        for name, col in vars(sampled).items():
            got = getattr(greedy, name)
            assert got.shape == col.shape and got.dtype == col.dtype, name

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("n_episodes, offset", [(-3, 0), (2, -2)])
    def test_negative_counts_refused(self, env_and_params, n_episodes, offset, greedy):
        # an offset of -1 would key episode 2**64 - 1's stream
        env, params = env_and_params
        with pytest.raises(ValueError, match="n_episodes and episode_offset must be >= 0"):
            rollout_batch(env, params, n_episodes, seed=0, episode_offset=offset,
                          greedy=greedy)

    def test_episode_offset_changes_draws(self, env_and_params):
        env, params = env_and_params
        a = rollout_batch(env, params, 4, seed=1, episode_offset=0)
        b = rollout_batch(env, params, 4, seed=1, episode_offset=4)
        assert not np.array_equal(a.action, b.action)


class TestTableConversions:
    def test_round_trip(self, rng):
        trajs = [random_trajectory(rng, 8, 3, 4) for _ in range(20)]
        tt = spec.table(trajs, weights=rng.uniform(0.5, 2, 20))
        back = spec.records(tt)
        for a, b in zip(trajs, back):
            assert a.truncated == b.truncated
            assert a.n_turns == b.n_turns
            for ua, ub in zip(a.turns, b.turns):
                assert ua.state == ub.state and ua.q == ub.q
                assert ua.subgoal == ub.subgoal and ua.reward == ub.reward

    def test_round_trip_keeps_every_field_as_a_python_value(self, rng):
        # behavior log-probs of the heads each turn ran: none for the first
        # turn's switch or a KEEP turn's subgoal (NaN, read back as None)
        tt = record_behavior(spec.table(
            [random_trajectory(rng, 8, 3, 4) for _ in range(20)]),
            PolicyParams.random(rng, 8, 3, 4))
        back = spec.records(tt)
        again = spec.table(back)
        for name in ("state", "prev_subgoal", "q", "subgoal", "action", "reward",
                     "raw_reward", "lp_switch", "lp_subgoal", "lp_action", "format_ok",
                     "mask", "length", "terminated", "final_state"):
            assert np.array_equal(getattr(again, name), getattr(tt, name),
                                  equal_nan=getattr(tt, name).dtype == float), name
        for traj in back:
            assert type(traj.final_state) in (int, type(None))
            for u in traj.turns:
                assert [type(x) for x in u] == [
                    int, int, type(None) if u.t == 0 else int, int, int, int, float,
                    float, bool, type(None), type(None) if u.t == 0 else float,
                    type(None) if u.q == KEEP else float, float, bool]

    @pytest.mark.parametrize("field", ["state", "subgoal", "action",
                                       "prev_subgoal", "final_state"])
    def test_negative_ids_rejected(self, field):
        # a negative id would index the policy and value tables from the end;
        # turn 1 of episode 1 is a SWITCH, so each id is checked on its own
        traj = traj_from([1, 1, 0], [0.0, 1.0, 0.0], done=False, final_state=2)
        if field == "final_state":
            bad = replace(traj, final_state=-1)
            where = "episode 1"
        else:
            turns = list(traj.turns)
            turns[1] = turns[1]._replace(**{field: -1})
            bad = replace(traj, turns=tuple(turns))
            where = "episode 1, turn 1"
        spec.table([traj, traj])
        with pytest.raises(MalformedTrajectory, match=where):
            spec.table([traj, bad])

    # each edit of a valid truncated episode (turns SWITCH, KEEP, SWITCH)
    # breaks one rule of the validator and no other, so the message is that
    # rule's; the id rules are checked first
    @pytest.mark.parametrize("turn,edit,message", [
        (1, dict(state=10**23), "episode 1, turn 1: state 1" + "0" * 23 + " is beyond int64"),
        (None, dict(final_state=2**63),
         "episode 1: final_state 9223372036854775808 is beyond int64"),
        (1, dict(state=-1, t=7), "episode 1, turn 1: state is -1"),
        (None, dict(turns=()), "episode 1: no turns"),
        (0, dict(q=KEEP), "episode 1, turn 0: the first turn does not switch: q is 0"),
        (0, dict(prev_subgoal=0), "episode 1, turn 0: the first turn carries prev_subgoal 0"),
        (1, dict(t=5), "episode 1, turn 1: t is 5"),
        (1, dict(q=2), "episode 1, turn 1: q is 2"),
        (2, dict(prev_subgoal=1),
         "episode 1, turn 2: prev_subgoal is not the previous subgoal 0"),
        (2, dict(q=KEEP), "episode 1, turn 2: KEEP changes the subgoal to 1"),
        (1, dict(done=True), "episode 1, turn 1: done before the last turn"),
        (2, dict(done=True), "episode 1: done on the last turn, yet truncated"),
        (None, dict(truncated=False), "episode 1: neither done nor truncated"),
        (None, dict(final_state=None), "episode 1: truncated without final_state"),
    ])
    def test_each_structure_rule(self, turn, edit, message):
        traj = traj_from([1, 0, 1], [0.0, 1.0, 0.0], done=False, final_state=2)
        if turn is None:
            bad = replace(traj, **edit)
        else:
            turns = list(traj.turns)
            turns[turn] = turns[turn]._replace(**edit)
            bad = replace(traj, turns=tuple(turns))
        spec.table([traj, traj])
        with pytest.raises(MalformedTrajectory, match=f"^{re.escape(message)}$"):
            spec.table([traj, bad])

    def test_segment_masks_match_reference(self, rng):
        trajs = [random_trajectory(rng, 8, 3, 4) for _ in range(30)]
        tt = spec.table(trajs)
        sm = segment_masks(tt)
        for i, traj in enumerate(trajs):
            bounds = segment_boundaries(traj)
            t_total = traj.n_turns
            for t in range(t_total):
                end = min(b for b in bounds if b > t)
                assert sm.seg_end[i, t] == end
                assert sm.seg_final[i, t] == (t == end - 1)
            assert list(np.nonzero(sm.is_boundary[i, :t_total])[0]) == bounds[:-1]

    @pytest.mark.parametrize("case", ["random", "one turn", "no episodes",
                                      "one segment"])
    def test_segment_ends_match_the_loop(self, rng, case):
        # the whole padded grid, padding included
        if case == "random":
            trajs = [random_trajectory(rng, 8, 3, 4) for _ in range(30)]
        elif case == "one turn":
            trajs = [traj_from([SWITCH], [1.0]), traj_from([SWITCH], [0.0], done=False)]
        elif case == "no episodes":
            trajs = []
        else:  # no boundary after turn 0, beside a shorter episode
            trajs = [traj_from([SWITCH, KEEP, KEEP, KEEP], [0, 0, 0, 1]),
                     traj_from([SWITCH, SWITCH], [0, 1])]
        tt = spec.table(trajs)
        assert tt.max_turns == {"one turn": 1, "no episodes": 0}.get(case, tt.max_turns)
        assert np.array_equal(segment_masks(tt).seg_end, spec.seg_end_loop(tt))

    def test_returns_matrix_matches_reference(self, rng):
        trajs = [random_trajectory(rng, 8, 3, 4) for _ in range(20)]
        tt = spec.table(trajs)
        g = returns_matrix(tt, 0.9)
        for i, traj in enumerate(trajs):
            ref = spec.returns_to_go(traj, 0.9)
            assert np.allclose(g[i, :traj.n_turns], ref, atol=1e-12)


class TestBatchAdvantages:
    def test_matches_per_trajectory_reference(self, env_and_params, rng):
        env, params = env_and_params
        tt = rollout_batch(env, params, 50, seed=21)
        tables = random_tables(rng, env.n_states, 2)
        v_flat = rng.standard_normal(env.n_states)
        cfg = PPOConfig(gamma=0.92, lambda_low=0.8, lambda_high=0.7,
                        lambda_flat=0.9)
        arr = advantage_arrays(tt, tables, cfg)
        a_flat = flat_advantage_arrays(tt, v_flat, cfg)
        trajs = spec.records(tt)
        ref = spec.estimate_batch(trajs, tables, cfg)
        for i, (traj, h) in enumerate(zip(trajs, ref)):
            t_total = int(tt.length[i])
            assert np.allclose(arr.a_low[i, :t_total], h.a_low, atol=1e-11)
            bmask = arr.masks.is_boundary[i, :t_total]
            assert np.allclose(arr.a_high[i, :t_total][bmask], h.a_high, atol=1e-11)
            if t_total > 1:
                assert np.allclose(arr.a_switch[i, 1:t_total], h.a_switch,
                                   atol=1e-11)
            assert np.allclose(a_flat[i, :t_total], spec.flat_gae(traj, v_flat, cfg),
                               atol=1e-11)

    def test_per_episode_gamma_is_one_scalar_call_per_episode(self, rng):
        # bit for bit: the telescope gate runs every trial's own gamma
        # through one call of the kernel the trainer runs at one gamma
        trajs = [random_trajectory(rng, 8, 3, 4) for _ in range(40)]
        gammas = rng.uniform(0.2, 1.0, size=40)
        tables = random_tables(rng, 8, 3)
        cfg = PPOConfig(lambda_low=0.8, lambda_high=0.7)
        joint = _advantage_arrays(spec.table(trajs), tables, cfg, gammas)
        for i, (traj, gamma) in enumerate(zip(trajs, gammas)):
            one = advantage_arrays(spec.table([traj]), tables,
                                   replace(cfg, gamma=float(gamma)))
            n = traj.n_turns
            for name in ("a_low", "a_high", "a_switch"):
                assert np.array_equal(getattr(joint, name)[i, :n],
                                      getattr(one, name)[0], equal_nan=True), (i, name)

    def test_whitened_moments(self, env_and_params):
        # the trainer's whitening: per head over its present sites, and the
        # flat trainer's over every turn
        env, params = env_and_params
        tt = rollout_batch(env, params, 100, seed=3)
        tables = random_tables(np.random.default_rng(1), env.n_states, 2)
        cfg = PPOConfig(gamma=0.95)
        ref_lp = _ref_log_probs(params)
        sites = _sites(gather_rows(tt, advantage_arrays(tt, tables, cfg)), params,
                       False, ref_lp)
        _whiten_sites(sites)
        low, high = (adv[present] for adv, present in
                     zip(sites.adv.reshape(3, -1), sites.layout.present[:2]))
        assert abs(low.mean()) < 1e-10 and low.var() == pytest.approx(1.0, abs=1e-6)
        assert abs(high.mean()) < 1e-10
        rows = gather_rows(tt)
        rows.adv_flat = flat_advantage_arrays(tt, tables.v_high, cfg)[tt.mask]
        flat = _sites(rows, params, True, ref_lp)
        _whiten_sites(flat)
        assert flat.adv.size == tt.mask.sum()
        assert abs(flat.adv.mean()) < 1e-10
        assert flat.adv.var() == pytest.approx(1.0, abs=1e-6)


class TestBackwardSums:
    """The recursion with its decays built once against the per-turn loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_turn_loop_bit_for_bit(self, seed):
        # prefix masks, zeros of both signs at restarts and elsewhere, and
        # non-finite entries whose carry a restart must not pass on
        rng = np.random.default_rng(seed)
        n, t_max = 30, 12
        length = rng.integers(0, t_max + 1, n)
        mask = np.arange(t_max) < length[:, None]
        x = rng.standard_normal((n, t_max))
        x[rng.random((n, t_max)) < 0.2] = -0.0
        x[rng.random((n, t_max)) < 0.1] = 0.0
        if seed % 2:
            x[rng.random((n, t_max)) < 0.05] = np.inf
            x[rng.random((n, t_max)) < 0.05] = np.nan
        restart = mask & (rng.random((n, t_max)) < 0.3)
        for decay in (rng.uniform(0, 1, (n, 1)), rng.uniform(0, 1, (n, t_max)), 0.9):
            want = spec.backward_sums_loop(x, mask, decay, restart)
            got = _backward_sums(x, mask, decay, restart)
            assert got.tobytes() == want.tobytes()
            want = spec.backward_sums_loop(x, mask, decay, np.zeros_like(mask))
            assert _backward_sums(x, mask, decay).tobytes() == want.tobytes()


class TestCriticBatchesFromTable:
    def test_agree_with_trajectory_construction(self, env_and_params):
        env, params = env_and_params
        tt = rollout_batch(env, params, 40, seed=9, c_keep=0.1)
        trajs = spec.records(tt)
        a = critic_batch_from_table(tt, 0.9, env.n_states, 2)
        b = spec.critic_batch(trajs, 0.9, env.n_states, 2)
        assert np.allclose(a.w, b.w, atol=1e-10)
        for j, (x, y) in enumerate(zip(weighted_target_maps(a),
                                       weighted_target_maps(b))):
            assert np.allclose(x, y, atol=1e-10), j

    def test_batch_memory_is_linear_in_rows(self):
        # no per-cell-pair matrices: a wide env's batch stays in row form
        env = FetchChain(15, 60)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        tt = rollout_batch(env, params, 64, seed=0)
        cb = critic_batch_from_table(tt, 0.99, env.n_states, 2)
        held = sum(v.nbytes for v in vars(cb).values() if isinstance(v, np.ndarray))
        held += sum(v.nbytes for v in cb.rows.values())
        assert held < 1_000_000, held

    def test_flat_batches_agree(self, env_and_params):
        env, params = env_and_params
        tt = rollout_batch(env, params, 40, seed=9)
        a = flat_batch_from_table(tt, 0.9, env.n_states)
        b = spec.flat_critic_batch(spec.records(tt), 0.9, env.n_states)
        # per state: the weight and the weighted sum of returns-to-go
        a_g, b_g = (x.w * spec.mean_targets(x, ValueTables.zeros(env.n_states, 0))
                    for x in (a, b))
        assert np.allclose(a.w, b.w) and np.allclose(a_g, b_g)

    def test_advantage_residuals_are_row_errors(self):
        # with lambda 0 and no whitening the advantages are the one-step
        # residuals, each exactly a critic row's target minus its cell's value
        env = Walk()
        params = PolicyParams.random(np.random.default_rng(4), env.n_states, 2,
                                     env.n_actions, scale=0.8)
        tt = rollout_batch(env, params, 200, seed=8, c_keep=0.1)
        assert tt.terminated.any() and not tt.terminated.all()
        tables = random_tables(np.random.default_rng(5), env.n_states, 2)
        gamma = 0.9
        adv = advantage_arrays(tt, tables, PPOConfig(gamma=gamma, lambda_low=0.0,
                                                     lambda_high=0.0))
        cb = critic_batch_from_table(tt, gamma, env.n_states, 2)
        errors = cb.row_targets(tables) - stacked(tables)[cb.rows["cell"]]
        n_low = tt.total_turns
        assert np.array_equal(adv.a_low[tt.mask], errors[:n_low])
        assert np.array_equal(adv.a_high[adv.masks.is_boundary], errors[n_low:])
        # the flat level: each turn's one-step row bootstraps v_flat at the
        # next state, at a truncated episode's final state, or nowhere
        v_flat = np.random.default_rng(6).standard_normal(env.n_states)
        a_flat = flat_advantage_arrays(tt, v_flat, PPOConfig(gamma=gamma,
                                                             lambda_flat=0.0))
        eps, ts = np.nonzero(tt.mask)
        last = ts == tt.length[eps] - 1
        nxt = np.where(last, tt.final_state[eps],
                       tt.state[eps, np.minimum(ts + 1, tt.max_turns - 1)])
        boot = np.where(last & tt.terminated[eps], 0.0, v_flat[nxt])
        target = tt.reward[eps, ts] + gamma * boot
        assert np.array_equal(a_flat[tt.mask], target - v_flat[tt.state[eps, ts]])


class TestFlatGathers:
    """The kernels gather turns at flat row-major positions; each gather
    must equal the (episode, turn) index-pair form it replaced."""

    @staticmethod
    def tables():
        rng = np.random.default_rng(21)
        # ragged: lengths 1..9, some episodes truncated; then no episodes
        return [random_table(rng, 30, 7, 3, 4, max_turns=9), _empty_table(0, 6)]

    def test_gather_rows_matches_index_pairs(self):
        for tt in self.tables():
            adv = advantage_arrays(tt, random_tables(np.random.default_rng(1), 7, 3),
                                   PPOConfig(gamma=0.9))
            rows = gather_rows(tt, adv)
            eps, ts = np.nonzero(tt.mask)
            assert rows.episode.tobytes() == eps.tobytes()
            assert rows.t.tobytes() == ts.tobytes()
            for name, x in vars(tt).items():
                if name in vars(rows) and name not in ("episode", "t"):
                    got = getattr(rows, name)
                    assert got.dtype == x.dtype and got.tobytes() == x[eps, ts].tobytes()
            for name, level in (("adv_low", "a_low"), ("adv_high", "a_high"),
                                ("adv_switch", "a_switch")):
                assert getattr(rows, name).tobytes() == getattr(adv, level)[eps, ts].tobytes()

    @pytest.mark.parametrize("gamma", [0.9, "per episode"])
    def test_critic_rows_match_index_pairs(self, gamma):
        for tt in self.tables():
            g = (np.linspace(0.5, 1.0, tt.n_episodes) if gamma == "per episode"
                 else gamma)
            sm = segment_masks(tt)
            rows, lo, hi, gtilde = _critic_rows(tt, g, sm, 7, 3)
            ref_rows, ref_lo, ref_hi, ref_gtilde = spec.critic_rows_nonzero(tt, g, sm, 7, 3)
            assert rows.keys() == ref_rows.keys()
            for key, x in rows.items():
                assert x.dtype == ref_rows[key].dtype and x.tobytes() == ref_rows[key].tobytes()
            assert gtilde.tobytes() == ref_gtilde.tobytes()
            # the masks put the rows where the index pairs do
            grid = np.arange(tt.mask.size).reshape(tt.mask.shape)
            assert grid[lo].tobytes() == grid[ref_lo].tobytes()
            assert grid[hi].tobytes() == grid[ref_hi].tobytes()


class TestRatios:
    def test_match_per_turn_reference(self, env_and_params):
        env, params = env_and_params
        tt = rollout_batch(env, params, 12, seed=5, c_keep=0.1)
        live = fetchchain_phased(env, np.random.default_rng(8))
        _, got = head_ratios(tt, live)
        want = [spec.ppo_ratios(live, u)
                for traj in spec.records(tt) for u in traj.turns]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # an absent head contributes 0 to the surrogate
            w = [0.0 if r is None else r for r in w]
            assert np.allclose(g, w, atol=1e-11)


class TestBatchStats:
    def test_segment_length_identity(self, env_and_params):
        env, params = env_and_params
        tt = rollout_batch(env, params, 300, seed=4)
        st = batch_stats(tt, goal_state=env.goal_state)
        # total turns / total segments times segments per episode gives the
        # mean episode length exactly
        assert st.mean_segments * st.mean_seg_len == pytest.approx(
            st.mean_length, rel=1e-12)
        assert st.switch_rate * st.mean_seg_len == pytest.approx(1.0, rel=1e-12)
        assert 0.0 <= st.switch_rate <= 1.0

    def test_success_counts_goal_entries(self):
        env = OneStep(n_actions=2, reward=10.0)
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        tt = rollout_batch(env, params, 10, seed=0)
        st = batch_stats(tt, goal_state=env.goal_state)
        assert st.success_rate == 1.0 and st.mean_return == 10.0


class TestScoreKernel:
    """The per-head pass and its score sums against the per-turn spec."""

    def test_scores_match_per_turn_reference(self, rng):
        params = PolicyParams.random(rng, 6, 3, 4)
        trajs = [random_trajectory(rng, 6, 3, 4) for _ in range(15)]
        got = kernel_scores(params, trajs)
        turns = [u for traj in trajs for u in traj.turns]
        assert got.action.shape[0] == len(turns)
        for k, u in enumerate(turns):
            want = spec.grad_log_prob(params, u)
            for name in ("switch", "subgoal", "action"):
                assert np.allclose(getattr(got, name)[k], getattr(want, name),
                                   atol=1e-12), (k, name)

    def test_log_likelihoods_match_per_turn_reference(self, rng):
        params = PolicyParams.random(rng, 6, 3, 4)
        trajs = [random_trajectory(rng, 6, 3, 4) for _ in range(15)]
        rows = gather_rows(spec.table(trajs))
        got = turn_log_likelihood(head_sites(rows, params), params.theta)
        want = [sum(lp for lp in spec.log_prob(params, u) if lp is not None)
                for traj in trajs for u in traj.turns]
        assert np.allclose(got, want, atol=1e-12)

    def test_recorded_behavior_matches_per_turn_reference(self, rng):
        params = PolicyParams.random(rng, 6, 3, 4)
        trajs = [random_trajectory(rng, 6, 3, 4) for _ in range(15)]
        got = record_behavior(spec.table(trajs), params)
        want = spec.table(
            [spec.with_behavior_logprobs(traj, params) for traj in trajs])
        for name in ("lp_switch", "lp_subgoal", "lp_action"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            assert np.allclose(a[~np.isnan(a)], b[~np.isnan(b)], atol=1e-12), name

    def test_log_probs_by_head_width(self):
        # the pass sums a column left to right, as numpy sums a row of up to
        # 7 choices; a wider row numpy sums pairwise
        for width in range(2, 65):
            rng = np.random.default_rng(width)
            params = PolicyParams.random(rng, 5, width, width, scale=3.0)
            rows = gather_rows(spec.table(
                [random_trajectory(rng, 5, width, width, max_turns=8) for _ in range(10)]))
            sites = head_sites(rows, params)
            sp = site_pass(sites, sites.slab(params.theta))
            cells = (params.action[rows.state, rows.subgoal], params.subgoal[rows.state],
                     params.switch[rows.state, rows.prev_subgoal])
            for h, ((lo, hi), cell) in enumerate(zip(sp.bounds, cells)):
                want = log_softmax(cell[sp.pos[lo:hi]], axis=1)
                got = sp.lp[:sites.widths[h], lo:hi].T
                if width <= 7:
                    assert np.array_equal(got, want), (width, h)
                else:
                    assert np.abs(got - want).max() <= 1e-14, (width, h)

    def test_sites_lay_out_only_present_cells(self, rng):
        # per site, the block column holds its cell's entries of the vector,
        # then the pad; an absent site's column is all pad.  The first turns
        # start at state 0, where the absent switch site's cell (prev subgoal
        # -1) starts two entries before the vector: a wrap-around would touch
        # the last action cell, which no turn here visits
        params = PolicyParams.random(rng, 6, 3, 4)
        trajs = [random_trajectory(rng, 6, 3, 4) for _ in range(15)]
        rows = gather_rows(spec.table(trajs))
        rows.state[rows.state == 5] = 4
        rows.state[rows.t == 0] = 0
        sites = head_sites(rows, params)
        index = GradTables.wrap(np.arange(params.theta.size), params)
        switch, subgoal, action = index.switch, index.subgoal, index.action
        want = ([action[s, o] for s, o in zip(rows.state, rows.subgoal)]
                + [subgoal[s] if q == SWITCH else None
                   for s, q in zip(rows.state, rows.q)]
                + [switch[s, o] if t > 0 else None
                   for s, o, t in zip(rows.state, rows.prev_subgoal, rows.t)])
        cells = np.unique(np.concatenate([w for w in want if w is not None]))
        assert np.array_equal(sites.cells, cells)
        assert not np.isin(action[-1, -1], cells).any()
        assert np.array_equal(sites.present.ravel(), [w is not None for w in want])
        for site, w in enumerate(want):
            w = np.array([], dtype=int) if w is None else w
            column = sites.block[:, site]
            assert np.array_equal(cells[column[:w.size]], w)
            assert (column[w.size:] == cells.size).all()

    @pytest.mark.parametrize("case", ["fetchchain-3-6", "fetchchain-5-20",
                                      "fetchchain-15-60", "eight-wide", "no-rows"])
    def test_head_sites_match_the_entry_by_entry_layout(self, case):
        # the per-cell layout (touched cells marked once, slab starts from a
        # running sum of widths) returns the entry-by-entry one, field for field
        rng = np.random.default_rng(7)
        if case.startswith("fetchchain"):
            env = FetchChain(*map(int, case.split("-")[1:]))
            params = PolicyParams.random(rng, env.n_states, 2, env.n_actions)
            rows = gather_rows(rollout_batch(env, params, 64, seed=3))
        else:
            # subgoal and action heads 8 choices wide
            params = PolicyParams.random(rng, 6, 8, 8)
            rows = gather_rows(random_table(rng, 40, 6, 8, 8))
            if case == "no-rows":
                rows = take(rows, np.array([], dtype=np.int64))
        got, want = head_sites(rows, params), spec.head_sites_by_entries(rows, params)
        for name in ("present", "block", "chosen", "cells"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.size, got.widths, got.spans) == (want.size, want.widths, want.spans)

    def test_mc_gradient_matches_dense_scatter(self):
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0,
                        lambda_flat=1.0)
        tables = oracle_values(solve_dp(env, params, 1.0)).tables
        # chunks of 700 leave a short last chunk
        got, = mc_gradient_hae(env, params, tables, [(cfg, 2000)], seed=3, chunk=700)
        mean, se = spec.mc_gradient_hae(env, params, tables, cfg, n=2000, seed=3,
                                        chunk=700)
        assert got.n == 2000
        assert np.allclose(got.mean.theta, mean.theta, rtol=0, atol=1e-12)
        assert np.allclose(got.se.theta, se.theta, rtol=0, atol=1e-12)
