import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segrl.advantages import GAEConfig
from segrl.batch import (TurnTable, advantage_arrays, critic_batch_from_table,
                         returns_matrix, rollout_batch, segment_masks)
from segrl.core import (KEEP, SWITCH, InputError, MalformedTrajectory, Trajectory,
                        TurnRecord, load_trajectories, read_trajectories,
                        save_trajectories, segment_boundaries, write_trajectories)
from segrl.envs import FetchChain
from segrl.oracle import random_tables
from segrl.policy import PolicyParams

import spec
from conftest import random_trajectory, traj_from


def returns(traj, gamma):
    """`returns_matrix` on a one-episode table, unpadded."""
    return returns_matrix(TurnTable.from_trajectories([traj]), gamma)[0, :traj.n_turns]


def macro_steps(traj, gamma, n_states=8, n_options=3):
    """(start, stop, macro-reward) per segment, from the kernels: the
    boundaries of `segment_masks` and the rewards of the high-head rows of
    `critic_batch_from_table`, which follow its one row per turn."""
    tt = TurnTable.from_trajectories([traj])
    sm = segment_masks(tt)
    starts = np.flatnonzero(sm.is_boundary[0])
    cb = critic_batch_from_table(tt, gamma, n_states, n_options)
    return [(int(b), int(sm.seg_end[0, b]), float(r))
            for b, r in zip(starts, cb.rows["r"][traj.n_turns:])]


class TestSegmentBoundaries:
    def test_single_turn(self):
        assert segment_boundaries(traj_from([1], [0.0])) == [0, 1]

    def test_interior_switches(self):
        traj = traj_from([1, 0, 0, 1, 0], [0.0] * 5)
        assert segment_boundaries(traj) == [0, 3, 5]

    def test_every_turn_switches(self):
        assert segment_boundaries(traj_from([1, 1, 1], [0.0] * 3)) == [0, 1, 2, 3]

    def test_rejects_missing_first_switch(self):
        bad = traj_from([1, 0], [0.0, 0.0])
        bad = bad.__class__(turns=(bad.turns[0]._replace(q=KEEP),) + bad.turns[1:])
        with pytest.raises(MalformedTrajectory):
            segment_boundaries(bad)


class TestSegmentViews:
    def test_zero_rewards(self):
        (seg,) = spec.segment_views(traj_from([1, 0, 0], [0, 0, 0]), gamma=1.0)
        assert seg.reward == 0.0 and seg.discount == 1.0

    def test_hand_evaluated_sum(self):
        (seg,) = spec.segment_views(traj_from([1, 0, 0], [1, 2, 4]), gamma=0.5)
        assert seg.reward == pytest.approx(3.0, abs=1e-15)
        assert seg.discount == pytest.approx(0.125, abs=1e-15)

    def test_single_terminal_turn(self):
        (seg,) = spec.segment_views(traj_from([1], [10.0]), gamma=0.9)
        assert seg.reward == 10.0 and seg.discount == pytest.approx(0.9)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            spec.segment_views(traj_from([1], [0.0]), gamma=0.0)


class TestReturnToGo:
    def test_zero_discount(self):
        traj = traj_from([1, 0, 0], [3.0, 5.0, 7.0])
        assert returns(traj, 0.0).tolist() == [3.0, 5.0, 7.0]

    def test_undiscounted_sum(self):
        assert returns(traj_from([1, 0, 0], [1, 1, 1]), 1.0)[0] == 3.0

    def test_discounted_tail(self):
        assert returns(traj_from([1, 0, 0], [0, 0, 10]), 0.5)[0] == 2.5

    def test_zero_beyond_length(self):
        trajs = [traj_from([1], [4.0]), traj_from([1, 0, 0], [1.0, 2.0, 3.0])]
        g = returns_matrix(TurnTable.from_trajectories(trajs), 0.9)
        assert g.shape == (2, 3) and g[0, 1:].tolist() == [0.0, 0.0]

    def test_matches_batch_helper(self, rng):
        # the backward pass against each turn's discounted tail sum
        traj = random_trajectory(rng, 6, 2, 3)
        r = [u.reward for u in traj.turns]
        g = spec.returns_to_go(traj, 0.9)
        for t in range(traj.n_turns):
            tail = sum(0.9 ** (j - t) * r[j] for j in range(t, traj.n_turns))
            assert g[t] == pytest.approx(tail, abs=1e-12)
        assert np.allclose(returns(traj, 0.9), g, atol=1e-12)


class TestKeepPenalty:
    """`rollout_batch(c_keep=c)` against `c_keep=0` at the same seed: the
    episodes are the same, and only KEEP turns' shaped rewards move."""

    @pytest.fixture(scope="class")
    def env_params(self):
        env = FetchChain(3, 6)
        return env, PolicyParams.uniform(env.n_states, 2, env.n_actions)

    def test_zero_penalty_identity(self, env_params):
        tt = rollout_batch(*env_params, 20, seed=3, c_keep=0.0)
        assert np.array_equal(tt.reward, tt.raw_reward)

    def test_per_definition_subtraction(self, env_params):
        tt = rollout_batch(*env_params, 20, seed=3, c_keep=0.3)
        keeps = tt.mask & (tt.q == KEEP)
        assert keeps.any()
        assert np.array_equal(tt.reward[keeps], tt.raw_reward[keeps] - 0.3)
        assert np.array_equal(tt.reward[~keeps], tt.raw_reward[~keeps])

    def test_idempotent_only_at_zero(self):
        traj = traj_from([1, 0], [1.0, 1.0])
        once = spec.apply_keep_penalty(traj, 0.3)
        twice = spec.apply_keep_penalty(once, 0.3)
        assert once.turns[1].reward != twice.turns[1].reward

    def test_shaped_minus_raw(self, env_params):
        base = rollout_batch(*env_params, 50, seed=9)
        shaped = rollout_batch(*env_params, 50, seed=9, c_keep=0.25)
        for name in ("state", "q", "subgoal", "action", "raw_reward", "mask",
                     "final_state", "lp_action"):
            assert np.array_equal(getattr(base, name), getattr(shaped, name),
                                  equal_nan=name == "lp_action"), name
        keeps = (base.mask & (base.q == KEEP)).sum(axis=1)
        diff = shaped.reward.sum(axis=1) - base.reward.sum(axis=1)
        assert np.allclose(diff, -0.25 * keeps, atol=1e-12)

    def test_rejects_negative(self, env_params):
        with pytest.raises(ValueError):
            rollout_batch(*env_params, 1, seed=0, c_keep=-0.1)
        with pytest.raises(ValueError):
            spec.apply_keep_penalty(traj_from([1], [0.0]), -0.1)


class TestPartitionProperties:
    def test_segments_partition_and_reconstruct(self, rng):
        for _ in range(100):
            traj = random_trajectory(rng, 8, 3, 4)
            gamma = float(rng.uniform(0.3, 1.0))
            steps = macro_steps(traj, gamma)
            covered = []
            for start, stop, _ in steps:
                covered.extend(range(start, stop))
            assert covered == list(range(traj.n_turns))
            # the offset macro-rewards tile the discounted return
            total = sum(gamma ** start * r for start, _, r in steps)
            direct = sum(gamma ** u.t * u.reward for u in traj.turns)
            assert total == pytest.approx(direct, abs=1e-12)
            assert returns(traj, gamma)[0] == pytest.approx(direct, abs=1e-12)

    def test_boundary_return_recursion(self, rng):
        for _ in range(100):
            traj = random_trajectory(rng, 8, 3, 4)
            gamma = float(rng.uniform(0.3, 1.0))
            bounds = segment_boundaries(traj)
            g = returns(traj, gamma)
            steps = macro_steps(traj, gamma)
            for start, stop, r in steps:
                g_next = g[stop] if stop < traj.n_turns else 0.0
                assert g[start] == pytest.approx(
                    r + gamma ** (stop - start) * g_next, abs=1e-12)
            assert [s for s, _, _ in steps] + [traj.n_turns] == bounds
            assert bounds[0] == 0 and bounds[-1] == traj.n_turns

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_boundaries_strictly_increasing(self, tail):
        qs = [1] + tail
        traj = traj_from(qs, [0.0] * len(qs))
        bounds = segment_boundaries(traj)
        assert bounds == sorted(set(bounds))
        assert bounds[0] == 0 and bounds[-1] == len(qs)
        interior = [t for t in range(1, len(qs)) if qs[t] == 1]
        assert bounds[1:-1] == [b for b in interior if b != len(qs)]


_TURN_FIELDS = ("t", "state", "prev_subgoal", "q", "subgoal", "action", "reward",
                "raw_reward", "done", "subgoal_text")
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.integers(),
                         st.floats(), st.text(max_size=2),
                         st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))


@st.composite
def _jsonl_text(draw):
    """Valid episodes as JSON-Lines, then up to three edits: a line dropped,
    stray text inserted, or a key dropped or set to any JSON value."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 4))
        truncated = draw(st.booleans())
        prev = None
        for t in range(n):
            q = 1 if t == 0 else draw(st.integers(0, 1))
            o = draw(st.integers(0, 2)) if q else prev
            lines.append({"t": t, "state": draw(st.integers(0, 4)), "prev_subgoal": prev,
                          "q": q, "subgoal": o, "action": draw(st.integers(0, 2)),
                          "reward": draw(st.floats(-2, 2)), "raw_reward": 0.0,
                          "done": t == n - 1 and not truncated})
            prev = o
        if truncated:
            lines.append({"truncated": True, "final_state": draw(st.integers(0, 4))})
    keys = st.sampled_from(_TURN_FIELDS + ("truncated", "final_state"))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["drop line", "text", "drop key", "set key"]))
        if edit == "text":
            lines.insert(k, draw(st.text(max_size=8)))
        elif k < len(lines) and edit == "drop line":
            del lines[k]
        elif k < len(lines) and isinstance(lines[k], dict):
            if edit == "drop key":
                lines[k].pop(draw(keys), None)
            else:
                lines[k][draw(keys)] = draw(_JSON_VALUES)
    return "\n".join(x if isinstance(x, str) else json.dumps(x) for x in lines)


class TestValidation:
    def test_valid_random(self, rng):
        TurnTable.from_trajectories([random_trajectory(rng, 6, 2, 3)
                                     for _ in range(50)])

    def test_keep_must_retain_subgoal(self):
        traj = traj_from([1, 0], [0, 0], subgoals=[0, 1])
        with pytest.raises(MalformedTrajectory):
            TurnTable.from_trajectories([traj])

    @given(_jsonl_text())
    @example(json.dumps({"t": 0, "state": 0, "prev_subgoal": None, "q": 1, "subgoal": 0,
                         "action": 0, "reward": 0.0, "raw_reward": 0.0, "done": True,
                         "subgoal_text": [1, {"a": 2}]}))
    @settings(max_examples=200, deadline=None)
    def test_any_text_reads_to_a_valid_table_or_an_input_error(self, text):
        try:
            trajs = list(read_trajectories(io.StringIO(text)))
            tt = TurnTable.from_trajectories(trajs)
        except InputError:
            return
        assert all(type(u.subgoal_text) in (str, type(None))
                   for tr in trajs for u in tr.turns)
        for ids in (tt.state, tt.subgoal, tt.action):
            assert (ids[tt.mask] >= 0).all()
        n_s, n_o, n_a = (int(np.max(x, initial=0)) + 1 for x in
                         (np.append(tt.state[tt.mask], tt.final_state),
                          tt.subgoal[tt.mask], tt.action[tt.mask]))
        if max(n_s, n_o, n_a) <= 100:
            # a validated table runs the advantage kernel to finite values
            adv = advantage_arrays(tt, random_tables(np.random.default_rng(0), n_s, n_o),
                                   GAEConfig(), PolicyParams.uniform(n_s, n_o, n_a))
            assert np.isfinite(adv.a_low[tt.mask]).all()
            assert np.isfinite(adv.a_high[adv.masks.is_boundary]).all()

    def test_done_only_last(self):
        traj = traj_from([1, 0], [0, 0])
        bad = traj.__class__(
            turns=(traj.turns[0]._replace(done=True), traj.turns[1]))
        with pytest.raises(MalformedTrajectory):
            TurnTable.from_trajectories([bad])


class TestJsonl:
    def test_round_trip(self, rng):
        trajs = [random_trajectory(rng, 6, 2, 3) for _ in range(10)]
        buf = io.StringIO()
        write_trajectories(buf, trajs)
        buf.seek(0)
        back = list(read_trajectories(buf))
        assert len(back) == len(trajs)
        for a, b in zip(trajs, back):
            assert a.truncated == b.truncated
            assert len(a.turns) == len(b.turns)
            for ua, ub in zip(a.turns, b.turns):
                assert (ua.t, ua.state, ua.prev_subgoal, ua.q, ua.subgoal,
                        ua.action, ua.reward, ua.raw_reward, ua.done) == \
                       (ub.t, ub.state, ub.prev_subgoal, ub.q, ub.subgoal,
                        ub.action, ub.reward, ub.raw_reward, ub.done)
        # serialization is stable
        buf2 = io.StringIO()
        write_trajectories(buf2, back)
        buf_nofinal = io.StringIO()
        write_trajectories(buf_nofinal, trajs)
        assert buf2.getvalue() == buf_nofinal.getvalue()

    # the writer's template against `json.dumps`, on the values where their
    # rules could part: escapes, float extremes, 64-bit ids and null
    _ids = st.integers(0, 2**63 - 1)
    _numbers = st.one_of(st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308,
                                          -1.7976931348623157e308, 1e16, 1e-05]),
                         st.floats(allow_nan=False, allow_infinity=False))
    _texts = st.one_of(st.none(), st.text(), st.sampled_from(
        ['', 'say "hi"', 'C:\\dir\\', '\x00\t\n\x1f\x7f', 'line\u2028sep\u2029',
         'naïve — ☃ 𝄞', '</subgoal>']))
    _turns = st.builds(TurnRecord, t=_ids, state=_ids, prev_subgoal=st.none() | _ids,
                       q=_ids, subgoal=_ids, action=_ids, reward=_numbers,
                       raw_reward=_numbers, done=st.booleans(), subgoal_text=_texts)
    _episodes = st.builds(lambda turns, truncated, final_state: Trajectory(
        tuple(turns), truncated=truncated, final_state=final_state),
        st.lists(_turns, max_size=4), st.booleans(), st.none() | _ids)

    @given(st.lists(_episodes, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_writer_bytes_equal_json_dumps(self, trajs):
        got, want = io.StringIO(), io.StringIO()
        write_trajectories(got, trajs)
        spec.write_trajectories(want, trajs)
        assert got.getvalue() == want.getvalue()

    def test_dangling_turns_rejected(self):
        buf = io.StringIO('{"t":0,"state":0,"prev_subgoal":null,"q":1,'
                          '"subgoal":0,"subgoal_text":null,"action":0,'
                          '"reward":0.0,"raw_reward":0.0,"done":false}\n')
        with pytest.raises(MalformedTrajectory):
            list(read_trajectories(buf))

    GOOD_TURN = {"t": 0, "state": 0, "prev_subgoal": None, "q": 1, "subgoal": 0,
                 "subgoal_text": None, "action": 1, "reward": 0, "raw_reward": 0.5,
                 "done": True}

    def test_number_fields_take_integers(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(self.GOOD_TURN) + "\n")
        (traj,) = load_trajectories(path)
        u = traj.turns[0]
        assert type(u.reward) is float and u.reward == 0.0 and u.done is True

    @pytest.mark.parametrize("field,value", [
        ("state", 1.7), ("state", True), ("q", True), ("t", 0.0),
        ("prev_subgoal", 0.0), ("subgoal", False), ("action", "1"),
        ("reward", True), ("raw_reward", False), ("raw_reward", "0.5"),
        ("done", 1), ("done", "true")])
    def test_wrong_json_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(dict(self.GOOD_TURN, **{field: value})) + "\n")
        with pytest.raises(MalformedTrajectory, match=f"line 1: field '{field}'"):
            load_trajectories(path)

    @pytest.mark.parametrize("final_state", [2.0, True, "2"])
    def test_sentinel_final_state_must_be_an_integer(self, tmp_path, final_state):
        path = tmp_path / "one.jsonl"
        sentinel = {"truncated": True, "final_state": final_state}
        path.write_text(json.dumps(dict(self.GOOD_TURN, done=False)) + "\n"
                        + json.dumps(sentinel) + "\n")
        with pytest.raises(MalformedTrajectory, match="line 2: final_state"):
            load_trajectories(path)

    @pytest.mark.parametrize("field", ["reward", "raw_reward"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_writer_refuses_a_non_finite_reward(self, tmp_path, field, value):
        # JSON holds no nan or infinity: the reader would refuse the line
        ok = TurnRecord(0, 0, None, SWITCH, 0, 1, 0.0, 0.0, False)
        bad = ok._replace(t=1, prev_subgoal=0, q=KEEP, done=True, **{field: value})
        trajs = [Trajectory((ok._replace(done=True),)), Trajectory((ok, bad))]
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"episode 1, turn 1: {field} is {value}"):
            write_trajectories(buf, trajs)
        assert buf.getvalue() == ""
        with pytest.raises(ValueError, match=field):
            save_trajectories(tmp_path / "out.jsonl", trajs)
        assert not (tmp_path / "out.jsonl").exists()
