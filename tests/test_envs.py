import numpy as np
import pytest

from segrl.envs import (DROP, LEFT, PICKUP, RIGHT, FetchChain, OneStep,
                        make_env, transition_tables)

from conftest import Walk
from spec import optimal_return, transition_loop


class TestFetchChain:
    def test_successful_drop(self):
        env = FetchChain(3, 6)
        s = env.encode(0, True, 2)
        nxt, r, done = env.transition(s, DROP)
        assert done and r == 10.0 and nxt == env.goal_state

    def test_clamped_boundary_move(self):
        env = FetchChain(3, 6)
        s = env.encode(0, False, 0)
        nxt, r, done = env.transition(s, LEFT)
        assert r == 0.0 and not done
        pos, carrying, clock = env.decode(nxt)
        assert (pos, carrying, clock) == (0, False, 1)

    def test_invalid_pickup(self):
        env = FetchChain(3, 6)
        s = env.encode(1, False, 0)
        nxt, r, done = env.transition(s, PICKUP)
        assert r == pytest.approx(-0.1) and not done
        pos, carrying, _ = env.decode(nxt)
        assert (pos, carrying) == (1, False)

    def test_pickup_at_far_end(self):
        env = FetchChain(3, 6)
        s = env.encode(2, False, 1)
        nxt, r, done = env.transition(s, PICKUP)
        assert r == 0.0 and not done
        pos, carrying, _ = env.decode(nxt)
        assert (pos, carrying) == (2, True)

    def test_unknown_action(self):
        env = FetchChain(3, 6)
        with pytest.raises(ValueError):
            env.transition(env.encode(0, False, 0), 4)

    def test_horizon_terminates(self):
        env = FetchChain(3, 2)
        s = env.encode(0, False, 1)
        nxt, _, done = env.transition(s, RIGHT)
        assert done and nxt == env.halt_state

    def test_terminal_states_flagged(self):
        env = FetchChain(3, 6)
        assert env.is_terminal(env.halt_state)
        assert env.is_terminal(env.goal_state)
        assert not env.is_terminal(env.encode(2, True, 3))

    def test_codec_round_trip(self):
        env = FetchChain(4, 5)
        for pos in range(4):
            for carrying in (False, True):
                for clock in range(5):
                    s = env.encode(pos, carrying, clock)
                    assert env.decode(s) == (pos, carrying, clock)
                    assert not env.is_terminal(s)

    def test_optimal_return_exhaustive(self):
        # exactly 10 when there is time for the full fetch-and-deliver loop
        for length in (2, 3, 4):
            min_h = 2 * (length - 1) + 2
            assert optimal_return(FetchChain(length, min_h), 1.0) == pytest.approx(10.0)
            assert optimal_return(FetchChain(length, min_h + 3), 1.0) == pytest.approx(10.0)
            assert optimal_return(FetchChain(length, min_h - 1), 1.0) < 10.0


class TestOneStep:
    def test_single_decision(self):
        env = OneStep(n_actions=3, reward=10.0)
        for a in range(3):
            nxt, r, done = env.transition(0, a)
            assert (nxt, r, done) == (1, 10.0, True)
        assert env.is_terminal(1) and not env.is_terminal(0)

    def test_unknown_action(self):
        with pytest.raises(ValueError):
            OneStep(n_actions=2).transition(0, 2)


def test_transition_tables_match_env():
    env = FetchChain(3, 4)
    nxt, rew, done = transition_tables(env)
    for s in range(env.n_states):
        for a in range(env.n_actions):
            if env.is_terminal(s):
                assert nxt[s, a] == s and done[s, a]
            else:
                assert (nxt[s, a], rew[s, a], done[s, a]) == env.transition(s, a)


def test_make_env():
    assert isinstance(make_env("fetchchain", length=4, horizon=9), FetchChain)
    assert isinstance(make_env("onestep"), OneStep)
    with pytest.raises(ValueError):
        make_env("gridworld")


def test_transition_tables_built_once_and_read_only():
    env = FetchChain(3, 4)
    first = transition_tables(env)
    again = transition_tables(env)
    assert all(a is b for a, b in zip(first, again))
    for table in first:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = table[0, 1]
    # another env object of the same size gets its own, equal tables
    other = transition_tables(FetchChain(3, 4))
    assert all(a is not b and (a == b).all() for a, b in zip(first, other))


class TestSizes:
    @pytest.mark.parametrize("args", [(3, 6.0), (3.0, 6), (3, True), (True, 6),
                                      (3, "6"), (3, None)])
    def test_fetchchain_refuses_a_non_integer_size(self, args):
        with pytest.raises(TypeError, match="must be an integer"):
            FetchChain(*args)

    @pytest.mark.parametrize("n_actions", [2.5, 2.0, True, "2"])
    def test_onestep_refuses_a_non_integer_size(self, n_actions):
        with pytest.raises(TypeError, match="n_actions must be an integer"):
            OneStep(n_actions)

    def test_numpy_integers_accepted(self):
        env = FetchChain(np.int64(3), np.int32(6))
        assert env.n_states == 38 and type(env.n_states) is int
        assert OneStep(np.int16(3)).n_actions == 3


class TestArrayTables:
    @pytest.mark.parametrize("size", [(2, 1), (3, 6), (5, 20), (15, 60)])
    def test_equal_the_transition_loop(self, size):
        got, want = transition_tables(FetchChain(*size)), transition_loop(FetchChain(*size))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = a[0, 0]

    def test_built_without_calling_transition(self, monkeypatch):
        want = transition_loop(FetchChain(5, 20))

        def refuse(self, state, action):
            raise AssertionError("FetchChain.transition called")

        monkeypatch.setattr(FetchChain, "transition", refuse)
        got = transition_tables(FetchChain(5, 20))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("make", [lambda: OneStep(n_actions=3), Walk])
    def test_other_envs_step_every_live_pair(self, make, monkeypatch):
        env = make()
        want = transition_loop(env)
        calls = []
        step = type(env).transition

        def counted(self, state, action):
            calls.append((state, action))
            return step(self, state, action)

        monkeypatch.setattr(type(env), "transition", counted)
        got = transition_tables(env)
        live = [s for s in range(env.n_states) if not env.is_terminal(s)]
        assert calls == [(s, a) for s in live for a in range(env.n_actions)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
