"""Exactly enumerable toy environments behind a small deterministic interface.

Both shipped environments fold the turn counter into the state id.  With a
finite horizon the conditional expected return at a physical configuration
depends on how much time is left; encoding the clock makes the process a
time-homogeneous Markov chain whose value functions are state-measurable,
which is what the exact-identity verification suites require.  Episodes
therefore always end terminally (goal reached or clock expired) and the
non-terminal truncation code path is never exercised by these environments.
"""

from __future__ import annotations

import weakref
from typing import Protocol, runtime_checkable

import numpy as np

LEFT, RIGHT, PICKUP, DROP = 0, 1, 2, 3

FETCHCHAIN_ACTION_NAMES = ("LEFT", "RIGHT", "PICKUP", "DROP")
SUCCESS_REWARD = 10.0
INVALID_ACTION_PENALTY = 0.1


@runtime_checkable
class EnvModel(Protocol):
    """Deterministic episodic environment over small-integer states."""

    n_states: int
    n_actions: int
    horizon: int

    def initial_states(self) -> list[tuple[int, float]]:
        """Initial-state distribution as (state, probability) pairs."""
        ...

    def transition(self, state: int, action: int) -> tuple[int, float, bool]:
        """(next_state, reward, done) for a state-action pair."""
        ...

    def is_terminal(self, state: int) -> bool:
        ...


def _integer(name: str, value) -> int:
    """`value` as an int: a Python or numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


class FetchChain:
    """Two-stage pick-and-deliver task on a chain of L cells.

    The agent starts at cell 0 not carrying.  PICKUP is valid only at the
    far end (cell L-1) while empty-handed; DROP is valid only back at cell 0
    while carrying and ends the episode with reward +10.  Invalid actions
    leave position and carrying unchanged and cost 0.1.  The episode ends
    terminally when the clock reaches H.

    State ids encode (position, carrying, turns elapsed) plus two dedicated
    absorbing states: HALT (clock expired) and GOAL (successful drop).
    """

    def __init__(self, length: int = 3, horizon: int = 6):
        length, horizon = _integer("length", length), _integer("horizon", horizon)
        if length < 2:
            raise ValueError("FetchChain needs at least 2 cells")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.length = length
        self.horizon = horizon
        self.n_actions = 4
        self._n_live = 2 * length * horizon
        self.halt_state = self._n_live
        self.goal_state = self._n_live + 1
        self.n_states = self._n_live + 2

    # -- state codec --------------------------------------------------------

    def encode(self, pos: int, carrying: bool, clock: int) -> int:
        if not (0 <= pos < self.length and 0 <= clock < self.horizon):
            raise ValueError(f"invalid configuration ({pos}, {carrying}, {clock})")
        return clock * (2 * self.length) + (self.length if carrying else 0) + pos

    def decode(self, state: int) -> tuple[int, bool, int]:
        if not 0 <= state < self._n_live:
            raise ValueError(f"state {state} is not a live state")
        clock, rem = divmod(state, 2 * self.length)
        carrying, pos = divmod(rem, self.length)
        return pos, bool(carrying), clock

    def is_terminal(self, state: int) -> bool:
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} out of range")
        return state >= self._n_live

    def initial_states(self) -> list[tuple[int, float]]:
        return [(self.encode(0, False, 0), 1.0)]

    # -- dynamics -----------------------------------------------------------

    def transition(self, state: int, action: int) -> tuple[int, float, bool]:
        if self.is_terminal(state):
            raise ValueError("cannot step a terminal state")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"unknown action id {action}")
        pos, carrying, clock = self.decode(state)
        reward = 0.0
        if action == LEFT:
            pos = max(pos - 1, 0)
        elif action == RIGHT:
            pos = min(pos + 1, self.length - 1)
        elif action == PICKUP:
            if pos == self.length - 1 and not carrying:
                carrying = True
            else:
                reward = -INVALID_ACTION_PENALTY
        elif action == DROP:
            if pos == 0 and carrying:
                return self.goal_state, SUCCESS_REWARD, True
            reward = -INVALID_ACTION_PENALTY
        if clock + 1 >= self.horizon:
            return self.halt_state, reward, True
        return self.encode(pos, carrying, clock + 1), reward, False

    def __repr__(self) -> str:
        return f"FetchChain(length={self.length}, horizon={self.horizon})"


class OneStep:
    """Single-decision environment with a constant reward.

    Useful as the smallest enumerable case: one live state, one turn,
    every action ends the episode with the same reward.
    """

    def __init__(self, n_actions: int = 2, reward: float = 10.0):
        n_actions = _integer("n_actions", n_actions)
        if n_actions < 1:
            raise ValueError("need at least one action")
        self.n_actions = n_actions
        self.reward = reward
        self.horizon = 1
        self.n_states = 2
        self.goal_state = 1

    def initial_states(self) -> list[tuple[int, float]]:
        return [(0, 1.0)]

    def is_terminal(self, state: int) -> bool:
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} out of range")
        return state == 1

    def transition(self, state: int, action: int) -> tuple[int, float, bool]:
        if state != 0:
            raise ValueError("cannot step a terminal state")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"unknown action id {action}")
        return 1, self.reward, True

    def __repr__(self) -> str:
        return f"OneStep(n_actions={self.n_actions}, reward={self.reward})"


# the dense tables of each env object, built on first use; envs are immutable
_TABLES: "weakref.WeakKeyDictionary[EnvModel, tuple]" = weakref.WeakKeyDictionary()


def transition_tables(env: EnvModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (next_state, reward, done) lookup tables over (state, action).

    Terminal rows self-loop with zero reward so vectorized rollouts can
    gather unconditionally; callers mask them out via episode liveness.
    The tables are built once per env object and are read-only.  A
    FetchChain's come from array arithmetic over its state codec; any
    other env's from one `env.transition` call per (state, action).
    """
    try:
        return _TABLES[env]
    except KeyError:
        tables = _TABLES[env] = _dense_tables(env)
        return tables
    except TypeError:  # an env that cannot be weakly referenced or hashed
        return _dense_tables(env)


def _dense_tables(env: EnvModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_s, n_a = env.n_states, env.n_actions
    nxt = np.empty((n_s, n_a), dtype=np.int64)
    rew = np.zeros((n_s, n_a), dtype=np.float64)
    done = np.zeros((n_s, n_a), dtype=bool)
    if isinstance(env, FetchChain):
        _fetchchain_tables(env, nxt, rew, done)
    else:
        for s in range(n_s):
            if env.is_terminal(s):
                nxt[s, :] = s
                done[s, :] = True
                continue
            for a in range(n_a):
                nxt[s, a], rew[s, a], done[s, a] = env.transition(s, a)
    for table in (nxt, rew, done):
        table.flags.writeable = False
    return nxt, rew, done


def _fetchchain_tables(env: FetchChain, nxt: np.ndarray, rew: np.ndarray,
                       done: np.ndarray) -> None:
    """Fill the zeroed tables with every (state, action) outcome of
    `FetchChain.transition`, decoded and re-encoded as arrays."""
    n_l, n_live = env.length, env._n_live
    clock, rem = np.divmod(np.arange(n_live), 2 * n_l)
    carrying, pos = np.divmod(rem, n_l)
    can_pick = (pos == n_l - 1) & (carrying == 0)
    can_drop = (pos == 0) & (carrying == 1)
    # per action (columns LEFT, RIGHT, PICKUP, DROP): where in the next clock's
    # block of 2L states it leads (carrying * L + position), and whether it
    # was invalid
    after = np.stack([np.maximum(pos - 1, 0), np.minimum(pos + 1, n_l - 1), pos, pos],
                     axis=1)
    after += np.stack([carrying, carrying, carrying | can_pick, carrying], axis=1) * n_l
    valid = np.ones(n_live, dtype=bool)
    invalid = ~np.stack([valid, valid, can_pick, can_drop], axis=1)
    expired = (clock + 1 >= env.horizon)[:, None]
    nxt[:n_live] = np.where(expired, env.halt_state, (clock[:, None] + 1) * 2 * n_l + after)
    rew[:n_live] = np.where(invalid, -INVALID_ACTION_PENALTY, 0.0)
    done[:n_live] = expired
    # a valid drop delivers whatever the clock reads
    nxt[:n_live, DROP][can_drop] = env.goal_state
    rew[:n_live, DROP][can_drop] = SUCCESS_REWARD
    done[:n_live, DROP] |= can_drop
    # terminal rows self-loop with zero reward
    nxt[n_live:] = np.arange(n_live, env.n_states)[:, None]
    done[n_live:] = True


def make_env(name: str, length: int = 3, horizon: int = 6, n_actions: int = 2) -> EnvModel:
    name = name.strip().lower()
    if name == "fetchchain":
        return FetchChain(length=length, horizon=horizon)
    if name == "onestep":
        return OneStep(n_actions=n_actions)
    raise ValueError(f"unknown environment '{name}' (expected fetchchain or onestep)")
