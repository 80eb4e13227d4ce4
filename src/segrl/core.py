"""Episode data model: turns, trajectories, segments, returns, reward shaping.

A trajectory is a sequence of turns (s, q, o, a, r).  The switch bit q
partitions the turns into maximal constant-subgoal segments; everything
downstream (critics, advantage estimators, the trainer) consumes the
segment structure derived here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

KEEP = 0
SWITCH = 1


class MalformedTrajectory(ValueError):
    """A trajectory violates the turn-structure invariants."""


class TurnRecord(NamedTuple):
    """One environment turn.

    `reward` is the shaped reward actually used for learning (KEEP and
    format penalties applied); `raw_reward` is the untouched environment
    reward, kept for success metrics.  The `lp_*` fields hold the behavior
    policy's log-probabilities recorded at collection time (None for turns
    ingested from text logs).
    """

    t: int
    state: int
    prev_subgoal: int | None
    q: int
    subgoal: int
    action: int
    reward: float
    raw_reward: float
    done: bool
    subgoal_text: str | None = None
    lp_switch: float | None = None
    lp_subgoal: float | None = None
    lp_action: float | None = None
    format_valid: bool = True


class SegmentView(NamedTuple):
    """Maximal constant-subgoal run [start, stop) compressed to a macro-step."""

    k: int
    start: int
    stop: int
    subgoal: int
    reward: float     # within-segment discounted reward, discount 1 at `start`
    discount: float   # gamma ** (stop - start)


@dataclass(frozen=True)
class Trajectory:
    """An episode of turns, ending either terminally or by truncation.

    `final_state` is the state observed after the last turn; it is required
    for bootstrapping when the episode was truncated non-terminally and is
    optional otherwise.
    """

    turns: tuple[TurnRecord, ...]
    truncated: bool = False
    final_state: int | None = None
    seed: int | None = None

    @property
    def n_turns(self) -> int:
        return len(self.turns)

    @property
    def terminated(self) -> bool:
        return not self.truncated

    def rewards(self) -> np.ndarray:
        return np.array([u.reward for u in self.turns], dtype=np.float64)

    def raw_rewards(self) -> np.ndarray:
        return np.array([u.raw_reward for u in self.turns], dtype=np.float64)

    def switches(self) -> np.ndarray:
        return np.array([u.q for u in self.turns], dtype=np.int64)


def validate_trajectory(traj: Trajectory) -> None:
    """Check the turn-structure invariants, raising MalformedTrajectory."""
    turns = traj.turns
    if len(turns) == 0:
        raise MalformedTrajectory("empty trajectory")
    if turns[0].q != SWITCH:
        raise MalformedTrajectory("first turn must switch (q_0 = 1)")
    if turns[0].prev_subgoal is not None:
        raise MalformedTrajectory("first turn cannot carry a previous subgoal")
    for i, u in enumerate(turns):
        if u.t != i:
            raise MalformedTrajectory(f"turn index mismatch at position {i}")
        if u.q not in (KEEP, SWITCH):
            raise MalformedTrajectory(f"turn {i}: q must be 0 or 1")
        if i > 0:
            prev = turns[i - 1]
            if u.prev_subgoal != prev.subgoal:
                raise MalformedTrajectory(f"turn {i}: prev_subgoal does not chain")
            if u.q == KEEP and u.subgoal != prev.subgoal:
                raise MalformedTrajectory(f"turn {i}: KEEP must retain the subgoal")
        if u.done and i != len(turns) - 1:
            raise MalformedTrajectory(f"turn {i}: done before the last turn")
    if turns[-1].done and traj.truncated:
        raise MalformedTrajectory("episode cannot be both terminal and truncated")
    if not turns[-1].done and not traj.truncated:
        raise MalformedTrajectory("non-terminal episode must be flagged truncated")


def segment_boundaries(traj: Trajectory) -> list[int]:
    """Boundary indices [b_0 .. b_K] with b_0 = 0 and b_K = T.

    Interior boundaries are exactly the turns t > 0 with q_t = 1.  The final
    boundary closes at T whether or not a switch occurred there.
    """
    turns = traj.turns
    if len(turns) == 0:
        raise MalformedTrajectory("empty trajectory")
    if turns[0].q != SWITCH:
        raise MalformedTrajectory("first turn must switch (q_0 = 1)")
    bounds = [0]
    for u in turns[1:]:
        if u.q == SWITCH:
            bounds.append(u.t)
    bounds.append(len(turns))
    return bounds


def segment_views(traj: Trajectory, gamma: float) -> list[SegmentView]:
    """Compress each segment into (macro-reward, duration discount)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    bounds = segment_boundaries(traj)
    views = []
    for k in range(len(bounds) - 1):
        start, stop = bounds[k], bounds[k + 1]
        acc = 0.0
        scale = 1.0
        for j in range(start, stop):
            acc += scale * traj.turns[j].reward
            scale *= gamma
        views.append(SegmentView(k, start, stop, traj.turns[start].subgoal,
                                 acc, gamma ** (stop - start)))
    return views


def return_to_go(traj: Trajectory, gamma: float, t: int) -> float:
    """Discounted tail sum of shaped rewards from turn t (G_T := 0)."""
    if not 0 <= t < traj.n_turns:
        raise IndexError(f"turn {t} out of range for length {traj.n_turns}")
    acc = 0.0
    for j in range(traj.n_turns - 1, t - 1, -1):
        acc = traj.turns[j].reward + gamma * acc
    return acc


def returns_to_go(traj: Trajectory, gamma: float) -> np.ndarray:
    """All return-to-go values in one backward pass."""
    out = np.empty(traj.n_turns, dtype=np.float64)
    acc = 0.0
    for j in range(traj.n_turns - 1, -1, -1):
        acc = traj.turns[j].reward + gamma * acc
        out[j] = acc
    return out


def episode_return(traj: Trajectory, gamma: float = 1.0, raw: bool = False) -> float:
    rewards = traj.raw_rewards() if raw else traj.rewards()
    scale = gamma ** np.arange(len(rewards))
    return float(np.dot(scale, rewards))


def apply_keep_penalty(traj: Trajectory, c_keep: float) -> Trajectory:
    """Subtract c_keep from the shaped reward of every KEEP turn.

    Raw rewards are left untouched, so success metrics stay meaningful.
    """
    if c_keep < 0:
        raise ValueError("c_keep must be >= 0")
    if c_keep == 0.0:
        return traj
    turns = tuple(
        u._replace(reward=u.reward - c_keep) if u.q == KEEP else u
        for u in traj.turns
    )
    return replace(traj, turns=turns)


# ---------------------------------------------------------------------------
# Trajectory JSON-Lines format
#
# One object per turn:
#   {"t":int,"state":int,"prev_subgoal":int|null,"q":0|1,"subgoal":int,
#    "subgoal_text":string|null,"action":int,"reward":float,
#    "raw_reward":float,"done":bool}
# An episode is a contiguous run ending with done:true or a truncation
# sentinel line {"truncated":true} (optionally carrying "final_state").
# ---------------------------------------------------------------------------

def turn_to_json(u: TurnRecord) -> dict:
    return {
        "t": u.t,
        "state": u.state,
        "prev_subgoal": u.prev_subgoal,
        "q": u.q,
        "subgoal": u.subgoal,
        "subgoal_text": u.subgoal_text,
        "action": u.action,
        "reward": u.reward,
        "raw_reward": u.raw_reward,
        "done": u.done,
    }


_TURN_FIELDS = (("t", int), ("state", int), ("prev_subgoal", int), ("q", int),
                ("subgoal", int), ("action", int), ("reward", float),
                ("raw_reward", float))


def turn_from_json(obj: dict) -> TurnRecord:
    """A turn from its JSON object; KeyError on a missing key, ValueError
    naming the field on a value of the wrong type."""
    try:
        return TurnRecord(
            t=int(obj["t"]),
            state=int(obj["state"]),
            prev_subgoal=None if obj["prev_subgoal"] is None else int(obj["prev_subgoal"]),
            q=int(obj["q"]),
            subgoal=int(obj["subgoal"]),
            action=int(obj["action"]),
            reward=float(obj["reward"]),
            raw_reward=float(obj["raw_reward"]),
            done=bool(obj["done"]),
            subgoal_text=obj.get("subgoal_text"),
        )
    except (TypeError, ValueError):
        # find the field that failed, in the order they were read
        for name, conv in _TURN_FIELDS:
            value = obj[name]
            try:
                if value is not None or name != "prev_subgoal":
                    conv(value)
            except (TypeError, ValueError):
                what = "an integer" if conv is int else "a number"
                raise ValueError(f"field {name!r} is not {what}: {value!r}") from None
        raise


def write_trajectories(fp: IO[str], trajectories: Iterable[Trajectory]) -> None:
    for traj in trajectories:
        for u in traj.turns:
            fp.write(json.dumps(turn_to_json(u), separators=(",", ":")) + "\n")
        if traj.truncated:
            sentinel: dict = {"truncated": True}
            if traj.final_state is not None:
                sentinel["final_state"] = traj.final_state
            fp.write(json.dumps(sentinel, separators=(",", ":")) + "\n")


def read_trajectories(fp: IO[str]) -> Iterator[Trajectory]:
    turns: list[TurnRecord] = []
    for line_no, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedTrajectory(f"line {line_no}: not valid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise MalformedTrajectory(f"line {line_no}: expected a JSON object")
        if obj.get("truncated"):
            if not turns:
                raise MalformedTrajectory(f"line {line_no}: truncation sentinel without turns")
            fs = obj.get("final_state")
            try:
                fs = None if fs is None else int(fs)
            except (TypeError, ValueError):
                raise MalformedTrajectory(
                    f"line {line_no}: final_state {fs!r} is not an integer") from None
            yield Trajectory(tuple(turns), truncated=True, final_state=fs)
            turns = []
            continue
        try:
            u = turn_from_json(obj)
        except KeyError as exc:
            raise MalformedTrajectory(f"line {line_no}: turn lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise MalformedTrajectory(f"line {line_no}: {exc}") from None
        turns.append(u)
        if u.done:
            yield Trajectory(tuple(turns), truncated=False)
            turns = []
    if turns:
        raise MalformedTrajectory("dangling turns: episode ended without done or sentinel")


def save_trajectories(path, trajectories: Iterable[Trajectory]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        write_trajectories(fp, trajectories)


def load_trajectories(path) -> list[Trajectory]:
    with open(path, "r", encoding="utf-8") as fp:
        return list(read_trajectories(fp))
