"""Episode records: turns, trajectories and their JSON-Lines format.

A trajectory is a sequence of turns (s, q, o, a, r).  The switch bit q
partitions the turns into maximal constant-subgoal segments.  Trajectories
are the record that files and transcripts are read into and written from;
the estimators, critics and trainer consume them as a `batch.TurnTable`,
whose `from_trajectories` checks the turn-structure invariants.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

KEEP = 0
SWITCH = 1


class InputError(ValueError):
    """Input from outside the program that segrl refuses: a config file,
    trajectory JSON-Lines, a checkpoint, a transcript or a command-line
    argument.  The command line reports it and exits with code 2."""


class MalformedTrajectory(InputError):
    """A trajectory file or record violates the turn-structure invariants."""


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


@dataclass(frozen=True)
class Trajectory:
    """An episode of turns, ending either terminally or by truncation: the
    record of a JSON-Lines file or a transcript.

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


# ---------------------------------------------------------------------------
# Trajectory JSON-Lines format
#
# One object per turn:
#   {"t":int,"state":int,"prev_subgoal":int|null,"q":0|1,"subgoal":int,
#    "subgoal_text":string|null,"action":int,"reward":float,
#    "raw_reward":float,"done":bool}
# Rewards are finite.  An episode is a contiguous run ending with done:true
# or a truncation sentinel line {"truncated":true} (optionally carrying
# "final_state"); `truncated` takes no other value.
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


# the Python types `json` decodes each kind of field to; exact types, since
# bool is a subclass of int
_JSON_TYPES = {"an integer": (int,), "a finite number": (int, float), "a boolean": (bool,),
               "a string": (str,)}


def _json_field(obj: dict, name: str, what: str):
    """obj[name] if it holds a JSON value of the kind `what`; KeyError when
    missing, ValueError naming the field otherwise."""
    value = obj[name]
    if type(value) not in _JSON_TYPES[what] or (
            what == "a finite number" and not abs(value) <= sys.float_info.max):
        raise ValueError(f"field {name!r} is not {what}: {value!r}")
    return value


def turn_from_json(obj: dict) -> TurnRecord:
    """A turn from its JSON object; KeyError on a missing key, ValueError
    naming the field on a value of the wrong JSON type (a bool or a float
    where an integer belongs, a bool where a number belongs, anything but a
    string or null as subgoal_text) or on a reward that is not finite."""
    return TurnRecord(
        t=_json_field(obj, "t", "an integer"),
        state=_json_field(obj, "state", "an integer"),
        prev_subgoal=(None if obj["prev_subgoal"] is None
                      else _json_field(obj, "prev_subgoal", "an integer")),
        q=_json_field(obj, "q", "an integer"),
        subgoal=_json_field(obj, "subgoal", "an integer"),
        action=_json_field(obj, "action", "an integer"),
        reward=float(_json_field(obj, "reward", "a finite number")),
        raw_reward=float(_json_field(obj, "raw_reward", "a finite number")),
        done=_json_field(obj, "done", "a boolean"),
        subgoal_text=(None if obj.get("subgoal_text") is None
                      else _json_field(obj, "subgoal_text", "a string")),
    )


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
        except ValueError as exc:  # JSONDecodeError, or an integer too long
            raise MalformedTrajectory(
                f"line {line_no}: not valid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(obj, dict):
            raise MalformedTrajectory(f"line {line_no}: expected a JSON object")
        if "truncated" in obj:
            if obj["truncated"] is not True:
                raise MalformedTrajectory(
                    f"line {line_no}: truncated {obj['truncated']!r} is not true")
            if not turns:
                raise MalformedTrajectory(f"line {line_no}: truncation sentinel without turns")
            fs = obj.get("final_state")
            if fs is not None and type(fs) is not int:
                raise MalformedTrajectory(
                    f"line {line_no}: final_state {fs!r} is not an integer")
            yield Trajectory(tuple(turns), truncated=True, final_state=fs)
            turns = []
            continue
        try:
            u = turn_from_json(obj)
        except KeyError as exc:
            raise MalformedTrajectory(f"line {line_no}: turn lacks the key {exc}") from None
        except ValueError as exc:
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
