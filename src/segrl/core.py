"""Episode records: turns, trajectories and their JSON-Lines format.

A trajectory is a sequence of turns (s, q, o, a, r).  The switch bit q
partitions the turns into maximal constant-subgoal segments.  Trajectories
are the record that files and transcripts are read into and written from;
the estimators, critics and trainer consume them as a `batch.TurnTable`,
whose `from_trajectories` checks the turn-structure invariants.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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

def _not_a(name: str, what: str, value) -> ValueError:
    return ValueError(f"field {name!r} is not {what}: {value!r}")


def turn_from_json(obj: dict) -> TurnRecord:
    """A turn from its JSON object; KeyError on a missing key, ValueError
    naming the field on a value of the wrong JSON type (a bool or a float
    where an integer belongs, a bool where a number belongs, anything but a
    string or null as subgoal_text) or on a reward that is not finite.  The
    fields are checked in order and the first fault is reported; `type(x)
    is int` is exact, since bool is a subclass of int."""
    t = obj["t"]
    if type(t) is not int:
        raise _not_a("t", "an integer", t)
    state = obj["state"]
    if type(state) is not int:
        raise _not_a("state", "an integer", state)
    prev = obj["prev_subgoal"]
    if prev is not None and type(prev) is not int:
        raise _not_a("prev_subgoal", "an integer", prev)
    q = obj["q"]
    if type(q) is not int:
        raise _not_a("q", "an integer", q)
    subgoal = obj["subgoal"]
    if type(subgoal) is not int:
        raise _not_a("subgoal", "an integer", subgoal)
    action = obj["action"]
    if type(action) is not int:
        raise _not_a("action", "an integer", action)
    reward = obj["reward"]
    if type(reward) not in (float, int) or not abs(reward) <= sys.float_info.max:
        raise _not_a("reward", "a finite number", reward)
    raw = obj["raw_reward"]
    if type(raw) not in (float, int) or not abs(raw) <= sys.float_info.max:
        raise _not_a("raw_reward", "a finite number", raw)
    done = obj["done"]
    if type(done) is not bool:
        raise _not_a("done", "a boolean", done)
    text = obj.get("subgoal_text")
    if text is not None and type(text) is not str:
        raise _not_a("subgoal_text", "a string", text)
    return TurnRecord(t, state, prev, q, subgoal, action, float(reward), float(raw),
                      done, text)


_TURN_LINE = ('{"t":%s,"state":%s,"prev_subgoal":%s,"q":%s,"subgoal":%s,'
              '"subgoal_text":%s,"action":%s,"reward":%s,"raw_reward":%s,"done":%s}\n')


def write_trajectories(fp: IO[str], trajectories: Iterable[Trajectory]) -> None:
    """The episodes in one write, each line the bytes of `json.dumps(obj,
    separators=(",", ":"))`: strings escaped by json's own ASCII encoder,
    ints and floats as `str`, which is the `int.__repr__` and
    `float.__repr__` json uses.  Refuses, before writing anything, a turn
    whose reward or raw_reward is not finite, which JSON cannot hold."""
    text = encode_basestring_ascii
    lines = []
    for i, traj in enumerate(trajectories):
        for u in traj.turns:
            if not (math.isfinite(u.reward) and math.isfinite(u.raw_reward)):
                name = "reward" if not math.isfinite(u.reward) else "raw_reward"
                raise ValueError(f"episode {i}, turn {u.t}: {name} is "
                                 f"{getattr(u, name)}, not a finite number")
        lines += [_TURN_LINE % (
            u.t, u.state, "null" if u.prev_subgoal is None else u.prev_subgoal, u.q,
            u.subgoal, "null" if u.subgoal_text is None else text(u.subgoal_text),
            u.action, u.reward, u.raw_reward, "true" if u.done else "false")
            for u in traj.turns]
        if traj.truncated:
            lines.append('{"truncated":true}\n' if traj.final_state is None else
                         '{"truncated":true,"final_state":%s}\n' % traj.final_state)
    fp.write("".join(lines))


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
    buf = io.StringIO()
    write_trajectories(buf, trajectories)  # a refused turn leaves no file
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(buf.getvalue())


def load_trajectories(path) -> list[Trajectory]:
    with open(path, "r", encoding="utf-8") as fp:
        return list(read_trajectories(fp))
