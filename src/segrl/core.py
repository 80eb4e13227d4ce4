"""Episodes: the padded `TurnTable` and its JSON-Lines format.

An episode is a sequence of turns (s, q, o, a, r).  The switch bit q
partitions the turns into maximal constant-subgoal segments.  `TurnTable`
is the one episode representation: rollouts are written into it, files
and transcripts are read into it through `TurnTable.from_columns`, which
checks the turn-structure invariants, and the estimators, critics and
trainer consume it.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import IO

import numpy as np

KEEP = 0
SWITCH = 1


class InputError(ValueError):
    """Input from outside the program that segrl refuses: a config file,
    trajectory JSON-Lines, a checkpoint, a transcript or a command-line
    argument.  The command line reports it and exits with code 2."""


class MalformedTrajectory(InputError):
    """A trajectory file or episode violates the turn-structure invariants."""


@dataclass
class TurnTable:
    """Padded columnar batch of episodes; `mask` marks real turns.

    `reward` is the shaped learning reward (KEEP and format penalties
    applied), `raw_reward` the environment's.  The `lp_*` columns hold the
    behavior log-probabilities recorded at collection.  `final_state`, the
    state after the last turn, bootstraps a truncated episode."""

    state: np.ndarray          # (n, T) int64
    prev_subgoal: np.ndarray   # (n, T) int64, -1 where absent
    q: np.ndarray              # (n, T) int64
    subgoal: np.ndarray        # (n, T) int64
    action: np.ndarray         # (n, T) int64
    reward: np.ndarray         # (n, T) float64 (shaped)
    raw_reward: np.ndarray     # (n, T) float64
    lp_switch: np.ndarray      # (n, T) float64, NaN where absent
    lp_subgoal: np.ndarray     # (n, T) float64, NaN where absent
    lp_action: np.ndarray      # (n, T) float64, NaN where absent
    format_ok: np.ndarray      # (n, T) bool
    mask: np.ndarray           # (n, T) bool
    length: np.ndarray         # (n,) int64
    terminated: np.ndarray     # (n,) bool
    final_state: np.ndarray    # (n,) int64, -1 when unknown
    weight: np.ndarray         # (n,) float64

    @property
    def n_episodes(self) -> int:
        return self.state.shape[0]

    @property
    def max_turns(self) -> int:
        return self.state.shape[1]

    @property
    def total_turns(self) -> int:
        return int(self.length.sum())

    @classmethod
    def from_columns(cls, turns: dict, length, terminated, final_state) -> "TurnTable":
        """The episodes given as columns, as one table; the one place that
        validates episode structure.  `turns` maps t, state, prev_subgoal,
        q, subgoal, action, reward, raw_reward, done and optionally
        lp_switch, lp_subgoal, lp_action and format_ok to one value per turn
        in row-major order (that of `np.nonzero(mask)`); `length`,
        `terminated` and `final_state` hold one value per episode.  None
        marks an absent prev_subgoal, final_state or log-prob.

        Raises MalformedTrajectory, naming the episode and the turn where
        there is one, at the first rule broken, in this order.  Ids: an
        integer field beyond int64; a negative state, subgoal, action,
        prev_subgoal or final_state.  Structure: an episode without turns; a
        first turn that is not a SWITCH or carries a prev_subgoal; a `t`
        other than the turn's position; a q other than KEEP or SWITCH; a
        prev_subgoal other than the previous turn's subgoal; a KEEP turn
        that changes the subgoal; `done` before the last turn; an episode
        both done and truncated, or neither; a truncated episode without
        final_state.
        """
        length = np.asarray(length, dtype=np.int64)
        tt = _empty_table(length.size, int(length.max(initial=0)))
        cols = np.arange(tt.max_turns)
        tt.length[:] = length
        tt.mask[:] = cols < length[:, None]
        tt.terminated[:] = terminated
        at_turn = "episode {}, turn {}"

        def ids(name, values, where=lambda k: at_turn.format(*np.argwhere(tt.mask)[k])):
            try:
                return np.array([-1 if v is None else v for v in values], dtype=np.int64)
            except OverflowError:
                k = next(k for k, v in enumerate(values) if not -2**63 <= (v or 0) < 2**63)
                raise MalformedTrajectory(
                    f"{where(k)}: {name} {values[k]} is beyond int64") from None

        tt.final_state[:] = ids("final_state", final_state, "episode {}".format)
        t_of, done, has_prev = (np.zeros(tt.mask.shape, dtype) for dtype in (np.int64, bool, bool))
        t_of[tt.mask] = ids("t", turns["t"])
        for name in ("state", "prev_subgoal", "q", "subgoal", "action"):
            getattr(tt, name)[tt.mask] = ids(name, turns[name])
        for name in ("reward", "raw_reward", "lp_switch", "lp_subgoal", "lp_action",
                     "format_ok"):
            if name in turns:
                col = getattr(tt, name)
                col[tt.mask] = np.asarray(turns[name], dtype=col.dtype)
        done[tt.mask] = turns["done"]
        has_prev[tt.mask] = [p is not None for p in turns["prev_subgoal"]]
        has_fs = np.array([x is not None for x in final_state], dtype=bool)
        prev_o = np.full_like(tt.subgoal, -1)
        prev_o[:, 1:] = tt.subgoal[:, :-1]
        last = cols == (length - 1)[:, None]
        done_last = (done & last).any(axis=1)
        for bad, what, value in (
                (tt.state < 0, "state is", tt.state),
                (tt.subgoal < 0, "subgoal is", tt.subgoal),
                (tt.action < 0, "action is", tt.action),
                (has_prev & (tt.prev_subgoal < 0), "prev_subgoal is", tt.prev_subgoal),
                (has_fs & (tt.final_state < 0), "final_state is", tt.final_state),
                (length == 0, "no turns", None),
                ((cols == 0) & (tt.q != SWITCH), "the first turn does not switch: q is", tt.q),
                ((cols == 0) & has_prev, "the first turn carries prev_subgoal", tt.prev_subgoal),
                (t_of != cols, "t is", t_of),
                ((tt.q != KEEP) & (tt.q != SWITCH), "q is", tt.q),
                ((cols > 0) & (tt.prev_subgoal != prev_o),
                 "prev_subgoal is not the previous subgoal", prev_o),
                ((tt.q == KEEP) & (tt.subgoal != tt.prev_subgoal),
                 "KEEP changes the subgoal to", tt.subgoal),
                (done & ~last, "done before the last turn", None),
                (done_last & ~tt.terminated, "done on the last turn, yet truncated", None),
                (~done_last & tt.terminated, "neither done nor truncated", None),
                (~tt.terminated & ~has_fs, "truncated without final_state", None)):
            if (bad := bad & tt.mask if bad.ndim == 2 else bad).any():
                at = tuple(np.argwhere(bad)[0])
                where = (at_turn if len(at) == 2 else "episode {}").format(*at)
                shown = "" if value is None else f" {value[at]}"
                raise MalformedTrajectory(f"{where}: {what}{shown}")
        return tt


def _empty_table(n: int, t_max: int) -> TurnTable:
    shape = (n, t_max)
    return TurnTable(
        state=np.zeros(shape, dtype=np.int64),
        prev_subgoal=np.full(shape, -1, dtype=np.int64),
        q=np.zeros(shape, dtype=np.int64),
        subgoal=np.zeros(shape, dtype=np.int64),
        action=np.zeros(shape, dtype=np.int64),
        reward=np.zeros(shape, dtype=np.float64),
        raw_reward=np.zeros(shape, dtype=np.float64),
        lp_switch=np.full(shape, np.nan),
        lp_subgoal=np.full(shape, np.nan),
        lp_action=np.full(shape, np.nan),
        format_ok=np.ones(shape, dtype=bool),
        mask=np.zeros(shape, dtype=bool),
        length=np.zeros(n, dtype=np.int64),
        terminated=np.zeros(n, dtype=bool),
        final_state=np.full(n, -1, dtype=np.int64),
        weight=np.ones(n, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# The trajectory JSON-Lines format
#
# One object per turn:
#   {"t":int,"state":int,"prev_subgoal":int|null,"q":0|1,"subgoal":int,
#    "subgoal_text":string|null,"action":int,"reward":float,
#    "raw_reward":float,"done":bool}
# Rewards are finite.  An episode is a contiguous run ending with done:true
# or a truncation sentinel line {"truncated":true} (optionally carrying
# "final_state"); `truncated` takes no other value.
# ---------------------------------------------------------------------------

# Each turn field with its JSON types: `type(x) in types` is exact, since
# bool is a subclass of int.  A reward must also be finite.
_INT, _NUMBER = (int,), (float, int)
_TURN_FIELDS = (("t", _INT), ("state", _INT), ("prev_subgoal", (int, type(None))),
                ("q", _INT), ("subgoal", _INT), ("action", _INT), ("reward", _NUMBER),
                ("raw_reward", _NUMBER), ("done", (bool,)),
                ("subgoal_text", (str, type(None))))
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean",
               str: "a string"}


_TURN_LINE = ('{"t":%s,"state":%s,"prev_subgoal":%s,"q":%s,"subgoal":%s,'
              '"subgoal_text":%s,"action":%s,"reward":%s,"raw_reward":%s,"done":%s}\n')


def write_trajectories(fp: IO[str], tt: TurnTable, texts=None) -> None:
    """The table's episodes in one write, each line the bytes of
    `json.dumps(obj, separators=(",", ":"))`: strings escaped by json's own
    ASCII encoder, ints and floats as `str`, which is the `int.__repr__` and
    `float.__repr__` json uses.  `texts` gives each turn's subgoal_text in
    row-major mask order (all null when None); a negative prev_subgoal or
    final_state is absent.  Refuses, before writing anything, a turn whose
    reward or raw_reward is not finite, which JSON cannot hold."""
    episode, turn = np.nonzero(tt.mask)
    reward, raw = tt.reward[tt.mask], tt.raw_reward[tt.mask]
    if (bad := ~(np.isfinite(reward) & np.isfinite(raw))).any():
        k = int(np.argmax(bad))
        name, value = (("reward", reward[k]) if not np.isfinite(reward[k]) else
                       ("raw_reward", raw[k]))
        raise ValueError(f"episode {episode[k]}, turn {turn[k]}: {name} is "
                         f"{float(value)}, not a finite number")
    done = tt.terminated[episode] & (turn == tt.length[episode] - 1)
    text = encode_basestring_ascii
    lines = [_TURN_LINE % (t, s, "null" if p < 0 else p, q, o,
                           "null" if x is None else text(x), a, r, rr,
                           "true" if d else "false")
             for t, s, p, q, o, x, a, r, rr, d in zip(
                 turn.tolist(), tt.state[tt.mask].tolist(),
                 tt.prev_subgoal[tt.mask].tolist(), tt.q[tt.mask].tolist(),
                 tt.subgoal[tt.mask].tolist(), [None] * turn.size if texts is None else texts,
                 tt.action[tt.mask].tolist(), reward.tolist(), raw.tolist(),
                 done.tolist(), strict=True)]
    out, end = [], 0
    for n, term, fs in zip(tt.length.tolist(), tt.terminated.tolist(),
                           tt.final_state.tolist()):
        out += lines[end:end + n]
        end += n
        if not term:
            out.append('{"truncated":true}\n' if fs < 0 else
                       '{"truncated":true,"final_state":%s}\n' % fs)
    fp.write("".join(out))


def read_trajectories(fp: IO[str]) -> tuple[TurnTable, list[str | None]]:
    """The episodes of a JSON-Lines stream as a validated table, and each
    turn's subgoal_text in row-major mask order.  A line's own faults are
    refused with its number, the table's in `TurnTable.from_columns`."""
    return _read(fp)


def _read(fp: IO[str]) -> tuple[TurnTable, list[str | None]]:
    cols = [[] for _ in _TURN_FIELDS]
    episodes = []  # (length, terminated, final_state)
    n = 0  # turns of the episode being read
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
            if not n:
                raise MalformedTrajectory(f"line {line_no}: truncation sentinel without turns")
            fs = obj.get("final_state")
            if fs is not None and type(fs) is not int:
                raise MalformedTrajectory(
                    f"line {line_no}: final_state {fs!r} is not an integer")
            episodes.append((n, False, fs))
            n = 0
            continue
        obj.setdefault("subgoal_text", None)
        try:  # the fields in order; the first fault is reported
            for (name, types), col in zip(_TURN_FIELDS, cols):
                v = obj[name]
                if type(v) not in types or types is _NUMBER and not abs(v) <= sys.float_info.max:
                    raise MalformedTrajectory(f"line {line_no}: field {name!r} is not "
                                              f"{_TYPE_NAMES[types[0]]}: {v!r}")
                col.append(v)
        except KeyError as exc:
            raise MalformedTrajectory(f"line {line_no}: turn lacks the key {exc}") from None
        n += 1
        if obj["done"]:
            episodes.append((n, True, None))
            n = 0
    if n:
        raise MalformedTrajectory("dangling turns: episode ended without done or sentinel")
    *cols, texts = cols
    turns = {name: col for (name, _), col in zip(_TURN_FIELDS, cols)}
    length, terminated, final_state = zip(*episodes) if episodes else ((), (), ())
    return TurnTable.from_columns(turns, length, terminated, final_state), texts


def save_trajectories(path, tt: TurnTable, texts=None) -> None:
    buf = io.StringIO()
    write_trajectories(buf, tt, texts)  # a refused turn leaves no file
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(buf.getvalue())


def load_trajectories(path) -> tuple[TurnTable, list[str | None]]:
    with open(path, "r", encoding="utf-8") as fp:
        return _read(fp)  # the parse is this function's own time in a trace
