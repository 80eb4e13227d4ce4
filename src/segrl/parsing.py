"""Parsing of three-block structured agent output into (q, subgoal, action).

A well-formed turn contains, in order, a `<switch>` block holding KEEP or
SWITCH, a `<subgoal>` block, and an `<action>` block.  Malformed turns are
penalized rather than discarded: a best-effort decision is still extracted
whenever an action block exists, the verdict records every violated rule,
and a flat 0.1 penalty applies to the turn's reward.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .batch import TurnTable
from .core import KEEP, SWITCH, InputError, Trajectory, TurnRecord

FORMAT_PENALTY = 0.1

MISSING_SWITCH = "missing-block:switch"
MISSING_SUBGOAL = "missing-block:subgoal"
MISSING_ACTION = "missing-block:action"
WRONG_ORDER = "wrong-order"
BAD_SWITCH_VALUE = "bad-switch-value"
KEEP_CHANGED_SUBGOAL = "keep-changed-subgoal"

_BLOCK_RES = {
    "switch": re.compile(r"<switch>(.*?)</switch>", re.DOTALL),
    "subgoal": re.compile(r"<subgoal>(.*?)</subgoal>", re.DOTALL),
    "action": re.compile(r"<action>(.*?)</action>", re.DOTALL),
}


class ParseFailure(InputError):
    """A transcript record is unusable: no action block could be recovered,
    or its `@reward` is not a finite number."""


@dataclass(frozen=True)
class ParsedDecision:
    """Decision extracted from one turn of agent text.

    `q` is None when the switch block was missing or unreadable; the
    resolution rule (KEEP if the subgoal matches the previous turn's,
    otherwise SWITCH) needs cross-turn context and is applied at ingestion.
    `subgoal_text` is None when the subgoal block was missing.
    """

    q: int | None
    subgoal_text: str | None
    action_text: str


@dataclass(frozen=True)
class FormatVerdict:
    valid: bool
    violations: tuple[str, ...]
    penalty: float

    @classmethod
    def from_violations(cls, violations: Sequence[str]) -> "FormatVerdict":
        v = tuple(violations)
        return cls(valid=not v, violations=v, penalty=FORMAT_PENALTY if v else 0.0)

    def merged(self, extra: Sequence[str]) -> "FormatVerdict":
        return FormatVerdict.from_violations(self.violations + tuple(extra))


def parse_blocks(text: str) -> tuple[ParsedDecision, FormatVerdict]:
    """Extract the first occurrence of each block and judge per-turn rules.

    Checks: all three blocks present, in switch/subgoal/action order, and
    the switch value is exactly KEEP or SWITCH (after trimming).  The
    cross-turn rule (KEEP must copy the previous subgoal) is checked by
    `ingest_log`.  Raises ParseFailure when no action block exists.
    """
    matches = {name: rx.search(text) for name, rx in _BLOCK_RES.items()}
    if matches["action"] is None:
        raise ParseFailure("no <action> block found")
    violations: list[str] = []
    if matches["switch"] is None:
        violations.append(MISSING_SWITCH)
    if matches["subgoal"] is None:
        violations.append(MISSING_SUBGOAL)
    present = [m.start() for m in (matches["switch"], matches["subgoal"],
                                   matches["action"]) if m is not None]
    if present != sorted(present):
        violations.append(WRONG_ORDER)
    q: int | None = None
    if matches["switch"] is not None:
        token = matches["switch"].group(1).strip()
        if token == "KEEP":
            q = KEEP
        elif token == "SWITCH":
            q = SWITCH
        else:
            violations.append(BAD_SWITCH_VALUE)
    subgoal_text = None
    if matches["subgoal"] is not None:
        subgoal_text = matches["subgoal"].group(1).strip()
    decision = ParsedDecision(q=q, subgoal_text=subgoal_text,
                              action_text=matches["action"].group(1).strip())
    return decision, FormatVerdict.from_violations(violations)


def render_decision(q: int, subgoal_text: str, action_text: str) -> str:
    """Canonical three-block text for a decision (parse round-trips it)."""
    token = "SWITCH" if q == SWITCH else "KEEP"
    return (f"<switch>{token}</switch>\n<subgoal>{subgoal_text}</subgoal>\n"
            f"<action>{action_text}</action>")


@dataclass
class IngestResult:
    trajectory: Trajectory
    verdicts: list[FormatVerdict]
    subgoal_ids: dict[str, int]
    action_ids: dict[str, int]

    @property
    def total_penalty(self) -> float:
        return sum(v.penalty for v in self.verdicts)


def ingest_log(lines: Sequence[tuple[str, float, bool]]) -> IngestResult:
    """Turn an ordered episode of (turn text, reward, done) into a Trajectory.

    Subgoal strings are interned to ids by exact string equality (after
    trimming outer whitespace).  The switch decision is repaired to SWITCH
    whenever the subgoal string differs from the previous turn's; format
    penalties are folded into the shaped rewards with raw rewards preserved.
    Turn states are synthetic (the turn index): text logs carry no
    environment state.  The episode is checked by
    `TurnTable.from_trajectories`, so `done` before the last turn raises
    MalformedTrajectory.
    """
    turns: list[TurnRecord] = []
    verdicts: list[FormatVerdict] = []
    subgoal_ids: dict[str, int] = {}
    action_ids: dict[str, int] = {}
    prev_text: str | None = None
    prev_id: int | None = None
    for t, (text, reward, done) in enumerate(lines):
        try:
            decision, verdict = parse_blocks(text)
        except ParseFailure as exc:
            raise ParseFailure(f"turn {t}: {exc}") from exc
        sub_text = decision.subgoal_text
        if sub_text is None:
            # missing subgoal block: carry the previous subgoal forward
            sub_text = prev_text if prev_text is not None else ""
        extra: list[str] = []
        if decision.q is None:
            q = KEEP if sub_text == prev_text else SWITCH
        else:
            q = decision.q
        if t == 0:
            if q == KEEP:
                extra.append(KEEP_CHANGED_SUBGOAL)
            q = SWITCH
        elif q == KEEP and sub_text != prev_text:
            extra.append(KEEP_CHANGED_SUBGOAL)
            q = SWITCH
        if extra:
            verdict = verdict.merged(extra)
        if sub_text not in subgoal_ids:
            subgoal_ids[sub_text] = len(subgoal_ids)
        if decision.action_text not in action_ids:
            action_ids[decision.action_text] = len(action_ids)
        turns.append(TurnRecord(
            t=t, state=t, prev_subgoal=prev_id, q=q,
            subgoal=subgoal_ids[sub_text], action=action_ids[decision.action_text],
            reward=reward - verdict.penalty, raw_reward=reward, done=done,
            subgoal_text=sub_text, format_valid=verdict.valid,
        ))
        verdicts.append(verdict)
        prev_text = sub_text
        prev_id = subgoal_ids[sub_text]
    if not turns:
        raise ParseFailure("empty episode")
    truncated = not turns[-1].done
    traj = Trajectory(tuple(turns), truncated=truncated,
                      final_state=len(turns) if truncated else None)
    TurnTable.from_trajectories([traj])
    return IngestResult(traj, verdicts, subgoal_ids, action_ids)


# ---------------------------------------------------------------------------
# Transcript files: one turn per record, records separated by a blank line.
# A record's metadata lines start with '@': "@reward <finite float>" and
# "@done".  All other lines are the turn's text.  Without annotations,
# rewards default to 0 and the final record ends the episode.
# ---------------------------------------------------------------------------

def read_transcript(text: str) -> list[tuple[str, float, bool]]:
    records: list[tuple[str, float, bool]] = []
    chunks = [c for c in re.split(r"\n\s*\n", text) if c.strip()]
    for k, chunk in enumerate(chunks):
        reward, done = 0.0, False
        body: list[str] = []
        for line in chunk.splitlines():
            stripped = line.strip()
            if stripped.startswith("@reward"):
                value = (stripped.split(None, 1) + [""])[1]
                try:
                    reward = float(value)
                except ValueError:
                    reward = math.nan
                if not math.isfinite(reward):
                    raise ParseFailure(f"record {k}: @reward takes a finite "
                                       f"number, got {value!r}")
            elif stripped == "@done":
                done = True
            else:
                body.append(line)
        records.append(("\n".join(body), reward, done))
    if records and not records[-1][2]:
        records[-1] = (records[-1][0], records[-1][1], True)
    return records


def ingest_transcript_file(path) -> IngestResult:
    with open(path, "r", encoding="utf-8") as fp:
        return ingest_log(read_transcript(fp.read()))
