"""Parsing of three-block structured agent output into (q, subgoal, action).

A well-formed turn contains, in order, a `<switch>` block holding KEEP or
SWITCH, a `<subgoal>` block, and an `<action>` block.  Malformed turns are
penalized rather than discarded: a best-effort decision is still extracted
whenever an action block exists, the verdict records every violated rule,
and a flat 0.1 penalty applies to the turn's reward.  `ingest_log` reads an
episode of turn texts into the columns of a one-episode `TurnTable`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import KEEP, SWITCH, InputError, TurnTable

FORMAT_PENALTY = 0.1

MISSING_SWITCH = "missing-block:switch"
MISSING_SUBGOAL = "missing-block:subgoal"
MISSING_ACTION = "missing-block:action"
WRONG_ORDER = "wrong-order"
BAD_SWITCH_VALUE = "bad-switch-value"
KEEP_CHANGED_SUBGOAL = "keep-changed-subgoal"

_SWITCH_RE = re.compile(r"<switch>(.*?)</switch>", re.DOTALL)
_SUBGOAL_RE = re.compile(r"<subgoal>(.*?)</subgoal>", re.DOTALL)
_ACTION_RE = re.compile(r"<action>(.*?)</action>", re.DOTALL)
_RECORD_SEP_RE = re.compile(r"\n\s*\n")


class ParseFailure(InputError):
    """A transcript record is unusable: no action block could be recovered,
    or its `@reward` line is not one finite number given once."""


class ParsedDecision(NamedTuple):
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
    @functools.cache
    def from_violations(cls, violations: tuple[str, ...]) -> "FormatVerdict":
        """The verdict for a tuple of violations, one shared (frozen)
        instance per tuple."""
        return cls(valid=not violations, violations=violations,
                   penalty=FORMAT_PENALTY if violations else 0.0)

    def merged(self, extra: tuple[str, ...]) -> "FormatVerdict":
        return FormatVerdict.from_violations(self.violations + extra)


_SWITCH_TOKENS = {"KEEP": KEEP, "SWITCH": SWITCH}


def parse_blocks(text: str) -> tuple[ParsedDecision, FormatVerdict]:
    """Extract the first occurrence of each block and judge per-turn rules.

    Checks: all three blocks present, in switch/subgoal/action order, and
    the switch value is exactly KEEP or SWITCH (after trimming).  The
    cross-turn rule (KEEP must copy the previous subgoal) is checked by
    `ingest_log`.  Raises ParseFailure when no action block exists.
    """
    action = _ACTION_RE.search(text)
    if action is None:
        raise ParseFailure("no <action> block found")
    switch = _SWITCH_RE.search(text)
    subgoal = _SUBGOAL_RE.search(text)
    violations: tuple[str, ...] = ()
    if switch is None:
        violations += (MISSING_SWITCH,)
    if subgoal is None:
        violations += (MISSING_SUBGOAL,)
    # the blocks present start in switch, subgoal, action order
    at_subgoal = action.start() if subgoal is None else subgoal.start()
    if at_subgoal > action.start() or (switch is not None and switch.start() > at_subgoal):
        violations += (WRONG_ORDER,)
    q = None
    if switch is not None:
        q = _SWITCH_TOKENS.get(switch.group(1).strip())
        if q is None:
            violations += (BAD_SWITCH_VALUE,)
    decision = ParsedDecision(q, None if subgoal is None else subgoal.group(1).strip(),
                              action.group(1).strip())
    return decision, FormatVerdict.from_violations(violations)


def render_decision(q: int, subgoal_text: str, action_text: str) -> str:
    """Canonical three-block text for a decision (parse round-trips it)."""
    token = "SWITCH" if q == SWITCH else "KEEP"
    return (f"<switch>{token}</switch>\n<subgoal>{subgoal_text}</subgoal>\n"
            f"<action>{action_text}</action>")


@dataclass
class IngestResult:
    table: TurnTable
    verdicts: list[FormatVerdict]
    subgoal_ids: dict[str, int]
    action_ids: dict[str, int]

    @property
    def total_penalty(self) -> float:
        return sum(v.penalty for v in self.verdicts)


def ingest_log(lines: Sequence[tuple[str, float, bool]]) -> IngestResult:
    """Turn an ordered episode of (turn text, reward, done) into a
    one-episode TurnTable.

    Subgoal strings are interned to ids by exact string equality (after
    trimming outer whitespace), each string to exactly one id.  The switch
    decision is repaired to SWITCH whenever the subgoal string differs from
    the previous turn's; format penalties are folded into the shaped rewards
    with raw rewards preserved.  Turn states are synthetic (the turn index):
    text logs carry no environment state.  The episode is checked by
    `TurnTable.from_columns`, so `done` before the last turn raises
    MalformedTrajectory.
    """
    cols = {name: [] for name in ("prev_subgoal", "q", "subgoal", "action", "reward",
                                  "raw_reward", "done")}
    verdicts: list[FormatVerdict] = []
    subgoal_ids: dict[str, int] = {}
    action_ids: dict[str, int] = {}
    prev_text: str | None = None
    prev_id: int | None = None
    for t, (text, reward, done) in enumerate(lines):
        try:
            (q, sub_text, action_text), verdict = parse_blocks(text)
        except ParseFailure as exc:
            raise ParseFailure(f"turn {t}: {exc}") from exc
        if sub_text is None:
            # missing subgoal block: carry the previous subgoal forward
            sub_text = prev_text if prev_text is not None else ""
        if q is None:
            q = KEEP if sub_text == prev_text else SWITCH
        elif q == KEEP and sub_text != prev_text:  # every KEEP on the first turn
            verdict = verdict.merged((KEEP_CHANGED_SUBGOAL,))
            q = SWITCH
        sub_id = subgoal_ids.setdefault(sub_text, len(subgoal_ids))
        for col, v in zip(cols.values(), (
                prev_id, q, sub_id, action_ids.setdefault(action_text, len(action_ids)),
                reward - verdict.penalty, reward, done)):
            col.append(v)
        verdicts.append(verdict)
        prev_text, prev_id = sub_text, sub_id
    n = len(verdicts)
    if not n:
        raise ParseFailure("empty episode")
    terminated = bool(cols["done"][-1])
    table = TurnTable.from_columns(
        dict(cols, t=range(n), state=range(n), format_ok=[v.valid for v in verdicts]),
        [n], [terminated], [None if terminated else n])
    return IngestResult(table, verdicts, subgoal_ids, action_ids)


# ---------------------------------------------------------------------------
# Transcript files: one turn per record, records separated by a blank line.
# A record's metadata lines are "@reward <finite float>", whose first word
# must be exactly "@reward" and which a record holds at most once (another
# line starting "@reward", such as "@rewards 3", is refused), and "@done".
# All other lines are the turn's text.  Without annotations, rewards default
# to 0 and the final record ends the episode.
# ---------------------------------------------------------------------------

def read_transcript(text: str) -> list[tuple[str, float, bool]]:
    records: list[tuple[str, float, bool]] = []
    chunks = [c for c in _RECORD_SEP_RE.split(text) if c.strip()]
    for k, chunk in enumerate(chunks):
        reward, done = None, False
        body = chunk.splitlines()
        if "@" in chunk:
            lines, body = body, []
            for line in lines:
                if "@" not in line:
                    body.append(line)
                    continue
                stripped = line.strip()
                if stripped == "@done":
                    done = True
                elif stripped.startswith("@reward"):
                    key, value, *_ = stripped.split(None, 1) + [""]
                    if key != "@reward":
                        raise ParseFailure(f"record {k}: unknown metadata key {key!r}")
                    if reward is not None:
                        raise ParseFailure(f"record {k}: a second @reward line")
                    try:
                        reward = float(value)
                    except ValueError:
                        reward = math.nan
                    if not math.isfinite(reward):
                        raise ParseFailure(f"record {k}: @reward takes a finite "
                                           f"number, got {value!r}")
                else:
                    body.append(line)
        records.append(("\n".join(body), 0.0 if reward is None else reward, done))
    if records and not records[-1][2]:
        records[-1] = (records[-1][0], records[-1][1], True)
    return records


def ingest_transcript_file(path) -> IngestResult:
    with open(path, "r", encoding="utf-8") as fp:
        return ingest_log(read_transcript(fp.read()))
