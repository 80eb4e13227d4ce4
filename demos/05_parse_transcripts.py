"""Ingest logged agent transcripts into episode tables.

Each turn of a transcript carries three tagged blocks: a KEEP/SWITCH
decision, the current subgoal, and a primitive action.  Parsing interns the
subgoal strings, repairs inconsistent KEEP turns, and folds format
penalties into the shaped rewards.  A segment starts at every SWITCH turn.
"""

from pathlib import Path

import numpy as np

from segrl import SWITCH
from segrl.parsing import ingest_transcript_file, parse_blocks, render_decision

data = Path(__file__).parent.parent / "tests" / "data"

for name in ("transcript_clean_knife.txt", "transcript_cool_cup.txt",
             "transcript_shopping_shirt.txt"):
    result = ingest_transcript_file(data / name)
    tt = result.table  # one episode
    bounds = np.flatnonzero(tt.q[0] == SWITCH).tolist() + [tt.total_turns]
    bad = [v for v in result.verdicts if not v.valid]
    print(f"{name}: {tt.total_turns} turns, boundaries "
          f"{bounds}, {len(bad)} malformed, "
          f"total penalty {result.total_penalty:.1f}")
    for text, sid in result.subgoal_ids.items():
        print(f"    subgoal {sid}: {text!r}")

print("\nround trip of a rendered decision:")
text = render_decision(1, "bring the cup to the table", "go to table 1")
print(text)
decision, verdict = parse_blocks(text)
print(f"-> q={decision.q} subgoal={decision.subgoal_text!r} "
      f"action={decision.action_text!r} valid={verdict.valid}")

print("\na KEEP that silently edits its subgoal is repaired and penalized:")
from segrl.parsing import ingest_log
lines = [
    ("<switch>SWITCH</switch><subgoal>find the mug</subgoal>"
     "<action>go to shelf 2</action>", 0.0, False),
    ("<switch>KEEP</switch><subgoal>find a mug</subgoal>"
     "<action>open shelf 2</action>", 0.0, True),
]
result = ingest_log(lines)
tt = result.table
print(f"turn 1: q repaired to {tt.q[0, 1]}, shaped reward {tt.reward[0, 1]:+.1f}, "
      f"violations {result.verdicts[1].violations}")
