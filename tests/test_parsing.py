from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrl.core import KEEP, SWITCH, InputError
from segrl.parsing import (BAD_SWITCH_VALUE, FORMAT_PENALTY,
                           KEEP_CHANGED_SUBGOAL, MISSING_SWITCH, WRONG_ORDER,
                           ParseFailure, ingest_log, ingest_transcript_file,
                           parse_blocks, read_transcript, render_decision)

import spec
from spec import segment_boundaries

DATA = Path(__file__).parent / "data"


class TestParseBlocks:
    def test_well_formed_turn(self):
        text = ("<switch>KEEP</switch><subgoal>find a knife</subgoal>"
                "<action>go to diningtable 2</action>")
        decision, verdict = parse_blocks(text)
        assert decision.q == KEEP
        assert decision.subgoal_text == "find a knife"
        assert decision.action_text == "go to diningtable 2"
        assert verdict.valid and verdict.penalty == 0.0

    def test_whitespace_insensitive(self):
        text = ("  <switch>\n SWITCH </switch>\n\n  <subgoal>  X </subgoal>"
                "\t<action> a  </action>  ")
        decision, verdict = parse_blocks(text)
        assert decision.q == SWITCH
        assert decision.subgoal_text == "X" and decision.action_text == "a"
        assert verdict.valid

    def test_missing_switch_is_invalid_but_usable(self):
        decision, verdict = parse_blocks("<subgoal>X</subgoal><action>a</action>")
        assert decision.q is None and decision.subgoal_text == "X"
        assert not verdict.valid
        assert MISSING_SWITCH in verdict.violations
        assert verdict.penalty == pytest.approx(FORMAT_PENALTY)

    def test_wrong_order_flagged(self):
        text = "<action>a</action><switch>KEEP</switch><subgoal>X</subgoal>"
        decision, verdict = parse_blocks(text)
        assert WRONG_ORDER in verdict.violations and not verdict.valid
        assert decision.action_text == "a"

    def test_bad_switch_value(self):
        text = "<switch>MAYBE</switch><subgoal>X</subgoal><action>a</action>"
        decision, verdict = parse_blocks(text)
        assert decision.q is None
        assert BAD_SWITCH_VALUE in verdict.violations

    def test_parse_failure_without_action(self):
        with pytest.raises(ParseFailure):
            parse_blocks("<switch>KEEP</switch><subgoal>X</subgoal>")

    def test_tags_case_sensitive(self):
        with pytest.raises(ParseFailure):
            parse_blocks("<SWITCH>KEEP</SWITCH><SUBGOAL>X</SUBGOAL>"
                         "<ACTION>a</ACTION>")

    def test_first_occurrence_wins(self):
        text = ("<switch>KEEP</switch><subgoal>first</subgoal>"
                "<action>a1</action><subgoal>second</subgoal>"
                "<action>a2</action>")
        decision, verdict = parse_blocks(text)
        assert decision.subgoal_text == "first"
        assert decision.action_text == "a1"
        assert verdict.valid

    def test_penalty_is_flat(self):
        # several violations at once still cost exactly one penalty
        decision, verdict = parse_blocks("<action>a</action>")
        assert len(verdict.violations) >= 2
        assert verdict.penalty == pytest.approx(FORMAT_PENALTY)

    @given(
        q=st.sampled_from([KEEP, SWITCH]),
        subgoal=st.text(
            alphabet=st.characters(blacklist_characters="<>", min_codepoint=32),
            min_size=0, max_size=40).map(str.strip),
        action=st.text(
            alphabet=st.characters(blacklist_characters="<>", min_codepoint=32),
            min_size=1, max_size=40).map(str.strip).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_render_parse_round_trip(self, q, subgoal, action):
        decision, verdict = parse_blocks(render_decision(q, subgoal, action))
        assert verdict.valid
        assert decision.q == q
        assert decision.subgoal_text == subgoal
        assert decision.action_text == action


class TestIngestLog:
    def test_keep_run_is_one_segment(self):
        turn = "<switch>%s</switch><subgoal>reach the shelf</subgoal><action>a</action>"
        result = ingest_log([(turn % "SWITCH", 0.0, False),
                             (turn % "KEEP", 1.0, True)])
        traj = spec.records(result.table)[0]
        spec.table([traj])
        assert segment_boundaries(traj) == [0, 2]
        assert all(v.valid for v in result.verdicts)

    def test_keep_with_altered_subgoal_repaired(self):
        lines = [
            ("<switch>SWITCH</switch><subgoal>one</subgoal><action>a</action>", 0.0, False),
            ("<switch>KEEP</switch><subgoal>two</subgoal><action>b</action>", 1.0, True),
        ]
        result = ingest_log(lines)
        traj = spec.records(result.table)[0]
        assert traj.turns[1].q == SWITCH
        assert not result.verdicts[1].valid
        assert KEEP_CHANGED_SUBGOAL in result.verdicts[1].violations
        assert traj.turns[1].reward == pytest.approx(1.0 - FORMAT_PENALTY)
        assert traj.turns[1].raw_reward == 1.0
        assert not traj.turns[1].format_valid
        spec.table([traj])

    def test_missing_switch_resolved_by_subgoal_match(self):
        keep_line = "<subgoal>same</subgoal><action>a</action>"
        switch_line = "<subgoal>other</subgoal><action>a</action>"
        result = ingest_log([
            ("<switch>SWITCH</switch><subgoal>same</subgoal><action>a</action>", 0, False),
            (keep_line, 0, False),
            (switch_line, 0, True),
        ])
        traj = spec.records(result.table)[0]
        assert traj.turns[1].q == KEEP
        assert traj.turns[2].q == SWITCH
        assert not result.verdicts[1].valid and not result.verdicts[2].valid

    def test_parse_failure_carries_turn_number(self):
        with pytest.raises(ParseFailure, match="turn 1"):
            ingest_log([
                ("<switch>SWITCH</switch><subgoal>x</subgoal><action>a</action>", 0, False),
                ("no blocks at all", 0, True),
            ])

    def test_subgoal_interning_is_exact_match(self):
        turn = "<switch>SWITCH</switch><subgoal>%s</subgoal><action>a</action>"
        result = ingest_log([
            (turn % "Find the cup", 0, False),
            (turn % "find the cup", 0, True),   # case differs: new id
        ])
        assert len(result.subgoal_ids) == 2


class TestTranscriptFixtures:
    def test_cool_cup_explicit_switches_and_repair(self):
        result = ingest_transcript_file(DATA / "transcript_cool_cup.txt")
        traj = spec.records(result.table)[0]
        assert traj.n_turns == 10
        # the three explicit SWITCH markers sit at turns 0, 4 and 6
        explicit = [u.t for u, v in zip(traj.turns, result.verdicts)
                    if u.q == SWITCH and v.valid]
        assert explicit == [0, 4, 6]
        # the last KEEP altered the subgoal ('the cabinet'), so ingestion
        # repairs it to a switch and penalizes the turn
        assert traj.turns[9].q == SWITCH
        assert not result.verdicts[9].valid
        assert segment_boundaries(traj) == [0, 4, 6, 9, 10]
        assert traj.turns[9].raw_reward == 10.0
        assert traj.turns[9].reward == pytest.approx(10.0 - FORMAT_PENALTY)
        assert traj.terminated
        spec.table([traj])

    def test_clean_knife_boundary_structure(self):
        result = ingest_transcript_file(DATA / "transcript_clean_knife.txt")
        traj = spec.records(result.table)[0]
        assert traj.n_turns == 7
        assert all(v.valid for v in result.verdicts)
        assert result.total_penalty == 0.0
        assert segment_boundaries(traj) == [0, 3, 5, 7]
        assert len(result.subgoal_ids) == 3
        spec.table([traj])

    def test_shopping_boundary_structure(self):
        result = ingest_transcript_file(DATA / "transcript_shopping_shirt.txt")
        traj = spec.records(result.table)[0]
        assert traj.n_turns == 5
        assert all(v.valid for v in result.verdicts)
        assert segment_boundaries(traj) == [0, 2, 5]
        spec.table([traj])


class TestTranscriptReader:
    def test_records_and_annotations(self):
        text = "line a\n@reward 2.5\n\n\nline b\n@done\n"
        records = read_transcript(text)
        assert records == [("line a", 2.5, False), ("line b", 0.0, True)]

    def test_final_record_closes_episode(self):
        records = read_transcript("only turn\n")
        assert records == [("only turn", 0.0, True)]

    @pytest.mark.parametrize("line", ["@reward 2.5", "  @reward\t2.5  ", "@reward   2.5"])
    def test_reward_key_then_any_whitespace(self, line):
        assert read_transcript("turn\n" + line + "\n") == [("turn", 2.5, True)]

    @pytest.mark.parametrize("lines, words", [
        ("@rewards 3", "record 1: unknown metadata key '@rewards'"),
        ("@rewardx 5", "record 1: unknown metadata key '@rewardx'"),
        ("@reward=5", "record 1: unknown metadata key '@reward=5'"),
        ("@reward 1\n@reward 1", "record 1: a second @reward line")])
    def test_reward_key_is_exact_and_single(self, lines, words):
        with pytest.raises(ParseFailure, match=words):
            read_transcript("turn a\n@reward 1\n\nturn b\n" + lines + "\n")

    def test_other_at_lines_are_text(self):
        text = "@done later\n@foo 1\nbody\n@reward 1"
        assert read_transcript(text) == [("@done later\n@foo 1\nbody", 1.0, True)]

    @given(st.lists(st.lists(st.one_of(
        st.sampled_from(["<switch>SWITCH</switch>", "<switch>KEEP</switch>",
                         "<switch>x</switch>", "<subgoal>a</subgoal>",
                         "<subgoal>b</subgoal>", "<action>go</action>", "<action>",
                         "@done", "@reward", "@reward 1.5", "@reward -2",
                         "@reward nan", "@reward inf", "@reward 1e999",
                         "@reward two", "@rewards 3", "", " "]),
        st.text(max_size=12)), max_size=5).map("\n".join), max_size=5).map("\n\n".join))
    @settings(max_examples=200, deadline=None)
    def test_any_text_ingests_to_a_valid_episode_or_an_input_error(self, text):
        try:
            result = ingest_log(read_transcript(text))
        except InputError:
            return
        traj = spec.records(result.table)[0]
        tt = spec.table([traj])
        assert np.isfinite(tt.reward[tt.mask]).all()
        assert traj.n_turns == len(result.verdicts) >= 1
