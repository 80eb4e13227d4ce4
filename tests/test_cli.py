import ast
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrl.batch import BatchAdvantages, SegmentMasks, advantage_arrays
from segrl.cli import advantage_lines, dispatch, load_values, save_values
from segrl import training
from segrl.config import (_FLOAT_KEYS, KNOWN_KEYS, MAX_POLICY_LOGITS, MAX_TURN_SLOTS,
                          RANGES, ConfigError, parse_config_text)
from segrl.core import InputError, load_trajectories
from segrl.critic import ValueTables, fit_critic
from segrl.envs import FetchChain
from segrl.gradcheck import check_total_loss_grads, random_case
from segrl import oracle
from segrl.oracle import (exact_critic_batch, mc_gradient_hae, oracle_gradient,
                          oracle_values, solve_dp)
from segrl.parsing import ingest_transcript_file
from segrl.policy import (CheckpointError, PolicyParams, fetchchain_phased,
                          load_policy, policy_size, save_policy)
from segrl.training import PPOConfig, train_flat_baseline

import spec
from spec import CounterRng

ROOT = Path(__file__).resolve().parents[1]

# state id -1, and a KEEP turn that changes the subgoal
BAD_EPISODE = [
    {"t": 0, "state": 0, "prev_subgoal": None, "q": 1, "subgoal": 0,
     "subgoal_text": None, "action": 1, "reward": 0.0, "raw_reward": 0.0,
     "done": False},
    {"t": 1, "state": -1, "prev_subgoal": 0, "q": 0, "subgoal": 1,
     "subgoal_text": None, "action": 1, "reward": 0.0, "raw_reward": 0.0,
     "done": True},
]


def _subprocess_env():
    import segrl
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(segrl.__file__).parents[1]), env.get("PYTHONPATH", "")])
    return env


class TestConfig:
    def test_empty_file_gives_documented_defaults(self):
        cfg = parse_config_text("")
        assert cfg.ppo.lambda_low == 0.95 and cfg.ppo.lambda_high == 0.95
        assert cfg.ppo.kl_beta == 0.01
        assert cfg.ppo.c_keep == 0.3
        assert cfg.env_name == "fetchchain"

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\n\ngamma = 0.9  # inline\n")
        assert cfg.ppo.gamma == 0.9

    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config_text("gamma = 1.5")

    def test_boundary_lambda_accepted(self):
        cfg = parse_config_text("lambda_low = 1.0")
        assert cfg.ppo.lambda_low == 1.0

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="entropy_coef"):
            parse_config_text("entropy_coef = 0.1")

    def test_parse_error_has_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("gamma = 0.9\nepochs = two\n")

    def test_env_keys(self):
        cfg = parse_config_text("env = fetchchain\nenv.L = 4\nenv.H = 12\n"
                                "n_options = 3\n")
        env = cfg.make_env()
        assert env.length == 4 and env.horizon == 12
        assert cfg.n_options == 3

    def test_policy_size_bound(self):
        # FetchChain(2, H) has 4H + 2 states; with one option the policy holds
        # 7 logits a state.  The check reads integers and allocates nothing.
        h = (MAX_POLICY_LOGITS // 7 - 2) // 4
        assert policy_size(4 * h + 2, 1, 4) <= MAX_POLICY_LOGITS < policy_size(4 * h + 6, 1, 4)
        # one episode and one epoch keep the turn-slot bound below its edge
        assert parse_config_text(f"env.L = 2\nenv.H = {h}\nn_options = 1\n"
                                 "episodes_per_iter = 1\neval_episodes = 1\n"
                                 "epochs = 1").env_h == h
        with pytest.raises(ConfigError, match=f"'env.H' = {h + 1}"):
            parse_config_text(f"env.L = 2\nenv.H = {h + 1}\nn_options = 1")
        with pytest.raises(ConfigError, match="'env.L' = 1099511627776, 'env.H' = 20, "
                                              "'n_options' = 2$"):
            parse_config_text("env.L = 1099511627776")
        # OneStep has 2 states and 2 actions whatever env.L and env.H say
        n = MAX_POLICY_LOGITS // 10
        assert parse_config_text(f"env = onestep\nn_options = {n}").n_options == n
        with pytest.raises(ConfigError, match=r"logits, more than 16777216 \(2\*\*24\): "
                                              f"'n_options' = {n + 1}$"):
            parse_config_text(f"env = onestep\nenv.L = 2\nn_options = {n + 1}")

    def test_bad_env_rejected(self):
        with pytest.raises(ConfigError, match="env"):
            parse_config_text("env = atari")

    def test_one_declaration_per_hyperparameter(self):
        # PPOConfig's fields and training.RANGES declare each hyperparameter;
        # the reader takes every key's type from its field's default
        fields = dataclasses.fields(PPOConfig)
        env_keys = {"env", "env.L", "env.H", "n_options"}
        assert {f.name for f in fields} <= set(training.RANGES)
        assert set(RANGES) <= {f.name for f in fields} | env_keys
        for f in fields:
            kind = type(f.default)
            assert kind in (float, int) and (f.name in _FLOAT_KEYS) == (kind is float)
            parsed = getattr(parse_config_text(f"{f.name} = {f.default}").ppo, f.name)
            assert type(parsed) is kind and parsed == f.default, f.name
        with pytest.raises(ConfigError, match="cannot parse value for 'epochs'"):
            parse_config_text("epochs = 4.0")
        assert KNOWN_KEYS == {
            "gamma", "lambda_low", "lambda_high", "lambda_flat", "clip_eps", "kl_beta",
            "c_keep", "lr_actor", "lr_critic", "epochs", "minibatch", "iterations",
            "episodes_per_iter", "eval_episodes", "seed", "env.L", "env.H", "n_options",
            "env"}

    @pytest.mark.parametrize("text", ["epochs = 13107", "epochs = 1\nepisodes_per_iter = 838860",
                                      "eval_episodes = 838860", "env.H = 65536",
                                      "env = onestep\nepochs = 1\nepisodes_per_iter = 16777216"])
    def test_counts_at_the_turn_slot_bound(self, text):
        # epochs x episodes_per_iter x env.H (4 x 64 x 20 by default) and each
        # count of episodes x env.H reach 2**24 exactly; nothing is allocated
        assert MAX_TURN_SLOTS == 2 ** 24
        parse_config_text(text)

    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(sorted(KNOWN_KEYS) + ["entropy"]), st.one_of(
            st.sampled_from(["0", "1", "0.5", "-1", "2", "inf", "-inf", "nan", "1e999",
                             "fetchchain", "onestep", "atari", ""]),
            st.integers().map(str), st.floats().map(repr), st.text(max_size=4)))
        .map(" = ".join),
        st.text(max_size=10)), max_size=6).map("\n".join))
    @settings(max_examples=200, deadline=None)
    def test_any_text_reads_to_a_valid_config_or_an_input_error(self, text):
        try:
            cfg = parse_config_text(text)
        except InputError:
            return
        ppo = cfg.ppo
        assert all(math.isfinite(getattr(ppo, key)) for key in _FLOAT_KEYS)
        assert 0.0 < ppo.gamma <= 1.0 and min(ppo.epochs, ppo.minibatch) >= 1
        assert cfg.env_name in ("fetchchain", "onestep")


class TestDispatch:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, capsys):
        assert dispatch(["train", "--entropy", "1"]) == 2
        err = capsys.readouterr().err
        assert "--entropy" in err

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma = 7\n")
        assert dispatch(["train", "--config", str(cfg)]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--seed", "-1"], ["--seed", "3"],
                                       ["--config", "run.cfg"],
                                       ["--lambda-flat", "0.5"]])
    def test_parse_and_advantages_take_no_unused_flags(self, tmp_path, capsys,
                                                        extra):
        # neither command reads a seed, a config or a flat mixing weight
        episode = tmp_path / "ep.jsonl"
        episode.write_text(json.dumps(dict(BAD_EPISODE[0], done=True)) + "\n")
        save_values(tmp_path / "values.txt", ValueTables.zeros(14, 2))
        save_policy(tmp_path / "policy.txt", PolicyParams.uniform(14, 2, 4))
        transcript = Path(__file__).parent / "data" / "transcript_cool_cup.txt"
        commands = [["advantages", "--input", str(episode),
                     "--values", str(tmp_path / "values.txt"),
                     "--policy", str(tmp_path / "policy.txt")]]
        if extra[0] != "--lambda-flat":
            commands.append(["parse", "--input", str(transcript)])
        for argv in commands:
            out = ["--out", str(tmp_path / argv[0])]
            assert dispatch(argv + out) == 0
            assert dispatch(argv + extra + out) == 2
            assert extra[0] in capsys.readouterr().err

    def test_verify_telescope_pass_exit_0(self, tmp_path, capsys):
        code = dispatch(["verify", "telescope", "--trials", "300",
                         "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "telescope.json").read_text())
        assert report["passed"] is True
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("mode,trials", [("gradcheck", 100), ("telescope", 10000),
                                             ("critic-fixpoint", 10000)])
    def test_verify_trials_default_to_the_acceptance_sizes(self, tmp_path,
                                                           monkeypatch, mode, trials):
        # the gate functions are stubbed: only the count they receive matters
        import segrl.cli as cli
        import segrl.gradcheck as gradcheck

        class Seen(Exception):
            pass

        def seen(*args, **kwargs):
            raise Seen(kwargs)

        monkeypatch.setattr(gradcheck, "gradcheck_report", seen)
        monkeypatch.setattr(cli, "telescope_check", seen)
        monkeypatch.setattr(cli, "fit_critic", seen)
        with pytest.raises(Seen) as got:
            dispatch(["verify", mode, "--out", str(tmp_path)])
        assert trials in got.value.args[0].values()

    def test_verify_critic_fixpoint(self, tmp_path):
        code = dispatch(["verify", "critic-fixpoint", "--trials", "40",
                         "--out", str(tmp_path)])
        assert code == 0

    def test_train_rollout_eval_advantages_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env = fetchchain\nenv.L = 3\nenv.H = 8\n"
                       "iterations = 8\nepisodes_per_iter = 32\n")
        out = tmp_path / "train"
        assert dispatch(["train", "--config", str(cfg), "--seed", "1",
                         "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "policy-final.txt").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("iter,mean_return,success,mean_segments,"
                          "mean_seg_len,switch_rate,actor_loss,critic_loss,kl")
        roll = tmp_path / "roll"
        assert dispatch(["rollout", "--config", str(cfg), "--episodes", "5",
                         "--policy", str(out / "policy-final.txt"),
                         "--out", str(roll)]) == 0
        assert dispatch(["eval", "--config", str(cfg),
                         "--policy", str(out / "policy-final.txt")]) == 0
        adv = tmp_path / "adv"
        assert dispatch(["advantages", "--input", str(roll / "trajectories.jsonl"),
                         "--values", str(out / "values-final.txt"),
                         "--policy", str(out / "policy-final.txt"),
                         "--out", str(adv)]) == 0
        lines = (adv / "advantages.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["A_switch"] is None and first["A_high"] is not None

    def test_train_metrics_deterministic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env = fetchchain\nenv.L = 3\nenv.H = 6\n"
                       "iterations = 5\nepisodes_per_iter = 16\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert dispatch(["train", "--config", str(cfg), "--seed", "7",
                             "--out", str(out)]) == 0
            outs.append((out / "metrics.csv").read_text())
        assert outs[0] == outs[1]

    def test_parse_subcommand(self, tmp_path):
        transcript = Path(__file__).parent / "data" / "transcript_clean_knife.txt"
        out = tmp_path / "parsed"
        assert dispatch(["parse", "--input", str(transcript),
                         "--out", str(out)]) == 0
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 7
        assert json.loads(lines[-1])["done"] is True

    def test_cached_parser_keeps_no_verify_counts(self, tmp_path, monkeypatch):
        # the gate is stubbed: only the count the report records matters
        import segrl.gradcheck as gradcheck
        monkeypatch.setattr(gradcheck, "gradcheck_report", lambda n_configs, seed: {
            "configs": n_configs, "max_rel_err": 0.0, "tol": 1e-6})
        configs = []
        for argv in (["--trials", "2"], []):
            assert dispatch(["verify", "gradcheck", *argv, "--out", str(tmp_path)]) == 0
            configs.append(json.loads((tmp_path / "gradcheck.json").read_text())["configs"])
        assert configs == [2, 100]

    def test_cached_parser_keeps_no_seed(self, tmp_path):
        env = FetchChain(3, 6)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env.L = 3\nenv.H = 6\nc_keep = 0.3\nseed = 3\n")
        params = PolicyParams.uniform(env.n_states, 2, env.n_actions)
        for seed, argv in ((5, ["--seed", "5"]), (3, [])):
            assert dispatch(["rollout", "--config", str(cfg), "--episodes", "4", *argv,
                             "--out", str(tmp_path / "roll")]) == 0
            want = io.StringIO()
            spec.write_trajectories(want, [spec.rollout(env, params, env.horizon,
                                                        CounterRng(seed, ep), c_keep=0.3)
                                           for ep in range(4)])
            assert (tmp_path / "roll" / "trajectories.jsonl").read_text() == want.getvalue()

    @pytest.mark.parametrize("name", ["transcript_clean_knife.txt",
                                      "transcript_cool_cup.txt",
                                      "transcript_shopping_shirt.txt"])
    def test_parse_writes_spec_bytes(self, tmp_path, name):
        path = ROOT / "tests" / "data" / name
        assert dispatch(["parse", "--input", str(path), "--out", str(tmp_path)]) == 0
        want = io.StringIO()
        result = ingest_transcript_file(path)
        text_of = {i: text for text, i in result.subgoal_ids.items()}
        texts = [text_of[o] for o in result.table.subgoal[result.table.mask].tolist()]
        spec.write_trajectories(want, spec.records(result.table, texts))
        assert (tmp_path / "trajectory.jsonl").read_text() == want.getvalue()

    def test_module_entry_point_prints_version(self):
        import segrl
        done = subprocess.run([sys.executable, "-m", "segrl.cli", "--version"],
                              capture_output=True, text=True,
                              env=_subprocess_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == segrl.__version__

    def test_import_loads_no_process_pool(self):
        # the Monte-Carlo gates import them when they fork, not at start-up
        code = ("import segrl, segrl.cli, sys; "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_subprocess_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_missing_file_exit_2(self, capsys):
        assert dispatch(["parse", "--input", "/nonexistent/file.txt"]) == 2


class TestRolloutAndAdvantages:
    """`segrl rollout` and `segrl advantages` against the per-episode spec."""

    @pytest.fixture
    def inputs(self, tmp_path):
        env = FetchChain(3, 8)
        params = fetchchain_phased(env, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        tables = ValueTables(rng.standard_normal(env.n_states),
                             rng.standard_normal((env.n_states, 2)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env.L = 3\nenv.H = 8\nc_keep = 0.3\n")
        save_policy(tmp_path / "policy.txt", params)
        save_values(tmp_path / "values.txt", tables)
        return env, params, tables, cfg

    def test_rollout_matches_spec_bytes(self, tmp_path, inputs):
        env, params, _, cfg = inputs
        assert dispatch(["rollout", "--config", str(cfg), "--seed", "11",
                         "--episodes", "24", "--policy",
                         str(tmp_path / "policy.txt"), "--out",
                         str(tmp_path / "roll")]) == 0
        buf = io.StringIO()
        spec.write_trajectories(buf, [spec.rollout(env, params, env.horizon,
                                                   CounterRng(11, ep), c_keep=0.3)
                                      for ep in range(24)])
        assert (tmp_path / "roll" / "trajectories.jsonl").read_text() == buf.getvalue()

    def test_advantages_match_spec(self, tmp_path, inputs):
        env, params, tables, cfg = inputs
        assert dispatch(["rollout", "--config", str(cfg), "--episodes", "24",
                         "--policy", str(tmp_path / "policy.txt"),
                         "--out", str(tmp_path / "roll")]) == 0
        jsonl = tmp_path / "roll" / "trajectories.jsonl"
        assert dispatch(["advantages", "--input", str(jsonl),
                         "--values", str(tmp_path / "values.txt"),
                         "--policy", str(tmp_path / "policy.txt"),
                         "--gamma", "0.9", "--lambda-low", "0.8",
                         "--lambda-high", "0.7", "--out",
                         str(tmp_path / "adv")]) == 0
        got = [json.loads(line) for line in
               (tmp_path / "adv" / "advantages.jsonl").read_text().splitlines()]
        cfg = PPOConfig(gamma=0.9, lambda_low=0.8, lambda_high=0.7)
        tt, _ = load_trajectories(jsonl)
        assert ((tmp_path / "adv" / "advantages.jsonl").read_text()
                == spec.advantage_lines(tt, advantage_arrays(tt, tables, cfg, params=params)))
        want = []
        for traj in spec.records(tt):
            est = spec.estimate_all(traj, tables, cfg, params=params)
            starts = est.boundaries[:-1]
            for t in range(traj.n_turns):
                want.append({"t": t, "A_low": est.a_low[t],
                             "A_switch": None if t == 0 else est.a_switch[t - 1],
                             "A_high": est.a_high[starts.index(t)] if t in starts else None,
                             "A_flat": None})
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert list(g) == ["t", "A_low", "A_switch", "A_high", "A_flat"]
            assert g["t"] == w["t"] and g["A_flat"] is None
            for key in ("A_low", "A_switch", "A_high"):
                assert (g[key] is None) == (w[key] is None), (key, w["t"])
                if w[key] is not None:
                    assert abs(g[key] - w[key]) <= 1e-12, (key, w["t"])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_advantage_lines_equal_json_dumps(self, data):
        # random finite records; NaN where no record reads (t = 0's switch
        # advantage, the padding) must not be refused
        lengths = data.draw(st.lists(st.integers(1, 5), max_size=4))
        shape = (len(lengths), max(lengths, default=0))
        mask = np.arange(shape[1]) < np.array(lengths, dtype=int).reshape(-1, 1)
        finite = st.one_of(st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
                           st.floats(allow_nan=False, allow_infinity=False))

        def table():
            values = data.draw(st.lists(finite, min_size=mask.size, max_size=mask.size))
            return np.where(mask, np.array(values, dtype=float).reshape(shape), np.nan)

        a_switch = table()
        a_switch[:, :1] = np.nan
        boundary = mask & np.array(data.draw(st.lists(
            st.booleans(), min_size=mask.size, max_size=mask.size)), dtype=bool).reshape(shape)
        tt = spec.table([])
        tt.mask, tt.length = mask, np.array(lengths, dtype=np.int64)
        adv = BatchAdvantages(table(), table(), a_switch,
                              SegmentMasks(boundary, None, None, None))
        assert advantage_lines(tt, adv) == spec.advantage_lines(tt, adv)

    def test_empty_input_writes_empty_output(self, tmp_path, inputs):
        (tmp_path / "empty.jsonl").write_text("")
        assert dispatch(["advantages", "--input", str(tmp_path / "empty.jsonl"),
                         "--values", str(tmp_path / "values.txt"),
                         "--out", str(tmp_path / "adv")]) == 0
        assert (tmp_path / "adv" / "advantages.jsonl").read_text() == ""


class TestMalformedInputs:
    """Each malformed input is refused with exit code 2 and a one-line
    message, not a traceback."""

    def _refused(self, argv, capsys, *words):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        for word in words:
            assert word in err, err
        return captured.out

    def test_bad_episode(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(t) + "\n" for t in BAD_EPISODE))
        env = FetchChain(3, 6)
        save_values(tmp_path / "values.txt", ValueTables.zeros(env.n_states, 2))
        save_policy(tmp_path / "policy.txt",
                    PolicyParams.uniform(env.n_states, 2, env.n_actions))
        self._refused(["advantages", "--input", str(bad),
                       "--values", str(tmp_path / "values.txt"),
                       "--policy", str(tmp_path / "policy.txt"),
                       "--out", str(tmp_path / "adv")], capsys, "episode 0")
        assert not (tmp_path / "adv" / "advantages.jsonl").exists()

    @pytest.mark.parametrize("field,value", [("state", -1), ("state", 14),
                                             ("subgoal", 2), ("subgoal", -1),
                                             ("state", 10**23), ("subgoal", 2**63)])
    def test_ids_outside_the_tables(self, tmp_path, capsys, field, value):
        turns = [dict(BAD_EPISODE[0], done=True)]
        turns[0][field] = value
        path = tmp_path / "ep.jsonl"
        path.write_text(json.dumps(turns[0]) + "\n")
        save_values(tmp_path / "values.txt", ValueTables.zeros(14, 2))
        self._refused(["advantages", "--input", str(path),
                       "--values", str(tmp_path / "values.txt"),
                       "--out", str(tmp_path / "adv")], capsys, field)

    def test_policy_dimensions_must_match_values(self, tmp_path, capsys):
        path = tmp_path / "ep.jsonl"
        path.write_text(json.dumps(dict(BAD_EPISODE[0], done=True)) + "\n")
        save_values(tmp_path / "values.txt", ValueTables.zeros(14, 2))
        save_policy(tmp_path / "policy.txt", PolicyParams.uniform(14, 3, 4))
        self._refused(["advantages", "--input", str(path),
                       "--values", str(tmp_path / "values.txt"),
                       "--policy", str(tmp_path / "policy.txt"),
                       "--out", str(tmp_path / "adv")], capsys, "policy")

    def test_flat_baseline_values_are_named(self, tmp_path, capsys):
        # a train-flat run's values-final.txt has 0 options
        (tmp_path / "run.cfg").write_text("iterations = 2\nepisodes_per_iter = 8\n"
                                          "env.L = 3\nenv.H = 6\n")
        assert dispatch(["train-flat", "--config", str(tmp_path / "run.cfg"),
                         "--out", str(tmp_path / "flat")]) == 0
        path = tmp_path / "ep.jsonl"
        path.write_text(json.dumps(dict(BAD_EPISODE[0], done=True)) + "\n")
        capsys.readouterr()
        self._refused(["advantages", "--input", str(path),
                       "--values", str(tmp_path / "flat" / "values-final.txt"),
                       "--out", str(tmp_path / "adv")], capsys,
                      "flat baseline", "0 options")
        assert not (tmp_path / "adv").exists()

    def test_transcript_without_action(self, tmp_path, capsys):
        path = tmp_path / "no-action.txt"
        path.write_text("<switch>SWITCH</switch>\n<subgoal>find a knife</subgoal>\n"
                        "<action>go to countertop 1</action>\n\n"
                        "<switch>KEEP</switch>\n<subgoal>find a knife</subgoal>\n"
                        "@done\n")
        self._refused(["parse", "--input", str(path), "--out",
                       str(tmp_path / "parsed")], capsys, "action")

    @pytest.mark.parametrize("line, expected", [
        ("@reward", ("record 0", "@reward")), ("@reward abc", ("record 0", "@reward")),
        ("@reward nan", ("record 0", "@reward")), ("@reward -inf", ("record 0", "@reward")),
        ("@reward 1e999", ("record 0", "@reward")),
        ("@done", ("turn 0", "done before the last turn")),
        ("@rewards 3", ("record 0", "unknown metadata key '@rewards'")),
        ("@rewardx 5", ("record 0", "unknown metadata key '@rewardx'")),
        ("@reward 1\n@reward 2", ("record 0", "a second @reward line"))])
    def test_transcript_reward_and_done(self, tmp_path, capsys, line, expected):
        # record 0 of two: a reward that is not a finite number, or @done
        # before the last record
        path = tmp_path / "bad.txt"
        record = "<switch>SWITCH</switch>\n<subgoal>a</subgoal>\n<action>b</action>\n"
        path.write_text(record + line + "\n\n" + record + "@done\n")
        self._refused(["parse", "--input", str(path), "--out", str(tmp_path / "p")],
                      capsys, *expected)
        assert not (tmp_path / "p" / "trajectory.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "train-flat", "rollout"])
    def test_env_too_large_for_memory(self, tmp_path, capsys, monkeypatch, command):
        # before, `PolicyParams.uniform` died allocating 192 TiB
        def refuse(*args):
            raise AssertionError("a policy was allocated")

        monkeypatch.setattr(PolicyParams, "uniform", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 2\nenv.L = 1099511627776\n")
        self._refused([command, "--config", str(cfg), "--out", str(tmp_path / "t")],
                      capsys, "'env.L' = 1099511627776", "logits")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("line", ["lr_actor = inf", "c_keep = inf",
                                      "gamma = nan", "lr_critic = 1e999"])
    def test_non_finite_config_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 2\n" + line + "\n")
        self._refused(["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                      capsys, "line 2", line.split()[0], "finite")
        assert not (tmp_path / "t").exists()

    def test_removed_critic_weight_key(self, tmp_path, capsys):
        # the critic takes its own steps at lr_critic; no loss weight is read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 2\nc_v = 1.0\n")
        self._refused(["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                      capsys, "line 2", "unknown key 'c_v'")
        assert not (tmp_path / "t").exists()

    def test_diverging_lr_critic_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 2\nlr_critic = 5\n")
        self._refused(["train-flat", "--config", str(cfg), "--out", str(tmp_path / "t")],
                      capsys, "line 2", "'lr_critic'", "in [0, 1]")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(10**29)])
    def test_seed_outside_uint64(self, tmp_path, capsys, seed):
        self._refused(["rollout", "--episodes", "1", "--seed", seed,
                       "--out", str(tmp_path / "roll")], capsys, "--seed", seed)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"iterations = 1\nseed = {seed}\n")
        self._refused(["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                      capsys, "line 2", "'seed'", seed)
        assert not (tmp_path / "roll").exists() and not (tmp_path / "t").exists()
        with pytest.raises(ValueError, match="seed"):
            PPOConfig(seed=int(seed))

    @pytest.mark.parametrize("flag,value,words", [
        ("--gamma", "2", ("in (0, 1]", "got 2.0")), ("--gamma", "0", ("got 0.0",)),
        ("--gamma", "nan", ("got nan",)),
        ("--lambda-low", "1.5", ("in [0, 1]", "got 1.5")),
        ("--lambda-high", "-0.5", ("got -0.5",))])
    def test_advantage_flag_out_of_range(self, tmp_path, capsys, flag, value, words):
        path = tmp_path / "ep.jsonl"
        path.write_text(json.dumps(dict(BAD_EPISODE[0], done=True)) + "\n")
        save_values(tmp_path / "values.txt", ValueTables.zeros(14, 2))
        self._refused(["advantages", "--input", str(path),
                       "--values", str(tmp_path / "values.txt"), flag, value,
                       "--out", str(tmp_path / "adv")], capsys, f"{flag} must be", *words)
        assert not (tmp_path / "adv").exists()

    def test_negative_episode_count(self, tmp_path, capsys):
        self._refused(["rollout", "--episodes", "-1", "--out",
                       str(tmp_path / "roll")], capsys, "--episodes")

    @pytest.mark.parametrize("command", ["rollout", "eval"])
    @pytest.mark.parametrize("episodes", [2 ** 62, MAX_TURN_SLOTS // 20 + 1])
    def test_episode_count_past_the_turn_slots(self, tmp_path, capsys, command, episodes):
        # FetchChain(5, 20): an episode takes 20 slots of each TurnTable column
        # (before, 2**62 ended in "array is too big")
        env = FetchChain(5, 20)
        save_policy(tmp_path / "policy.txt",
                    PolicyParams.uniform(env.n_states, 2, env.n_actions))
        tracemalloc.start()
        try:
            self._refused([command, "--policy", str(tmp_path / "policy.txt"),
                           "--episodes", str(episodes), "--out", str(tmp_path / "out")],
                          capsys, f"--episodes = {episodes}, horizon = 20", "turn slots")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 21 and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines,named", [
        ("episodes_per_iter = 4611686018427387904",
         "'episodes_per_iter' = 4611686018427387904, 'env.H' = 20"),
        ("epochs = 1\nepisodes_per_iter = 838861",
         "'episodes_per_iter' = 838861, 'env.H' = 20"),
        ("episodes_per_iter = 209716",
         "'epochs' = 4, 'episodes_per_iter' = 209716, 'env.H' = 20"),
        ("eval_episodes = 4611686018427387904",
         "'eval_episodes' = 4611686018427387904, 'env.H' = 20"),
        ("eval_episodes = 838861", "'eval_episodes' = 838861, 'env.H' = 20"),
        ("epochs = 4611686018427387904",
         "'epochs' = 4611686018427387904, 'episodes_per_iter' = 64, 'env.H' = 20"),
        ("epochs = 13108", "'epochs' = 13108, 'episodes_per_iter' = 64, 'env.H' = 20"),
        ("env.H = 65537", "'epochs' = 4, 'episodes_per_iter' = 64, 'env.H' = 65537"),
        ("env = onestep\nepisodes_per_iter = 4611686018427387904",
         "(2**24): 'episodes_per_iter' = 4611686018427387904\n"),
    ])
    def test_counts_past_the_turn_slots(self, tmp_path, capsys, lines, named):
        # before, epochs = 2**62 died in `training._minibatch_keys`, which
        # allocates an (epochs, rows) array
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 1\n" + lines + "\n")
        self._refused(["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                      capsys, named, "turn slots, more than 16777216")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("lines,word", [
        (['{"t":0,"state":0'], "JSON"),
        (['{"t":0,"state":0}'], "prev_subgoal"),
        (['[0, 1]'], "object"),
        ([json.dumps(dict(BAD_EPISODE[0], state="x"))], "'x'"),
        ([json.dumps(BAD_EPISODE[0]), '{"truncated":true,"final_state":"end"}'],
         "final_state"),
        ([json.dumps(dict(BAD_EPISODE[0], reward="high"))], "field 'reward'"),
        ([json.dumps(dict(BAD_EPISODE[0], state=1.7))], "field 'state'"),
        ([json.dumps(dict(BAD_EPISODE[0], q=True))], "field 'q'"),
        ([json.dumps(dict(BAD_EPISODE[0], done=True, reward=float("nan")))],
         "field 'reward'"),
        ([json.dumps(dict(BAD_EPISODE[0], done=True, raw_reward=float("-inf")))],
         "field 'raw_reward'"),
        ([json.dumps(dict(BAD_EPISODE[0], done=True, reward=10**400))], "field 'reward'"),
        ([json.dumps(BAD_EPISODE[0]), '{"truncated":"no","final_state":3}'],
         "truncated 'no'"),
        ([json.dumps(BAD_EPISODE[0]), '{"truncated":1,"final_state":3}'], "truncated 1"),
        ([json.dumps(dict(BAD_EPISODE[0], done=True, truncated=False))], "truncated"),
        (['{"t":0,"state":' + "1" * 5000 + "}"], "JSON"),
        ([json.dumps(dict(BAD_EPISODE[0], done=True, subgoal_text=[1, {"a": 2}]))],
         "field 'subgoal_text'"),
        ([json.dumps(dict(BAD_EPISODE[0], done=True, subgoal_text={"a": "b"}))],
         "field 'subgoal_text'"),
    ])
    def test_malformed_json_line(self, tmp_path, capsys, lines, word):
        (tmp_path / "cut.jsonl").write_text("\n".join(lines) + "\n")
        save_values(tmp_path / "values.txt", ValueTables.zeros(14, 2))
        self._refused(["advantages", "--input", str(tmp_path / "cut.jsonl"),
                       "--values", str(tmp_path / "values.txt"),
                       "--out", str(tmp_path / "adv")], capsys,
                      f"line {len(lines)}", word)

    @pytest.mark.parametrize("mode,flag", [
        ("telescope", "--trials"), ("gradcheck", "--trials"),
        ("critic-fixpoint", "--trials"), ("unbiased", "--samples"),
        ("variance", "--samples")])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_verify_count_below_one(self, tmp_path, capsys, mode, flag, count):
        out = self._refused(["verify", mode, flag, count, "--out",
                             str(tmp_path / "v")], capsys, flag)
        assert "PASS" not in out and "nan" not in out
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("mode", ["unbiased", "variance"])
    def test_verify_one_sample_refused(self, tmp_path, capsys, mode):
        # both gates estimate with n - 1 in the denominator
        out = self._refused(["verify", mode, "--samples", "1", "--out",
                             str(tmp_path / "v")], capsys, "--samples must be >= 2")
        assert "PASS" not in out and "nan" not in out
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("command,value", [("eval", "nan"),
                                               ("advantages", "-inf")])
    def test_non_finite_checkpoint_value(self, tmp_path, capsys, command, value):
        env = FetchChain(3, 6)
        save_policy(tmp_path / "policy.txt",
                    PolicyParams.uniform(env.n_states, 2, env.n_actions))
        save_values(tmp_path / "values.txt", ValueTables.zeros(env.n_states, 2))
        path = tmp_path / ("policy.txt" if command == "eval" else "values.txt")
        lines = path.read_text().splitlines(keepends=True)
        lines[6] = value + "\n"
        path.write_text("".join(lines))
        (tmp_path / "ep.jsonl").write_text(json.dumps(dict(BAD_EPISODE[0], done=True)) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env.L = 3\nenv.H = 6\n")
        argv = (["eval", "--config", str(cfg), "--policy", str(path)]
                if command == "eval" else
                ["advantages", "--input", str(tmp_path / "ep.jsonl"),
                 "--values", str(path), "--out", str(tmp_path / "adv")])
        self._refused(argv, capsys, "line 7", "finite")

    def test_overflowing_advantages_refused(self, tmp_path, capsys):
        # finite value tables whose differences overflow: the advantages are
        # not numbers JSON can hold
        env = FetchChain(5, 20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env.L = 5\nenv.H = 20\n")
        save_policy(tmp_path / "policy.txt",
                    PolicyParams.uniform(env.n_states, 2, env.n_actions))
        save_values(tmp_path / "values.txt",
                    ValueTables(np.full(env.n_states, 1.7e308),
                                np.full((env.n_states, 2), -1.7e308)))
        assert dispatch(["rollout", "--config", str(cfg), "--episodes", "2",
                         "--out", str(tmp_path / "roll")]) == 0
        self._refused(["advantages", "--input", str(tmp_path / "roll" / "trajectories.jsonl"),
                       "--values", str(tmp_path / "values.txt"),
                       "--policy", str(tmp_path / "policy.txt"),
                       "--out", str(tmp_path / "adv")],
                      capsys, "episode 0, turn 0: A_low is inf", "not a finite number")
        assert not (tmp_path / "adv").exists()

    def test_advantages_need_a_policy_for_multi_turn_episodes(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env.L = 3\nenv.H = 6\n")
        assert dispatch(["rollout", "--config", str(cfg), "--episodes", "3",
                         "--out", str(tmp_path / "roll")]) == 0
        capsys.readouterr()
        save_values(tmp_path / "values.txt", ValueTables.zeros(FetchChain(3, 6).n_states, 2))
        self._refused(["advantages", "--input", str(tmp_path / "roll" / "trajectories.jsonl"),
                       "--values", str(tmp_path / "values.txt"),
                       "--out", str(tmp_path / "adv")], capsys, "--policy")
        assert not (tmp_path / "adv" / "advantages.jsonl").exists()

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_eval_episode_count(self, tmp_path, capsys, episodes):
        env = FetchChain(5, 20)
        save_policy(tmp_path / "policy.txt",
                    PolicyParams.uniform(env.n_states, 2, env.n_actions))
        out = self._refused(["eval", "--policy", str(tmp_path / "policy.txt"),
                             "--episodes", episodes], capsys, "--episodes")
        assert "nan" not in out

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_policy_must_match_the_env(self, tmp_path, capsys, command):
        env = FetchChain(5, 20)
        save_policy(tmp_path / "policy.txt",
                    PolicyParams.uniform(env.n_states, 2, env.n_actions))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env = onestep\n")
        out = self._refused([command, "--config", str(cfg), "--policy",
                             str(tmp_path / "policy.txt"), "--out", str(tmp_path / "o")],
                            capsys, "202 states")
        assert "success" not in out

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_policy_without_subgoals(self, tmp_path, capsys, command):
        path = tmp_path / "policy.txt"
        path.write_text("segrl-policy v1\n202 0 4\ntable switch 0\ntable subgoal 0\n"
                        "table action 0\n")
        self._refused([command, "--policy", str(path), "--episodes", "2",
                       "--out", str(tmp_path / "o")], capsys, "line 2", "table sizes")
        assert not (tmp_path / "o").exists()

    def test_truncated_policy(self, tmp_path, capsys):
        save_policy(tmp_path / "policy.txt", PolicyParams.uniform(202, 2, 4))
        lines = (tmp_path / "policy.txt").read_text().splitlines(keepends=True)
        (tmp_path / "cut.txt").write_text("".join(lines[:len(lines) // 2]))
        self._refused(["eval", "--policy", str(tmp_path / "cut.txt"),
                       "--episodes", "4"], capsys, "truncated")


class TestCheckpointErrors:
    def test_truncated_values_name_the_line(self, tmp_path):
        save_values(tmp_path / "values.txt", ValueTables.zeros(6, 2))
        lines = (tmp_path / "values.txt").read_text().splitlines(keepends=True)
        (tmp_path / "cut.txt").write_text("".join(lines[:5]))
        with pytest.raises(CheckpointError, match="line 6"):
            load_values(tmp_path / "cut.txt")

    def test_unparsable_value_names_the_line(self, tmp_path):
        save_policy(tmp_path / "policy.txt", PolicyParams.uniform(3, 2, 2))
        lines = (tmp_path / "policy.txt").read_text().splitlines(keepends=True)
        lines[4] = "zero\n"
        (tmp_path / "bad.txt").write_text("".join(lines))
        with pytest.raises(CheckpointError, match="line 5"):
            load_policy(tmp_path / "bad.txt")

    def test_trailing_content_rejected(self, tmp_path):
        save_values(tmp_path / "values.txt", ValueTables.zeros(6, 2))
        with open(tmp_path / "values.txt", "a", encoding="utf-8") as fp:
            fp.write("0.5\n")
        with pytest.raises(CheckpointError, match="after the last table"):
            load_values(tmp_path / "values.txt")


    @given(kind=st.sampled_from(["policy", "values"]),
           sizes=st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3)),
           edits=st.lists(st.tuples(
               st.sampled_from(["replace", "insert", "drop", "cut"]), st.integers(0, 80),
               st.one_of(st.sampled_from(["nan", "-inf", "1e999", "0.5", "-3", "", "x",
                                          "table v_low 0", "table action 2", "2 2",
                                          "1 1 1", "segrl-values v1"]),
                         st.floats().map(repr), st.integers().map(str),
                         st.text(max_size=6))), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_any_text_reads_to_valid_tables_or_an_input_error(self, kind, sizes, edits):
        n_s, n_o, n_a = sizes
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.txt"
            if kind == "policy":
                save_policy(path, PolicyParams.uniform(n_s, n_o, n_a))
            else:
                save_values(path, ValueTables.zeros(n_s, n_o))
            lines = path.read_text().splitlines()
            for edit, k, text in edits:
                k = min(k, len(lines))
                if edit == "insert":
                    lines.insert(k, text)
                elif edit == "cut":
                    del lines[k:]
                elif k < len(lines):
                    lines[k:k + 1] = [text] if edit == "replace" else []
            path.write_text("\n".join(lines) + "\n")
            try:
                back = load_policy(path) if kind == "policy" else load_values(path)
            except InputError:
                return
        tables = ([back.switch, back.subgoal, back.action] if kind == "policy"
                  else [back.v_high, back.v_low])
        assert all(np.isfinite(t).all() for t in tables)


class TestBitIdentity:
    """The bytes of `metrics.csv` and `values-final.txt` for 20 iterations on
    FetchChain(5, 20) at seed 0 (numpy 2.4, x86-64).  Rollout streams are
    keyed by a fingerprint of the parameter words, so any last-bit change to
    an update re-rolls every later batch; a change that reorders the
    arithmetic, or changes a stream (the counter hash, the fingerprint or
    the minibatch orders' keys), re-pins these digests and says so."""

    @staticmethod
    def _digest(tmp_path, command, file, text="iterations = 20\nseed = 0\n"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert dispatch([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        return hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()

    @pytest.mark.parametrize("command,digest", [
        ("train", "a66e2426bd5a4c9682948e10de8cbd7342e61554ad1fc2d01a9e208c1035a280"),
        ("train-flat", "c4a5af17e05905a88d98baac17f6567a21a3b1116ffc2da4d38e07b0fa00cca4"),
    ], ids=["train", "train-flat"])  # stable names across re-pins
    def test_metrics_csv_digest(self, tmp_path, command, digest):
        assert self._digest(tmp_path, command, "metrics.csv") == digest

    @pytest.mark.parametrize("command,digest", [
        ("train", "1d19e033fe13df0983e0a3d4ed76074b5ffbc702710e7834c947c500c742d373"),
        ("train-flat", "755fb305b41a557a12778b1fee36ae37cf955a052753a50a7284e9bda98481d1"),
    ], ids=["train", "train-flat"])  # stable names across re-pins
    def test_values_final_digest(self, tmp_path, command, digest):
        assert self._digest(tmp_path, command, "values-final.txt") == digest

    # and of all three outputs for 3 iterations on FetchChain(15, 60), where a
    # batch's sites touch at most about a quarter of the logits
    @pytest.mark.parametrize("command,digests", [
        ("train", ("ec590e410531d957345cfcfa4e654e4df52eaa9a31133ce8c2f420513ad0861a",
                   "94f3ae71431fa0b6ab98d309c5025bf7a43094b4ab98ea0936e4365ba24af3e0",
                   "4febe06826cb1c52aef49f0bc083aa471505e32643ae31d41af6bbb32e8117a9")),
        ("train-flat", ("6fd699fe269ec82e2cf49444821fcc6c0626742ccd9c2fe79936a98a967a7c4d",
                        "3593f30ad563802bed69ba8ad6dd43d1aaffc0096a8af2f84885e1ee715e1598",
                        "59e7d2360ac2328c1ff9afb0c63fd8fdba1ba80643dfc90551ac404f1ce9578d")),
    ])
    def test_wide_chain_digests(self, tmp_path, command, digests):
        text = "iterations = 3\nseed = 0\nenv.L = 15\nenv.H = 60\n"
        self._digest(tmp_path, command, "metrics.csv", text)
        assert tuple(hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
                     for file in ("metrics.csv", "values-final.txt",
                                  "policy-final.txt")) == digests


_COMMANDS_SCRIPT = """
import sys
from pathlib import Path
from segrl.cli import dispatch
out, data = Path(sys.argv[1]), Path(sys.argv[2])
cfg = out / "run.cfg"
cfg.write_text("iterations = 2\\nseed = 0\\n")
for argv in (["train", "--config", str(cfg), "--out", str(out / "train")],
             ["train-flat", "--config", str(cfg), "--out", str(out / "flat")],
             ["rollout", "--config", str(cfg), "--episodes", "8", "--out", str(out / "r")],
             ["eval", "--config", str(cfg), "--policy", str(out / "train/policy-final.txt")],
             ["advantages", "--input", str(out / "r/trajectories.jsonl"),
              "--values", str(out / "train/values-final.txt"),
              "--policy", str(out / "train/policy-final.txt"), "--out", str(out / "a")],
             ["parse", "--input", str(data / "transcript_cool_cup.txt"),
              "--out", str(out / "p")]):
    assert dispatch(argv) == 0, argv
print(" ".join(m for m in ("numpy.random", "hashlib") if m in sys.modules))
"""


class TestFlagKeyParity:
    """Each flag accepts and refuses the values its config key does; each
    refusal exits 2 with one stderr line naming the flag or the key."""

    @staticmethod
    def _code(argv, capsys, name):
        code = dispatch(argv)
        err = capsys.readouterr().err
        if code == 2:
            assert err.count("\n") == 1 and name in err, err
        else:
            assert code == 0 and err == "", err
        return code

    def _key_code(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value!r}\n")
        return self._code(["rollout", "--config", str(cfg), "--episodes", "0",
                           "--out", str(tmp_path / "roll")], capsys, f"'{key}'")

    @pytest.mark.parametrize("key,accepted", [("gamma", 3), ("lambda_low", 4),
                                              ("lambda_high", 4)])
    def test_float_flags(self, tmp_path, capsys, key, accepted):
        episode = tmp_path / "ep.jsonl"
        episode.write_text(json.dumps(dict(BAD_EPISODE[0], done=True)) + "\n")
        save_values(tmp_path / "values.txt", ValueTables.zeros(14, 2))
        flag = "--" + key.replace("_", "-")
        values = [0.0, 1.0, math.nan, math.inf, -math.inf]
        values += [math.nextafter(edge, to) for edge in (0.0, 1.0)
                   for to in (-math.inf, math.inf)]
        codes = []
        for value in values:
            code = self._code(["advantages", "--input", str(episode),
                               "--values", str(tmp_path / "values.txt"),
                               f"{flag}={value!r}", "--out", str(tmp_path / "adv")],
                              capsys, flag)
            assert code == self._key_code(tmp_path, capsys, key, value), value
            codes.append(code)
        assert codes.count(0) == accepted

    def test_seed_flag(self, tmp_path, capsys):
        for value in (-1, 0, 2 ** 64 - 1, 2 ** 64):
            code = self._code(["rollout", "--episodes", "0", f"--seed={value}",
                               "--out", str(tmp_path / "roll")], capsys, "--seed")
            assert code == self._key_code(tmp_path, capsys, "seed", value)
            assert code == (0 if 0 <= value < 2 ** 64 else 2)


class TestSourceNames:
    def test_every_top_level_name_is_used_outside_the_tests(self):
        # a function or class that only the tests reference belongs in the
        # tests: every one is named outside its own definition in src/,
        # demos/, bench/ or the README
        paths = [*sorted((ROOT / "src" / "segrl").glob("*.py")),
                 *sorted((ROOT / "demos").glob("*.py")),
                 *sorted(p for p in (ROOT / "bench").rglob("*")
                         if p.suffix in (".py", ".md") and ".work" not in p.parts),
                 ROOT / "README.md"]
        texts = {path: path.read_text() for path in paths}
        unused = []
        for path in sorted((ROOT / "src" / "segrl").glob("*.py")):
            lines = texts[path].splitlines(keepends=True)
            for node in ast.parse(texts[path]).body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                rest = {p: t for p, t in texts.items() if p != path}
                rest[path] = "".join(lines[:first - 1] + lines[node.end_lineno:])
                word = re.compile(rf"\b{node.name}\b")
                if not any(word.search(t) for t in rest.values()):
                    unused.append(f"{path.stem}.{node.name}")
        assert not unused


class TestFootprint:
    def test_commands_import_neither_numpy_random_nor_hashlib(self, tmp_path):
        # every draw of train, train-flat, rollout and eval is a counter hash
        # (`rng`); `numpy.random` alone pulls in secrets -> hashlib -> OpenSSL
        done = subprocess.run(
            [sys.executable, "-c", _COMMANDS_SCRIPT, str(tmp_path), str(ROOT / "tests/data")],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == ""


class TestDemos:
    @staticmethod
    def _runs(demo):
        done = subprocess.run(
            [sys.executable, str(ROOT / "demos" / demo)],
            capture_output=True, text=True, env=_subprocess_env(), timeout=60)
        assert done.returncode == 0, done.stderr

    def test_segments_demo_runs(self):
        self._runs("01_segments_and_returns.py")

    def test_exact_oracles_demo_runs(self):
        self._runs("02_exact_oracles.py")

    def test_estimator_properties_demo_runs(self):
        self._runs("03_estimator_properties.py")

    def test_demo_and_readme_imports_resolve(self):
        # only demos 01, 02 and 03 run here: every segrl name the other demos
        # and the README's Python blocks import must still exist
        sources = [(path.name, path.read_text())
                   for path in sorted((ROOT / "demos").glob("*.py"))]
        sources += [("README.md", block) for block in re.findall(
            r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)]
        names = []
        for where, text in sources:
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Import):
                    names += [(where, alias.name, None) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names += [(where, node.module, alias.name) for alias in node.names]
        names = [n for n in names if n[1].split(".")[0] == "segrl"]
        assert len(names) > 10
        for where, module, name in names:
            mod = importlib.import_module(module)
            assert name is None or hasattr(mod, name), f"{where}: {module}.{name}"

    def test_backticked_module_names_resolve(self):
        # every `module.name` the README, the library's docstrings and the
        # test-side spec name must exist
        src = ROOT / "src" / "segrl"
        modules = "|".join(p.stem for p in sorted(src.glob("*.py")) if p.stem != "__init__")
        pattern = re.compile(rf"`(segrl|(?:segrl\.)?(?:{modules}))\.([A-Za-z_][\w.]*)`")
        refs = [(path.name, m.group(1), m.group(2))
                for path in [ROOT / "README.md", ROOT / "tests" / "spec.py",
                             *sorted(src.glob("*.py"))]
                for m in pattern.finditer(path.read_text())]
        assert len(refs) > 20
        for where, module, name in refs:
            obj = importlib.import_module(module if module.startswith("segrl")
                                          else f"segrl.{module}")
            for part in name.split("."):
                assert hasattr(obj, part), f"{where}: `{module}.{name}`"
                obj = getattr(obj, part)


class TestValueCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        tables = ValueTables(rng.standard_normal(6),
                             rng.standard_normal((6, 2)))
        path = tmp_path / "values.txt"
        save_values(path, tables)
        back = load_values(path)
        assert np.array_equal(back.v_high, tables.v_high)
        assert np.array_equal(back.v_low, tables.v_low)

    def test_flat_run_writes_its_fitted_critic(self, tmp_path):
        # v_flat is the high head of a value file with 0 options
        text = "iterations = 3\nepisodes_per_iter = 16\nenv.L = 3\nenv.H = 6\n"
        (tmp_path / "run.cfg").write_text(text)
        assert dispatch(["train-flat", "--config", str(tmp_path / "run.cfg"),
                         "--out", str(tmp_path)]) == 0
        back = load_values(tmp_path / "values-final.txt")
        cfg = parse_config_text(text)
        res = train_flat_baseline(cfg.ppo, cfg.make_env(), n_options=cfg.n_options)
        assert back.v_low.shape == (res.tables.n_states, 0)
        assert np.array_equal(back.v_high, res.tables.v_high)
        assert np.abs(back.v_high).max() > 0


def _strict_report(path: Path) -> dict:
    """A report read back by a reader that refuses NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestVerifyReports:
    def test_variance_all_turns_equal_the_per_turn_reports(self, tmp_path):
        assert dispatch(["verify", "variance", "--samples", "2000", "--seed", "5",
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "variance.json").read_text())
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        values = oracle_values(solve_dp(env, params, 1.0))
        rows = []
        for t in range(env.horizon):
            rep = spec.variance_report(env, params, values, t=t, n=2000, seed=5)
            rows.append({"t": t, "var_low": rep.var_low, "var_flat": rep.var_flat,
                         "ci_diff_upper": rep.ci_diff[1],
                         "reduced": rep.reduction_confirmed})
        assert report["rows"] == rows
        worst = max(rows, key=lambda r: r["ci_diff_upper"])
        assert (report["worst_t"], report["worst_ci_diff_upper"]) == (
            worst["t"], worst["ci_diff_upper"])

    def test_telescope_names_its_worst_switching_context(self, tmp_path):
        assert dispatch(["verify", "telescope", "--trials", "10",
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "telescope.json").read_text())
        t, s, o_prev, q = report["switching_worst"]
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        dp = solve_dp(env, params, 1.0)
        values = oracle_values(dp)
        assert t >= 1 and dp.occ_switch[t, s, o_prev] > 0
        beta = dp.beta[s, o_prev]
        q_keep, q_switch = dp.g_low[t, s, o_prev], dp.g_high[t, s]
        brute = (q_switch if q == 1 else q_keep) - ((1.0 - beta) * q_keep
                                                   + beta * q_switch)
        est = (q - beta) * (values.v_high[s] - values.v_low[s, o_prev])
        assert abs(brute - est) == report["switching_max_dev"]

    def test_telescope_names_its_worst_random_trials(self, tmp_path):
        # 2500 trials run as blocks of 1000, 1000 and 500 from one stream
        assert dispatch(["verify", "telescope", "--trials", "2500", "--seed", "4",
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "telescope.json").read_text())
        rng = np.random.Generator(np.random.PCG64(4))
        starts, blocks = [], []
        for size in (1000, 1000, 500):
            starts.append(rng.bit_generator.state)
            blocks.append(oracle._telescope_deviations(rng, size, 12, 3, 4, 10))
        for k, head in enumerate(("low", "high")):
            i = report[f"worst_trial_{head}"]
            devs = np.concatenate([block[k] for block in blocks])
            assert devs[i] == report[f"max_dev_{head}"] == devs.max()
            assert (devs[:i] < devs[i]).all()
            # that trial's block again, from the stream's state at its start
            b, at = divmod(i, 1000)
            rng.bit_generator.state = starts[b]
            again = oracle._telescope_deviations(rng, len(blocks[b][k]), 12, 3, 4, 10)
            assert again[k][at] == report[f"max_dev_{head}"]

    def test_critic_fixpoint_names_its_worst_cells(self, tmp_path):
        assert dispatch(["verify", "critic-fixpoint", "--trials", "40",
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "critic-fixpoint.json").read_text())
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        gamma = PPOConfig().gamma
        dp = solve_dp(env, params, gamma)
        values = oracle_values(dp)
        fitted, _ = fit_critic(ValueTables.zeros(env.n_states, params.n_options),
                               exact_critic_batch(dp),
                               lr=0.5, epochs=40)
        s = report["worst_high_state"]
        s_low, o = report["worst_low_cell"]
        assert values.high_defined[s] and values.low_defined[s_low, o]
        assert abs(fitted.v_high[s] - values.v_high[s]) == report["dev_high"]
        assert abs(fitted.v_low[s_low, o] - values.v_low[s_low, o]) == report["dev_low"]

    def test_critic_fixpoint_fails_on_a_nan_deviation(self, tmp_path, monkeypatch, capsys):
        import segrl.cli as cli

        def nan_low(*args, **kwargs):
            fitted, rep = fit_critic(*args, **kwargs)
            fitted.v_low[:] = np.nan
            return fitted, rep

        monkeypatch.setattr(cli, "fit_critic", nan_low)
        assert dispatch(["verify", "critic-fixpoint", "--trials", "40",
                         "--out", str(tmp_path)]) == 1
        report = _strict_report(tmp_path / "critic-fixpoint.json")
        assert report["dev_low"] is None and report["nonfinite"] == ["dev_low"]
        assert report["dev_high"] <= report["tol"]
        assert report["passed"] is False
        assert "[FAIL] critic-fixpoint" in capsys.readouterr().out

    def test_telescope_fails_on_a_nan_deviation(self, tmp_path, monkeypatch, capsys):
        deviations = oracle._telescope_deviations

        def nan_high(rng, trials, *args):
            low, high = deviations(rng, trials, *args)
            high[5] = np.nan    # trial 5, and 1005 in the second block
            return low, high

        monkeypatch.setattr(oracle, "_telescope_deviations", nan_high)
        assert dispatch(["verify", "telescope", "--trials", "1500",
                         "--out", str(tmp_path)]) == 1
        report = _strict_report(tmp_path / "telescope.json")
        assert report["max_dev_high"] is None and report["nonfinite"] == ["max_dev_high"]
        assert report["worst_trial_high"] == 5 and report["max_dev_low"] <= report["tol"]
        assert report["passed"] is False
        assert "[FAIL] telescope" in capsys.readouterr().out

    def test_gradcheck_writes_a_nan_error_as_null(self, tmp_path, monkeypatch):
        import segrl.gradcheck as gradcheck
        monkeypatch.setattr(gradcheck, "check_total_loss_grads", lambda case, h: np.nan)
        assert dispatch(["verify", "gradcheck", "--trials", "2",
                         "--out", str(tmp_path)]) == 1
        report = _strict_report(tmp_path / "gradcheck.json")
        assert report["max_rel_err"] is None and report["nonfinite"] == ["max_rel_err"]
        assert (report["worst_config"], report["passed"]) == (1, False)

    def test_variance_names_a_nan_bound_in_its_rows(self, tmp_path, monkeypatch):
        import segrl.cli as cli
        reports = cli.variance_reports

        def nan_turn_3(*args, **kwargs):
            reps = reports(*args, **kwargs)
            reps[3] = dataclasses.replace(reps[3], ci_diff=(np.nan, np.nan))
            return reps

        monkeypatch.setattr(cli, "variance_reports", nan_turn_3)
        assert dispatch(["verify", "variance", "--samples", "500",
                         "--out", str(tmp_path)]) == 1
        report = _strict_report(tmp_path / "variance.json")
        assert report["rows"][3]["ci_diff_upper"] is None
        assert report["rows"][3]["reduced"] is False
        assert (report["worst_t"], report["worst_ci_diff_upper"]) == (3, None)
        assert report["nonfinite"] == ["rows[3].ci_diff_upper", "worst_ci_diff_upper"]
        assert report["passed"] is False

    def test_unbiased_names_its_worst_coordinate(self, tmp_path):
        # the 4-SE gate's verdict is not what this checks
        assert dispatch(["verify", "unbiased", "--samples", "3000", "--seed", "2",
                         "--out", str(tmp_path)]) in (0, 1)
        report = json.loads((tmp_path / "unbiased.json").read_text())
        env = FetchChain(3, 6)
        params = fetchchain_phased(env, np.random.default_rng(12345))
        dp = solve_dp(env, params, 1.0)
        mc, = mc_gradient_hae(env, params, oracle_values(dp).tables,
                              [(PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0), 3000)],
                              seed=2)
        at = (*report["worst_cell"], report["worst_choice"])
        head = report["worst_head"]
        dev = abs(getattr(mc.mean, head)[at]
                  - getattr(oracle_gradient(dp), head)[at])
        assert dev == report["worst_dev"]
        assert dev / getattr(mc.se, head)[at] == report["worst_z"] == report["max_z"]

    def test_gradcheck_names_its_worst_configuration(self, tmp_path):
        assert dispatch(["verify", "gradcheck", "--trials", "4", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "gradcheck.json").read_text())
        rng = np.random.Generator(np.random.PCG64(3))
        errs = [spec.check_log_prob_grads(rng) if i % 2 == 0
                else check_total_loss_grads(random_case(rng)) for i in range(4)]
        worst = int(np.argmax(errs))
        assert report["max_rel_err"] == errs[worst] == max(errs)
        assert (report["worst_config"], report["worst_kind"]) == (
            worst, ("score", "loss")[worst % 2])

    def test_each_gate_solves_the_exact_dp_once(self, tmp_path, monkeypatch):
        import segrl.cli as cli
        calls = []

        def counted(*args):
            calls.append(1)
            return solve_dp(*args)

        monkeypatch.setattr(oracle, "solve_dp", counted)
        monkeypatch.setattr(cli, "solve_dp", counted)
        solves = {}
        for mode, *size in (("telescope", "--trials", "200"),
                            ("unbiased", "--samples", "200"),
                            ("variance", "--samples", "200"),
                            ("gradcheck", "--trials", "2"),
                            ("critic-fixpoint", "--trials", "200")):
            calls.clear()
            assert dispatch(["verify", mode, *size, "--out", str(tmp_path)]) in (0, 1)
            solves[mode] = len(calls)
        # every exact quantity of a gate reads one solution; gradcheck has none
        assert solves == {"telescope": 1, "unbiased": 1, "variance": 1,
                          "gradcheck": 0, "critic-fixpoint": 1}

    def test_unbiased_records_bootstrapped_bias(self, tmp_path):
        code = dispatch(["verify", "unbiased", "--samples", "30000",
                         "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "unbiased.json").read_text())
        assert "recorded_bias_lambda_095" in report
        assert np.isfinite(report["recorded_bias_lambda_095"])
