import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segrl.cli import dispatch, load_values, save_values
from segrl.config import ConfigError, parse_config_text
from segrl.critic import ValueTables


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

    def test_bad_env_rejected(self):
        with pytest.raises(ConfigError, match="env"):
            parse_config_text("env = atari")


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

    def test_verify_telescope_pass_exit_0(self, tmp_path, capsys):
        code = dispatch(["verify", "telescope", "--trials", "300",
                         "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "telescope.json").read_text())
        assert report["passed"] is True
        assert "PASS" in capsys.readouterr().out

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

    def test_module_entry_point_prints_version(self):
        import segrl
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(segrl.__file__).parents[1]), env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-m", "segrl.cli", "--version"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == segrl.__version__

    def test_missing_file_exit_2(self, capsys):
        assert dispatch(["parse", "--input", "/nonexistent/file.txt"]) == 2


class TestValueCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        tables = ValueTables(rng.standard_normal(6),
                             rng.standard_normal((6, 2)))
        path = tmp_path / "values.txt"
        save_values(path, tables)
        back = load_values(path)
        assert np.array_equal(back.v_high, tables.v_high)
        assert np.array_equal(back.v_low, tables.v_low)


class TestVerifyReports:
    def test_unbiased_records_bootstrapped_bias(self, tmp_path):
        code = dispatch(["verify", "unbiased", "--samples", "30000",
                         "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "unbiased.json").read_text())
        assert "recorded_bias_lambda_095" in report
        assert np.isfinite(report["recorded_bias_lambda_095"])
