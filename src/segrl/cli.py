"""Command-line entry point: training, rollouts, parsing, verification.

Exit codes: 0 on success, 1 when a verification gate fails, 2 on refused
input (`core.InputError`: usage, a config file, trajectory JSON-Lines, a
checkpoint or a transcript) or a missing file.  All outputs land under the
--out directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .advantages import GAEConfig
from .batch import BatchAdvantages, TurnTable, advantage_arrays, rollout_batch
from .config import RANGES, RunConfig, load_config
from .core import (InputError, MalformedTrajectory, load_trajectories,
                   save_trajectories)
from .critic import ValueTables, fit_critic
from .envs import FetchChain
from .oracle import (exact_critic_batch, mc_gradient_hae, oracle_gradient,
                     oracle_values, solve_dp, switching_exactness_report,
                     telescope_check, unbiasedness, variance_reports)
from .parsing import ingest_transcript_file
from .policy import (CheckpointError, PolicyParams, fetchchain_phased,
                     load_policy, read_checkpoint, save_policy,
                     write_checkpoint)
from .rng import SEED_BOUND
from .training import evaluate, train, train_flat_baseline

CHECKPOINT_EVERY = 50
VALUES_MAGIC = "segrl-values v1"


def save_values(path, tables: ValueTables) -> None:
    write_checkpoint(path, VALUES_MAGIC, (tables.n_states, tables.n_options),
                     {"v_high": tables.v_high, "v_low": tables.v_low})


def load_values(path) -> ValueTables:
    tables = read_checkpoint(path, VALUES_MAGIC, lambda n_s, n_o: {
        "v_high": (n_s,), "v_low": (n_s, n_o)})
    return ValueTables(tables["v_high"], tables["v_low"])


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        if not 0 <= args.seed < SEED_BOUND:
            raise InputError(f"--seed must be in [0, 2**64), got {args.seed}")
        cfg.ppo.seed = args.seed
    return cfg


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if args.out else Path(default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_metrics(path: Path, result) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(result.metrics_csv())


def cmd_train(args, flat: bool) -> int:
    cfg = _load_run_config(args)
    env = cfg.make_env()
    out = _out_dir(args, "runs/train-flat" if flat else "runs/train")
    driver = train_flat_baseline if flat else train

    def on_iteration(state, row):
        if (state.iteration + 1) % CHECKPOINT_EVERY == 0:
            save_policy(out / f"policy-{state.iteration + 1:04d}.txt", state.params)

    result = driver(cfg.ppo, env, n_options=cfg.n_options, on_iteration=on_iteration)
    _write_metrics(out / "metrics.csv", result)
    save_policy(out / "policy-final.txt", result.params)
    save_values(out / "values-final.txt", result.tables)
    final = result.metrics[-1]
    print(f"finished {cfg.ppo.iterations} iterations: "
          f"greedy success {final.success:.3f}, mean return {final.mean_return:.3f}")
    print(f"outputs in {out}")
    return 0


def _check_policy_env(params: PolicyParams, env) -> None:
    """Reject a policy over other states or actions than the env."""
    if (params.n_states, params.n_actions) != (env.n_states, env.n_actions):
        raise CheckpointError(
            f"the policy has {params.n_states} states x {params.n_actions} "
            f"actions, the environment {env!r} {env.n_states} x {env.n_actions}")


def cmd_rollout(args) -> int:
    cfg = _load_run_config(args)
    env = cfg.make_env()
    params = (load_policy(args.policy) if args.policy else
              PolicyParams.uniform(env.n_states, cfg.n_options, env.n_actions))
    _check_policy_env(params, env)
    if args.episodes < 0:
        raise InputError("--episodes must be >= 0")
    out = _out_dir(args, "runs/rollout")
    trajs = rollout_batch(env, params, args.episodes, cfg.ppo.seed,
                          c_keep=cfg.ppo.c_keep).to_trajectories()
    path = out / "trajectories.jsonl"
    save_trajectories(path, trajs)
    print(f"wrote {len(trajs)} episodes to {path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    env = cfg.make_env()
    if args.episodes < 1:
        raise InputError("--episodes must be >= 1")
    params = load_policy(args.policy)
    _check_policy_env(params, env)
    report = evaluate(params, env, args.episodes, mode=args.mode, seed=cfg.ppo.seed)
    print(f"success {report.success_rate:.3f}  mean return {report.mean_return:.3f}  "
          f"switch rate {report.switch_rate:.3f}  "
          f"segments {report.mean_segments:.2f} x {report.mean_seg_len:.2f}")
    return 0


def cmd_parse(args) -> int:
    result = ingest_transcript_file(args.input)
    out = _out_dir(args, "runs/parse")
    path = out / "trajectory.jsonl"
    save_trajectories(path, [result.trajectory])
    bad = sum(1 for v in result.verdicts if not v.valid)
    print(f"parsed {result.trajectory.n_turns} turns, {bad} malformed, "
          f"total penalty {result.total_penalty:.1f}; wrote {path}")
    return 0


def _check_advantage_inputs(tt: TurnTable, tables: ValueTables,
                            params: PolicyParams | None) -> None:
    """Reject flat-baseline tables (no subgoals), episodes that index outside
    the value tables, a policy over other dimensions than the tables, and a
    missing policy where the episodes record no behavior switch log-probs."""
    n_s, n_o = tables.n_states, tables.n_options
    if n_o == 0:
        raise CheckpointError(
            "the value tables hold a flat baseline without subgoals (0 options, "
            "as `segrl train-flat` writes); advantages need the hierarchical "
            "tables of `segrl train`")
    if params is not None and (params.n_states, params.n_options) != (n_s, n_o):
        raise CheckpointError(
            f"the policy has {params.n_states} states x {params.n_options} "
            f"subgoals, the value tables {n_s} x {n_o}")
    for name, ids, bound in (("state", tt.state, n_s), ("subgoal", tt.subgoal, n_o),
                             ("prev_subgoal", tt.prev_subgoal, n_o)):
        if (bad := tt.mask & (ids >= bound)).any():
            i, t = np.argwhere(bad)[0]
            raise MalformedTrajectory(
                f"episode {i}, turn {t}: {name} {ids[i, t]} is outside the "
                f"value tables (0 .. {bound - 1})")
    if (bad := tt.final_state >= n_s).any():
        i = np.argmax(bad)
        raise MalformedTrajectory(
            f"episode {i}: final_state {tt.final_state[i]} is outside the "
            f"value tables (0 .. {n_s - 1})")
    if params is None and (tt.mask[:, 1:] & np.isnan(tt.lp_switch[:, 1:])).any():
        raise InputError("--policy is required: the trajectory file records no "
                         "behavior log-probs for the switch probabilities")


_ADVANTAGE_LINE = '{"t": %s, "A_low": %s, "A_switch": %s, "A_high": %s, "A_flat": null}\n'


def advantage_lines(tt: TurnTable, adv: BatchAdvantages) -> str:
    """The per-turn records of `segrl advantages`, each line the bytes of
    `json.dumps(record)` (floats as `float.__repr__`).  Refuses an advantage
    that is not finite, naming its episode, turn and level."""
    episode, turn = np.nonzero(tt.mask)
    a_low, a_switch, a_high = adv.a_low[tt.mask], adv.a_switch[tt.mask], adv.a_high[tt.mask]
    boundary = adv.masks.is_boundary[tt.mask]
    for level, values, written in (("A_low", a_low, True), ("A_switch", a_switch, turn > 0),
                                   ("A_high", a_high, boundary)):
        if (bad := written & ~np.isfinite(values)).any():
            k = int(np.argmax(bad))
            raise InputError(f"episode {episode[k]}, turn {turn[k]}: {level} is "
                             f"{values[k]}, not a finite number: the value tables "
                             f"overflow the float range")
    return "".join(_ADVANTAGE_LINE % (t, lo, "null" if t == 0 else sw, hi if b else "null")
                   for t, lo, sw, hi, b in zip(turn.tolist(), a_low.tolist(),
                                               a_switch.tolist(), a_high.tolist(),
                                               boundary.tolist()))


def cmd_advantages(args) -> int:
    for key in ("gamma", "lambda_low", "lambda_high"):
        ok, desc = RANGES[key]
        if not ok(value := getattr(args, key)):
            raise InputError(f"--{key.replace('_', '-')} must be {desc}, got {value}")
    tt = TurnTable.from_trajectories(load_trajectories(args.input))
    tables = load_values(args.values)
    params = load_policy(args.policy) if args.policy else None
    _check_advantage_inputs(tt, tables, params)
    cfg = GAEConfig(gamma=args.gamma, lambda_low=args.lambda_low,
                    lambda_high=args.lambda_high)
    with np.errstate(over="ignore", invalid="ignore"):  # advantage_lines refuses overflow
        text = advantage_lines(tt, advantage_arrays(tt, tables, cfg, params=params))
    path = _out_dir(args, "runs/advantages") / "advantages.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
    print(f"wrote per-turn advantages for {tt.n_episodes} episodes to {path}")
    return 0


def _write_report(path: Path, payload: dict) -> None:
    """`payload` as strict JSON: each non-finite float is written as null, its
    key (as `rows[2].var_low` in a list) listed under "nonfinite"."""
    nonfinite = []

    def strict(x, key):
        if isinstance(x, dict):
            return {k: strict(v, f"{key}.{k}" if key else k) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v, f"{key}[{i}]") for i, v in enumerate(x)]
        if isinstance(x, float) and not math.isfinite(x):
            nonfinite.append(key)
            return None
        return x

    payload = strict(payload, "")
    if nonfinite:
        payload["nonfinite"] = nonfinite
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, allow_nan=False)


def _report(out: Path, name: str, payload: dict, passed: bool) -> int:
    payload, path = dict(payload, passed=bool(passed)), out / f"{name}.json"
    _write_report(path, payload)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: " + ", ".join(
        f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in payload.items() if k != "passed"))
    print(f"report: {path}")
    return 0 if passed else 1


def _verify_env_policy(seed: int):
    env = FetchChain(3, 6)
    params = fetchchain_phased(env, np.random.default_rng(seed))
    return env, params


def cmd_verify(args) -> int:
    mode = args.mode
    if args.trials is None:  # the acceptance sizes
        args.trials = 100 if mode == "gradcheck" else 10000
    # the Monte-Carlo gates' standard errors and variances divide by n - 1
    flag, least = ("samples", 2) if mode in ("unbiased", "variance") else ("trials", 1)
    if getattr(args, flag) < least:
        raise InputError(f"--{flag} must be >= {least}")
    cfg = _load_run_config(args)
    out = _out_dir(args, "runs/verify")
    seed = cfg.ppo.seed
    if mode == "telescope":
        rep = telescope_check(trials=args.trials, seed=seed)
        env, params = _verify_env_policy(12345)
        sw = switching_exactness_report(solve_dp(env, params, 1.0))
        return _report(out, "telescope", {
            "trials": rep.trials, "max_dev_low": rep.max_dev_low,
            "max_dev_high": rep.max_dev_high,
            "worst_trial_low": rep.worst_trial_low,
            "worst_trial_high": rep.worst_trial_high,
            "switching_max_dev": sw.max_abs_dev,
            "switching_contexts": sw.n_contexts, "tol": rep.tol,
            "switching_worst": sw.worst,
        }, rep.passed and sw.passed)
    if mode == "unbiased":
        env, params = _verify_env_policy(12345)
        dp = solve_dp(env, params, 1.0)
        tables, exact = oracle_values(dp).tables, oracle_gradient(dp)
        # the gated estimator (mixing weight 1) and, over the first 20000 of
        # the same episodes, the bootstrapped one (0.95): its bias is recorded only
        mc, mixed = mc_gradient_hae(env, params, tables, [
            (GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0), args.samples),
            (GAEConfig(gamma=1.0, lambda_low=0.95, lambda_high=0.95),
             min(args.samples, 20000))], seed=seed)
        rep = unbiasedness(mc, exact)
        bias95 = float(np.max(np.abs(mixed.mean.theta - exact.theta)))
        return _report(out, "unbiased", {
            "n": rep.n, "max_z": rep.max_z, "n_failed": rep.n_failed,
            "n_coords": rep.n_coords, "max_abs_dev": rep.max_abs_dev,
            "gate": rep.gate, "recorded_bias_lambda_095": bias95,
            **rep.worst,
        }, rep.passed)
    if mode == "variance":
        env, params = _verify_env_policy(12345)
        values = oracle_values(solve_dp(env, params, 1.0))
        reps = variance_reports(env, params, values, range(env.horizon),
                                n=args.samples, seed=seed)
        rows = [{"t": rep.t, "var_low": rep.var_low, "var_flat": rep.var_flat,
                 "ci_diff_upper": rep.ci_diff[1], "reduced": rep.reduction_confirmed}
                for rep in reps]
        ok = all(rep.reduction_confirmed for rep in reps)
        # a NaN bound is the worst
        worst = max(rows, key=lambda r: (math.isnan(r["ci_diff_upper"]), r["ci_diff_upper"]))
        path = out / "variance.json"
        _write_report(path, {"rows": rows, "worst_t": worst["t"],
                             "worst_ci_diff_upper": worst["ci_diff_upper"], "passed": ok})
        for r in rows:
            print(f"[{'PASS' if r['reduced'] else 'FAIL'}] t={r['t']}: "
                  f"var_low={r['var_low']:.4f} var_flat={r['var_flat']:.4f} "
                  f"ci_upper={r['ci_diff_upper']:+.4f}")
        print(f"report: {path}")
        return 0 if ok else 1
    if mode == "gradcheck":
        from .gradcheck import gradcheck_report
        rep = gradcheck_report(n_configs=args.trials, seed=seed)
        return _report(out, "gradcheck", rep, rep["max_rel_err"] <= rep["tol"])
    if mode == "critic-fixpoint":
        env, params = _verify_env_policy(12345)
        dp = solve_dp(env, params, cfg.ppo.gamma)
        values, batch = oracle_values(dp), exact_critic_batch(dp)
        tables = ValueTables.zeros(env.n_states, params.n_options)
        fitted, _ = fit_critic(tables, batch, lr=0.5, epochs=args.trials)
        dev_hi = np.where(values.high_defined, np.abs(fitted.v_high - values.v_high), -1.0)
        dev_lo = np.where(values.low_defined, np.abs(fitted.v_low - values.v_low), -1.0)
        worst_hi = int(np.argmax(dev_hi))
        worst_lo = np.unravel_index(np.argmax(dev_lo), dev_lo.shape)
        dev_hi, dev_lo = float(dev_hi[worst_hi]), float(dev_lo[worst_lo])
        return _report(out, "critic-fixpoint", {
            "epochs": args.trials, "dev_high": dev_hi, "dev_low": dev_lo,
            "tol": 1e-3, "worst_high_state": worst_hi,
            "worst_low_cell": [int(x) for x in worst_lo],
        }, dev_hi <= 1e-3 and dev_lo <= 1e-3)   # a NaN deviation fails
    raise AssertionError(f"unhandled verify mode {mode}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (`parse_args` makes a
    fresh namespace on every call)."""
    parser = argparse.ArgumentParser(
        prog="segrl",
        description="Tabular subgoal-switching RL with verification oracles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def out_only(p):
        p.add_argument("--out", help="output directory")

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        out_only(p)

    p = sub.add_parser("train", help="run the hierarchical trainer")
    common(p)
    p = sub.add_parser("train-flat", help="run the flat-baseline trainer")
    common(p)

    p = sub.add_parser("rollout", help="collect episodes to JSON-Lines")
    common(p)
    p.add_argument("--policy", help="policy checkpoint (default: uniform)")
    p.add_argument("--episodes", type=int, default=16)

    p = sub.add_parser("eval", help="evaluate a policy checkpoint")
    common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=int, default=64)
    p.add_argument("--mode", choices=["greedy", "sample"], default="greedy")

    p = sub.add_parser("parse", help="parse a transcript file to JSON-Lines")
    out_only(p)
    p.add_argument("--input", required=True, help="transcript file")

    p = sub.add_parser("advantages", help="compute per-turn advantages")
    out_only(p)
    p.add_argument("--input", required=True, help="trajectory JSON-Lines file")
    p.add_argument("--values", required=True, help="value-table checkpoint")
    p.add_argument("--policy", help="policy checkpoint for switch probabilities")
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--lambda-low", dest="lambda_low", type=float, default=0.95)
    p.add_argument("--lambda-high", dest="lambda_high", type=float, default=0.95)

    p = sub.add_parser("verify", help="run a verification gate")
    common(p)
    p.add_argument("mode", choices=["telescope", "unbiased", "variance",
                                    "gradcheck", "critic-fixpoint"])
    p.add_argument("--trials", type=int, default=None,
                   help="trials / configs / fit epochs, depending on the mode "
                        "(default: 100 for gradcheck, else 10000)")
    p.add_argument("--samples", type=int, default=10000,
                   help="Monte-Carlo sample count for unbiased / variance")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "train":
            return cmd_train(args, flat=False)
        if args.command == "train-flat":
            return cmd_train(args, flat=True)
        if args.command == "rollout":
            return cmd_rollout(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "parse":
            return cmd_parse(args)
        if args.command == "advantages":
            return cmd_advantages(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
