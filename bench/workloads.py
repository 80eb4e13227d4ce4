"""The four benchmark workloads: inputs, one round of commands, and checks.

Every operation is one `segrl` subcommand called in-process through
`segrl.cli.dispatch`, the documented command-line interface, so the numbers
survive refactors below it.  A workload's `setup` writes the inputs the
program receives (config files, checkpoints, JSON-Lines files and
transcripts), all generated from the workload seed; `round` runs the same
list of commands every time and checks the outputs against `reference`.
`Ops` times every command, so a round's time and each command's share of it
come from the same calls.
"""

from __future__ import annotations

import gc
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
import segrl.cli as cli
from segrl.critic import ValueTables
from segrl.envs import FetchChain
from segrl.oracle import objective
from segrl.policy import PolicyParams, fetchchain_phased, save_policy


class Ops:
    """Runs commands, counting every call and every unexpected outcome.

    `failures` names the operations that raised or returned an unexpected
    exit code; `problems` names outputs that failed a check.  `busy` is the
    wall time spent inside the commands, and `by_command` splits it by
    command label (`train`, `verify-telescope`, ..., `malformed`).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.by_command: dict[str, float] = {}
        self.failures: dict[str, int] = {}
        self.problems: dict[str, int] = {}

    def problem(self, text: str) -> None:
        self.problems[text] = self.problems.get(text, 0) + 1

    def _fail(self, text: str) -> None:
        self.failed += 1
        self.failures[text] = self.failures.get(text, 0) + 1

    def run(self, argv: list[str], expect: int = 0, label: str | None = None
            ) -> float | None:
        """Seconds the command took, or None when it raised or returned an
        exit code other than `expect`.  `label` defaults to the subcommand,
        `verify-<gate>` for the gates."""
        if label is None:
            label = f"verify-{argv[1]}" if argv[0] == "verify" else argv[0]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # so that no command pays for the garbage of the checks
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.dispatch(argv)
        except Exception as exc:  # a failed operation; the round goes on
            self._fail(f"segrl {argv[0]}: raised {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = perf_counter() - start
            self.busy += elapsed
            self.by_command[label] = self.by_command.get(label, 0.0) + elapsed
        if rc != expect:
            self._fail(f"segrl {' '.join(argv[:2])}: exit {rc}, expected {expect}")
            return None
        return elapsed


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _params_as_lists(params: PolicyParams) -> dict:
    return {"switch": params.switch.tolist(), "subgoal": params.subgoal.tolist(),
            "action": params.action.tolist()}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, ops: Ops) -> None:
        raise NotImplementedError

    def _config(self, name: str, **keys) -> str:
        path = self.dir / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return str(path)


# -- training -------------------------------------------------------------------

def _check_training_run(ops: Ops, out: Path, env, iterations: int, label: str,
                        need_success: bool = False) -> None:
    header, rows = ref.read_metrics_csv(out / "metrics.csv")
    if header != ref.METRICS_HEADER:
        ops.problem(f"{label}: metrics.csv header {header!r}")
    if [int(r["iter"]) for r in rows] != list(range(iterations)):
        ops.problem(f"{label}: metrics.csv has {len(rows)} rows, not one per iteration")
        return
    replayed = ref.greedy_success(env, ref.read_policy(out / "policy-final.txt"))
    if replayed != rows[-1]["success"]:
        ops.problem(f"{label}: greedy replay success {replayed} != "
                    f"metrics.csv {rows[-1]['success']}")
    if need_success and not any(r["success"] >= 0.9 for r in rows):
        ops.problem(f"{label}: greedy success never reached 0.9")


class Train(Workload):
    """`segrl train` and `segrl train-flat` on FetchChain(5, 20), default config.

    50 iterations each, so that a run holds several rounds; the hierarchical
    trainer reaches greedy success 0.9 within its first ten iterations.
    """

    name = "train"
    iterations = 50

    def setup(self) -> None:
        self.env = FetchChain(5, 20)
        self.cfg = self._config("train.cfg", iterations=self.iterations, seed=self.seed)

    def round(self, ops):
        for command in ("train", "train-flat"):
            out = _fresh(self.dir / command)
            if ops.run([command, "--config", self.cfg, "--out", str(out)]) is None:
                continue
            _check_training_run(ops, out, self.env, self.iterations, command,
                                need_success=command == "train")


class TrainWide(Workload):
    """`segrl train` on FetchChain(15, 60): 1802 states, dense critic matrices."""

    name = "train-wide"
    iterations = 10

    def setup(self) -> None:
        self.env = FetchChain(15, 60)
        self.cfg = self._config("wide.cfg", **{"env.L": 15, "env.H": 60},
                                iterations=self.iterations, seed=self.seed)

    def round(self, ops):
        out = _fresh(self.dir / "train")
        if ops.run(["train", "--config", self.cfg, "--out", str(out)]) is None:
            return
        _check_training_run(ops, out, self.env, self.iterations, "train")
        v_high, v_low = ref.read_values(out / "values-final.txt")
        if not all(math.isfinite(v) for row in (v_high, *v_low) for v in row):
            ops.problem("train: values-final.txt holds non-finite values")


# -- verification gates ----------------------------------------------------------

# Tolerances pinned by tests/test_acceptance.py, and the sizes it runs at
# except for gradcheck, which checks 10 configurations rather than 100
# (100 take about 11 s, longer than the rest of the round together).
TELESCOPE_TRIALS, TELESCOPE_TOL = 10000, 1e-10
UNBIASED_SAMPLES, UNBIASED_GATE = 200000, 4.0
VARIANCE_SAMPLES = 10000
GRADCHECK_CONFIGS, GRADCHECK_TOL = 10, 1e-6
FIXPOINT_EPOCHS, FIXPOINT_GAMMA, FIXPOINT_TOL = 500, 0.97, 1e-3
# The Monte-Carlo gates are statistical tests: at a fresh seed the 4-SE gate
# over 532 coordinates fails about once in 30 seeds by chance.  They run at
# seeds the acceptance suite pins (c04: 11; c05: 1, the first of 1, 2, 3).
UNBIASED_SEED = 11
VARIANCE_SEED = 1


class Verify(Workload):
    """Every `segrl verify` gate, once each, on the phased FetchChain(3, 6)
    policy."""

    name = "verify"

    def setup(self) -> None:
        def gate(mode, sizes, **keys):
            cfg = self._config(f"{mode}.cfg", **keys)
            return mode, [*sizes.split(), "--config", cfg]

        self.gates = [
            gate("telescope", f"--trials {TELESCOPE_TRIALS}", seed=self.seed),
            gate("unbiased", f"--samples {UNBIASED_SAMPLES}", seed=UNBIASED_SEED),
            gate("variance", f"--samples {VARIANCE_SAMPLES}", seed=VARIANCE_SEED),
            gate("gradcheck", f"--trials {GRADCHECK_CONFIGS}", seed=self.seed),
            gate("critic-fixpoint", f"--trials {FIXPOINT_EPOCHS}",
                 gamma=FIXPOINT_GAMMA, seed=self.seed),
        ]
        self.enumerated = False

    def round(self, ops):
        out = _fresh(self.dir / "reports")
        for mode, args in self.gates:
            if ops.run(["verify", mode, *args, "--out", str(out)]) is None:
                continue
            report = json.loads((out / f"{mode}.json").read_text())
            if report.get("passed") is not True:
                ops.problem(f"verify {mode}: report does not say passed")
            for problem in _gate_problems(mode, report):
                ops.problem(f"verify {mode}: {problem}")
        if not self.enumerated:  # a deterministic check; once per process
            self.enumerated = True
            self._check_objective(ops)

    def _check_objective(self, ops: Ops) -> None:
        env = FetchChain(3, 4)
        params = fetchchain_phased(env, np.random.default_rng(self.seed))
        gamma = 0.97
        exact = ref.enumerated_objective(env, _params_as_lists(params), gamma)
        got = objective(env, params, gamma)
        if not abs(exact - got) <= 1e-10:
            ops.problem(f"oracle.objective {got!r} != enumerated {exact!r}")


def _gate_problems(mode: str, rep: dict) -> list[str]:
    """Re-check each report against the acceptance suite's pinned tolerances."""
    if mode == "telescope":
        ok = (rep["trials"] == TELESCOPE_TRIALS and rep["tol"] == TELESCOPE_TOL
              and max(rep["max_dev_low"], rep["max_dev_high"],
                      rep["switching_max_dev"]) <= TELESCOPE_TOL
              and rep["switching_contexts"] >= 50)
    elif mode == "unbiased":
        ok = (rep["n"] == UNBIASED_SAMPLES and rep["gate"] == UNBIASED_GATE
              and rep["n_failed"] == 0 and rep["max_z"] <= UNBIASED_GATE)
    elif mode == "variance":
        ok = len(rep["rows"]) == 6 and all(
            r["reduced"] and r["ci_diff_upper"] <= 0.0 for r in rep["rows"])
    elif mode == "gradcheck":
        ok = (rep["configs"] == GRADCHECK_CONFIGS
              and rep["max_rel_err"] <= GRADCHECK_TOL)
    else:
        ok = (rep["epochs"] == FIXPOINT_EPOCHS
              and max(rep["dev_high"], rep["dev_low"]) <= FIXPOINT_TOL)
    return [] if ok else [f"outside the acceptance tolerance: {rep}"]


# -- file ingest ---------------------------------------------------------------------

INGEST_EPISODES = 250
# The rollout policy is the same for every seed, so that a round's amount of
# work does not depend on it: a phased policy drawn at another seed makes
# episodes up to 15% slower to roll.  `--seed` seeds the rollout's streams,
# the value tables and the transcripts.
POLICY_SEED = 0
TRANSCRIPTS, TRANSCRIPT_TURNS = 60, 300
ADVANTAGE_GAMMAS = (0.97, 0.9, 1.0)
SUBGOALS = ("find a knife", "go to the sink", "clean the knife", "open the drawer",
            "put the knife away", "check the countertop")
ACTIONS = ("go to countertop 1", "take knife 1 from countertop 1",
           "go to sinkbasin 1", "clean knife 1 with sinkbasin 1", "open drawer 2",
           "put knife 1 in drawer 2", "close drawer 2", "look", "inventory",
           "go to diningtable 1", "examine knife 1", "go to cabinet 3")

# Malformed inputs: fixed content, independent of the seed.  Each must be
# refused with exit code 2.
BAD_EPISODE = [  # state id -1, and a KEEP turn that changes the subgoal
    {"t": 0, "state": 0, "prev_subgoal": None, "q": 1, "subgoal": 0,
     "subgoal_text": None, "action": 1, "reward": 0.0, "raw_reward": 0.0, "done": False},
    {"t": 1, "state": -1, "prev_subgoal": 0, "q": 0, "subgoal": 1,
     "subgoal_text": None, "action": 1, "reward": 0.0, "raw_reward": 0.0, "done": True},
]
NO_ACTION_TRANSCRIPT = ("<switch>SWITCH</switch>\n<subgoal>find a knife</subgoal>\n"
                        "<action>go to countertop 1</action>\n\n"
                        "<switch>KEEP</switch>\n<subgoal>find a knife</subgoal>\n"
                        "@done\n")


class Ingest(Workload):
    """`segrl rollout`, `segrl advantages` and `segrl parse` over files."""

    name = "ingest"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.env = FetchChain(5, 20)
        d = self.dir
        self.cfg = self._config("ingest.cfg", seed=self.seed)
        params = fetchchain_phased(self.env, np.random.default_rng(POLICY_SEED))
        self.policy_path = str(d / "policy.txt")
        save_policy(self.policy_path, params)
        self.policy = _params_as_lists(params)
        v_high = rng.standard_normal(self.env.n_states)
        v_low = rng.standard_normal((self.env.n_states, params.n_options))
        self.values_path = str(d / "values.txt")
        cli.save_values(self.values_path, ValueTables(v_high, v_low))
        self.values = (v_high.tolist(), v_low.tolist())
        self.transcripts = []
        for k in range(TRANSCRIPTS):
            decisions = _random_decisions(rng, TRANSCRIPT_TURNS)
            path = d / f"transcript-{k:02d}.txt"
            path.write_text(ref.render_transcript(decisions))
            self.transcripts.append((str(path), decisions))
        self._malformed_inputs()

    def _malformed_inputs(self) -> None:
        d = self.dir
        uniform = PolicyParams.uniform(self.env.n_states, 2, self.env.n_actions)
        save_policy(d / "uniform-policy.txt", uniform)
        cli.save_values(d / "zero-values.txt",
                        ValueTables.zeros(self.env.n_states, 2))
        lines = (d / "uniform-policy.txt").read_text().splitlines(keepends=True)
        (d / "truncated-policy.txt").write_text("".join(lines[:len(lines) // 2]))
        (d / "bad.jsonl").write_text("".join(json.dumps(t) + "\n" for t in BAD_EPISODE))
        (d / "no-action.txt").write_text(NO_ACTION_TRANSCRIPT)
        self.malformed = [
            ["advantages", "--input", str(d / "bad.jsonl"),
             "--values", str(d / "zero-values.txt"),
             "--policy", str(d / "uniform-policy.txt"), "--out", str(d / "bad-adv")],
            ["parse", "--input", str(d / "no-action.txt"), "--out", str(d / "bad-parse")],
            ["eval", "--policy", str(d / "truncated-policy.txt"), "--episodes", "4"],
        ]

    def round(self, ops):
        d = self.dir
        out = _fresh(d / "rollout")
        if ops.run(["rollout", "--config", self.cfg, "--policy", self.policy_path,
                    "--episodes", str(INGEST_EPISODES), "--out", str(out)]) is not None:
            jsonl = out / "trajectories.jsonl"
            episodes = ref.read_episodes(jsonl)
            self._check_rollout(ops, episodes)
            for gamma in ADVANTAGE_GAMMAS:
                adv_out = _fresh(d / "advantages")
                if ops.run(["advantages", "--input", str(jsonl),
                            "--values", self.values_path, "--policy", self.policy_path,
                            "--gamma", repr(gamma), "--lambda-low", "1",
                            "--lambda-high", "1", "--out", str(adv_out)]) is not None:
                    self._check_advantages(ops, episodes, adv_out / "advantages.jsonl",
                                           gamma)
        for k, (path, decisions) in enumerate(self.transcripts):
            out = _fresh(d / "parse")
            if ops.run(["parse", "--input", path, "--out", str(out)]) is not None:
                self._check_parse(ops, k, decisions, out / "trajectory.jsonl")
        for argv in self.malformed:
            ops.run(argv, expect=2, label="malformed")

    def _check_rollout(self, ops, episodes):
        if len(episodes) != INGEST_EPISODES:
            ops.problem(f"rollout: {len(episodes)} episodes, asked for {INGEST_EPISODES}")
        for i, ep in enumerate(episodes):
            for problem in ref.invariant_problems(ep) + ref.replay_problems(self.env, ep):
                ops.problem(f"rollout episode {i}: {problem}")

    def _check_advantages(self, ops, episodes, path, gamma):
        with open(path, encoding="utf-8") as fp:
            got = [json.loads(line) for line in fp]
        want = [rec for ep in episodes for rec in ref.closed_form_advantages(
            ep, *self.values, self.policy, gamma)]
        if len(got) != len(want):
            ops.problem(f"advantages: {len(got)} records for {len(want)} turns")
            return
        worst = 0.0
        for g, w in zip(got, want):
            for key in ("A_low", "A_high", "A_switch"):
                if (g[key] is None) != (w[key] is None):
                    ops.problem(f"advantages: {key} presence differs at t={w['t']}")
                    return
                if w[key] is not None:
                    worst = max(worst, abs(g[key] - w[key]))
        if not worst <= 1e-10:
            ops.problem(f"advantages at gamma {gamma}: closed forms differ by {worst:.3g}")

    def _check_parse(self, ops, k, decisions, path):
        episode, = ref.read_episodes(path)
        want_bounds = [t for t, (q, *_) in enumerate(decisions)
                       if t == 0 or q == ref.SWITCH]
        got_bounds = [turn["t"] for turn in episode if turn["q"] == ref.SWITCH]
        if got_bounds != want_bounds:
            ops.problem(f"parse transcript {k}: segment boundaries differ")
        if [turn["action"] for turn in episode] != ref.intern(a for _, _, a, _ in decisions):
            ops.problem(f"parse transcript {k}: action sequence differs")
        if [turn["raw_reward"] for turn in episode] != [r for *_, r in decisions]:
            ops.problem(f"parse transcript {k}: rewards differ")


def _random_decisions(rng, n_turns: int) -> list[tuple[int, str, str, float]]:
    """A decision sequence: SWITCH picks any subgoal (possibly the same one),
    KEEP repeats the current one; a +10 reward on the last turn."""
    decisions, subgoal = [], None
    for t in range(n_turns):
        q = ref.SWITCH if t == 0 or rng.random() < 0.3 else ref.KEEP
        if q == ref.SWITCH:
            subgoal = SUBGOALS[int(rng.integers(len(SUBGOALS)))]
        action = ACTIONS[int(rng.integers(len(ACTIONS)))]
        reward = 10.0 if t == n_turns - 1 else float(rng.choice([0.0, -0.1]))
        decisions.append((q, subgoal, action, reward))
    return decisions


WORKLOADS = {w.name: w for w in (Train, TrainWide, Verify, Ingest)}
