"""Acceptance suite: one test per verification gate, at full size.

Each test prints a single PASS line (visible with `pytest -s`) and pins the
gate's tolerance.  Expected wall time for the whole module is a few
minutes; the heavy fixtures are shared at module scope.

Statistical gates run on a fixed, phase-structured random policy (seed
12345): it keeps every reachable decision's visitation rate high enough at
the pinned sample sizes for the normal-approximation gates to be sound,
while subgoals carry genuine return information.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from segrl.batch import batch_stats, rollout_batch
from segrl.critic import (CriticBatch, ValueTables, fit_critic,
                          single_coupling_rows)
from segrl.envs import FetchChain, OneStep
from segrl.gradcheck import gradcheck_report
from segrl.oracle import (exact_critic_batch, mc_gradient_hae, oracle_gradient,
                          oracle_values, solve_dp,
                          switching_exactness_report, telescope_check,
                          unbiasedness, variance_reports)
from segrl.parsing import (FORMAT_PENALTY, ingest_log, ingest_transcript_file,
                           parse_blocks, read_transcript)
from segrl.policy import PolicyParams, fetchchain_phased
from segrl.training import PPOConfig, train, train_flat_baseline

import spec
from spec import score_expectation_enumerated, segment_boundaries

DATA = Path(__file__).parent / "data"
POLICY_SEED = 12345


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def bench():
    env = FetchChain(3, 6)
    params = fetchchain_phased(env, np.random.default_rng(POLICY_SEED))
    values = oracle_values(solve_dp(env, params, gamma=1.0))
    return env, params, values


def test_c01_telescoping_low():
    start = time.time()
    rep = telescope_check(trials=10000, seed=20)
    elapsed = time.time() - start
    assert rep.max_dev_low <= 1e-10, rep.max_dev_low
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    report("criterion 1 telescoping (low)",
           f"max dev {rep.max_dev_low:.2e} over {rep.trials} trials, "
           f"{elapsed:.1f}s")


def test_c02_telescoping_high():
    start = time.time()
    rep = telescope_check(trials=10000, seed=21)
    elapsed = time.time() - start
    assert rep.max_dev_high <= 1e-10, rep.max_dev_high
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    report("criterion 2 telescoping (high)",
           f"max dev {rep.max_dev_high:.2e} over {rep.trials} trials, "
           f"{elapsed:.1f}s")


def test_c03_switching_exactness(bench):
    env, params, _ = bench
    start = time.time()
    rep = switching_exactness_report(solve_dp(env, params, gamma=1.0), tol=1e-10)
    elapsed = time.time() - start
    assert rep.passed, rep.max_abs_dev
    assert rep.n_contexts >= 50
    assert elapsed < 60.0
    report("criterion 3 switching exactness",
           f"max dev {rep.max_abs_dev:.2e} over {rep.n_contexts} "
           f"(t, context) pairs, {elapsed:.1f}s")


def test_c04_gradient_unbiasedness(bench):
    env, params, _ = bench
    start = time.time()
    # the pair `segrl verify unbiased` runs, on one solve
    cfg = PPOConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0)
    dp = solve_dp(env, params, cfg.gamma)
    mc, = mc_gradient_hae(env, params, oracle_values(dp).tables, [(cfg, 200000)],
                          seed=11)
    rep = unbiasedness(mc, oracle_gradient(dp), gate=4.0)
    elapsed = time.time() - start
    assert rep.passed, (rep.max_z, rep.n_failed)
    assert elapsed < 300.0
    report("criterion 4 gradient unbiasedness",
           f"N={rep.n}, max |z| {rep.max_z:.2f} over {rep.n_coords} "
           f"coordinates (gate 4 SE), {elapsed:.1f}s")


def test_c05_variance_reduction(bench):
    env, params, values = bench
    start = time.time()
    worst_upper = -np.inf
    for seed in (1, 2, 3):
        for rep in variance_reports(env, params, values, range(env.horizon),
                                    n=10000, seed=seed):
            assert rep.reduction_confirmed, (seed, rep.t, rep.ci_diff)
            worst_upper = max(worst_upper, rep.ci_diff[1])
    # equality case: a single subgoal that is never switched away carries no
    # information, and the two estimators coincide
    eq_params = PolicyParams.uniform(env.n_states, 1, env.n_actions)
    eq_params.switch[:, :, 0] = 30.0
    eq_values = oracle_values(solve_dp(env, params=eq_params, gamma=1.0))
    overlaps = []
    for rep in variance_reports(env, eq_params, eq_values, range(env.horizon),
                                n=10000, seed=4):
        overlaps.append(spec.overlapping(rep))
        assert abs(rep.var_low - rep.var_flat) < 1e-10
    assert all(overlaps)
    elapsed = time.time() - start
    assert elapsed < 300.0
    report("criterion 5 variance reduction",
           f"all t and 3 seeds reduced (worst CI upper {worst_upper:+.3f}); "
           f"equality case overlaps, {elapsed:.1f}s")


def test_c06_analytic_gradients():
    start = time.time()
    rep = gradcheck_report(n_configs=100, seed=42)
    elapsed = time.time() - start
    assert rep["max_rel_err"] <= 1e-6, rep
    assert elapsed < 60.0
    report("criterion 6 analytic gradients",
           f"max rel err {rep['max_rel_err']:.2e} over {rep['configs']} "
           f"configurations (h=1e-5), {elapsed:.1f}s")


def test_c07_critic_fixed_point(bench):
    env, params, _ = bench
    gamma = 0.97
    start = time.time()
    dp = solve_dp(env, params, gamma)
    values, batch = oracle_values(dp), exact_critic_batch(dp)
    tables = ValueTables.zeros(env.n_states, params.n_options)
    fitted, _ = fit_critic(tables, batch, lr=0.5, epochs=500)
    dev_hi = np.max(np.abs(fitted.v_high - values.v_high)[values.high_defined])
    dev_lo = np.max(np.abs(fitted.v_low - values.v_low)[values.low_defined])
    assert dev_hi <= 1e-3 and dev_lo <= 1e-3, (dev_hi, dev_lo)
    # flat critic: regression on observed returns over the exact measure
    w = dp.occ.sum(axis=(0, 2))
    g = np.sum(dp.occ * dp.g_low, axis=(0, 2))
    # one uncoupled row per state toward its mean return (a flat batch)
    mean_g = np.divide(g, w, out=np.zeros_like(g), where=w > 0)
    states = np.arange(env.n_states)
    flat_batch = CriticBatch.from_rows(
        single_coupling_rows(states, w, mean_g, np.full(env.n_states, -1),
                             np.zeros(env.n_states)), env.n_states, 0)
    flat, _ = fit_critic(ValueTables.zeros(env.n_states, 0), flat_batch, lr=0.5,
                         epochs=500)
    dev_flat = np.max(np.abs(flat.v_high - values.v_flat)[values.flat_defined])
    assert dev_flat <= 1e-3, dev_flat
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("criterion 7 critic fixed point",
           f"sup devs high {dev_hi:.1e} low {dev_lo:.1e} flat {dev_flat:.1e} "
           f"after 500 epochs, {elapsed:.1f}s")


def test_c08_score_identity():
    start = time.time()
    env = FetchChain(3, 4)
    params = fetchchain_phased(env, np.random.default_rng(POLICY_SEED))
    dev = np.abs(score_expectation_enumerated(env, params).theta).max()
    one = OneStep(n_actions=3)
    p1 = PolicyParams.random(np.random.default_rng(1), one.n_states, 2,
                             one.n_actions)
    dev = max(dev, np.abs(score_expectation_enumerated(one, p1).theta).max())
    elapsed = time.time() - start
    assert dev <= 1e-10, dev
    assert elapsed < 60.0
    report("criterion 8 score identity",
           f"max |E[score]| {dev:.2e} over full enumerations, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def training_runs():
    env = FetchChain(5, 20)
    runs = {}
    for seed in (0, 1, 2):
        cfg = PPOConfig(seed=seed, iterations=300, episodes_per_iter=64)
        start = time.time()
        runs[seed] = (train(cfg, env), time.time() - start,
                      train_flat_baseline(cfg, env))
    return env, runs


def test_c09_end_to_end_training(training_runs):
    env, runs = training_runs
    lines = []
    for seed, (hier, elapsed, flat) in runs.items():
        first = next((r.iteration for r in hier.metrics if r.success >= 0.9),
                     None)
        assert first is not None and first < 300, f"seed {seed}"
        assert elapsed < 600.0, f"seed {seed}: {elapsed:.0f}s"
        flat_first = next((r.iteration for r in flat.metrics
                           if r.success >= 0.9), None)
        # directional comparison, reported but not gated
        comparison = ("no later than flat" if flat_first is None
                      or first <= flat_first else "later than flat")
        lines.append(f"seed {seed}: threshold at iter {first} "
                     f"(flat: {flat_first}), {comparison}, {elapsed:.0f}s")
    report("criterion 9 end-to-end training",
           "greedy success >= 0.9 on 3/3 seeds; " + "; ".join(lines))


def test_c10_parser_conformance():
    start = time.time()
    # both full transcripts round-trip through the per-turn parser clean
    for name, n_turns in (("transcript_cool_cup.txt", 10),
                          ("transcript_clean_knife.txt", 7)):
        records = read_transcript((DATA / name).read_text())
        assert len(records) == n_turns
        for text, _, _ in records:
            _, verdict = parse_blocks(text)
            assert verdict.valid, (name, verdict.violations)
    # and reproduce the switch/keep boundary structure shown
    cool = ingest_transcript_file(DATA / "transcript_cool_cup.txt")
    assert segment_boundaries(spec.records(cool.table)[0]) == [0, 4, 6, 9, 10]
    knife = ingest_transcript_file(DATA / "transcript_clean_knife.txt")
    assert segment_boundaries(spec.records(knife.table)[0]) == [0, 3, 5, 7]
    # mutated corpus: each violation class costs exactly one 0.1 penalty
    base = read_transcript((DATA / "transcript_clean_knife.txt").read_text())
    mutants = {
        "missing-block": base[1][0].replace("<switch>KEEP</switch>", ""),
        "wrong-order": "<action>go to diningtable 2</action>"
                       "<switch>KEEP</switch><subgoal>find a knife</subgoal>",
        "bad-switch-value": base[1][0].replace("KEEP", "PERHAPS"),
        "keep-altered-subgoal": base[1][0].replace("find a knife",
                                                   "find a spoon"),
    }
    for label, text in mutants.items():
        # two-turn episode so the mutation cannot cascade into later turns
        lines = [base[0], (text, 0.0, True)]
        result = ingest_log(lines)
        assert not result.verdicts[1].valid, label
        assert result.verdicts[1].penalty == pytest.approx(FORMAT_PENALTY), label
        assert result.total_penalty == pytest.approx(FORMAT_PENALTY), label
        shaped = spec.records(result.table)[0].turns[1]
        assert shaped.raw_reward - shaped.reward == pytest.approx(FORMAT_PENALTY)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("criterion 10 parser conformance",
           f"fixtures clean; 4 mutation classes each cost 0.1, {elapsed:.2f}s")


def test_c11_switching_diagnostics(training_runs):
    env, runs = training_runs
    hier, _, _ = runs[0]
    # the emitted per-iteration diagnostics exist and are in range
    for row in hier.metrics:
        assert 0.0 <= row.switch_rate <= 1.0
        assert row.mean_segments >= 1.0
    # structural identity, checked against independently recomputed episode
    # lengths: segments * mean segment length = mean episode length
    tt = rollout_batch(env, hier.params, 256, seed=987, c_keep=0.3)
    st = batch_stats(tt, goal_state=env.goal_state)
    mean_len = float(np.mean([t.n_turns for t in spec.records(tt)]))
    segs = [len(segment_boundaries(t)) - 1 for t in spec.records(tt)]
    assert st.mean_segments == pytest.approx(np.mean(segs), rel=1e-12)
    product = st.mean_segments * st.mean_seg_len
    assert abs(product - mean_len) / mean_len <= 0.01
    report("criterion 11 switching diagnostics",
           f"mean_segments*mean_seg_len = {product:.3f} vs mean length "
           f"{mean_len:.3f} (<=1% rel)")
