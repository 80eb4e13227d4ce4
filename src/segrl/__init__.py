"""Tabular subgoal-switching reinforcement learning.

A small numpy library implementing a three-head (switch / subgoal / action)
tabular policy, segment-aware advantage estimation with a coupled two-head
critic, a PPO-style trainer, and brute-force oracles that verify the
estimator identities on exactly enumerable toy environments.
"""

__version__ = "0.1.0"

from .advantages import (GAEConfig, high_advantages, low_advantages,
                         low_td_residuals)
from .batch import TurnTable, advantage_arrays, rollout_batch
from .core import (KEEP, SWITCH, MalformedTrajectory, SegmentView, Trajectory,
                   TurnRecord, apply_keep_penalty, episode_return,
                   load_trajectories, return_to_go, save_trajectories,
                   segment_boundaries, segment_views, validate_trajectory)
from .critic import (CriticBatch, FlatCriticBatch, ValueTables, fit_critic,
                     fit_flat_critic, v_next)
from .envs import EnvModel, FetchChain, OneStep, make_env, optimal_return
from .oracle import (enumerate_trajectories, mc_gradient_hae, objective,
                     oracle_gradient, oracle_values, success_probability,
                     switching_exactness_report, telescope_check,
                     unbiasedness_report, variance_report)
from .parsing import (FormatVerdict, ParsedDecision, ParseFailure, ingest_log,
                      parse_blocks, render_decision)
from .policy import (CheckpointError, GradTables, PolicyParams,
                     fetchchain_expert, fetchchain_phased, load_policy,
                     save_policy, switch_prob)
from .rng import CounterRng, counter_uniform, derive_seed
from .training import (PPOConfig, TrainResult, evaluate, train,
                       train_flat_baseline)

__all__ = [name for name in dir() if not name.startswith("_")]
