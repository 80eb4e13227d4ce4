"""Tabular subgoal-switching reinforcement learning.

A small numpy library implementing a three-head (switch / subgoal / action)
tabular policy, segment-aware advantage estimation with a coupled two-head
critic, a PPO-style trainer, and brute-force oracles that verify the
estimator identities on exactly enumerable toy environments.
"""

__version__ = "0.1.0"

from .batch import advantage_arrays, flat_advantage_arrays, rollout_batch
from .core import (KEEP, SWITCH, InputError, MalformedTrajectory, TurnTable,
                   load_trajectories, save_trajectories)
from .critic import CriticBatch, ValueTables, fit_critic
from .envs import EnvModel, FetchChain, OneStep, make_env
from .oracle import (enumeration_table, mc_gradient_hae, objective,
                     oracle_gradient, oracle_values, solve_dp,
                     success_probability, switching_exactness_report,
                     telescope_check, unbiasedness, variance_reports)
from .parsing import (FormatVerdict, ParsedDecision, ParseFailure, ingest_log,
                      parse_blocks, render_decision)
from .policy import (CheckpointError, GradTables, PolicyParams,
                     fetchchain_phased, load_policy, save_policy)
from .rng import counter_uniform, derive_seed
from .training import (PPOConfig, TrainResult, evaluate, train,
                       train_flat_baseline)

__all__ = [name for name in dir() if not name.startswith("_")]
