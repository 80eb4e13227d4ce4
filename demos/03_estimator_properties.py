"""The three estimator guarantees, demonstrated numerically.

1. With mixing weights 1 the backward-recursive estimators equal their
   telescoped closed forms on arbitrary trajectories and tables.
2. With exact value tables the sampled policy gradient is unbiased: every
   coordinate of the Monte-Carlo mean sits within a few standard errors of
   the exhaustively enumerated gradient.
3. The segment-aware advantage has lower variance than whole-episode GAE at
   every turn, strictly so when subgoals carry return information.
"""

import numpy as np

from segrl import FetchChain, GAEConfig, fetchchain_phased
from segrl.oracle import (mc_gradient_hae, oracle_gradient, oracle_values,
                          solve_dp, switching_exactness_report,
                          telescope_check, unbiasedness, variance_reports)

env = FetchChain(length=3, horizon=6)
params = fetchchain_phased(env, np.random.default_rng(12345))
dp = solve_dp(env, params, gamma=1.0)   # one exact solve serves every oracle below
values = oracle_values(dp)

print("-- telescoping identities on 2000 random trajectories --")
rep = telescope_check(trials=2000, seed=0)
print(f"max deviation: low {rep.max_dev_low:.2e}  high {rep.max_dev_high:.2e}")

print("\n-- switching advantage equals its brute-force definition --")
sw = switching_exactness_report(dp)
print(f"max deviation {sw.max_abs_dev:.2e} over {sw.n_contexts} contexts")

print("\n-- unbiasedness of the sampled gradient (50k episodes) --")
cfg = GAEConfig(gamma=1.0, lambda_low=1.0, lambda_high=1.0)
mc, = mc_gradient_hae(env, params, values.tables, [(cfg, 50000)], seed=1)
ub = unbiasedness(mc, oracle_gradient(dp))
print(f"max |z| = {ub.max_z:.2f} over {ub.n_coords} coordinates "
      f"(gate {ub.gate} SE): {'OK' if ub.passed else 'FAILED'}")

print("\n-- variance: segment-aware vs whole-episode advantages --")
print(" t   var(segment)  var(flat)   95% CI of the difference")
for vr in variance_reports(env, params, values, range(env.horizon), n=8000,
                           seed=2):
    print(f" {vr.t}    {vr.var_low:9.4f}  {vr.var_flat:9.4f}   "
          f"[{vr.ci_diff[0]:+.4f}, {vr.ci_diff[1]:+.4f}]")
print("negative upper bounds: the reduction is statistically unambiguous")
