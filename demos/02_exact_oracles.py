"""Exact expectation engines: enumeration, value tables, exact gradients.

Everything here is computed twice, through independent routes, and agrees
to float precision: the enumeration of every episode as one weighted table on one side, a layered
dynamic program over (state, subgoal) occupancies on the other.
"""

import numpy as np

from segrl import FetchChain, OneStep, PolicyParams, enumeration_table
from segrl.oracle import (objective, objective_enumerated, oracle_gradient,
                          oracle_gradient_enumerated, oracle_values,
                          oracle_values_enumerated, success_probability)

rng = np.random.default_rng(3)

one = OneStep(n_actions=2, reward=10.0)
params = PolicyParams.uniform(one.n_states, n_options=2, n_actions=2)
tt = enumeration_table(one, params)
print(f"single-decision env: {tt.n_episodes} trajectories, "
      f"total probability {tt.weight.sum():.12f}")
vals = oracle_values(one, params, gamma=1.0)
print(f"constant reward 10 -> every defined value is 10: "
      f"v_high={vals.v_high[0]:.6f} v_low={vals.v_low[0].tolist()}")

env = FetchChain(length=2, horizon=4)
params = PolicyParams.random(rng, env.n_states, 2, env.n_actions, scale=0.7)
gamma = 0.9

j_leaf = objective_enumerated(env, params, gamma)
j_dp = objective(env, params, gamma)
print(f"\nfetch chain objective: leaf route {j_leaf:+.12f}  "
      f"layered route {j_dp:+.12f}  (diff {abs(j_leaf - j_dp):.1e})")

g_leaf = oracle_gradient_enumerated(env, params, gamma)
g_dp = oracle_gradient(env, params, gamma)
print(f"exact gradient, max coordinate gap between routes: "
      f"{np.max(np.abs(g_leaf.as_vector() - g_dp.as_vector())):.2e}")

v_leaf = oracle_values_enumerated(env, params, gamma)
v_dp = oracle_values(env, params, gamma)
print(f"value tables, max gap: "
      f"{np.max(np.abs(v_leaf.v_low - v_dp.v_low)):.2e}")

print(f"\nexact success probability under this policy: "
      f"{success_probability(env, params):.6f}")
