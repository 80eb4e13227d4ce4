"""Episode anatomy: turns, switch decisions, segments, macro-steps.

Rolls a uniform policy on the fetch-and-deliver chain and walks through the
segment structure that every estimator in the library consumes, read from
the padded `TurnTable` columns the kernels work on.
"""

import numpy as np

from segrl import KEEP, FetchChain, PolicyParams, rollout_batch
from segrl.batch import returns_matrix, segment_masks

env = FetchChain(length=3, horizon=6)
params = PolicyParams.uniform(env.n_states, n_options=2, n_actions=env.n_actions)

tt = rollout_batch(env, params, n_episodes=1, seed=7)
n = int(tt.length[0])
reward = tt.reward[0, :n]
print(f"episode of {n} turns, terminated={bool(tt.terminated[0])}")
for t in range(n):
    pos, carrying, clock = env.decode(int(tt.state[0, t]))
    word = "SWITCH" if tt.q[0, t] else "KEEP  "
    print(f"  t={t} pos={pos} carrying={int(carrying)} {word} "
          f"subgoal={tt.subgoal[0, t]} action={tt.action[0, t]} r={reward[t]:+.1f}")

sm = segment_masks(tt)
starts = np.flatnonzero(sm.is_boundary[0]).tolist()
print(f"\nboundaries [b_0..b_K] = {starts + [n]}")
gamma = 0.9
total = 0.0
for k, start in enumerate(starts):
    stop = int(sm.seg_end[0, start])
    macro = float(np.dot(gamma ** np.arange(stop - start), reward[start:stop]))
    total += gamma ** start * macro
    print(f"  segment {k}: turns [{start}, {stop}) subgoal "
          f"{tt.subgoal[0, start]}  macro-reward {macro:+.3f}  "
          f"duration discount {gamma ** (stop - start):.3f}")

# the macro-steps tile the discounted return exactly
episode_return = float(np.dot(gamma ** np.arange(n), reward))
print(f"\nsum of offset macro-rewards {total:+.6f} "
      f"= episode return {episode_return:+.6f}")
print(f"return to go from t=0: {returns_matrix(tt, gamma)[0, 0]:+.6f}")

# the same episode (same seed) with the KEEP penalty charged by the rollout
shaped = rollout_batch(env, params, n_episodes=1, seed=7, c_keep=0.3)
keeps = int(np.sum(shaped.mask & (shaped.q == KEEP)))
print(f"\nafter the KEEP penalty (0.3 x {keeps} keep turns): "
      f"shaped return {shaped.reward[shaped.mask].sum():+.2f} "
      f"vs raw {shaped.raw_reward[shaped.mask].sum():+.2f}")
