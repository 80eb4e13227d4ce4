"""Episode anatomy: turns, switch decisions, segments, macro-steps.

Rolls a uniform policy on the fetch-and-deliver chain and walks through the
segment structure that every estimator in the library consumes.
"""

from segrl import (FetchChain, PolicyParams, apply_keep_penalty,
                   episode_return, return_to_go, rollout_batch,
                   segment_boundaries, segment_views)

env = FetchChain(length=3, horizon=6)
params = PolicyParams.uniform(env.n_states, n_options=2, n_actions=env.n_actions)

traj = rollout_batch(env, params, n_episodes=1, seed=7).to_trajectories()[0]
print(f"episode of {traj.n_turns} turns, terminated={traj.terminated}")
for u in traj.turns:
    pos, carrying, clock = env.decode(u.state)
    word = "SWITCH" if u.q else "KEEP  "
    print(f"  t={u.t} pos={pos} carrying={int(carrying)} {word} "
          f"subgoal={u.subgoal} action={u.action} r={u.reward:+.1f}")

bounds = segment_boundaries(traj)
print(f"\nboundaries [b_0..b_K] = {bounds}")
gamma = 0.9
for seg in segment_views(traj, gamma):
    print(f"  segment {seg.k}: turns [{seg.start}, {seg.stop}) subgoal "
          f"{seg.subgoal}  macro-reward {seg.reward:+.3f}  "
          f"duration discount {seg.discount:.3f}")

# the macro-steps tile the discounted return exactly
total = sum(gamma ** seg.start * seg.reward for seg in segment_views(traj, gamma))
print(f"\nsum of offset macro-rewards {total:+.6f} "
      f"= episode return {episode_return(traj, gamma):+.6f}")
print(f"return to go from t=0: {return_to_go(traj, gamma, 0):+.6f}")

shaped = apply_keep_penalty(traj, c_keep=0.3)
keeps = sum(1 for u in traj.turns if u.q == 0)
print(f"\nafter the KEEP penalty (0.3 x {keeps} keep turns): "
      f"shaped return {episode_return(shaped, 1.0):+.2f} "
      f"vs raw {episode_return(traj, 1.0, raw=True):+.2f}")
