"""Counter-based random streams for reproducible, order-independent sampling.

Every random draw in a rollout is a pure function of four integers:
(seed, episode, turn, head).  Episodes can therefore be generated in any
order, in parallel, one at a time or as a vectorized batch, and always
reproduce bit-identically.
"""

from __future__ import annotations

import numpy as np

HEAD_SWITCH = 0
HEAD_SUBGOAL = 1
HEAD_ACTION = 2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_R30 = np.uint64(30)
_R27 = np.uint64(27)
_R31 = np.uint64(31)
_R11 = np.uint64(11)


def _finalize(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; wraps mod 2**64 on uint64 arrays
    x = (x ^ (x >> _R30)) * _MIX1
    x = (x ^ (x >> _R27)) * _MIX2
    return x ^ (x >> _R31)


def _absorb(h: np.ndarray, word) -> np.ndarray:
    return _finalize(h ^ (np.asarray(word, dtype=np.uint64) * _MIX1 + _GOLDEN))


def counter_uniform(seed: int, episode, turn, head):
    """Uniform in [0, 1) keyed by (seed, episode, turn, head).

    `episode`, `turn` and `head` may be integer arrays that broadcast
    together, in which case the result has the broadcast shape; the hash is
    elementwise, so each entry equals the scalar call on its keys.  53-bit
    mantissa resolution.

    The intermediate products wrap mod 2**64 by design; computations stay
    on (at least) 1-d uint64 arrays because numpy would warn on wrapped
    scalar arithmetic.
    """
    keys = np.broadcast_arrays(*(np.asarray(k, dtype=np.uint64)
                                 for k in (episode, turn, head)))
    scalar = keys[0].ndim == 0
    ep, t, hd = (np.atleast_1d(k) for k in keys)
    h = _finalize(np.full_like(ep, np.uint64(seed)) + _GOLDEN)
    h = _absorb(h, ep)
    h = _absorb(h, t)
    h = _absorb(h, hd)
    u = (h >> _R11).astype(np.float64) * (2.0 ** -53)
    return float(u[0]) if scalar else u


def derive_seed(seed: int, *words: int) -> int:
    """Deterministically fold extra stream labels into a base seed."""
    h = _finalize(np.asarray([seed], dtype=np.uint64) + _GOLDEN)
    for w in words:
        h = _absorb(h, np.asarray([w], dtype=np.uint64))
    return int(h[0])


class CounterRng:
    """Per-episode view over the counter stream used by a single rollout."""

    def __init__(self, seed: int, episode: int = 0):
        self.seed = int(seed)
        self.episode = int(episode)

    def uniform(self, turn: int, head: int) -> float:
        return counter_uniform(self.seed, self.episode, turn, head)

    def __repr__(self) -> str:
        return f"CounterRng(seed={self.seed}, episode={self.episode})"
