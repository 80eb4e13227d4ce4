"""Counter-based random streams for reproducible, order-independent sampling.

Every random draw in a rollout is a pure function of four integers:
(seed, episode, turn, head).  Episodes can therefore be generated in any
order, in parallel, one at a time or as a vectorized batch, and always
reproduce bit-identically.  The trainer's minibatch orders and the
fingerprint that keys its rollout streams are built on the same SplitMix64
finalizer (`counter_hash`, `_absorb`), so a training run draws nothing from
`numpy.random`.
"""

from __future__ import annotations

import numpy as np

# seeds are hashed as one uint64 word: 0 <= seed < SEED_BOUND
SEED_BOUND = 2 ** 64

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
    # splitmix64 finalizer, in place on the fresh uint64 array `x`; wraps
    # mod 2**64
    x ^= x >> _R30
    x *= _MIX1
    x ^= x >> _R27
    x *= _MIX2
    x ^= x >> _R31
    return x


def _absorb(h: np.ndarray, word) -> np.ndarray:
    word = np.atleast_1d(np.asarray(word, dtype=np.uint64))
    return _finalize(h ^ (word * _MIX1 + _GOLDEN))


def counter_hash(seed: int, *words) -> np.ndarray:
    """The 64-bit counter hash of `seed` and the integer `words`, as a uint64
    array at least 1-d.

    The words may be arrays that broadcast together; each is absorbed at its
    own broadcast shape (the seed once, then each word in turn), so a key
    that varies along few axes is mixed once per distinct value, and each
    entry equals the hash of its own keys.  The intermediate products wrap
    mod 2**64 by design; they stay on (at least) 1-d uint64 arrays because
    numpy would warn on wrapped scalar arithmetic.
    """
    h = _finalize(np.asarray([seed], dtype=np.uint64) + _GOLDEN)
    for word in words:
        h = _absorb(h, word)
    return h


def counter_uniform(seed: int, episode, turn, head):
    """Uniform in [0, 1) keyed by (seed, episode, turn, head).

    `episode`, `turn` and `head` may be integer arrays that broadcast
    together, in which case the result has the broadcast shape; the hash is
    elementwise (`counter_hash`), so each entry equals the scalar call on its
    keys.  53-bit mantissa resolution.
    """
    h = counter_hash(seed, episode, turn, head)
    u = (h >> _R11).astype(np.float64) * (2.0 ** -53)
    return float(u[0]) if all(np.ndim(k) == 0 for k in (episode, turn, head)) else u


def derive_seed(seed: int, *words: int) -> int:
    """Deterministically fold extra stream labels into a base seed."""
    return int(counter_hash(seed, *words)[0])
