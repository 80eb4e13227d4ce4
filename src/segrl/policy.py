"""Tabular softmax policy with three heads: switch, subgoal, action.

The switch head decides whether to terminate the active subgoal, the
subgoal head proposes a fresh subgoal on switch turns, and the action head
picks a primitive action conditioned on (state, subgoal).  All heads have
exact log-probabilities and analytic score-function gradients (computed
over a batch of turns by `batch.site_pass` and `batch.site_scores`), which
is what makes the brute-force verification suites possible.
"""

from __future__ import annotations

import math

import numpy as np

from .core import KEEP, SWITCH, InputError
from .envs import FetchChain, DROP, LEFT, PICKUP, RIGHT

CHECKPOINT_MAGIC = "segrl-policy v1"
TABLES = ("switch", "subgoal", "action")  # their order in `theta`


def _table_shapes(n_states: int, n_options: int, n_actions: int) -> tuple:
    """The shapes of the switch, subgoal and action tables."""
    return (n_states, n_options, 2), (n_states, n_options), (n_states, n_options, n_actions)


def policy_size(n_states: int, n_options: int, n_actions: int) -> int:
    """The number of logits of a policy of these sizes: its `theta`'s length."""
    return sum(math.prod(shape) for shape in _table_shapes(n_states, n_options, n_actions))


class _HeadTables:
    """The switch[s, o_prev, 2], subgoal[s, |O|] and action[s, o, |A|]
    tables as views of one float64 vector `theta`, laid out switch, subgoal,
    action, each row-major.  The constructor copies three tables into a
    fresh `theta`; `wrap` shares an existing vector, whose leading axes stay
    in front of every table."""

    def __init__(self, switch, subgoal, action):
        switch, subgoal, action = (np.asarray(x, dtype=np.float64)
                                   for x in (switch, subgoal, action))
        s, o = subgoal.shape
        if switch.shape != (s, o, 2):
            raise ValueError(f"switch table shape {switch.shape} != {(s, o, 2)}")
        if action.shape[:-1] != (s, o):
            raise ValueError("action table must be indexed by (state, subgoal)")
        self._bind(np.concatenate([switch.ravel(), subgoal.ravel(), action.ravel()]),
                   s, o, action.shape[-1])

    @classmethod
    def wrap(cls, theta: np.ndarray, like: "_HeadTables"):
        """The tables of `theta`, laid out as `like.theta` (leading axes
        allowed), sharing its memory."""
        return cls._of(np.asarray(theta, dtype=np.float64), like.n_states, like.n_options,
                       like.n_actions)

    @classmethod
    def _of(cls, theta: np.ndarray, *sizes: int):
        out = cls.__new__(cls)
        out._bind(theta, *sizes)
        return out

    def __reduce__(self):
        # pickle `theta` alone, so that the tables come back as views of it
        return self._of, (self.theta, self.n_states, self.n_options, self.n_actions)

    def _bind(self, theta: np.ndarray, *sizes: int) -> None:
        shapes = _table_shapes(*sizes)
        stops = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        if theta.shape[-1:] != (stops[-1],):
            raise ValueError(f"a vector of shape {theta.shape} does not hold {stops[-1]} logits")
        self.theta, (self.n_states, self.n_options, self.n_actions) = theta, sizes
        self.offsets = dict(zip(TABLES, [0] + stops[:-1]))
        for name, shape, start, stop in zip(TABLES, shapes, self.offsets.values(), stops):
            setattr(self, name, theta[..., start:stop].reshape(theta.shape[:-1] + shape))

    def locate(self, i: int) -> tuple[str, tuple[int, ...]]:
        """The table and the index within it of entry `i` of `theta`'s last
        axis."""
        name = [n for n in TABLES if self.offsets[n] <= i][-1]
        shape = getattr(self, name).shape[self.theta.ndim - 1:]
        return name, tuple(int(x) for x in np.unravel_index(i - self.offsets[name], shape))

    def copy(self):
        return self.wrap(self.theta.copy(), self)


class PolicyParams(_HeadTables):
    """Logit tables of a policy with at least one subgoal and one action,
    every entry finite."""

    def _bind(self, theta: np.ndarray, *sizes: int) -> None:
        super()._bind(theta, *sizes)
        if self.n_options < 1 or self.n_actions < 1:
            raise ValueError(f"a policy needs at least one subgoal and one action, "
                             f"got {self.n_options} subgoals and {self.n_actions} actions")
        finite = np.isfinite(self.theta)
        if not finite.all():
            name, _ = self.locate(int(np.nonzero(~finite)[-1].min()))
            raise ValueError(f"non-finite entries in {name} logits")

    @classmethod
    def uniform(cls, n_states: int, n_options: int, n_actions: int) -> "PolicyParams":
        return cls(*map(np.zeros, _table_shapes(n_states, n_options, n_actions)))

    @classmethod
    def random(cls, rng: np.random.Generator, n_states: int, n_options: int,
               n_actions: int, scale: float = 1.0) -> "PolicyParams":
        return cls(*(scale * rng.standard_normal(shape)
                     for shape in _table_shapes(n_states, n_options, n_actions)))


class GradTables(_HeadTables):
    """A gradient wrt the logits, laid out as PolicyParams."""


# -- softmax helpers --------------------------------------------------------

def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - np.max(logits, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def _fetchchain_moves(env: FetchChain, n_options: int):
    """(state, the phase's subgoal, the optimal action) at each non-terminal
    state: subgoal 0 while fetching, subgoal 1 (when available) while
    returning."""
    fetch, deliver = 0, min(1, n_options - 1)
    for s in range(env.n_states):
        if env.is_terminal(s):
            continue
        pos, carrying, _ = env.decode(s)
        if carrying:
            yield s, deliver, DROP if pos == 0 else LEFT
        else:
            yield s, fetch, PICKUP if pos == env.length - 1 else RIGHT


def fetchchain_phased(env: FetchChain, rng: np.random.Generator,
                      n_options: int = 2, base: float = 2.5,
                      noise: float = 0.3) -> PolicyParams:
    """Random params structured like a partially trained FetchChain policy.

    Under the phase-matching subgoal the position-correct action gets a
    logit bonus of `base` (a soft expert); under any other subgoal actions
    stay near uniform, so subgoals carry real return information.  The
    subgoal head prefers the phase-appropriate subgoal and the switch head
    prefers keeping a matching one.  Gaussian noise of size `noise` is added
    everywhere.  Every decision keeps probability bounded away from zero, so
    sampled statistics at every reachable context stay well behaved.
    """
    params = PolicyParams.random(rng, env.n_states, n_options, env.n_actions,
                                 scale=noise)
    for s, phase, best in _fetchchain_moves(env, n_options):
        params.action[s, phase, best] += base
        params.subgoal[s, phase] += 0.5
        for o_prev in range(n_options):
            params.switch[s, o_prev, SWITCH if o_prev != phase else KEEP] += 0.3
    return params


# -- checkpoint format ------------------------------------------------------
#
# Text file, stable across versions:
#   line 1: "segrl-policy v1"
#   line 2: "<n_states> <n_options> <n_actions>"
#   then, for each of the tables switch / subgoal / action:
#     a line "table <name> <count>" followed by <count> lines, one value
#     each (repr round-trips float64 exactly), in row-major order.
# Value-table checkpoints (`cli.save_values`) share the layout with the
# magic "segrl-values v1", sizes "<n_states> <n_options>" and the tables
# v_high / v_low.

class CheckpointError(InputError):
    """A policy or value-table checkpoint is truncated or does not parse."""


def write_checkpoint(path, magic: str, sizes, tables: dict[str, np.ndarray]) -> None:
    """A text checkpoint in the layout above: `sizes` on the sizes line, then
    `tables` in order."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f"{magic}\n{' '.join(map(str, sizes))}\n")
        for name, table in tables.items():
            fp.write(f"table {name} {table.size}\n")
            fp.writelines(f"{v!r}\n" for v in table.ravel().tolist())


def read_checkpoint(path, magic: str, shapes) -> dict[str, np.ndarray]:
    """The tables of a text checkpoint in the layout above.

    `shapes` maps the integers of the sizes line to {table name: shape}, in
    file order.  Raises CheckpointError naming the line when the file is
    truncated, a line does not parse or does not match the declared shapes,
    a value is nan or infinite, or anything but blank lines follows the last
    table.
    """
    with open(path, "r", encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if not lines or lines[0].strip() != magic:
        raise CheckpointError(f"{path}: not a {magic!r} checkpoint")
    pos = 1  # index of the next unread line

    def take(n: int, what: str, conv) -> list:
        nonlocal pos
        if pos + n > len(lines):
            raise CheckpointError(f"{path}: truncated at line {len(lines) + 1}, "
                                  f"expected {what}")
        out = []
        for i in range(pos, pos + n):
            try:
                out.append(conv(lines[i]))
            except (ValueError, TypeError):
                raise CheckpointError(f"{path}, line {i + 1}: expected {what}, "
                                      f"got {lines[i]!r}") from None
        pos += n
        return out

    layout, = take(1, "the table sizes",
                   lambda text: shapes(*(_size(x) for x in text.split())))
    tables = {}
    for name, shape in layout.items():
        count = math.prod(shape)
        take(1, f"'table {name} {count}'",
             lambda text: _expect(text.split() == ["table", name, str(count)]))
        values = take(count, f"a finite value of table {name}", _finite)
        tables[name] = np.array(values, dtype=np.float64).reshape(shape)
    if any(line.strip() for line in lines[pos:]):
        raise CheckpointError(f"{path}, line {pos + 1}: unexpected content "
                              f"after the last table")
    return tables


def _size(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"negative size {n}")
    return n


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x}")
    return x


def _expect(ok: bool) -> None:
    if not ok:
        raise ValueError("unexpected line")


def save_policy(path, params: PolicyParams) -> None:
    write_checkpoint(path, CHECKPOINT_MAGIC,
                     (params.n_states, params.n_options, params.n_actions),
                     {name: getattr(params, name) for name in TABLES})


def _policy_shapes(n_s: int, n_o: int, n_a: int) -> dict:
    if n_o < 1 or n_a < 1:
        raise ValueError("a policy needs at least one subgoal and one action")
    return dict(zip(TABLES, _table_shapes(n_s, n_o, n_a)))


def load_policy(path) -> PolicyParams:
    return PolicyParams(**read_checkpoint(path, CHECKPOINT_MAGIC, _policy_shapes))
