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
from dataclasses import dataclass

import numpy as np

from .core import KEEP, SWITCH, InputError
from .envs import FetchChain, DROP, LEFT, PICKUP, RIGHT

CHECKPOINT_MAGIC = "segrl-policy v1"


@dataclass
class PolicyParams:
    """Logit tables: switch[s, o_prev, 2], subgoal[s, |O|], action[s, o, |A|]."""

    switch: np.ndarray
    subgoal: np.ndarray
    action: np.ndarray

    def __post_init__(self):
        self.switch = np.asarray(self.switch, dtype=np.float64)
        self.subgoal = np.asarray(self.subgoal, dtype=np.float64)
        self.action = np.asarray(self.action, dtype=np.float64)
        s, o = self.subgoal.shape
        if self.switch.shape != (s, o, 2):
            raise ValueError(f"switch table shape {self.switch.shape} != {(s, o, 2)}")
        if self.action.shape[:2] != (s, o):
            raise ValueError("action table must be indexed by (state, subgoal)")
        for name, table in (("switch", self.switch), ("subgoal", self.subgoal),
                            ("action", self.action)):
            if not np.all(np.isfinite(table)):
                raise ValueError(f"non-finite entries in {name} logits")

    @property
    def n_states(self) -> int:
        return self.subgoal.shape[0]

    @property
    def n_options(self) -> int:
        return self.subgoal.shape[1]

    @property
    def n_actions(self) -> int:
        return self.action.shape[2]

    @classmethod
    def uniform(cls, n_states: int, n_options: int, n_actions: int) -> "PolicyParams":
        return cls(
            switch=np.zeros((n_states, n_options, 2)),
            subgoal=np.zeros((n_states, n_options)),
            action=np.zeros((n_states, n_options, n_actions)),
        )

    @classmethod
    def random(cls, rng: np.random.Generator, n_states: int, n_options: int,
               n_actions: int, scale: float = 1.0) -> "PolicyParams":
        return cls(
            switch=scale * rng.standard_normal((n_states, n_options, 2)),
            subgoal=scale * rng.standard_normal((n_states, n_options)),
            action=scale * rng.standard_normal((n_states, n_options, n_actions)),
        )

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.switch.copy(), self.subgoal.copy(), self.action.copy())


@dataclass
class GradTables:
    """Gradient accumulator with the same shapes as PolicyParams."""

    switch: np.ndarray
    subgoal: np.ndarray
    action: np.ndarray

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "GradTables":
        return cls(np.zeros_like(params.switch), np.zeros_like(params.subgoal),
                   np.zeros_like(params.action))

    def scale(self, c: float) -> "GradTables":
        self.switch *= c
        self.subgoal *= c
        self.action *= c
        return self

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.switch.ravel(), self.subgoal.ravel(),
                               self.action.ravel()])

    def max_abs(self) -> float:
        return max(np.max(np.abs(self.switch), initial=0.0),
                   np.max(np.abs(self.subgoal), initial=0.0),
                   np.max(np.abs(self.action), initial=0.0))


def params_as_vector(params: PolicyParams) -> np.ndarray:
    return np.concatenate([params.switch.ravel(), params.subgoal.ravel(),
                           params.action.ravel()])


def split_tables(vec: np.ndarray, like: PolicyParams) -> tuple[np.ndarray, ...]:
    """The switch, subgoal and action tables of a vector laid out as
    `params_as_vector`; leading axes of `vec` stay in front."""
    tables = (like.switch, like.subgoal, like.action)
    parts = np.split(vec, np.cumsum([t.size for t in tables])[:-1], axis=-1)
    return tuple(part.reshape(vec.shape[:-1] + t.shape)
                 for part, t in zip(parts, tables))


def params_from_vector(vec: np.ndarray, like: PolicyParams) -> PolicyParams:
    return PolicyParams(*split_tables(np.asarray(vec, dtype=np.float64), like))


# -- softmax helpers --------------------------------------------------------

def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - np.max(logits, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def fetchchain_expert(env: FetchChain, n_options: int = 2,
                      sharpness: float = 20.0) -> PolicyParams:
    """Hand-coded near-deterministic params that solve FetchChain optimally.

    Subgoal 0 is used while fetching, subgoal 1 (when available) while
    returning; the switch head flips exactly when carrying status changes.
    """
    params = PolicyParams.uniform(env.n_states, n_options, env.n_actions)
    fetch, deliver = 0, min(1, n_options - 1)
    for s in range(env.n_states):
        if env.is_terminal(s):
            continue
        pos, carrying, _ = env.decode(s)
        want = deliver if carrying else fetch
        params.subgoal[s, want] = sharpness
        for o_prev in range(n_options):
            q = SWITCH if o_prev != want else KEEP
            params.switch[s, o_prev, q] = sharpness
        if carrying:
            best = DROP if pos == 0 else LEFT
        else:
            best = PICKUP if pos == env.length - 1 else RIGHT
        params.action[s, :, best] = sharpness
    return params


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
    fetch, deliver = 0, min(1, n_options - 1)
    for s in range(env.n_states):
        if env.is_terminal(s):
            continue
        pos, carrying, _ = env.decode(s)
        phase = deliver if carrying else fetch
        if carrying:
            best = DROP if pos == 0 else LEFT
        else:
            best = PICKUP if pos == env.length - 1 else RIGHT
        params.action[s, phase, best] += base
        params.subgoal[s, phase] += 0.5
        for o_prev in range(n_options):
            good = SWITCH if o_prev != phase else KEEP
            params.switch[s, o_prev, good] += 0.3
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

def save_policy(path, params: PolicyParams) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(CHECKPOINT_MAGIC + "\n")
        fp.write(f"{params.n_states} {params.n_options} {params.n_actions}\n")
        for name in ("switch", "subgoal", "action"):
            table = getattr(params, name)
            fp.write(f"table {name} {table.size}\n")
            for v in table.ravel():
                fp.write(repr(float(v)) + "\n")


class CheckpointError(InputError):
    """A policy or value-table checkpoint is truncated or does not parse."""


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


def load_policy(path) -> PolicyParams:
    return PolicyParams(**read_checkpoint(
        path, CHECKPOINT_MAGIC,
        lambda n_s, n_o, n_a: {"switch": (n_s, n_o, 2), "subgoal": (n_s, n_o),
                               "action": (n_s, n_o, n_a)}))
