"""In-memory span tracer that wraps segrl's public functions from outside.

`Tracer.install()` replaces every public module-level function of every
segrl module, at every module attribute that binds it (the defining module,
modules that imported it, and the package namespace), with a wrapper that
records one span per call: name, start, end and the span that caused it.
`CriticBatch.from_rows` is wrapped as well.  Nothing under `src/` changes;
`uninstall()` restores the original bindings.

Spans live in flat `array` columns, so a traced round of millions of calls
costs 28 bytes per span.  `summary()` derives per-layer self time and call
counts, plus two counters computed from returned values:

* `critic.CriticBatch.bytes`: the largest sum of `nbytes` over the arrays a
  returned `CriticBatch` holds;
* `batch.rollout_batch.turns` and `.greedy_distinct_ratio`: turns in the
  returned tables, and distinct greedy episodes over greedy episodes rolled.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("advantages", "batch", "cli", "config", "core", "critic", "envs",
           "gradcheck", "oracle", "parsing", "policy", "rng", "training")

# The command handlers run inside `cli.dispatch`; leaving them unwrapped keeps
# their bodies in dispatch's self time, which is the command layer's own cost.
_SKIP = {"cli": ("cmd_", "build_parser", "main")}


def _public_functions(mod):
    skip = _SKIP.get(mod.__name__.rsplit(".", 1)[-1], ())
    for name, obj in vars(mod).items():
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not name.startswith("_") and not name.startswith(skip)):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.rollout_turns = 0
        self.greedy_tables: list[tuple] = []
        self.critic_batch_bytes = 0

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, label: str, observe=None):
        name_id = len(self.names)
        self.names.append(label)
        names, starts, ends, parents, stack = (self.name_col, self.start,
                                               self.end, self.parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def _observe_rollout(self, tt, args, kwargs):
        self.rollout_turns += int(tt.length.sum())
        if kwargs.get("greedy", False):
            # keep references only; distinct episodes are counted at the end
            self.greedy_tables.append((tt.length, tt.state, tt.q, tt.subgoal,
                                       tt.action))

    def _observe_critic_batch(self, batch, args, kwargs):
        total = sum(v.nbytes for v in vars(batch).values()
                    if isinstance(v, np.ndarray))
        total += sum(v.nbytes for v in (batch.rows or {}).values())
        self.critic_batch_bytes = max(self.critic_batch_bytes, total)

    def install(self) -> None:
        import segrl
        mods = {m: importlib.import_module(f"segrl.{m}") for m in MODULES}
        bindings = list(mods.values()) + [segrl]
        from segrl.critic import CriticBatch
        # critic_batch_from_table returns what from_rows built; exact_critic_batch
        # fills a batch itself
        observers = {"batch.rollout_batch": self._observe_rollout,
                     "oracle.exact_critic_batch": self._observe_critic_batch}
        for short, mod in mods.items():
            for name, fn in list(_public_functions(mod)):
                label = f"{short}.{name}"
                wrapper = self._wrap(fn, label, observers.get(label))
                for target in bindings:
                    if vars(target).get(name) is fn:
                        self._patches.append((target, name, fn))
                        setattr(target, name, wrapper)
        raw = vars(CriticBatch)["from_rows"]
        self._patches.append((CriticBatch, "from_rows", raw))
        CriticBatch.from_rows = classmethod(self._wrap(
            raw.__func__, "critic.CriticBatch.from_rows",
            self._observe_critic_batch))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-label self time and calls, plus the computed counters."""
        names = np.frombuffer(self.name_col, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out = {label: {"self_s": float(self_s[i]), "calls": int(calls[i])}
               for i, label in enumerate(self.names) if calls[i] > 0}
        if "batch.rollout_batch" in out:
            out["batch.rollout_batch"]["turns"] = self.rollout_turns
        if self.greedy_tables:
            rolled = sum(len(t[0]) for t in self.greedy_tables)
            distinct = sum(_distinct_episodes(*t) for t in self.greedy_tables)
            out["batch.rollout_batch"]["greedy_distinct_ratio"] = distinct / rolled
        if self.critic_batch_bytes:
            out.setdefault("critic.CriticBatch", {})["bytes"] = self.critic_batch_bytes
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_col, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


def _distinct_episodes(length, *columns) -> int:
    """Distinct episodes in one table, comparing every column over each
    episode's own length."""
    seen = set()
    for i, n in enumerate(length):
        seen.add(tuple(tuple(col[i, :n].tolist()) for col in columns))
    return len(seen)
