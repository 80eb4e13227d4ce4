"""Run configuration: `key = value` files with strict key validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .core import InputError
from .envs import EnvModel, make_env
from . import training
from .policy import policy_size
from .training import PPOConfig


class ConfigError(InputError):
    """Unknown key, unparsable line, or out-of-range or non-finite value."""


# each key's type: a PPOConfig field's is its default's
_TYPES = ({f.name: type(f.default) for f in fields(PPOConfig)}
          | {"env": str, "env.L": int, "env.H": int, "n_options": int})
_FLOAT_KEYS = {key for key, kind in _TYPES.items() if kind is float}
KNOWN_KEYS = set(_TYPES)

RANGES = {
    **training.RANGES,
    "env.L": (lambda v: v >= 2, ">= 2"),
    "env.H": (lambda v: v >= 1, ">= 1"),
    "n_options": (lambda v: v >= 1, ">= 1"),
}

# The most logits a configured policy may hold (128 MiB of float64): a run
# holds a few copies of the tables (the policy, its reference and the
# reference's log-probs, the rollout's draw tables), and the critic and
# transition tables are smaller.  FetchChain(L, H) has 2 * L * H + 2 states
# and 4 actions, and a policy over S states, O options and A actions holds
# S * O * (3 + A) logits, so with 2 options L * H may reach about 599,000.
MAX_POLICY_LOGITS = 2 ** 24

# The most turn slots one array of a run may hold (128 MiB of int64): a
# `TurnTable` column holds episodes x horizon, and the trainer's minibatch
# keys epochs x episodes_per_iter x horizon.
MAX_TURN_SLOTS = 2 ** 24


def check_turn_slots(counts: dict, error: type[InputError] = ConfigError) -> None:
    """Refuse the named counts when their product, the slots of an array a
    run sizes from them, exceeds MAX_TURN_SLOTS: computed from Python
    integers, before anything is allocated."""
    slots = math.prod(counts.values())
    if slots > MAX_TURN_SLOTS:
        named = ", ".join(f"{name} = {v}" for name, v in counts.items())
        raise error(f"one array would hold {slots} turn slots, more than "
                    f"{MAX_TURN_SLOTS} (2**24): {named}")


@dataclass
class RunConfig:
    """Trainer hyperparameters plus the environment specification."""

    ppo: PPOConfig = field(default_factory=PPOConfig)
    env_name: str = "fetchchain"
    env_l: int = 5
    env_h: int = 20
    n_options: int = 2

    def make_env(self) -> EnvModel:
        return make_env(self.env_name, length=self.env_l, horizon=self.env_h)


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        try:
            parsed = _TYPES[key](val)
        except ValueError:
            raise ConfigError(f"line {line_no}: cannot parse value for '{key}': {val!r}")
        if key in _FLOAT_KEYS and not math.isfinite(parsed):
            raise ConfigError(f"line {line_no}: '{key}' must be finite, got {val}")
        if key in RANGES:
            ok, desc = RANGES[key]
            if not ok(parsed):
                raise ConfigError(f"line {line_no}: '{key}' must be {desc}, got {val}")
        values[key] = parsed
    env_name = str(values.pop("env", RunConfig.env_name)).lower()
    if env_name not in ("fetchchain", "onestep"):
        raise ConfigError(f"'env' must be fetchchain or onestep, got '{env_name}'")
    env_l = int(values.pop("env.L", RunConfig.env_l))
    env_h = int(values.pop("env.H", RunConfig.env_h))
    n_options = int(values.pop("n_options", RunConfig.n_options))
    # sized from the env's integers alone, before any table is allocated
    env = make_env(env_name, length=env_l, horizon=env_h)
    size = policy_size(env.n_states, n_options, env.n_actions)
    if size > MAX_POLICY_LOGITS:
        keys = (f"'env.L' = {env_l}, 'env.H' = {env_h}, " if env_name == "fetchchain"
                else "") + f"'n_options' = {n_options}"
        raise ConfigError(f"the policy would hold {size} logits, more than "
                          f"{MAX_POLICY_LOGITS} (2**24): {keys}")
    ppo = PPOConfig(**values)  # type: ignore[arg-type]
    # OneStep's horizon is 1 whatever env.H says
    horizon = {"'env.H'": env_h} if env_name == "fetchchain" else {}
    for keys in (("episodes_per_iter",), ("eval_episodes",), ("epochs", "episodes_per_iter")):
        check_turn_slots({f"'{k}'": getattr(ppo, k) for k in keys} | horizon)
    return RunConfig(ppo=ppo, env_name=env_name, env_l=env_l, env_h=env_h,
                     n_options=n_options)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_config_text(fp.read())
