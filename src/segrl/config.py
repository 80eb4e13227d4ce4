"""Run configuration: `key = value` files with strict key validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import InputError
from .envs import EnvModel, make_env
from . import training
from .training import PPOConfig


class ConfigError(InputError):
    """Unknown key, unparsable line, or out-of-range or non-finite value."""


_FLOAT_KEYS = {
    "gamma", "lambda_low", "lambda_high", "lambda_flat", "clip_eps",
    "c_v", "kl_beta", "c_keep", "lr_actor", "lr_critic",
}
_INT_KEYS = {
    "epochs", "minibatch", "iterations", "episodes_per_iter",
    "eval_episodes", "seed", "env.L", "env.H", "n_options",
}
_STR_KEYS = {"env"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

RANGES = {
    **training.RANGES,
    "env.L": (lambda v: v >= 2, ">= 2"),
    "env.H": (lambda v: v >= 1, ">= 1"),
    "n_options": (lambda v: v >= 1, ">= 1"),
}


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
            if key in _FLOAT_KEYS:
                parsed: object = float(val)
            elif key in _INT_KEYS:
                parsed = int(val)
            else:
                parsed = val
        except ValueError:
            raise ConfigError(f"line {line_no}: cannot parse value for '{key}': {val!r}")
        if key in _FLOAT_KEYS and not math.isfinite(parsed):
            raise ConfigError(f"line {line_no}: '{key}' must be finite, got {val}")
        if key in RANGES:
            ok, desc = RANGES[key]
            if not ok(parsed):
                raise ConfigError(f"line {line_no}: '{key}' must be {desc}, got {val}")
        values[key] = parsed
    env_name = str(values.pop("env", "fetchchain")).lower()
    if env_name not in ("fetchchain", "onestep"):
        raise ConfigError(f"'env' must be fetchchain or onestep, got '{env_name}'")
    env_l = int(values.pop("env.L", 5))
    env_h = int(values.pop("env.H", 20))
    n_options = int(values.pop("n_options", 2))
    ppo = PPOConfig(**values)  # type: ignore[arg-type]
    return RunConfig(ppo=ppo, env_name=env_name, env_l=env_l, env_h=env_h,
                     n_options=n_options)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_config_text(fp.read())
