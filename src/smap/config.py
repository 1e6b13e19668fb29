"""Experiment configuration and its flat key=value file format.

One key per line, no nesting, so configs diff cleanly across runs. Unknown
keys are rejected and round-trips are lossless (floats are written with
repr precision).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .envs import KINDS, check_split_sizes
from .errors import ConfigError
from .policies import POLICY_KINDS


@dataclass
class PPOConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    epochs: int = 3
    minibatch_size: int = 512
    rollout_len: int = 256
    n_envs: int = 8
    learning_rate: float = 3e-4
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    lambda_mask: float = 1.0
    alpha: float = 0.05
    total_timesteps: int = 400_000
    seed: int = 0
    advantage_norm: bool = True
    eval_every: int = 20

    def validate(self) -> None:
        if not 0 < self.clip_eps < 1:
            raise ConfigError(f"clip_eps must lie in (0, 1), got {self.clip_eps}")
        if not 0 <= self.alpha <= 1:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name in ("gamma", "gae_lambda"):     # above 1, GAE grows without bound
            if not 0 < getattr(self, name) <= 1:
                raise ConfigError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        # ranges, so that nan and inf fail them too: both train into NaNs
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        for name in ("entropy_coef", "value_coef", "lambda_mask"):   # below 0, a loss is a reward
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and at least 0, "
                                  f"got {getattr(self, name)}")
        for name in ("rollout_len", "n_envs", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not 0 <= self.seed < 2 ** 64:    # the streams keep 64 bits: -1 trains as 2**64-1
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        self.check_batch(self.rollout_len * self.n_envs)
        if self.total_timesteps < self.rollout_len * self.n_envs:
            raise ConfigError("total_timesteps must cover at least one rollout")

    def check_batch(self, n_samples: int) -> None:
        """Raise ``ConfigError`` unless an update of a batch of ``n_samples``
        runs at least one minibatch, each of at least 2 samples, the last one
        too: the update runs each minibatch as two halves."""
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.minibatch_size < 2:
            raise ConfigError("minibatch_size must be at least 2")
        if n_samples < 1:
            raise ConfigError("a PPO update needs a non-empty batch")
        if n_samples % self.minibatch_size == 1:
            raise ConfigError(f"a batch of {n_samples} samples leaves a one-sample "
                              f"minibatch at minibatch_size {self.minibatch_size}")


@dataclass
class ExperimentConfig:
    env_kind: str = "DodgeGrid"
    policy: str = "sparse_masked"
    n_train_levels: int = 20
    n_test_levels: int = 20
    precision: str = "float32"
    out_dir: str = "runs"
    ppo: PPOConfig = field(default_factory=PPOConfig)

    def validate(self) -> None:
        if self.env_kind not in KINDS:
            raise ConfigError(f"env_kind must be one of {KINDS}, got {self.env_kind!r}")
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"policy must be one of {POLICY_KINDS}, got {self.policy!r}")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32 or float64, got {self.precision!r}")
        check_split_sizes(self.n_train_levels, self.n_test_levels)
        self.ppo.validate()


# key -> (type name, whether it sets cfg.ppo), in file order; under
# ``from __future__ import annotations`` every field type is a string
_FIELDS = {f.name: (f.type, owner is PPOConfig)
           for owner in (ExperimentConfig, PPOConfig) for f in dataclasses.fields(owner)
           if f.name != "ppo"}


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(raw: str, ftype: str):
    raw = raw.strip()
    if ftype == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse {raw!r} as a boolean")
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
    except ValueError as e:
        raise ConfigError(f"cannot parse {raw!r} as {ftype}") from e
    return raw


def to_text(cfg: ExperimentConfig) -> str:
    return "".join(f"{name} = {_format_value(getattr(cfg.ppo if ppo else cfg, name))}\n"
                   for name, (_, ppo) in _FIELDS.items())


def from_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        ftype, ppo = _FIELDS[key]
        setattr(cfg.ppo if ppo else cfg, key, _parse_value(raw, ftype))
    cfg.validate()
    return cfg


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(to_text(cfg), encoding="utf-8")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return from_text(text)
