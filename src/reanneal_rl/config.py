"""Run and agent configuration, the INI config-file format, and the typed
parser of key=value text that config files and checkpoint metadata share.

Config files are INI-style: a [run] section for harness/exploration settings
and an [agent] section for learner hyperparameters. The same format is used
for the run manifest written next to the metrics of every training run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .envs import ENVS

ENV_DEFAULTS = {
    # episodes, hidden sizes, replay capacity, learning rate, min replay
    "lander": (10_000, (200, 60), 1_000_000, 0.01, 1000),
    # The surrogate is deliberately data-starved: a small buffer evicts the
    # rare random landings quickly and a small learning rate keeps a single
    # lucky trace from flipping the policy, so escaping the hover optimum
    # genuinely requires renewed exploration.
    "hovertrap": (2_000, (32,), 500, 0.003, 64),
}


@dataclass
class AgentConfig:
    gamma: float = 0.99
    learning_rate: float = 0.01
    batch_size: int = 64
    target_sync_period_episodes: int = 20
    double_dqn: bool = True
    kappa: float = 1.0
    min_replay_before_training: int = 1000

    def __post_init__(self):
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.target_sync_period_episodes < 1:
            raise ValueError("target_sync_period_episodes must be >= 1")
        for name in ("learning_rate", "kappa"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if self.min_replay_before_training < 0:
            raise ValueError("min_replay_before_training must be >= 0, got "
                             f"{self.min_replay_before_training}")


@dataclass
class RunConfig:
    env: str = "lander"
    episodes: int = 10_000
    seed: int = 0
    reanneal_enabled: bool = True
    stuck_threshold: int = 10
    decay_rate: float = 0.99
    epsilon_min: float = 0.01
    hidden_sizes: tuple = (200, 60)
    replay_capacity: int = 1_000_000
    output_dir: str = "runs/out"
    checkpoint_every: int = 0  # episodes; 0 = final checkpoint only
    moving_average_window: int = 100
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self):
        if self.env not in ENVS:
            raise ValueError(f"env must be one of {', '.join(ENVS)}, got {self.env!r}")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if any(n < 1 for n in self.hidden_sizes):
            raise ValueError(
                f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")
        if self.moving_average_window < 1:
            raise ValueError("moving_average_window must be >= 1")
        if not 0 < self.decay_rate <= 1:
            raise ValueError(f"decay_rate must be in (0, 1], got {self.decay_rate}")
        if not 0 <= self.epsilon_min <= 1:
            raise ValueError(
                f"epsilon_min must be in [0, 1], got {self.epsilon_min}"
            )
        if self.stuck_threshold < 1:
            raise ValueError("stuck_threshold must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        # Config files strip values, so such a path could not round-trip.
        if not self.output_dir or self.output_dir != self.output_dir.strip():
            raise ValueError(f"output_dir {self.output_dir!r} is empty or has "
                             "leading or trailing whitespace")
        # Training starts once the replay holds max(batch, start) transitions.
        batch, start = self.agent.batch_size, self.agent.min_replay_before_training
        if self.replay_capacity < max(batch, start):
            raise ValueError(
                f"replay_capacity {self.replay_capacity} is smaller than "
                f"batch_size {batch} or min_replay_before_training {start}"
            )


def default_config(env):
    """Per-environment defaults: the lander follows the headline setup, the
    HoverTrap surrogate is scaled down for fast experiments."""
    config = RunConfig(env=env)  # refuses an unknown env
    episodes, hidden, capacity, lr, min_replay = ENV_DEFAULTS[env]
    agent = AgentConfig(learning_rate=lr, min_replay_before_training=min_replay)
    return replace(config, episodes=episodes, hidden_sizes=hidden,
                   replay_capacity=capacity, agent=agent)


def _parse_sizes(raw):
    return tuple(int(v) for v in raw.replace(",", " ").split())


def _parse_bool(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# Value parsers by dataclass field annotation; fields of other types (the
# nested AgentConfig) cannot be set from a file.
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str,
            "tuple": _parse_sizes}


def parse_fields(cls, values, source):
    """Parse a key -> text mapping by the field types of the dataclass `cls`.

    Returns the parsed values by key. An unknown key or a text that does not
    parse raises ValueError naming `source` (the file), the key and the text.
    """
    types = {f.name: f.type for f in fields(cls) if f.type in _PARSERS}
    parsed = {}
    for key, raw in values.items():
        if key not in types:
            raise ValueError(f"unknown key {key!r} in {source}")
        try:
            parsed[key] = _PARSERS[types[key]](raw)
        except ValueError:
            raise ValueError(f"{source}: {key} = {raw!r} is not a valid "
                             f"{types[key]}") from None
    return parsed


def load_config(path):
    """Read a config file over the defaults of its environment. Values are
    applied with dataclasses.replace, so every field is validated; every
    error names the file."""
    # No default section, so [DEFAULT] is an unknown section, not shared keys.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:  # its messages span several lines
        raise ValueError(f"{path}: {str(exc).splitlines()[0]}") from None
    unknown = [name for name in parser.sections()
               if name not in ("run", "agent")]
    if unknown:
        raise ValueError(f"{path}: unknown section(s) "
                         f"{', '.join(f'[{name}]' for name in unknown)}; "
                         "expected [run] and [agent]")
    sections = {name: dict(parser.items(name)) if parser.has_section(name)
                else {} for name in ("run", "agent")}
    run = parse_fields(RunConfig, sections["run"], path)
    agent = parse_fields(AgentConfig, sections["agent"], path)
    try:  # an unknown env or a value out of range
        config = default_config(run.pop("env", "lander"))
        return replace(config, agent=replace(config.agent, **agent), **run)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(config, path):
    """Write a config (or run manifest) as [run]/[agent] key=value text.
    A saved file round-trips through load_config."""
    parser = configparser.ConfigParser(interpolation=None)
    run = {k: v for k, v in asdict(config).items() if k != "agent"}
    run["hidden_sizes"] = ",".join(str(n) for n in config.hidden_sizes)
    parser["run"] = {k: str(v) for k, v in run.items()}
    parser["agent"] = {k: str(v) for k, v in asdict(config.agent).items()}
    with open(path, "w") as fh:
        parser.write(fh)

