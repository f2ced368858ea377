"""DQN/DDQN learner: target computation, batched train step, target sync."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import mlp
from .mlp import clone_params, forward, forward_batch


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
        if not self.learning_rate > 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


class Agent:
    """Online network, frozen target copy, Adam state.

    `online` and `target` default to a fresh He-uniform init and its copy;
    load_checkpoint passes the loaded networks instead. The agent also owns
    the per-step workspaces: a flat-backed gradient buffer that backward
    fills in place, and the batch row index.
    """

    def __init__(self, config, layer_sizes, rng=None, online=None, target=None):
        self.config = config
        self.online = mlp.init_params(layer_sizes, rng) if online is None else online
        self.target = clone_params(self.online) if target is None else target
        if self.target.layer_sizes != self.online.layer_sizes:
            raise ValueError(
                f"target layer sizes {self.target.layer_sizes} != online "
                f"layer sizes {self.online.layer_sizes}"
            )
        self.optimizer = mlp.init_adam_state(self.online)
        self.episodes_since_sync = 0
        self._grads = mlp.zero_like_grads(self.online)
        self._rows = np.arange(config.batch_size)

    def greedy_action(self, observation):
        """Argmax over online Q-values, lowest index on ties."""
        return int(np.argmax(forward(self.online, observation)))

    def compute_targets(self, batch):
        """Bootstrap targets for a list of experiences.

        Double DQN selects the bootstrap action with the online network and
        evaluates it with the target network; plain DQN takes the max over
        the target network. Genuine terminals (done) do not bootstrap;
        timed-out transitions do.
        """
        if not batch:
            raise ValueError("empty batch")
        rewards = np.array([e.reward for e in batch])
        next_states = np.stack([e.next_state for e in batch])
        dones = np.array([e.done for e in batch], dtype=bool)
        return self._targets(rewards, next_states, dones, np.arange(len(batch)))

    def _targets(self, rewards, next_states, dones, rows):
        q_target = forward_batch(self.target, next_states)
        if self.config.double_dqn:
            best = forward_batch(self.online, next_states).argmax(axis=1)
            bootstrap = q_target[rows, best]
        else:
            bootstrap = q_target.max(axis=1)
        # rewards + gamma * bootstrap * ~dones, with the same rounding
        bootstrap *= self.config.gamma
        bootstrap *= ~dones
        bootstrap += rewards
        return bootstrap

    def train_step(self, buffer, rng):
        """Sample a batch, backpropagate, apply one Adam step to the online
        network. Returns the batch mean loss, or None when the buffer is
        still below min_replay_before_training (step skipped)."""
        gate = max(self.config.min_replay_before_training, self.config.batch_size)
        if len(buffer) < gate:
            return None
        states, actions, rewards, next_states, dones, _ = buffer.sample_arrays(
            self.config.batch_size, rng
        )
        targets = self._targets(rewards, next_states, dones, self._rows)
        _, loss = mlp.backward(
            self.online, states, actions, targets, self.config.kappa,
            grads=self._grads,
        )
        mlp.adam_step(self.online, self._grads, self.optimizer,
                      self.config.learning_rate)
        return loss

    def sync_target(self):
        """target <- deep copy of online."""
        self.target = clone_params(self.online)
        self.episodes_since_sync = 0


def save_checkpoint(agent, prefix, episode=0, extra=None):
    """Write <prefix>.online.net and <prefix>.target.net (binary network
    format) plus <prefix>.meta, a key=value text header with agent metadata."""
    mlp.save_network(agent.online, prefix + ".online.net")
    mlp.save_network(agent.target, prefix + ".target.net")
    meta = {
        "gamma": agent.config.gamma,
        "learning_rate": agent.config.learning_rate,
        "batch_size": agent.config.batch_size,
        "target_sync_period_episodes": agent.config.target_sync_period_episodes,
        "double_dqn": int(agent.config.double_dqn),
        "kappa": agent.config.kappa,
        "min_replay_before_training": agent.config.min_replay_before_training,
        "episode": episode,
        "adam_step_count": agent.optimizer.step_count,
    }
    if extra:
        meta.update(extra)
    with open(prefix + ".meta", "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def load_checkpoint(prefix):
    """Rebuild an agent from save_checkpoint() output.

    Accepts the prefix or the .meta path. Returns (agent, meta dict); the
    Adam moment accumulators are not persisted and start fresh."""
    if prefix.endswith(".meta"):
        prefix = prefix[: -len(".meta")]
    meta = {}
    with open(prefix + ".meta") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                meta[key] = value
    missing = [f.name for f in fields(AgentConfig) if f.name not in meta]
    if missing:
        raise ValueError(
            f"checkpoint metadata {prefix}.meta lacks {', '.join(missing)}"
        )
    config = AgentConfig(
        gamma=float(meta["gamma"]),
        learning_rate=float(meta["learning_rate"]),
        batch_size=int(meta["batch_size"]),
        target_sync_period_episodes=int(meta["target_sync_period_episodes"]),
        double_dqn=bool(int(meta["double_dqn"])),
        kappa=float(meta["kappa"]),
        min_replay_before_training=int(meta["min_replay_before_training"]),
    )
    online = mlp.load_network(prefix + ".online.net")
    agent = Agent(config, online.layer_sizes, online=online,
                  target=mlp.load_network(prefix + ".target.net"))
    agent.optimizer.step_count = int(meta.get("adam_step_count", 0))
    return agent, meta
