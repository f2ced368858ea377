"""DQN/DDQN learner: target computation, batched train step, target sync."""

from __future__ import annotations

import math
from dataclasses import asdict, fields

import numpy as np

from . import mlp
from .config import AgentConfig, parse_fields
from .mlp import clone_params, forward, forward_batch


class Agent:
    """Online network, frozen target copy, Adam state.

    `online`, `target` and `optimizer` default to a fresh He-uniform init,
    its copy and zero Adam moments; load_checkpoint passes the loaded ones
    instead. The agent also owns the per-step workspaces: a gradient buffer
    that backward fills in place, and the batch row index.
    """

    def __init__(self, config, layer_sizes, rng=None, online=None, target=None,
                 optimizer=None):
        self.config = config
        self.online = mlp.init_params(layer_sizes, rng) if online is None else online
        self.target = clone_params(self.online) if target is None else target
        self.optimizer = (mlp.init_adam_state(self.online) if optimizer is None
                          else optimizer)
        for name, net in (("target", self.target), ("Adam m", self.optimizer.m),
                          ("Adam v", self.optimizer.v)):
            if net.layer_sizes != self.online.layer_sizes:
                raise ValueError(
                    f"{name} layer sizes {net.layer_sizes} != online "
                    f"layer sizes {self.online.layer_sizes}"
                )
        self._grads = mlp.NetworkParams(self.online.layer_sizes)
        self._rows = np.arange(config.batch_size)

    def greedy_action(self, observation):
        """Argmax over online Q-values, lowest index on ties."""
        return int(np.argmax(forward(self.online, observation)))

    def _targets(self, rewards, next_states, dones, rows):
        """Bootstrap targets for a batch; `rows` is np.arange(batch).

        Double DQN selects the bootstrap action with the online network and
        evaluates it with the target network; plain DQN takes the max over
        the target network. Genuine terminals (done) do not bootstrap;
        timed-out transitions do.
        """
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
        still below min_replay_before_training (step skipped). A non-finite
        loss skips the Adam step, so the network, the Adam moments and the
        step count stay as they were."""
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
        if math.isfinite(loss):
            mlp.adam_step(self.online, self._grads, self.optimizer,
                          self.config.learning_rate)
        return loss

    def sync_target(self):
        """target <- deep copy of online."""
        self.target = clone_params(self.online)


def save_checkpoint(agent, prefix, episode=0, extra=None):
    """Write <prefix>.online.net, <prefix>.target.net and the Adam moments
    <prefix>.adam_m.net and <prefix>.adam_v.net (binary network format),
    plus <prefix>.meta, a key=value text header with the agent config, the
    episode and the Adam step count."""
    mlp.save_network(agent.online, prefix + ".online.net")
    mlp.save_network(agent.target, prefix + ".target.net")
    mlp.save_network(agent.optimizer.m, prefix + ".adam_m.net")
    mlp.save_network(agent.optimizer.v, prefix + ".adam_v.net")
    meta = {key: int(value) if isinstance(value, bool) else value
            for key, value in asdict(agent.config).items()}
    meta.update(episode=episode, adam_step_count=agent.optimizer.step_count)
    if extra:
        meta.update(extra)
    with open(prefix + ".meta", "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def load_checkpoint(prefix):
    """Rebuild an agent, Adam state included, from save_checkpoint() output.

    Accepts the prefix or the .meta path. Returns (agent, meta dict)."""
    prefix = prefix.removesuffix(".meta")
    path = prefix + ".meta"
    with open(path) as fh:
        pairs = (line.strip().partition("=") for line in fh if line.strip())
        meta = {key: value for key, _, value in pairs}
    names = [f.name for f in fields(AgentConfig)]
    missing = [name for name in names + ["adam_step_count"] if name not in meta]
    if missing:
        raise ValueError(f"checkpoint metadata {path} lacks {', '.join(missing)}")
    config = AgentConfig(**parse_fields(
        AgentConfig, {name: meta[name] for name in names}, path))
    try:
        step_count = int(meta["adam_step_count"])
    except ValueError:
        raise ValueError(f"{path}: adam_step_count = "
                         f"{meta['adam_step_count']!r} is not a valid int") from None
    online = mlp.load_network(prefix + ".online.net")
    optimizer = mlp.AdamState(m=mlp.load_network(prefix + ".adam_m.net"),
                              v=mlp.load_network(prefix + ".adam_v.net"),
                              step_count=step_count)
    agent = Agent(config, online.layer_sizes, online=online,
                  target=mlp.load_network(prefix + ".target.net"),
                  optimizer=optimizer)
    return agent, meta
