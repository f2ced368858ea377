"""DQN/DDQN learner: target computation, batched train step, target sync."""

from __future__ import annotations

import math
from dataclasses import asdict, fields

import numpy as np

from . import mlp
from .config import AgentConfig, parse_fields
from .envs import ENVS
from .mlp import clone_params, forward, forward_batch


class Agent:
    """Online network from a He-uniform init drawn from `rng`, its target
    copy and zero Adam moments (load_checkpoint reads saved values into
    these buffers), plus the per-step workspaces: a gradient buffer that
    mlp.gradients fills in place, and the batch row index.

    On index observations the agent reads rows of per-state tables
    (mlp.index_table) instead of running forward passes. The online table
    is built on first use after each Adam step, so once per env step, and
    the target table once per sync. The one-hot inputs are identity rows."""

    def __init__(self, config, layer_sizes, rng):
        self.config = config
        self.online = mlp.init_params(layer_sizes, rng)
        self.target = clone_params(self.online)
        self.optimizer = mlp.init_adam_state(self.online)
        self._grads = mlp.NetworkParams(self.online.layer_sizes)
        self._rows = np.arange(config.batch_size)
        self._one_hot = np.eye(self.online.layer_sizes[0])
        self._online_table = None
        self._target_q = None

    def q_values(self, observation):
        """Online Q-values for one observation: for an index (an int), its
        row of the online table; for a dense row, forward's output. The
        table row can differ from forward's on the one-hot row in the last
        bit. The table holds while the weights change only through
        train_step, sync_target and load_checkpoint."""
        if isinstance(observation, (int, np.integer)):
            return self.online_table()[-1][observation]
        return forward(self.online, observation)

    def greedy_action(self, observation):
        """Argmax over online Q-values, lowest index on ties."""
        return int(np.argmax(self.q_values(observation)))

    def online_table(self):
        """The online network's per-state activations, Q-values last."""
        if self._online_table is None:
            self._online_table = mlp.index_table(self.online,
                                                 self.config.batch_size)
        return self._online_table

    def target_table(self):
        """The target network's Q-values for every state."""
        if self._target_q is None:
            self._target_q = mlp.index_table(self.target,
                                             self.config.batch_size)[-1]
        return self._target_q

    def _targets(self, rewards, next_states, dones, rows):
        """Bootstrap targets for a batch; `rows` is np.arange(batch).

        Double DQN selects the bootstrap action with the online network and
        evaluates it with the target network; plain DQN takes the max over
        the target network. Genuine terminals (done) do not bootstrap;
        timed-out transitions do. Index observations read table rows.
        """
        index = next_states.dtype.kind in "iu"
        q_target = (self.target_table().take(next_states, axis=0) if index
                    else forward_batch(self.target, next_states))
        if self.config.double_dqn:
            q_online = (self.online_table()[-1].take(next_states, axis=0)
                        if index else forward_batch(self.online, next_states))
            bootstrap = q_target[rows, q_online.argmax(axis=1)]
        else:
            bootstrap = q_target.max(axis=1)
        # rewards + gamma * bootstrap * ~dones, with the same rounding
        bootstrap *= self.config.gamma
        bootstrap *= ~dones
        bootstrap += rewards
        return bootstrap

    def train_step(self, buffer, rng):
        """Sample a batch, backpropagate, apply one Adam step to the online
        network. Returns the batch mean loss. The buffer must hold at least
        batch_size transitions; the Trainer prefills it to the training
        start. A non-finite loss skips the Adam step, so the network, the
        Adam moments and the step count stay as they were."""
        states, actions, rewards, next_states, dones = buffer.sample_arrays(
            self.config.batch_size, rng
        )
        targets = self._targets(rewards, next_states, dones, self._rows)
        if states.dtype.kind in "iu":
            acts = [layer.take(states, axis=0)
                    for layer in (self._one_hot, *self.online_table())]
            _, loss = mlp.gradients(self.online, acts, actions, targets,
                                    self.config.kappa, self._grads)
        else:
            _, loss = mlp.backward(
                self.online, states, actions, targets, self.config.kappa,
                grads=self._grads,
            )
        if math.isfinite(loss):
            mlp.adam_step(self.online, self._grads, self.optimizer,
                          self.config.learning_rate)
            self._online_table = None
        return loss

    def sync_target(self):
        """target <- deep copy of online."""
        self.target = clone_params(self.online)
        self._target_q = None


def _arrays(agent):
    """The checkpointed parameter buffers by file name part."""
    return {"online": agent.online.flat, "target": agent.target.flat,
            "adam_m": agent.optimizer.m.flat, "adam_v": agent.optimizer.v.flat}


def save_checkpoint(agent, prefix, episode, env):
    """Write <prefix>.online.net, <prefix>.target.net and the Adam moments
    <prefix>.adam_m.net and <prefix>.adam_v.net, each one float64 vector in
    numpy's .npy format, and <prefix>.meta, key=value text with the agent
    config, the episode, the Adam step count, the layer sizes and the env."""
    for name, flat in _arrays(agent).items():
        with open(f"{prefix}.{name}.net", "wb") as fh:  # np.save(path) adds .npy
            np.save(fh, flat, allow_pickle=False)
    meta = {key: int(value) if isinstance(value, bool) else value
            for key, value in asdict(agent.config).items()}
    meta.update(episode=episode, adam_step_count=agent.optimizer.step_count,
                layer_sizes=",".join(map(str, agent.online.layer_sizes)), env=env)
    with open(prefix + ".meta", "w") as fh:
        fh.write("".join(f"{key}={value}\n" for key, value in meta.items()))


def _read_array(path, out):
    """Read a save_checkpoint() array into `out`. One ValueError names the
    file unless it is exactly a '<f8' array of out's shape."""
    with open(path, "rb") as fh:
        try:
            array = np.lib.format.read_array(fh, allow_pickle=False)
            if array.dtype.str != "<f8" or array.shape != out.shape:
                raise ValueError(f"found '{array.dtype.str}' of shape "
                                 f"{array.shape}, expected '<f8' of shape {out.shape}")
            if fh.read(1):
                raise ValueError("bytes after the array")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    out[:] = array


def load_checkpoint(prefix):
    """Rebuild an agent, Adam state included, from save_checkpoint() output.
    A network whose input and output sizes do not fit its env is refused.

    Accepts the prefix or the .meta path. Returns (agent, meta dict)."""
    prefix = prefix.removesuffix(".meta")
    path = prefix + ".meta"
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    meta = {}
    for key, sep, value in (line.partition("=") for line in lines):
        if not sep or key in meta:
            raise ValueError(f"{path}: {key!r} {'is repeated' if sep else 'has no ='}")
        meta[key] = value
    names = [f.name for f in fields(AgentConfig)]
    own_keys = ["episode", "adam_step_count", "layer_sizes", "env"]
    missing = [name for name in names + own_keys if name not in meta]
    if missing:
        raise ValueError(f"checkpoint metadata {path} lacks {', '.join(missing)}")
    if meta["env"] not in ENVS:
        raise ValueError(f"{path}: env must be one of {', '.join(ENVS)}, "
                         f"got {meta['env']!r}")
    values = parse_fields(
        AgentConfig, {k: v for k, v in meta.items() if k not in own_keys}, path)
    try:
        config = AgentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:  # the init draw is overwritten by the saved arrays
        sizes = tuple(int(n) for n in meta["layer_sizes"].split(","))
        agent = Agent(config, sizes, np.random.default_rng(0))
    except ValueError:
        raise ValueError(f"{path}: layer_sizes = {meta['layer_sizes']!r} is "
                         "not two or more positive ints") from None
    spec = ENVS[meta["env"]].spec
    if (sizes[0], sizes[-1]) != (spec.observation_size, spec.action_count):
        raise ValueError(
            f"{path}: the network has {sizes[0]} inputs and {sizes[-1]} "
            f"outputs, but {meta['env']} has {spec.observation_size} "
            f"observations and {spec.action_count} actions")
    for key in ("episode", "adam_step_count"):
        if not (meta[key].isascii() and meta[key].isdigit()):
            raise ValueError(f"{path}: {key} = {meta[key]!r} is not an int >= 0")
    agent.optimizer.step_count = int(meta["adam_step_count"])
    for name, flat in _arrays(agent).items():
        _read_array(f"{prefix}.{name}.net", flat)
    return agent, meta
