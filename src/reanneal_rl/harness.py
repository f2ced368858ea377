"""Training orchestrator: the outer episode loop with exploration reannealing.

Each episode runs epsilon-greedy steps with per-step replay updates, then the
stuck counter is updated from the episode outcome; if it fires (and
reannealing is enabled) epsilon resets to 1, otherwise epsilon decays. Metrics
are appended to a CSV incrementally, a manifest captures the exact config, and
checkpoints are written periodically plus at the end.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import agent as agent_mod
from . import mlp
from .agent import Agent
from .config import parse_fields, save_config
from .envs import make_env
from .explore import EpsilonSchedule, StuckCounter, select_epsilon_greedy
from .replay import Experience, ReplayBuffer

CSV_HEADER = "episode,steps,total_reward,epsilon,stuck,reannealed,mean_loss,wall_time_ms"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class EpisodeRecord:
    episode_index: int
    step_count: int
    total_reward: float
    epsilon_at_end: float
    stuck_count: int
    reannealed_this_episode: bool
    mean_loss: float
    wall_time_ms: float


def moving_average(values, window):
    """Trailing mean over `window` elements, growing window at the start."""
    if window < 1:
        raise ValueError("window must be >= 1")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return np.array([])
    csum = np.concatenate([[0.0], np.cumsum(v)])
    idx = np.arange(v.size)
    starts = np.maximum(0, idx - window + 1)
    return (csum[idx + 1] - csum[starts]) / (idx + 1 - starts)


def _format_row(r):
    return (
        f"{r.episode_index},{r.step_count},{r.total_reward:.6g},"
        f"{r.epsilon_at_end:.6g},{r.stuck_count},"
        f"{int(r.reannealed_this_episode)},{r.mean_loss:.6g},"
        f"{r.wall_time_ms:.6g}"
    )


def write_metrics_csv(records, path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(_format_row(r) + "\n")


def read_metrics_csv(path):
    names = [f.name for f in fields(EpisodeRecord)]
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {header!r}")
        for line in fh:
            cols = line.strip().split(",")
            if len(cols) != len(names):
                raise ValueError(f"{path}: malformed row {line!r}")
            records.append(EpisodeRecord(
                **parse_fields(EpisodeRecord, dict(zip(names, cols)), path)))
    return records


def _prefill(env, buffer, target_size, rng):
    """Fill the replay memory with uniform-random transitions before any
    learning, leaving the epsilon schedule untouched."""
    target_size = min(target_size, buffer.capacity)
    while len(buffer) < target_size:
        obs = env.reset(rng)
        while True:
            action = int(rng.integers(0, env.spec.action_count))
            result = env.step(action)
            buffer.push(Experience(
                obs, action, result.reward, result.observation,
                result.done, result.timed_out,
            ))
            obs = result.observation
            if result.done or result.timed_out or len(buffer) >= target_size:
                break


def run_training(config, env=None, episode_callback=None):
    """Execute config.episodes training episodes; returns the episode records.

    `env` overrides the environment named in the config (used by tests with
    scripted environments). `episode_callback(record, agent)` runs after each
    episode's record is written.
    """
    if env is None:
        env = make_env(config.env)

    os.makedirs(config.output_dir, exist_ok=True)
    manifest_path = os.path.join(config.output_dir, "manifest.cfg")
    metrics_path = os.path.join(config.output_dir, "metrics.csv")
    try:
        save_config(config, manifest_path)
        metrics_fh = open(metrics_path, "w")
    except OSError as exc:
        raise RuntimeError(f"cannot write to {config.output_dir}: {exc}") from exc

    seed_seq = np.random.SeedSequence(config.seed)
    rng_init, rng_env, rng_policy, rng_sample = (
        np.random.default_rng(s) for s in seed_seq.spawn(4)
    )

    layer_sizes = (
        env.spec.observation_size,
        *config.hidden_sizes,
        env.spec.action_count,
    )
    agent = Agent(config.agent, layer_sizes, rng_init)
    buffer = ReplayBuffer(config.replay_capacity, env.spec.observation_size)
    schedule = EpsilonSchedule(
        epsilon=1.0, epsilon_min=config.epsilon_min, decay_rate=config.decay_rate
    )
    stuck = StuckCounter(count=0, threshold=config.stuck_threshold)

    _prefill(env, buffer, config.agent.min_replay_before_training, rng_policy)

    records = []
    metrics_fh.write(CSV_HEADER + "\n")
    try:
        for episode in range(config.episodes):
            t_start = time.perf_counter()
            obs = env.reset(rng_env)
            total_reward = 0.0
            loss_sum = 0.0
            loss_count = 0
            steps = 0
            while True:
                q_values = mlp.forward(agent.online, obs)
                action = select_epsilon_greedy(q_values, schedule, rng_policy)
                result = env.step(action)
                buffer.push(Experience(
                    obs, action, result.reward, result.observation,
                    result.done, result.timed_out,
                ))
                loss = agent.train_step(buffer, rng_sample)
                if loss is not None:
                    if not math.isfinite(loss):
                        record = EpisodeRecord(
                            episode, steps + 1, total_reward, schedule.epsilon,
                            stuck.count, False, float(loss),
                            (time.perf_counter() - t_start) * 1e3,
                        )
                        metrics_fh.write(_format_row(record) + "\n")
                        raise TrainingDiverged(
                            f"non-finite loss at episode {episode}, step {steps}"
                        )
                    loss_sum += loss
                    loss_count += 1
                total_reward += result.reward
                obs = result.observation
                steps += 1
                if result.done or result.timed_out:
                    episode_timed_out = result.timed_out
                    break

            decision = stuck.update(episode_timed_out)
            reannealed = decision.reanneal and config.reanneal_enabled
            if reannealed:
                schedule.reanneal()
            else:
                schedule.decay()

            agent.episodes_since_sync += 1
            if agent.episodes_since_sync >= config.agent.target_sync_period_episodes:
                agent.sync_target()

            record = EpisodeRecord(
                episode_index=episode,
                step_count=steps,
                total_reward=total_reward,
                epsilon_at_end=schedule.epsilon,
                stuck_count=stuck.count,
                reannealed_this_episode=reannealed,
                mean_loss=loss_sum / loss_count if loss_count else 0.0,
                wall_time_ms=(time.perf_counter() - t_start) * 1e3,
            )
            records.append(record)
            metrics_fh.write(_format_row(record) + "\n")
            metrics_fh.flush()

            if (config.checkpoint_every > 0
                    and (episode + 1) % config.checkpoint_every == 0):
                prefix = os.path.join(config.output_dir, f"checkpoint_ep{episode + 1}")
                agent_mod.save_checkpoint(
                    agent, prefix, episode + 1, extra={"env": config.env}
                )
            if episode_callback is not None:
                episode_callback(record, agent)
    finally:
        metrics_fh.close()

    agent_mod.save_checkpoint(
        agent, os.path.join(config.output_dir, "final"),
        config.episodes, extra={"env": config.env},
    )
    return records


def evaluate_greedy(agent, env, episodes, rng):
    """Roll out the greedy policy; returns a list of episode returns."""
    returns = []
    for _ in range(episodes):
        obs = env.reset(rng)
        total = 0.0
        while True:
            result = env.step(agent.greedy_action(obs))
            total += result.reward
            obs = result.observation
            if result.done or result.timed_out:
                break
        returns.append(total)
    return returns
