"""Training: the Trainer that owns a run's state, and run_training around it.

A Trainer runs one episode at a time: epsilon-greedy steps, each followed by
a replay push and a train step, then a stuck-counter update from the episode
outcome; if the counter fires (and reannealing is enabled) epsilon resets to
1, otherwise it decays. run_training writes the manifest, one metrics CSV row
per episode and checkpoints, periodically and at the end. run_parallel runs
independent jobs, such as seeded runs, on every usable core.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import agent as agent_mod
from .agent import Agent
from .config import parse_fields, save_config
from .envs import episode, make_env
from .explore import EpsilonSchedule, StuckCounter, select_epsilon_greedy
from .replay import ReplayBuffer

CSV_HEADER = "episode,steps,total_reward,epsilon,stuck,reannealed,mean_loss,wall_time_ms"


class TrainingDiverged(RuntimeError):
    """A non-finite training loss, the one divergence check of a run
    (Agent.train_step skips Adam on it); `record` is the episode's partial
    row."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


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
    csum = np.concatenate([[0.0], np.cumsum(v)])
    idx = np.arange(v.size)
    starts = np.maximum(0, idx - window + 1)
    return (csum[idx + 1] - csum[starts]) / (idx + 1 - starts)


def _format_row(r):
    return ",".join(f"{v:.6g}" if f.type == "float" else str(int(v))
                    for f, v in zip(fields(r), astuple(r)))


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
    act = lambda _: int(rng.integers(0, env.spec.action_count))  # noqa: E731
    while len(buffer) < target_size:
        for exp in episode(env, act, rng):
            buffer.push(exp)
            if len(buffer) >= target_size:
                break


class Trainer:
    """The state of one training run: agent, replay memory, epsilon schedule,
    stuck counter, the env/policy/sample random streams and the number of
    episodes done. Construction seeds the streams from `config.seed`, builds
    the agent and prefills the replay memory."""

    def __init__(self, config, env):
        self.config = config
        self.env = env
        rng_init, self.rng_env, self.rng_policy, self.rng_sample = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence(config.seed).spawn(4)
        )
        layer_sizes = (
            env.spec.observation_size,
            *config.hidden_sizes,
            env.spec.action_count,
        )
        self.agent = Agent(config.agent, layer_sizes, rng_init)
        self.buffer = ReplayBuffer(config.replay_capacity,
                                   env.spec.observation_size,
                                   env.spec.index_observations)
        self.schedule = EpsilonSchedule(epsilon_min=config.epsilon_min,
                                        decay_rate=config.decay_rate)
        self.stuck = StuckCounter(threshold=config.stuck_threshold)
        self.episodes_done = 0
        # Training starts here, so every step of every episode trains.
        _prefill(env, self.buffer, max(config.agent.min_replay_before_training,
                                       config.agent.batch_size),
                 self.rng_policy)

    def run_episode(self):
        """Run one epsilon-greedy episode with a train step after every env
        step, then reanneal or decay epsilon, and sync the target network
        after every `target_sync_period_episodes`-th episode. A non-finite
        loss raises TrainingDiverged carrying the partial record."""
        agent, schedule, index = self.agent, self.schedule, self.episodes_done
        t_start = time.perf_counter()
        total_reward = 0.0
        loss_sum = 0.0

        def record(step, reannealed, mean_loss):
            return EpisodeRecord(index, step + 1, total_reward, schedule.epsilon,
                                 self.stuck.count, reannealed, mean_loss,
                                 (time.perf_counter() - t_start) * 1e3)

        act = lambda obs: select_epsilon_greedy(  # noqa: E731
            agent.q_values(obs), schedule, self.rng_policy)
        for step, exp in enumerate(episode(self.env, act, self.rng_env)):
            self.buffer.push(exp)
            total_reward += exp.reward
            loss = agent.train_step(self.buffer, self.rng_sample)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at episode {index}, step {step}",
                    record(step, False, float(loss)))
            loss_sum += loss

        reannealed = (self.stuck.update(exp.timed_out)
                      and self.config.reanneal_enabled)
        if reannealed:
            schedule.reanneal()
        else:
            schedule.decay()
        if (index + 1) % self.config.agent.target_sync_period_episodes == 0:
            agent.sync_target()
        self.episodes_done += 1
        return record(step, reannealed, loss_sum / (step + 1))


def _save_checkpoint(trainer, name):
    agent_mod.save_checkpoint(
        trainer.agent, os.path.join(trainer.config.output_dir, name),
        trainer.episodes_done, trainer.config.env,
    )


def run_training(config, env=None, episode_callback=None):
    """Execute config.episodes training episodes; returns the episode records.

    `env` overrides the environment named in the config (used by tests with
    scripted environments). `episode_callback(record, agent)` runs after each
    episode's record is written.
    """
    if env is None:
        env = make_env(config.env)
    # Allocate first, so a run too large for memory leaves no files behind.
    trainer = Trainer(config, env)

    os.makedirs(config.output_dir, exist_ok=True)
    try:
        save_config(config, os.path.join(config.output_dir, "manifest.cfg"))
        metrics_fh = open(os.path.join(config.output_dir, "metrics.csv"), "w")
    except OSError as exc:
        raise RuntimeError(f"cannot write to {config.output_dir}: {exc}") from exc

    records = []
    with metrics_fh:
        metrics_fh.write(CSV_HEADER + "\n")
        for _ in range(config.episodes):
            try:
                record = trainer.run_episode()
            except TrainingDiverged as exc:
                metrics_fh.write(_format_row(exc.record) + "\n")
                raise
            records.append(record)
            metrics_fh.write(_format_row(record) + "\n")
            metrics_fh.flush()
            if (config.checkpoint_every > 0
                    and trainer.episodes_done % config.checkpoint_every == 0):
                _save_checkpoint(trainer, f"checkpoint_ep{trainer.episodes_done}")
            if episode_callback is not None:
                episode_callback(record, trainer.agent)
    _save_checkpoint(trainer, "final")
    return records


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _call(fn_and_job):
    fn, job = fn_and_job
    return fn(*job)


def run_parallel(fn, jobs):
    """Yield fn(*job) for each job of `jobs`, in job order.

    The jobs run in a pool of forked workers, one per usable core and no more
    than there are jobs. With one worker, or on a platform without fork, they
    run one after another in this process. `fn` must be importable by name,
    and the jobs and results must pickle. A job's exception is re-raised
    here, and the workers are gone when the generator finishes or closes.
    """
    jobs = list(jobs)
    workers = min(_usable_cores(), len(jobs))
    if workers > 1:
        import multiprocessing  # here, not at the top: cli imports harness

        # fork, not spawn: a spawned worker imports numpy again, which costs
        # about as much as splitting a bandit call saves.
        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                yield from pool.imap(_call, [(fn, job) for job in jobs])
            return
    for job in jobs:
        yield fn(*job)


def evaluate_greedy(agent, env, episodes, rng):
    """Roll out the greedy policy; returns a list of episode returns."""
    returns = []
    for _ in range(episodes):
        total = 0.0
        for exp in episode(env, agent.greedy_action, rng):
            total += exp.reward
        returns.append(total)
    return returns
