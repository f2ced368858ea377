"""The benchmark's workloads and metric tables.

Each workload is one `reanneal-rl` CLI invocation. README.md says why each
was chosen; BENCHMARK.json at the repository root lists the same names.
"""

from __future__ import annotations

from dataclasses import dataclass

METRICS_HEADER = ("episode,steps,total_reward,epsilon,stuck,reannealed,"
                  "mean_loss,wall_time_ms")
REGRET_HEADER = "t,regret_greedy,regret_const,regret_decay"
BANDIT_STRATEGIES = 3          # greedy, constant eps, decaying eps
CONST_EPS_REGRET_PER_PULL = 0.05   # eps 0.1 times gap 1 times 1/2 arms
HOVERTRAP_MAX_STEPS = 100
STUCK_THRESHOLD = 10           # RunConfig default


@dataclass(frozen=True)
class Workload:
    name: str
    env: str | None        # None for the bandit workload
    flags: tuple           # CLI flags after the subcommand, seed and size excluded
    episodes: int = 0      # training workloads
    tiny_episodes: int = 0
    horizon: int = 0       # bandit workload
    bandit_seeds: int = 0
    tiny_horizon: int = 0

    def argv(self, seed, out_dir, tiny=False):
        """The CLI argv for one repetition. The bandit CLI seeds its own
        runs 0..k-1, so `seed` does not reach it."""
        if self.env is None:
            horizon = self.tiny_horizon if tiny else self.horizon
            seeds = 1 if tiny else self.bandit_seeds
            return ["bandit", "--horizon", str(horizon), "--seeds", str(seeds),
                    "--out", out_dir]
        episodes = self.tiny_episodes if tiny else self.episodes
        return ["train", "--env", self.env, *self.flags,
                "--episodes", str(episodes), "--seed", str(seed),
                "--out", out_dir]

    def pulls(self, tiny=False):
        """Bandit pulls made by one CLI call."""
        if tiny:
            return BANDIT_STRATEGIES * self.tiny_horizon
        return BANDIT_STRATEGIES * self.horizon * self.bandit_seeds


WORKLOADS = {w.name: w for w in (
    Workload("hovertrap-stuck", "hovertrap",
             ("--decay-rate", "0.9", "--no-reanneal"),
             episodes=150, tiny_episodes=8),
    Workload("bandit", None, (), horizon=100_000, bandit_seeds=1,
             tiny_horizon=20_000),
)}

# Gated end-to-end metrics, reported by untraced runs (--trace 0).
END_TO_END = {
    "steps_per_s": "1/s",
    "step_us_p90": "us",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}

KERNEL_SHAPES = {"lander": (8, 200, 60, 4), "hovertrap": (85, 32, 2)}
KERNEL_FNS = ("forward", "forward_batch", "backward", "adam_step")
KERNEL_BATCH = 64

# Spans whose per-call self time and call count are reported.
PER_CALL_SPANS = (
    "mlp.forward", "mlp.forward_batch", "mlp.backward", "mlp.adam_step",
    "replay.push", "replay.sample_arrays", "envs.step", "envs.reset",
    "explore.select_epsilon_greedy", "agent.train_step", "agent.sync_target",
    "bandit.run_bandit",
)
# Spans that run a few times per CLI call: total self time per call, in ms.
PER_RUN_SPANS = (
    "agent.save_checkpoint", "harness.prefill", "plotting.emit_reward_plot",
    "cli",
)


def per_layer_units():
    """Name -> unit of every metric a traced run (--trace 1) reports."""
    units = {}
    for span in PER_CALL_SPANS:
        units[f"{span}.self_us"] = "us"
        units[f"{span}.calls"] = "count"
    for span in PER_RUN_SPANS:
        units[f"{span}.self_ms"] = "ms"
    units["harness.run_training.self_us_per_step"] = "us"
    units["bandit.run_bandit.ns_per_pull"] = "ns"
    units["explore.reanneals"] = "count"
    units["run.steps"] = "count"
    units["run.greedy_return"] = "reward"
    units["trace.overhead"] = "ratio"
    for fn in KERNEL_FNS:
        for shape in KERNEL_SHAPES:
            units[f"mlp.kernel.{fn}.{shape}.us"] = "us"
            units[f"mlp.kernel.{fn}.{shape}.flops_computed"] = "flop"
            units[f"mlp.kernel.{fn}.{shape}.bytes_computed"] = "byte"
    return units
