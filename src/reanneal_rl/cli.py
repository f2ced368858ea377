"""Command-line entry point.

Subcommands:
  train   run a training experiment and write metrics/plot/checkpoints
  bandit  simulate the three bandit exploration regimes, write regret curves
  plot    render an SVG from an existing metrics CSV
  eval    roll out a saved checkpoint and report mean/std return
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import bandit as bandit_mod
from .agent import load_checkpoint
from .config import default_config, load_config
from .envs import make_env
from .harness import evaluate_greedy, read_metrics_csv, run_training
from .plotting import emit_reward_plot

SEED_ENV_VAR = "REANNEAL_RL_SEED"
_CSV_CHUNK_ROWS = 256   # regret.csv rows formatted per write


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reanneal-rl",
        description="DQN training with exploration reannealing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training experiment")
    train.add_argument("--config", help="config file (flag values override it)")
    train.add_argument("--env", choices=["lander", "hovertrap"])
    train.add_argument("--episodes", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--decay-rate", type=float)
    train.add_argument("--no-reanneal", action="store_true",
                       help="disable exploration reannealing")
    train.add_argument("--out", help="output directory")

    bandit = sub.add_parser("bandit", help="bandit regret simulation")
    bandit.add_argument("--horizon", type=int, default=100_000)
    bandit.add_argument("--seeds", type=int, default=20)
    bandit.add_argument("--out", default="runs/bandit")

    plot = sub.add_parser("plot", help="render metrics CSV as SVG")
    plot.add_argument("--metrics", required=True)
    plot.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True,
                    help="checkpoint prefix or .meta path")
    ev.add_argument("--episodes", type=int, default=10)
    ev.add_argument("--greedy", action="store_true",
                    help="act greedily (default behavior)")
    ev.add_argument("--seed", type=int)
    return parser


def _resolve_seed(args_seed):
    if args_seed is not None:
        return args_seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} = {raw!r} is not a valid int") from None


def _cmd_train(args):
    if args.config:
        config = load_config(args.config)
        if args.env and args.env != config.env:
            # Switching environment discards the file's env-specific sizing.
            config = default_config(args.env)
    else:
        config = default_config(args.env or "lander")
    overrides = {"seed": _resolve_seed(args.seed)}
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if args.decay_rate is not None:
        overrides["decay_rate"] = args.decay_rate
    if args.no_reanneal:
        overrides["reanneal_enabled"] = False
    if args.out:
        overrides["output_dir"] = args.out
    # replace() reruns the config's validation on the flag values.
    config = replace(config, **overrides)

    records = run_training(config)
    emit_reward_plot(
        records,
        os.path.join(config.output_dir, "rewards.svg"),
        window=config.moving_average_window,
    )
    rewards = [r.total_reward for r in records]
    print(f"trained {len(records)} episodes on {config.env} "
          f"(seed {config.seed}, reanneal "
          f"{'on' if config.reanneal_enabled else 'off'})")
    print(f"mean reward last 100 episodes: {np.mean(rewards[-100:]):.3f}")
    print(f"outputs in {config.output_dir}")
    return 0


def _cmd_bandit(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    spec = bandit_mod.BanditSpec(
        arm_means=[0.0, 1.0], noise_std=0.1, horizon=args.horizon
    )
    strategies = [
        ("regret_greedy", bandit_mod.Greedy()),
        ("regret_const", bandit_mod.ConstantEps(0.1)),
        ("regret_decay", bandit_mod.DecayingEps(10.0)),
    ]
    columns = []
    for _, strategy in strategies:
        total = np.zeros(args.horizon)
        for seed in range(args.seeds):
            rng = np.random.default_rng(seed)
            total += bandit_mod.run_bandit(spec, strategy, rng).cumulative_regret
        columns.append(total / args.seeds)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "regret.csv")
    row_format = "%d" + ",%.6g" * len(columns) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(name for name, _ in strategies) + "\n")
        # Chunks of Python floats format fast; small chunks keep peak memory
        # flat.
        for start in range(0, args.horizon, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, args.horizon)
            rows = zip(range(start + 1, stop + 1),
                       *(column[start:stop].tolist() for column in columns))
            fh.write("".join([row_format % row for row in rows]))
    print(f"wrote {path} ({args.seeds} seeds, horizon {args.horizon})")
    return 0


def _cmd_plot(args):
    records = read_metrics_csv(args.metrics)
    emit_reward_plot(records, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args):
    if args.episodes < 1:
        raise ValueError(f"--episodes must be >= 1, got {args.episodes}")
    agent, meta = load_checkpoint(args.checkpoint)
    env_name = meta.get("env")
    if env_name is None:
        raise RuntimeError("checkpoint metadata is missing the environment name")
    env = make_env(env_name)
    sizes = agent.online.layer_sizes
    expected = (env.spec.observation_size, env.spec.action_count)
    if (sizes[0], sizes[-1]) != expected:
        raise ValueError(
            f"checkpoint {args.checkpoint} has {sizes[0]} inputs and "
            f"{sizes[-1]} outputs, but {env_name} has {expected[0]} "
            f"observations and {expected[1]} actions")
    rng = np.random.default_rng(_resolve_seed(args.seed))
    returns = evaluate_greedy(agent, env, args.episodes, rng)
    print(f"{env_name}: greedy return over {args.episodes} episodes: "
          f"{np.mean(returns):.3f} +- {np.std(returns):.3f}")
    return 0


def cli_main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "bandit": _cmd_bandit,
        "plot": _cmd_plot,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
