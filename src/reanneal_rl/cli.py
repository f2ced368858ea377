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
from .envs import ENVS, make_env
from .harness import (evaluate_greedy, read_metrics_csv, run_parallel,
                      run_training)
from .plotting import emit_reward_plot

_CSV_CHUNK_ROWS = 256   # regret.csv rows formatted per write


class _Parser(argparse.ArgumentParser):
    """A bad command line is one error line and exit status 1, like any
    other bad input, not argparse's usage block and exit status 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    """Each train flag but --config has the RunConfig field it sets as dest."""
    parser = _Parser(
        prog="reanneal-rl",
        description="DQN training with exploration reannealing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training experiment")
    train.set_defaults(handler=_cmd_train)
    train.add_argument("--config", help="config file (flag values override it)")
    train.add_argument("--env", choices=list(ENVS))
    train.add_argument("--episodes", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--decay-rate", type=float)
    train.add_argument("--no-reanneal", dest="reanneal_enabled",
                       action="store_false", default=None,
                       help="disable exploration reannealing")
    train.add_argument("--out", dest="output_dir", help="output directory")

    bandit = sub.add_parser("bandit", help="bandit regret simulation")
    bandit.set_defaults(handler=_cmd_bandit)
    bandit.add_argument("--horizon", type=int, default=100_000)
    bandit.add_argument("--seeds", type=int, default=20)
    bandit.add_argument("--out", default="runs/bandit")

    plot = sub.add_parser("plot", help="render metrics CSV as SVG")
    plot.set_defaults(handler=_cmd_plot)
    plot.add_argument("--metrics", required=True)
    plot.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.set_defaults(handler=_cmd_eval)
    ev.add_argument("--checkpoint", required=True,
                    help="checkpoint prefix or .meta path")
    ev.add_argument("--episodes", type=int, default=10)
    ev.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_train(args):
    overrides = {key: value for key, value in vars(args).items()
                 if value is not None
                 and key not in ("command", "handler", "config")}
    if args.config:
        config = load_config(args.config)
        if args.env not in (None, config.env):
            raise ValueError(f"--env {args.env} contradicts env = {config.env} "
                             f"in {args.config}")
    else:
        config = default_config(args.env or "lander")
    # replace() rejects an unknown field and reruns the config's validation.
    config = replace(config, **overrides)

    # A diverging run stops with TrainingDiverged, the one error line;
    # numpy's overflow warnings on the way there would only precede it.
    with np.errstate(over="ignore", invalid="ignore"):
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
    window = min(100, len(rewards))
    print(f"mean reward last {window} episodes: "
          f"{np.mean(rewards[-window:]):.3f}")
    print(f"outputs in {config.output_dir}")
    return 0


def _bandit_run(spec, strategy, seed):
    return bandit_mod.run_bandit(spec, strategy, np.random.default_rng(seed))


def _cmd_bandit(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    spec = bandit_mod.BanditSpec(
        arm_means=[0.0, 1.0], noise_std=0.1, horizon=args.horizon
    )
    os.makedirs(args.out, exist_ok=True)  # fail before, not after, the runs
    strategies = [
        ("regret_greedy", bandit_mod.Greedy()),
        ("regret_const", bandit_mod.ConstantEps(0.1)),
        ("regret_decay", bandit_mod.DecayingEps(10.0)),
    ]
    jobs = [(spec, strategy, seed)
            for _, strategy in strategies for seed in range(args.seeds)]
    # Runs arrive in job order, so each strategy's runs sum in seed order.
    totals = [np.zeros(args.horizon) for _ in strategies]
    for k, curve in enumerate(run_parallel(_bandit_run, jobs)):
        totals[k // args.seeds] += curve
    for total in totals:
        total /= args.seeds
    path = os.path.join(args.out, "regret.csv")
    row_format = "%d" + ",%.6g" * len(totals) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(name for name, _ in strategies) + "\n")
        # Chunks of Python floats format fast; small chunks keep peak memory
        # flat.
        for start in range(0, args.horizon, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, args.horizon)
            rows = zip(range(start + 1, stop + 1),
                       *(total[start:stop].tolist() for total in totals))
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
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    agent, meta = load_checkpoint(args.checkpoint)
    env = make_env(meta["env"])
    rng = np.random.default_rng(args.seed)
    returns = evaluate_greedy(agent, env, args.episodes, rng)
    print(f"{meta['env']}: greedy return over {args.episodes} episodes: "
          f"{np.mean(returns):.3f} +- {np.std(returns):.3f}")
    return 0


def cli_main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
