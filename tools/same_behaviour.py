"""Check that this checkout behaves as another tree does, output for output.

    python tools/same_behaviour.py PARENT_DIR [--episodes N]

In PARENT_DIR and in the checkout that holds this script, it runs the three
golden `train` commands of tests/test_golden_trace.py, a fourth from the
checkout's experiments/configs/hovertrap-tabular.cfg (the (85, 2) network,
a Q-table; both trees read the same file), a fifth that is the 2000-episode
hovering arm of criterion 6 at seed 0 (a last-bit change in the Q-values
that pick actions could show only in a long run), `eval --episodes 5` on
each run's final checkpoint and `bandit --horizon 2000 --seeds 3`, with one
BLAS thread on both sides. Then it compares every file the commands wrote: metrics.csv
without its wall-time column, manifest.cfg without output_dir, and every
other file (rewards.svg, final.*, regret.csv) byte for byte; and each
command's exit status and stdout, with the output paths removed. It prints
one line per file and per command, and exits 1 on any difference or failed
command. `--episodes N` shortens the five training runs.

Standard library only; each tree's `src/` is put on PYTHONPATH in turn.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
TABULAR_CONFIG = CHECKOUT / "experiments" / "configs" / "hovertrap-tabular.cfg"
TRAIN_RUNS = {
    "hovertrap_reanneal": ["--env", "hovertrap", "--decay-rate", "0.9",
                           "--episodes", "150", "--seed", "0"],
    "hovertrap_no_reanneal": ["--env", "hovertrap", "--decay-rate", "0.9",
                              "--episodes", "150", "--seed", "0",
                              "--no-reanneal"],
    "lander": ["--env", "lander", "--episodes", "20", "--seed", "3"],
    "hovertrap_tabular": ["--config", str(TABULAR_CONFIG), "--decay-rate",
                          "0.9", "--episodes", "150", "--seed", "0"],
    "hovertrap_hover_2000": ["--env", "hovertrap", "--decay-rate", "0.9",
                             "--episodes", "2000", "--seed", "0",
                             "--no-reanneal"],
}
BANDIT = ["bandit", "--horizon", "2000", "--seeds", "3"]
ONE_BLAS_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run(tree, args, out):
    """Run `python -m reanneal_rl ARGS` on `tree`'s source. Returns its exit
    status and stdout as text, with `out` (the side's output root) removed,
    and whether it succeeded."""
    # Older trees take a seed from REANNEAL_RL_SEED, so neither side sees it.
    env = {key: value for key, value in os.environ.items()
           if key != "REANNEAL_RL_SEED"}
    env.update(ONE_BLAS_THREAD, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-m", "reanneal_rl", *args],
                            env=env, capture_output=True, text=True)
    if result.returncode:
        print(f"{tree}: {' '.join(args)} exited {result.returncode}:\n"
              f"{result.stderr}", file=sys.stderr)
    stdout = result.stdout.replace(str(out), "<out>")
    return f"exit {result.returncode}\n{stdout}", result.returncode == 0


def run_tree(tree, out, episodes):
    """Run every command on `tree`, writing under `out`. Returns the stdout
    text by command name and whether every command succeeded."""
    stdouts, ok = {}, True
    for name, flags in TRAIN_RUNS.items():
        if episodes is not None:
            flags = list(flags)
            flags[flags.index("--episodes") + 1] = str(episodes)
        run_dir = out / name
        commands = {
            "train": ["train", *flags, "--out", str(run_dir)],
            "eval": ["eval", "--checkpoint", str(run_dir / "final"),
                     "--episodes", "5"],
        }
        for command, args in commands.items():
            stdouts[f"{name} {command}"], success = run(tree, args, out)
            ok &= success
    stdouts["bandit"], success = run(tree, [*BANDIT, "--out",
                                            str(out / "bandit")], out)
    return stdouts, ok and success


def comparable(path):
    """The bytes of an output file that must match: metrics.csv without its
    last (wall-time) column, manifest.cfg without its output_dir line, any
    other file whole."""
    data = path.read_bytes()
    if path.name == "metrics.csv":
        return b"".join(line.rsplit(b",", 1)[0] + b"\n"
                        for line in data.splitlines())
    if path.name == "manifest.cfg":
        return b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"output_dir ="))
    return data


def compare(parent_out, checkout_out, parent_stdouts, checkout_stdouts):
    """Print one line per output file and per command; returns the number
    of differences."""
    results = []
    files = sorted({path.relative_to(root).as_posix()
                    for root in (parent_out, checkout_out)
                    for path in root.rglob("*") if path.is_file()})
    for name in files:
        parent, checkout = parent_out / name, checkout_out / name
        if not (parent.is_file() and checkout.is_file()):
            side = "parent" if parent.is_file() else "checkout"
            results.append((False, f"{name} (only in {side})"))
        else:
            results.append((comparable(parent) == comparable(checkout), name))
    for command, text in checkout_stdouts.items():
        results.append((parent_stdouts[command] == text, f"{command} stdout"))
    for same, what in results:
        print(f"{'same   ' if same else 'DIFFERS'} {what}")
    return sum(not same for same, _ in results)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path,
                        help="the tree to compare with, holding src/reanneal_rl")
    parser.add_argument("--episodes", type=int,
                        help="train each run for this many episodes")
    args = parser.parse_args(argv)
    if not (args.parent_dir / "src" / "reanneal_rl").is_dir():
        parser.error(f"{args.parent_dir} holds no src/reanneal_rl")
    with tempfile.TemporaryDirectory(prefix="same_behaviour_") as tmp:
        outs = {side: Path(tmp) / side for side in ("parent", "checkout")}
        parent_stdouts, parent_ok = run_tree(args.parent_dir.resolve(),
                                             outs["parent"], args.episodes)
        checkout_stdouts, checkout_ok = run_tree(CHECKOUT, outs["checkout"],
                                                 args.episodes)
        differences = compare(outs["parent"], outs["checkout"],
                              parent_stdouts, checkout_stdouts)
    failed = not (parent_ok and checkout_ok)
    print(f"{differences} difference(s)"
          + ("; a command failed (see stderr)" if failed else ""))
    return 1 if differences or failed else 0


if __name__ == "__main__":
    sys.exit(main())
