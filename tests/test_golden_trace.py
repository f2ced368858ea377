"""Golden trace: fixed-seed HoverTrap runs must reproduce committed metrics.

The CSVs under tests/data/ were written by

    reanneal-rl train --env hovertrap --decay-rate 0.9 --episodes 150 --seed 0 \
        [--no-reanneal]

before the train step was rewritten for speed. Integer columns and the
reanneal flag must match exactly. Float columns match to rel 1e-6 (abs 1e-12
for losses that are round-off noise), not bitwise, because OpenBLAS can pick
different kernels on other CPUs. wall_time_ms is not compared.
"""

from pathlib import Path

import pytest

from reanneal_rl.cli import cli_main
from reanneal_rl.harness import read_metrics_csv

DATA = Path(__file__).parent / "data"
ARGS = ["train", "--env", "hovertrap", "--decay-rate", "0.9",
        "--episodes", "150", "--seed", "0"]


@pytest.mark.parametrize("golden, flags", [
    ("golden_hovertrap_reanneal.csv", []),
    ("golden_hovertrap_no_reanneal.csv", ["--no-reanneal"]),
])
def test_metrics_match_golden_trace(tmp_path, capsys, golden, flags):
    out = tmp_path / "run"
    assert cli_main(ARGS + flags + ["--out", str(out)]) == 0
    expected = read_metrics_csv(DATA / golden)
    actual = read_metrics_csv(out / "metrics.csv")
    assert len(actual) == len(expected) == 150
    for a, e in zip(actual, expected):
        assert (a.episode_index, a.step_count, a.stuck_count,
                a.reannealed_this_episode) == (
            e.episode_index, e.step_count, e.stuck_count,
            e.reannealed_this_episode), f"episode {e.episode_index}"
        for name in ("total_reward", "epsilon_at_end", "mean_loss"):
            assert getattr(a, name) == pytest.approx(
                getattr(e, name), rel=1e-6, abs=1e-12
            ), f"episode {e.episode_index} {name}"

    fired = sum(r.reannealed_this_episode for r in expected)
    if flags:
        assert fired == 0
    else:
        assert fired >= 1
