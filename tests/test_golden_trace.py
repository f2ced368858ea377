"""Golden traces: fixed-seed runs must reproduce committed outputs.

HoverTrap training metrics: golden_hovertrap_*.csv under tests/data/ were
written by

    reanneal-rl train --env hovertrap --decay-rate 0.9 --episodes 150 --seed 0 \
        [--no-reanneal]

before the train step was rewritten for speed. Integer columns and the
reanneal flag must match exactly. Float columns match to rel 1e-6 (abs 1e-12
for losses that are round-off noise), not bitwise, because OpenBLAS can pick
different kernels on other CPUs. wall_time_ms is not compared.

Bandit regret curves: golden_regret.csv was written by

    reanneal-rl bandit --horizon 2000 --seeds 3

before run_bandit and the regret.csv writer were rewritten for speed. The
bandit simulation runs no BLAS, so its output must match byte for byte.
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


def _bandit(tmp_path, horizon, seeds):
    out = tmp_path / f"bandit-{horizon}"
    assert cli_main(["bandit", "--horizon", str(horizon), "--seeds",
                     str(seeds), "--out", str(out)]) == 0
    return (out / "regret.csv").read_bytes()


def test_regret_csv_matches_golden_bytes(tmp_path, capsys):
    assert _bandit(tmp_path, 2000, 3) == (DATA / "golden_regret.csv").read_bytes()


@pytest.mark.parametrize("horizon", [1, 256, 257, 1024, 1025])
def test_regret_csv_rows_at_chunk_edges(tmp_path, capsys, horizon):
    lines = _bandit(tmp_path, horizon, 1).decode().split("\n")
    assert lines[-1] == ""   # ends with a newline
    rows = lines[1:-1]
    assert [int(row.split(",")[0]) for row in rows] == list(
        range(1, horizon + 1))
    assert all(len(row.split(",")) == 4 for row in rows)
