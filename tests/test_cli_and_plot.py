import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reanneal_rl.cli import cli_main
from reanneal_rl.config import load_config
from reanneal_rl.harness import EpisodeRecord, read_metrics_csv
from reanneal_rl.plotting import emit_reward_plot


def one_error(capsys):
    """The single stderr line of a failed command, which must be an error."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


def records_for_plot(n=20):
    rng = np.random.default_rng(0)
    return [
        EpisodeRecord(i, 10, float(rng.normal()), max(0.01, 0.9**i), 0,
                      False, 0.1, 1.0)
        for i in range(n)
    ]


class TestPlot:
    def test_svg_structure_three_polylines(self, tmp_path):
        path = tmp_path / "out.svg"
        emit_reward_plot(records_for_plot(), path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 3

    def test_monotone_rewards_monotone_average(self, tmp_path):
        records = [EpisodeRecord(i, 1, float(i), 0.5, 0, False, 0.0, 1.0)
                   for i in range(30)]
        path = tmp_path / "out.svg"
        emit_reward_plot(records, path, window=5)
        text = path.read_text()
        # Second polyline is the moving average; svg y grows downward.
        avg = re.findall(r'points="([^"]+)"', text)[1]
        ys = [float(p.split(",")[1]) for p in avg.split()]
        assert all(a >= b for a, b in zip(ys, ys[1:]))

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_reward_plot(records_for_plot(), a)
        emit_reward_plot(records_for_plot(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_reward_plot([], tmp_path / "out.svg")


class TestCli:
    def test_train_writes_metrics_rows(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main([
            "train", "--env", "hovertrap", "--episodes", "50",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        records = read_metrics_csv(out / "metrics.csv")
        assert len(records) == 50
        assert (out / "rewards.svg").exists()
        assert (out / "manifest.cfg").exists()

    def test_no_reanneal_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = cli_main([
            "train", "--env", "hovertrap", "--episodes", "5",
            "--seed", "1", "--no-reanneal", "--out", str(out),
        ])
        assert code == 0
        manifest = (out / "manifest.cfg").read_text()
        assert "reanneal_enabled = False" in manifest

    def test_percent_in_output_dir(self, tmp_path):
        out = tmp_path / "r50%"
        code = cli_main([
            "train", "--env", "hovertrap", "--episodes", "2",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert load_config(out / "manifest.cfg").output_dir == str(out)
        assert len(read_metrics_csv(out / "metrics.csv")) == 2

    def test_env_var_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REANNEAL_RL_SEED", "77")
        out = tmp_path / "run"
        code = cli_main([
            "train", "--env", "hovertrap", "--episodes", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert "seed = 77" in (out / "manifest.cfg").read_text()

    def test_eval_prints_mean_and_std(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "5",
                  "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final"),
                         "--episodes", "3", "--greedy"])
        assert code == 0
        printed = capsys.readouterr().out
        assert re.search(r"-?\d+\.\d+ \+- \d+\.\d+", printed)

    def test_eval_truncated_checkpoint_reports_one_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        net = out / "final.online.net"
        net.write_bytes(net.read_bytes()[:12])  # cut inside the header
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "truncated header" in err[0]

    def test_eval_meta_missing_a_key_reports_one_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        meta = out / "final.meta"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(l for l in lines if not l.startswith("gamma=")))
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "gamma" in err[0] and "final.meta" in err[0]

    def test_eval_meta_value_that_does_not_parse_reports_one_error(
            self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        meta = out / "final.meta"
        text = meta.read_text()
        meta.write_text(re.sub(r"(?m)^gamma=.*$", "gamma=abc", text))
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "final.meta" in err[0] and "gamma" in err[0] and "'abc'" in err[0]

    def test_eval_without_adam_moments_reports_one_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        (out / "final.adam_m.net").unlink()
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "final.adam_m.net" in err[0]

    def test_out_of_range_decay_rate_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                         "--decay-rate", "1.5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "decay_rate" in err[0]
        assert not out.exists()

    def test_output_dir_with_trailing_space_reports_one_error(
            self, tmp_path, capsys):
        out = tmp_path / "a b "
        code = cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "output_dir" in err[0]
        assert not out.exists() and not (tmp_path / "a b").exists()

    def test_out_of_range_config_file_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nenv = hovertrap\nstuck_threshold = 0\n")
        out = tmp_path / "run"
        code = cli_main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "stuck_threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_value_that_does_not_parse_reports_one_error(
            self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nenv = hovertrap\nepisodes = ten\n")
        out = tmp_path / "run"
        code = cli_main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "exp.cfg" in err[0] and "episodes" in err[0] and "'ten'" in err[0]
        assert not out.exists()

    def test_negative_seed_flag_reports_one_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                         "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert "seed" in one_error(capsys)
        assert not out.exists()

    def test_zero_hidden_size_in_config_file_reports_one_error(
            self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nenv = hovertrap\nhidden_sizes = 0\n")
        out = tmp_path / "run"
        code = cli_main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "hidden_sizes" in one_error(capsys)
        assert not out.exists()

    def test_non_integer_seed_env_var_named(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("REANNEAL_RL_SEED", "abc")
        out = tmp_path / "run"
        code = cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                         "--out", str(out)])
        assert code == 1
        err = one_error(capsys)
        assert "REANNEAL_RL_SEED" in err and "'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_eval_episodes_below_one_reports_one_error(self, tmp_path, capsys,
                                                       episodes):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final"),
                         "--episodes", episodes])
        assert code == 1
        assert "--episodes" in one_error(capsys)

    def test_eval_checkpoint_for_another_env_reports_one_error(
            self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        meta = out / "final.meta"
        meta.write_text(meta.read_text().replace("env=hovertrap", "env=lander"))
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final")])
        assert code == 1
        err = one_error(capsys)
        assert "85 inputs and 2 outputs" in err
        assert "lander has 8 observations and 4 actions" in err

    def test_plot_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "5",
                  "--seed", "3", "--out", str(out)])
        svg = tmp_path / "plot.svg"
        code = cli_main(["plot", "--metrics", str(out / "metrics.csv"),
                         "--out", str(svg)])
        assert code == 0
        assert svg.read_text().count("<polyline") == 3

    def test_bandit_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bandit"
        code = cli_main(["bandit", "--horizon", "200", "--seeds", "2",
                         "--out", str(out)])
        assert code == 0
        lines = (out / "regret.csv").read_text().splitlines()
        assert lines[0] == "t,regret_greedy,regret_const,regret_decay"
        assert len(lines) == 201

    def test_bandit_zero_seeds_reports_one_error(self, tmp_path, capsys):
        out = tmp_path / "bandit"
        code = cli_main(["bandit", "--horizon", "50", "--seeds", "0",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--seeds" in err[0]
        assert not (out / "regret.csv").exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["train", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_checkpoint_reports_error(self, capsys):
        code = cli_main(["eval", "--checkpoint", "/nonexistent/ckpt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[run]\nenv = hovertrap\nepisodes = 4\nseed = 5\n"
            "[agent]\nlearning_rate = 0.002\n"
        )
        out = tmp_path / "run"
        code = cli_main(["train", "--config", str(cfg), "--episodes", "6",
                         "--out", str(out)])
        assert code == 0
        manifest = (out / "manifest.cfg").read_text()
        assert "episodes = 6" in manifest
        assert "learning_rate = 0.002" in manifest
        assert len(read_metrics_csv(out / "metrics.csv")) == 6


@pytest.mark.parametrize("module", ["reanneal_rl", "reanneal_rl.cli"])
def test_python_dash_m_runs_the_command(tmp_path, module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "bandit"
    result = subprocess.run(
        [sys.executable, "-m", module, "bandit", "--horizon", "10",
         "--seeds", "1", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "regret.csv").exists()
