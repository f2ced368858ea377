import io
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reanneal_rl.cli import cli_main
from reanneal_rl.config import load_config
from reanneal_rl.harness import EpisodeRecord, read_metrics_csv
from reanneal_rl.plotting import emit_reward_plot

TABULAR_CONFIG = (Path(__file__).resolve().parent.parent / "experiments"
                  / "configs" / "hovertrap-tabular.cfg")


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

    def test_train_labels_the_window_it_averages(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["train", "--env", "hovertrap", "--episodes", "5",
                         "--seed", "1", "--out", str(out)])
        assert code == 0
        rewards = [r.total_reward for r in read_metrics_csv(out / "metrics.csv")]
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("mean reward")]
        mean = float(line.rsplit(": ", 1)[1])
        assert line.startswith("mean reward last 5 episodes: ")
        assert mean == pytest.approx(np.mean(rewards), abs=1e-3)

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

    def test_eval_prints_mean_and_std(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "5",
                  "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final"),
                         "--episodes", "3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert re.search(r"-?\d+\.\d+ \+- \d+\.\d+", printed)

    def test_eval_seed_comes_from_its_flag_only(self, tmp_path, capsys,
                                                monkeypatch):
        # The lander's start state depends on the seed; HoverTrap's does not.
        out = tmp_path / "run"
        cli_main(["train", "--env", "lander", "--episodes", "1",
                  "--seed", "2", "--out", str(out)])
        args = ["eval", "--checkpoint", str(out / "final"), "--episodes", "2"]
        capsys.readouterr()
        assert cli_main(args) == 0
        printed = capsys.readouterr().out
        monkeypatch.setenv("REANNEAL_RL_SEED", "9")
        assert cli_main(args) == 0
        assert capsys.readouterr().out == printed

    def test_eval_truncated_checkpoint_reports_one_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        net = out / "final.online.net"
        net.write_bytes(net.read_bytes()[:12])  # cut inside the .npy header
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "final")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "final.online.net" in err[0]

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
        assert "seed must be >= 0, got -1" in one_error(capsys)
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

    # REANNEAL_RL_SEED is set to show that it has no say over the seed.
    @pytest.mark.parametrize("flag, env_value, source", [
        (["--seed", "-1"], None, "--seed"),
        (["--seed", "-1"], "9", "--seed"),
    ])
    def test_eval_negative_seed_names_its_source(
            self, tmp_path, capsys, monkeypatch, flag, env_value, source):
        out = tmp_path / "run"
        cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                  "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        if env_value is not None:
            monkeypatch.setenv("REANNEAL_RL_SEED", env_value)
        code = cli_main(["eval", "--checkpoint", str(out / "final"), *flag])
        assert code == 1
        assert f"{source} must be >= 0, got -1" in one_error(capsys)

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

    def test_bandit_uncreatable_out_fails_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulated before making --out")

        monkeypatch.setattr("reanneal_rl.cli.run_parallel", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli_main(["bandit", "--horizon", "50", "--seeds", "2",
                         "--out", str(blocker / "bandit")])
        assert code == 1
        assert "Not a directory" in one_error(capsys)

    def test_unknown_subcommand_reports_one_error(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "invalid choice: 'frobnicate'" in one_error(capsys)

    def test_unknown_flag_reports_one_error(self, capsys):
        assert cli_main(["train", "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in one_error(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["train", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["eval", "--checkpoint", "x", "--seed", "1.5"],
         "argument --seed: invalid int value: '1.5'"),
        (["bandit", "--horizon", "1e3"],
         "argument --horizon: invalid int value: '1e3'"),
        (["eval"], "the following arguments are required: --checkpoint"),
        (["plot", "--metrics", "m.csv"],
         "the following arguments are required: --out"),
    ], ids=["train-seed-abc", "eval-seed-1.5", "bandit-horizon-1e3",
            "eval-no-checkpoint", "plot-no-out"])
    def test_bad_flag_reports_one_error(self, tmp_path, capsys, monkeypatch,
                                        argv, message):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 1
        error = one_error(capsys)
        assert error.startswith(f"error: reanneal-rl {argv[0]}: ")
        assert error.endswith(message)
        assert os.listdir(tmp_path) == []

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["train", "--help"])
        assert excinfo.value.code == 0
        assert "--decay-rate" in capsys.readouterr().out

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

    def test_manifest_reproduces_its_run(self, tmp_path, capsys, monkeypatch):
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli_main(["train", "--env", "hovertrap", "--episodes", "5",
                         "--seed", "7", "--out", str(first)]) == 0
        monkeypatch.setenv("REANNEAL_RL_SEED", "9")  # no say over the seed
        assert cli_main(["train", "--config", str(first / "manifest.cfg"),
                         "--out", str(again)]) == 0
        assert "seed 7" in capsys.readouterr().out.splitlines()[-3]

        def no_wall(out):
            return [line.rsplit(",", 1)[0] for line in
                    (out / "metrics.csv").read_text().splitlines()]

        assert no_wall(again) == no_wall(first)

    def test_tabular_config_trains_evaluates_and_repeats(self, tmp_path,
                                                          capsys):
        # An empty hidden_sizes trains the (85, 2) network, a Q-table.
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli_main(["train", "--config", str(TABULAR_CONFIG),
                         "--episodes", "20", "--seed", "100",
                         "--out", str(first)]) == 0
        meta = (first / "final.meta").read_text().splitlines()
        assert "layer_sizes=85,2" in meta
        assert "learning_rate=0.1" in meta
        assert cli_main(["eval", "--checkpoint", str(first / "final"),
                         "--episodes", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "hovertrap: greedy return over 2 episodes:")
        assert cli_main(["train", "--config", str(first / "manifest.cfg"),
                         "--out", str(again)]) == 0

        def no_wall(out):
            return [line.rsplit(",", 1)[0] for line in
                    (out / "metrics.csv").read_text().splitlines()]

        assert len(no_wall(first)) == 21
        assert no_wall(again) == no_wall(first)

    # REANNEAL_RL_SEED is set to show that it has no say over the seed.
    @pytest.mark.parametrize("flag, env_value, seed", [
        ([], None, 5),
        ([], "9", 5),
        (["--seed", "7"], "9", 7),
    ])
    def test_seed_precedence_flag_env_var_file(self, tmp_path, monkeypatch,
                                               flag, env_value, seed):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nenv = hovertrap\nepisodes = 1\nseed = 5\n")
        if env_value is not None:
            monkeypatch.setenv("REANNEAL_RL_SEED", env_value)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg), *flag,
                         "--out", str(out)]) == 0
        assert load_config(out / "manifest.cfg").seed == seed

    def test_env_flag_contradicting_config_file_reports_one_error(
            self, tmp_path, capsys):
        cfg = tmp_path / "lander.cfg"
        cfg.write_text("[run]\nenv = lander\nstuck_threshold = 3\n"
                       "[agent]\ngamma = 0.9\n")
        out = tmp_path / "run"
        code = cli_main(["train", "--config", str(cfg), "--env", "hovertrap",
                         "--out", str(out)])
        assert code == 1
        err = one_error(capsys)
        assert "--env hovertrap" in err and "env = lander" in err
        assert "lander.cfg" in err
        assert not out.exists()

    def test_env_flag_matching_config_file_keeps_the_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nenv = hovertrap\nepisodes = 2\n"
                       "stuck_threshold = 3\n[agent]\ngamma = 0.9\n")
        out = tmp_path / "run"
        code = cli_main(["train", "--config", str(cfg), "--env", "hovertrap",
                         "--out", str(out)])
        assert code == 0
        manifest = load_config(out / "manifest.cfg")
        assert (manifest.env, manifest.stuck_threshold,
                manifest.agent.gamma) == ("hovertrap", 3, 0.9)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A 2-episode HoverTrap run whose final checkpoint the tests corrupt."""
    out = tmp_path_factory.mktemp("trained") / "run"
    assert cli_main(["train", "--env", "hovertrap", "--episodes", "2",
                     "--seed", "2", "--out", str(out)]) == 0
    return out


def npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def set_meta(key, line):
    """A change of .meta text that replaces the `key=` line by `line`."""
    return lambda blob: re.sub(rb"(?m)^" + key + rb"=.*\n", line, blob)


N = 85 * 32 + 32 + 32 * 2 + 2  # parameters of HoverTrap's 85-32-2 network

# id -> (checkpoint file, change of its bytes). The .npy header of a
# 1-D array is 128 bytes: 6 magic, 2 version, 2 header length, 118 header.
MALFORMED = {
    "cut-0": ("final.online.net", lambda blob: blob[:0]),
    "cut-6": ("final.online.net", lambda blob: blob[:6]),
    "cut-9": ("final.online.net", lambda blob: blob[:9]),
    "cut-60": ("final.online.net", lambda blob: blob[:60]),
    "cut-body": ("final.online.net", lambda blob: blob[:-4]),
    "trailing-byte": ("final.online.net", lambda blob: blob + b"\0"),
    # The format written before checkpoints were .npy files.
    "rqnet1": ("final.online.net", lambda blob: (
        b"RQNET1" + struct.pack("<4I", 3, 85, 32, 2) + blob[-8 * N:])),
    "float32": ("final.online.net",
                lambda blob: npy(np.zeros(N, dtype=np.float32))),
    "2d": ("final.online.net", lambda blob: npy(np.zeros((2, N // 2)))),
    "wrong-length": ("final.online.net", lambda blob: npy(np.zeros(N - 1))),
    "adam-m-wrong-length": ("final.adam_m.net",
                            lambda blob: npy(np.zeros(N + 1))),
    "layer-sizes-missing": ("final.meta", set_meta(b"layer_sizes", b"")),
    "layer-sizes-4-x": ("final.meta",
                        set_meta(b"layer_sizes", b"layer_sizes=4,x\n")),
    "layer-sizes-4": ("final.meta",
                      set_meta(b"layer_sizes", b"layer_sizes=4\n")),
    "layer-sizes-4-0-3": ("final.meta",
                          set_meta(b"layer_sizes", b"layer_sizes=4,0,3\n")),
    "episode-abc": ("final.meta", set_meta(b"episode", b"episode=abc\n")),
    "adam-step-count-negative": (
        "final.meta",
        set_meta(b"adam_step_count", b"adam_step_count=-5\n")),
    "env-missing": ("final.meta", set_meta(b"env", b"")),
    "env-unknown": ("final.meta", set_meta(b"env", b"env=cartpole\n")),
    "line-without-equals": ("final.meta", lambda blob: blob + b"garbage line\n"),
    "unknown-key": ("final.meta", lambda blob: blob + b"gama=0.5\n"),
    "repeated-key": ("final.meta", lambda blob: blob + b"gamma=0.9\n"),
    "gamma-out-of-range": ("final.meta", set_meta(b"gamma", b"gamma=1.5\n")),
    "kappa-inf": ("final.meta", set_meta(b"kappa", b"kappa=inf\n")),
}


@pytest.mark.parametrize("name, change", MALFORMED.values(), ids=MALFORMED)
def test_eval_malformed_checkpoint_reports_one_error(trained_run, tmp_path,
                                                     capsys, name, change):
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    path = out / name
    before = path.read_bytes()
    path.write_bytes(change(before))
    assert path.read_bytes() != before
    code = cli_main(["eval", "--checkpoint", str(out / "final")])
    assert code == 1
    assert str(path) in one_error(capsys)


# id -> (config file text, part of the error line). configparser's own
# errors span several lines; train prints the first.
MALFORMED_CONFIG = {
    "no-section-header": ("seed = 3\n[run]\nenv = hovertrap\n",
                          "contains no section headers"),
    "repeated-key": ("[run]\nenv = hovertrap\nseed = 1\nseed = 2\n",
                     "option 'seed' in section 'run' already exists"),
    "repeated-section": ("[run]\nenv = hovertrap\n[run]\nseed = 2\n",
                         "section 'run' already exists"),
    # configparser would copy these keys into [run] and [agent].
    "default-section": ("[DEFAULT]\nseed = 3\n[run]\nenv = hovertrap\n",
                        "unknown section(s) [DEFAULT]"),
    "gamma-out-of-range": ("[run]\nenv = hovertrap\n[agent]\ngamma = 1.5\n",
                           "gamma must be in [0, 1), got 1.5"),
    "learning-rate-inf": ("[agent]\nlearning_rate = inf\n",
                          "learning_rate must be positive and finite"),
}


@pytest.mark.parametrize("text, message", MALFORMED_CONFIG.values(),
                         ids=MALFORMED_CONFIG)
def test_train_malformed_config_file_reports_one_error(tmp_path, capsys, text,
                                                      message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    code = cli_main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = one_error(capsys)
    assert err.startswith(f"error: {cfg}: ") and message in err
    assert not out.exists()


def src_on_path():
    """PYTHONPATH for a subprocess that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.mark.parametrize("module", ["reanneal_rl", "reanneal_rl.cli"])
def test_python_dash_m_runs_the_command(tmp_path, module):
    path = src_on_path()
    out = tmp_path / "bandit"
    result = subprocess.run(
        [sys.executable, "-m", module, "bandit", "--horizon", "10",
         "--seeds", "1", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "regret.csv").exists()


def test_importing_the_cli_leaves_multiprocessing_out():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, reanneal_rl.cli; "
         "print('multiprocessing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src_on_path()}, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_diverging_run_prints_only_the_error_line(tmp_path):
    """numpy's overflow warnings would come before the error; the train
    command silences them, so stderr is the one error line."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[run]\nenv = hovertrap\nepisodes = 2\n"
                   "[agent]\nlearning_rate = 1e200\n")
    out = tmp_path / "run"
    result = subprocess.run(
        [sys.executable, "-m", "reanneal_rl", "train", "--config", str(cfg),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src_on_path()}, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "error: non-finite loss at episode 0, step 1"]
    assert len((out / "metrics.csv").read_text().splitlines()) == 2
