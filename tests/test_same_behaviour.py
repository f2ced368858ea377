"""Smoke tests of tools/same_behaviour.py at two episodes per training run."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_behaviour.py"


def same_behaviour(parent_dir):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent_dir), "--episodes", "2"],
        capture_output=True, text=True, timeout=600,
    )


def test_checkout_matches_itself():
    result = same_behaviour(ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1] == "0 difference(s)"
    assert "same    hovertrap_reanneal/final.online.net" in lines
    assert "same    lander/metrics.csv" in lines
    assert "same    lander eval stdout" in lines
    assert "same    bandit/regret.csv" in lines
    assert "same    hovertrap_tabular/final.online.net" in lines
    assert "same    hovertrap_tabular eval stdout" in lines
    assert "same    hovertrap_hover_2000/metrics.csv" in lines
    assert "same    hovertrap_hover_2000 eval stdout" in lines


def test_changed_learning_rate_is_reported(tmp_path):
    # HoverTrap's default learning rate changes both HoverTrap runs but
    # neither the lander run, nor the tabular run, whose config file sets
    # its own rate, nor the bandit.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    config = tmp_path / "src" / "reanneal_rl" / "config.py"
    text = config.read_text()
    assert "(2_000, (32,), 500, 0.003, 64)" in text
    config.write_text(text.replace("(2_000, (32,), 500, 0.003, 64)",
                                   "(2_000, (32,), 500, 0.004, 64)"))
    result = same_behaviour(tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert "DIFFERS hovertrap_reanneal/final.online.net" in lines
    assert "DIFFERS hovertrap_no_reanneal/manifest.cfg" in lines
    assert "same    lander/final.online.net" in lines
    assert "same    hovertrap_tabular/final.online.net" in lines
    assert "same    hovertrap_tabular/manifest.cfg" in lines
    assert "same    bandit/regret.csv" in lines
