"""Checks on the files one CLI call wrote. Each returns a list of problems;
an empty list means the repetition's outputs are correct."""

from __future__ import annotations

import hashlib
import math
import os

from workloads import (CONST_EPS_REGRET_PER_PULL, HOVERTRAP_MAX_STEPS,
                       METRICS_HEADER, REGRET_HEADER, STUCK_THRESHOLD)


def read_metrics(path):
    """(rows, problems): rows are the 8 raw columns of each episode."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        header = lines[0] if lines else ""
        return [], [f"metrics.csv header is {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    bad = [i for i, row in enumerate(rows) if len(row) != 8]
    if bad:
        return [], [f"metrics.csv rows {bad[:5]} do not have 8 columns"]
    return rows, []


def check_training(workload, out_dir, episodes):
    """Problems with metrics.csv and the run's other files; also returns the
    parsed rows."""
    rows, problems = read_metrics(os.path.join(out_dir, "metrics.csv"))
    if problems:
        return rows, problems
    if len(rows) != episodes:
        problems.append(f"{len(rows)} episode rows, expected {episodes}")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append("episode column is not 0, 1, 2, ...")
    losses = [float(r[6]) for r in rows]
    if not all(math.isfinite(x) for x in losses):
        problems.append("non-finite mean_loss")
    steps = [int(r[1]) for r in rows]
    if min(steps, default=1) < 1:
        problems.append("an episode has no steps")
    if workload.env == "hovertrap":
        problems += check_stuck_counter(rows, "--no-reanneal" not in workload.flags)
    for name in ("manifest.cfg", "rewards.svg", "final.online.net",
                 "final.target.net", "final.meta"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name} is missing")
    return rows, problems


def check_stuck_counter(rows, reanneal_enabled):
    """Replay the stuck counter from each HoverTrap episode's outcome and
    compare it with the stuck and reannealed columns. A timeout (100 steps,
    no +-100 terminal reward) adds one, a finished episode halves the count,
    and reaching the threshold resets it to 0 and reanneals if enabled."""
    count = 0
    for row in rows:
        timed_out = (int(row[1]) == HOVERTRAP_MAX_STEPS
                     and abs(float(row[2])) < 50)
        count = count + 1 if timed_out else count // 2
        fired = count >= STUCK_THRESHOLD
        if fired:
            count = 0
        expected = (count, int(fired and reanneal_enabled))
        if (int(row[4]), int(row[5])) != expected:
            return [f"episode {row[0]}: stuck, reannealed = {row[4]}, "
                    f"{row[5]}; the counter rules give {expected}"]
    return []


def check_regret(out_dir, horizon):
    """Problems with regret.csv: one row per pull index, non-decreasing
    regret, and constant-eps regret per pull near eps * gap / 2."""
    with open(os.path.join(out_dir, "regret.csv")) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != REGRET_HEADER:
        return [f"regret.csv header is {lines[0] if lines else ''!r}"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    problems = []
    if len(rows) != horizon:
        problems.append(f"{len(rows)} regret rows, expected {horizon}")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("t column is not 1, 2, 3, ...")
    for col, name in enumerate(REGRET_HEADER.split(",")[1:], start=1):
        if any(b[col] < a[col] for a, b in zip(rows, rows[1:])):
            problems.append(f"{name} decreases")
    if rows:
        per_pull = rows[-1][2] / len(rows)
        if not 0.8 <= per_pull / CONST_EPS_REGRET_PER_PULL <= 1.2:
            problems.append(f"constant-eps regret per pull is {per_pull:.4f}, "
                            f"expected {CONST_EPS_REGRET_PER_PULL} +- 20%")
    return problems


def fingerprint(workload, out_dir):
    """Digest of the output that must repeat exactly for one seed:
    metrics.csv without its wall-time column, or regret.csv."""
    name = "regret.csv" if workload.env is None else "metrics.csv"
    with open(os.path.join(out_dir, name)) as fh:
        lines = fh.read().splitlines()
    if workload.env is not None:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
