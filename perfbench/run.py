"""Benchmark of the reanneal-rl CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition is one CLI call in a fresh
interpreter that imports the checkout's src/. With --trace 0 the run measures
set-up time and repeats the untraced CLI call for S seconds; with --trace 1
it microbenchmarks the mlp kernels and alternates untraced and traced calls.
Each repetition's outputs are checked. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. A fuller record
(machine details, every repetition, the span table) is written to
.bench_out/results/. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
from workloads import (END_TO_END, PER_CALL_SPANS, PER_RUN_SPANS,  # noqa: E402
                       WORKLOADS, per_layer_units)

BLAS_THREADS = 1        # steadier than several threads on a shared machine
SETUP_REPEATS = 25
MIN_REPS = 2            # two calls with one seed, so determinism is checked
MAX_REPS = 60
RUN_LIMIT_S = 170       # a run must end within 180 s
OUT_DIR = ROOT / ".bench_out"


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("REANNEAL_RL_SEED", None)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PERFBENCH_ROOT": str(ROOT),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    })
    return env


def run_child(args, env, timeout):
    """Run child.py in a fresh interpreter; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[0]} timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: "
                          + " | ".join(tail))
    return json.loads(lines[-1])


def weighted_percentile(values, weights, q):
    pairs = sorted(zip(values, weights))
    goal = q * sum(weights)
    acc = 0
    for value, weight in pairs:
        acc += weight
        if acc >= goal:
            return value
    return pairs[-1][0]


class Run:
    """One benchmark run: a workload, a seed and a time budget."""

    def __init__(self, workload, seed, seconds, tiny):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.env = child_env()
        self.start = time.monotonic()
        self.reps = []
        self.setup_s = []
        self.setup_errors = []
        self.scratch = OUT_DIR / "runs" / f"{workload.name}-{seed}-{os.getpid()}"

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def child(self, *args):
        flags = ["--tiny"] if self.tiny else []
        return run_child([*args, *flags], self.env, self.remaining())

    def rep(self, traced):
        """One CLI call plus the checks on its outputs."""
        w = self.workload
        out = self.scratch / f"rep{len(self.reps)}"
        shutil.rmtree(out, ignore_errors=True)
        rec = {"traced": traced, "errors": [], "out": str(out)}
        self.reps.append(rec)
        args = ["rep", w.name, str(self.seed), str(out)]
        try:
            res = self.child(*args, *(["--trace"] if traced else []))
        except ChildFailed as exc:
            rec["errors"].append(str(exc))
            return rec
        rec.update(wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"],
                   spans=res["spans"], greedy_return=res["greedy_return"],
                   missing_targets=res["missing_targets"])
        if res["code"] != 0:
            rec["errors"].append(f"CLI exit code {res['code']}: {res['error']}")
            return rec
        try:
            self.check_outputs(rec, out)
        except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
            rec["errors"].append(f"reading the outputs failed: {exc!r}")
        return rec

    def check_outputs(self, rec, out):
        """Record the repetition's counts and step-time samples, and every
        problem with its output files."""
        w = self.workload
        if w.env is None:
            horizon = w.tiny_horizon if self.tiny else w.horizon
            rec["errors"] += checks.check_regret(out, horizon)
            rec["steps"] = w.pulls(self.tiny)
            rec["reanneals"] = 0
            # one sample per repetition: the CLI call's time per pull
            rec["step_samples"] = ([rec["wall_s"] / rec["steps"] * 1e6],
                                   [rec["steps"]])
        else:
            episodes = w.tiny_episodes if self.tiny else w.episodes
            rows, problems = checks.check_training(w, out, episodes)
            rec["errors"] += problems
            steps = [int(r[1]) for r in rows]
            us_per_step = [float(r[7]) * 1e3 / n for r, n in zip(rows, steps)]
            rec["steps"] = sum(steps)
            rec["reanneals"] = sum(int(r[5]) for r in rows)
            rec["step_samples"] = (us_per_step, steps)
        if not rec["errors"]:
            rec["fingerprint"] = checks.fingerprint(w, out)

    def repeat(self, plan, setups=0):
        """Call rep(traced) for each entry of the cycling plan until the
        time budget is spent, ending on a whole cycle. Each cycle starts
        with the set-up timings due by then, so the `setups` timings are
        spread over the run rather than taken in one burst."""
        measured = time.monotonic()
        per_cycle = 0.0
        while len(self.reps) < MAX_REPS:
            share = (time.monotonic() - measured + per_cycle) / self.seconds
            while self.setups_done() < min(setups, math.ceil(setups * share)):
                self.setup()
            for traced in plan:
                self.rep(traced)
            elapsed = time.monotonic() - measured
            per_cycle = elapsed / (len(self.reps) / len(plan))
            if len(self.reps) >= MIN_REPS and elapsed + per_cycle > self.seconds:
                break
            if self.remaining() < 2 * per_cycle:
                break
        self.check_determinism()

    def check_determinism(self):
        ok = [r for r in self.reps if "fingerprint" in r]
        for rec in ok[1:]:
            if rec["fingerprint"] != ok[0]["fingerprint"]:
                rec["errors"].append("outputs differ from the first repetition "
                                     "with the same seed")
        for rec in self.reps:
            rec.pop("fingerprint", None)

    def good(self, traced=False):
        return [r for r in self.reps if not r["errors"] and r["traced"] == traced]

    def setups_done(self):
        return len(self.setup_s) + len(self.setup_errors)

    def setup(self):
        """Time set-up once in a fresh interpreter; a failure counts as a
        failed attempt."""
        try:
            self.setup_s.append(self.child("setup", self.workload.name)["setup_s"])
        except ChildFailed as exc:
            self.setup_errors.append(str(exc))

    def counts(self):
        """(attempted, failed) over repetitions and set-up runs."""
        failed = sum(1 for r in self.reps if r["errors"]) + len(self.setup_errors)
        return len(self.reps) + len(self.setup_s) + len(self.setup_errors), failed


def step_us(reps, q):
    """Step-weighted quantile of the time per step over every episode of
    every repetition (bandit: over repetitions, as time per pull)."""
    us = [u for r in reps for u in r["step_samples"][0]]
    weights = [n for r in reps for n in r["step_samples"][1]]
    return weighted_percentile(us, weights, q)


def end_to_end(run):
    good = run.good()
    attempted, failed = run.counts()
    return {
        "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in good),
        "step_us_p90": step_us(good, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "success_rate": 1 - failed / attempted,
        "setup_s": statistics.median(run.setup_s),
    }


def span_totals(reps):
    """name -> [calls, total_ns, self_ns] summed over repetitions."""
    totals = {}
    for rec in reps:
        for row in rec["spans"]:
            agg = totals.setdefault(row["name"], [0, 0, 0])
            agg[0] += row["calls"]
            agg[1] += row["total_ns"]
            agg[2] += row["self_ns"]
    return totals


def per_layer(run, kernel_metrics):
    traced, untraced = run.good(traced=True), run.good()
    n = len(traced)
    totals = span_totals(traced)
    none = [0, 0, 0]
    steps = statistics.median(r["steps"] for r in traced)
    out = {}
    for span in PER_CALL_SPANS:
        calls, _, self_ns = totals.get(span, none)
        out[f"{span}.self_us"] = self_ns / calls / 1e3 if calls else 0.0
        out[f"{span}.calls"] = calls / n
    for span in PER_RUN_SPANS:
        out[f"{span}.self_ms"] = totals.get(span, none)[2] / n / 1e6
    out["harness.run_training.self_us_per_step"] = (
        totals.get("harness.run_training", none)[2] / n / steps / 1e3)
    out["bandit.run_bandit.ns_per_pull"] = (
        totals.get("bandit.run_bandit", none)[1] / n / steps
        if run.workload.env is None else 0.0)
    out["explore.reanneals"] = statistics.median(r["reanneals"] for r in traced)
    out["run.steps"] = steps
    out["run.greedy_return"] = statistics.median(
        r["greedy_return"] or 0.0 for r in traced)
    out["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1)
    out.update(kernel_metrics)
    return out


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (no git)"


def machine(run):
    env = run.env
    record = {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(),
    }
    try:
        record.update(run.child("info"))
    except ChildFailed as exc:
        record["info_error"] = str(exc)
    return record


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(run, metrics, units, record, samples):
    w = run.workload
    attempted, failed = run.counts()
    print(f"workload {w.name}  seed {run.seed}  {len(run.reps)} repetitions, "
          f"{attempted} attempted runs, {failed} failed")
    for err in [e for r in run.reps for e in r["errors"]] + run.setup_errors:
        print(f"  FAILED: {err}")
    for name, value in metrics.items():
        print(f"  {name:44s} {fmt(value):>12s} {units[name]:6s} {samples(name)}")
    for name, (value, unit, note) in record.get("not_gated", {}).items():
        print(f"  {name:44s} {fmt(value):>12s} {unit:6s} {note}")
    for rec in run.reps:
        print(f"  rep traced={int(rec['traced'])} steps={rec.get('steps')} "
              f"reanneals={rec.get('reanneals')} "
              f"greedy_return={rec.get('greedy_return')} "
              f"wall_s={fmt(rec.get('wall_s', float('nan')))}")
    print("machine " + json.dumps(record["machine"], default=str))
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{w.name}-seed{run.seed}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="few episodes and a short horizon (self-check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "reanneal_rl" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'reanneal_rl'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.tiny)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "machine": machine(run)}
    try:
        if args.trace:
            kernel_metrics = run.child("kernels", str(args.seed))
            run.repeat((False, True))
            if not run.good(traced=True) or not run.good():
                raise ChildFailed("no traced and untraced repetition succeeded")
            metrics = per_layer(run, kernel_metrics)
            units = per_layer_units()
            record["span_tables"] = [r["spans"] for r in run.good(traced=True)]
        else:
            run.repeat((False,), setups=SETUP_REPEATS)
            while run.setups_done() < SETUP_REPEATS:
                run.setup()
            if not run.good() or not run.setup_s:
                raise ChildFailed("no repetition or no set-up run succeeded")
            metrics = end_to_end(run)
            units = END_TO_END
            record["setup_s_samples"] = run.setup_s
            record["step_us_quantiles"] = {
                q: step_us(run.good(), q / 100)
                for q in (5, 10, 25, 50, 75, 90, 95)}
            attempted, failed = run.counts()
            good = run.good()
            record["not_gated"] = {
                "wall_s": (statistics.median(r["wall_s"] for r in good), "s",
                           f"median of {len(good)} repetitions; not gated, on "
                           "training workloads it follows the seed's "
                           "episode lengths"),
                "error_rate": (failed / attempted, "ratio",
                               f"{failed} of {attempted} runs failed; gated "
                               "as success_rate"),
                "step_us_p10": (record["step_us_quantiles"][10], "us",
                                "not gated, the fast end moves with the "
                                "machine's fast spells"),
                "step_us_p50": (record["step_us_quantiles"][50], "us",
                                "not gated, for the same reason"),
            }
    except ChildFailed as exc:
        for err in [e for r in run.reps for e in r["errors"]] + run.setup_errors:
            print(f"FAILED: {err}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    record["machine"]["loadavg_after"] = os.getloadavg()
    record["reps"] = [{k: v for k, v in r.items() if k not in ("spans", "step_samples")}
                      for r in run.reps]
    record["metrics"] = metrics

    def samples(name):
        if name == "setup_s":
            return f"median of {len(run.setup_s)} fresh interpreters"
        if name.startswith("mlp.kernel.") and name.endswith(".us"):
            return "median of 7 timed blocks"
        if name.startswith("mlp.kernel."):
            return "computed from shapes"
        if args.trace:
            return f"{len(run.good(traced=True))} traced repetitions"
        if name == "success_rate":
            attempted, failed = run.counts()
            return f"{attempted - failed} of {attempted} runs passed"
        if name.startswith("step_us"):
            if run.workload.env is None:
                return f"over {len(run.good())} repetitions, time per pull"
            n = sum(len(r["step_samples"][1]) for r in run.good())
            return (f"step-weighted over {n} episodes of {len(run.good())} "
                    "repetitions")
        return f"median of {len(run.good())} repetitions"

    report(run, metrics, units, record, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
