"""One measurement in a fresh interpreter; prints one JSON line.

    child.py setup WORKLOAD [--tiny]
        time importing reanneal_rl and building the workload's env, Agent
        and ReplayBuffer (or bandit spec)
    child.py rep WORKLOAD SEED OUT_DIR [--tiny] [--trace]
        one CLI call; with --trace every layer is wrapped by tracer.py
    child.py kernels SEED [--tiny]
        mlp kernel microbenchmarks
    child.py info
        Python, numpy and BLAS versions and the BLAS thread count

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread variables set.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _check_source(module):
    """Refuse to measure a reanneal_rl other than the checkout's src/."""
    expected = os.path.join(os.environ["PERFBENCH_ROOT"], "src", "reanneal_rl")
    actual = os.path.dirname(os.path.abspath(module.__file__))
    if actual != os.path.abspath(expected):
        raise SystemExit(f"imported reanneal_rl from {actual}, not {expected}")


def _peak_rss_mb():
    """Peak resident set of this process since exec. ru_maxrss would also
    count the parent's resident set at fork time, which Linux carries
    across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload, tiny):
    import numpy as np

    import reanneal_rl.cli
    from reanneal_rl import bandit
    from reanneal_rl.agent import Agent
    from reanneal_rl.config import default_config
    from reanneal_rl.envs import make_env
    from reanneal_rl.replay import ReplayBuffer

    if workload.env is None:
        bandit.BanditSpec(arm_means=[0.0, 1.0], noise_std=0.1,
                          horizon=workload.tiny_horizon if tiny else workload.horizon)
        bandit.Greedy(), bandit.ConstantEps(0.1), bandit.DecayingEps(10.0)
    else:
        config = default_config(workload.env)
        env = make_env(workload.env)
        sizes = (env.spec.observation_size, *config.hidden_sizes,
                 env.spec.action_count)
        Agent(config.agent, sizes, np.random.default_rng(0))
        ReplayBuffer(config.replay_capacity, env.spec.observation_size)
    elapsed = time.perf_counter() - T0
    _check_source(reanneal_rl.cli)
    return {"setup_s": elapsed}


def _greedy_return(workload, out_dir, seed):
    """Return of one greedy rollout of the final checkpoint."""
    import numpy as np

    from reanneal_rl.agent import load_checkpoint
    from reanneal_rl.envs import make_env

    agent, _ = load_checkpoint(os.path.join(out_dir, "final"))
    env = make_env(workload.env)
    obs = env.reset(np.random.default_rng(seed))
    total = 0.0
    while True:
        result = env.step(agent.greedy_action(obs))
        total += result.reward
        obs = result.observation
        if result.done or result.timed_out:
            return total


def rep(workload, seed, out_dir, tiny, trace):
    from reanneal_rl.cli import cli_main

    import reanneal_rl
    from tracer import Tracer

    _check_source(reanneal_rl)
    tracer = Tracer()
    cli = cli_main
    if trace:
        tracer.install()
        cli = tracer.wrap("cli", cli_main)
    argv = workload.argv(seed, out_dir, tiny)
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli(argv)
    except Exception:  # report any crash of the CLI as a failed rep
        code, error = None, traceback.format_exc(limit=-3)
    wall_s = time.perf_counter() - start
    result = {
        "code": code,
        "error": error,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "spans": tracer.table(),
        "missing_targets": tracer.missing,
        "greedy_return": None,
    }
    if code == 0 and workload.env is not None:
        result["greedy_return"] = _greedy_return(workload, out_dir, seed)
    return result


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def info():
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
    }


def main(argv):
    from workloads import WORKLOADS

    mode, rest = argv[0], argv[1:]
    tiny = "--tiny" in rest
    args = [a for a in rest if not a.startswith("--")]
    if mode == "setup":
        result = setup(WORKLOADS[args[0]], tiny)
    elif mode == "rep":
        result = rep(WORKLOADS[args[0]], int(args[1]), args[2], tiny,
                     "--trace" in rest)
    elif mode == "kernels":
        from kernels import run_kernels

        result = run_kernels(int(args[0]), quick=tiny)
    elif mode == "info":
        result = info()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
