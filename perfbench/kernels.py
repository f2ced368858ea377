"""Microbenchmarks of the four `mlp` kernels at the lander and HoverTrap
network shapes, with FLOPs and bytes computed from the array shapes.

The computed counts are a model, not a measurement: a matmul of (m, k) by
(k, n) counts 2*m*k*n FLOPs, elementwise operations count one FLOP per
element, and bytes count each float64 operand read once and each result
written once, with no cache effects.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import KERNEL_BATCH, KERNEL_FNS, KERNEL_SHAPES


def _layers(sizes):
    return list(zip(sizes[:-1], sizes[1:]))


def computed_cost(fn, sizes, batch=KERNEL_BATCH):
    """(FLOPs, bytes) of one call, from the shapes alone."""
    params = sum(o * (i + 1) for i, o in _layers(sizes))
    hidden = sum(o for _, o in _layers(sizes)[:-1])
    outs = sum(o for _, o in _layers(sizes))
    if fn == "adam_step":
        # finite check (1), m update (3), v update (4), corrected step (7)
        return 15 * params, 8 * 7 * params  # read p, g, m, v; write p, m, v
    rows = 1 if fn == "forward" else batch
    # matmul, bias add, ReLU on hidden layers
    flops = sum(2 * rows * i * o + rows * o for i, o in _layers(sizes))
    flops += rows * hidden
    nbytes = 8 * (params + rows * sizes[0] + rows * outs)
    if fn == "backward":
        # weight grads (matmul), bias grads (sum), and for every layer but
        # the first the input grad (matmul) and the ReLU mask product
        for l, (i, o) in enumerate(_layers(sizes)):
            flops += 2 * rows * i * o + rows * o
            if l > 0:
                flops += 2 * rows * i * o + 2 * rows * i
        # loss terms on the selected outputs, a handful per row
        flops += 8 * rows
        # gradients written, activations read back
        nbytes += 8 * (params + rows * outs)
    return flops, nbytes


def _time_per_call(call, target_block_s=0.02, blocks=7, warmup=30):
    for _ in range(warmup):
        call()
    start = time.perf_counter()
    n = 0
    while time.perf_counter() - start < target_block_s / 4:
        call()
        n += 1
    per_block = max(1, int(4 * n))
    samples = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(per_block):
            call()
        samples.append((time.perf_counter() - t0) / per_block)
    return statistics.median(samples)


def run_kernels(seed, quick=False):
    """Median per-call time in microseconds plus computed costs, as
    {metric name: value}."""
    from reanneal_rl import mlp

    out = {}
    block_s = 0.005 if quick else 0.02
    for shape, sizes in KERNEL_SHAPES.items():
        rng = np.random.default_rng(seed)
        params = mlp.init_params(sizes, rng)
        obs = rng.standard_normal(sizes[0])
        batch = rng.standard_normal((KERNEL_BATCH, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=KERNEL_BATCH)
        targets = rng.standard_normal(KERNEL_BATCH)
        grads, _ = mlp.backward(params, batch, actions, targets)
        state = mlp.init_adam_state(params)
        calls = {
            "forward": lambda: mlp.forward(params, obs),
            "forward_batch": lambda: mlp.forward_batch(params, batch),
            "backward": lambda: mlp.backward(params, batch, actions, targets),
            # a tiny rate keeps the repeated updates from drifting the weights
            "adam_step": lambda: mlp.adam_step(params, grads, state, 1e-9),
        }
        for fn in KERNEL_FNS:
            seconds = _time_per_call(calls[fn], target_block_s=block_s)
            flops, nbytes = computed_cost(fn, sizes)
            out[f"mlp.kernel.{fn}.{shape}.us"] = seconds * 1e6
            out[f"mlp.kernel.{fn}.{shape}.flops_computed"] = flops
            out[f"mlp.kernel.{fn}.{shape}.bytes_computed"] = nbytes
    return out
