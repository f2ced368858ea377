"""Outside-in tracing: wraps the public functions of each layer of
`reanneal_rl` from the benchmark's side, so the program itself is unchanged.

Each call is a span with a name, start, end and parent span. Spans are
aggregated in memory per (name, parent name) into a call count, total time
and self time (total minus the time covered by child spans), and written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, class or None, attribute)
TARGETS = (
    ("mlp.forward", "reanneal_rl.mlp", None, "forward"),
    ("mlp.forward_batch", "reanneal_rl.mlp", None, "forward_batch"),
    ("mlp.backward", "reanneal_rl.mlp", None, "backward"),
    ("mlp.adam_step", "reanneal_rl.mlp", None, "adam_step"),
    ("replay.push", "reanneal_rl.replay", "ReplayBuffer", "push"),
    ("replay.sample_arrays", "reanneal_rl.replay", "ReplayBuffer",
     "sample_arrays"),
    ("envs.step", "reanneal_rl.envs.hovertrap", "HoverTrapEnv", "step"),
    ("envs.reset", "reanneal_rl.envs.hovertrap", "HoverTrapEnv", "reset"),
    ("explore.select_epsilon_greedy", "reanneal_rl.explore", None,
     "select_epsilon_greedy"),
    ("agent.train_step", "reanneal_rl.agent", "Agent", "train_step"),
    ("agent.sync_target", "reanneal_rl.agent", "Agent", "sync_target"),
    ("agent.save_checkpoint", "reanneal_rl.agent", None, "save_checkpoint"),
    ("harness.run_training", "reanneal_rl.harness", None, "run_training"),
    ("harness.prefill", "reanneal_rl.harness", None, "_prefill"),
    ("plotting.emit_reward_plot", "reanneal_rl.plotting", None,
     "emit_reward_plot"),
    ("bandit.run_bandit", "reanneal_rl.bandit", None, "run_bandit"),
)


class Tracer:
    def __init__(self):
        self._stack = []     # open spans: [name, time covered by children]
        self.spans = {}      # (name, parent name) -> [calls, total_ns, self_ns]
        self.missing = []    # targets the program no longer has

    def wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += total
                key = (name, parent[0] if parent is not None else "")
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, total, total - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += total
                    agg[2] += total - frame[1]

        return traced

    def install(self):
        """Replace each target with a traced wrapper: on its class, or in
        every `reanneal_rl` module that bound the function by name."""
        for name, module_name, class_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner = getattr(module, class_name, None) if class_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{class_name or ''}.{attr}")
                continue
            traced = self.wrap(name, original)
            if class_name:
                setattr(owner, attr, traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "reanneal_rl" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def table(self):
        """The per-(name, parent) aggregates as JSON-ready rows."""
        return [
            {"name": name, "parent": parent, "calls": calls,
             "total_ns": total, "self_ns": self_ns}
            for (name, parent), (calls, total, self_ns) in sorted(self.spans.items())
        ]
