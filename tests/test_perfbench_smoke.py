"""Smoke test of the benchmark: its tiny self-check passes, and the tracer
still finds every hot-path function it wraps, so renaming one fails here.

Runs `python3 perfbench/selfcheck.py` (about 20 s). No timing is gated.
The self-check writes its tiny traced result to the same path as a real
`run.py --workload hovertrap-stuck --seed 0 --trace 1` run; a result
already there is moved aside for the test and put back afterwards.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / ".bench_out" / "results" / "hovertrap-stuck-seed0-trace1.json"


def test_selfcheck_passes_and_tracer_finds_every_target():
    kept = TRACED.with_name(TRACED.name + ".kept")
    had_result = TRACED.exists()
    if had_result:
        TRACED.replace(kept)
    try:
        proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        reps = json.loads(TRACED.read_text())["reps"]
        assert any(rep["traced"] for rep in reps)
        for rep in reps:
            assert rep["missing_targets"] == [], rep["missing_targets"]
    finally:
        if had_result:
            kept.replace(TRACED)
        else:
            TRACED.unlink(missing_ok=True)
