"""The benchmark's outside-in trace still finds every layer it measures.

perfbench/spans.py wraps the public functions it lists by name, and exits 3
when one is missing.  This runs it as a script, unchanged, on a few tiny CLI
calls, so a rename or a signature change that would break the benchmark's
trace fails here in seconds.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import shiftmean

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# Together these call every function perfbench/spans.py lists.
TRACE_ARGV = [
    "verify t3 --x-grid 1000 --prime-cutoff 1e3",
    "meanvalue phi --x-grid 1000 --prime-cutoff 1e3",
    "verify gap --x-grid 1000 --prime-cutoff 1e3",
    "eval khat 1000 --prime-cutoff 1e3",
    "curvelab --n-min 20 --n-max 20 --prime-cutoff 1e3 --format json",
]


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_covers_every_traced_function():
    spans = _spans_module()
    src = str(Path(shiftmean.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    seen = set()
    for args in TRACE_ARGV:
        proc = subprocess.run([sys.executable, str(SPANS), *args.split()],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, f"{args}: {proc.stderr}"
        seen |= {span[0] for span in spans.parse_spans(proc.stderr)}
    missing = [f"{m}.{a}" for m, a, _ in spans.TRACED if f"{m}.{a}" not in seen]
    assert missing == []
