"""Benchmark of the shiftmean command-line tool.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  Each workload is a fixed sequence
of shiftmean CLI calls (see workloads.py), made one at a time in a closed
loop with a single client, every call in a fresh interpreter so the
program's in-process caches start cold as they do for a user.  The sequence
repeats while a further pass would still end within --seconds, and every
call's output is checked.

--trace 0 reports the end-to-end metrics: wall and CPU time of one pass over
the sequence, the largest peak RSS of any call in it, and the time from a
fresh interpreter to `shiftmean.cli` imported.  --trace 1 alternates plain
passes with passes whose calls run under spans.py, and reports the
per-layer metrics and the tracing overhead.  --smoke runs one pass at small
sizes.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
DEADLINE_S = 170  # a run must end within 180 s; give up before that
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class CallResult:
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SHIFTMEAN_THREADS", None)  # the CLI default, as a user gets it
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict) -> CallResult:
    """Run one process to completion; its rusage comes from wait4."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    try:
        drain.start()
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CallResult(cpu=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024, code=proc.returncode,
                      stdout=out, stderr=b"".join(err).decode(errors="replace"))


def measure_setup(env: dict) -> list[float]:
    """Seconds from spawning an interpreter to `shiftmean.cli` imported."""
    probe = "import time, shiftmean.cli; print(time.monotonic())"
    run_child([sys.executable, "-c", probe], env)  # writes bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        res = run_child([sys.executable, "-c", probe], env)
        if res.code != 0:
            raise RuntimeError(f"importing shiftmean.cli failed:\n{res.stderr}")
        samples.append(float(res.stdout) - start)
    return samples


class Pass:
    """One timed pass over a workload's calls; outputs are checked after timing."""

    def __init__(self, calls, env, traced: bool, digests: dict):
        prefix = [str(ROOT / "perfbench" / "spans.py")] if traced else ["-m", "shiftmean.cli"]
        start = time.perf_counter()
        results = [run_child([sys.executable, *prefix, *call.args], env) for call in calls]
        self.wall = time.perf_counter() - start
        self.cpu = sum(res.cpu for res in results)
        self.rss_mb = max(res.rss_mb for res in results)
        self.failed = 0
        self.spans: list = []
        for index, (call, res) in enumerate(zip(calls, results)):
            problem = self._problem(call, res, index, digests)
            if problem:
                self.failed += 1
                print(f"FAIL shiftmean {' '.join(call.args)}: {problem}", file=sys.stderr)
            if traced:
                try:
                    self.spans.append((spans.parse_spans(res.stderr), len(res.stdout)))
                except ValueError:
                    raise RuntimeError(f"traced call wrote no spans:\n{res.stderr[-2000:]}")

    @staticmethod
    def _problem(call, res: CallResult, index: int, digests: dict):
        if res.code != 0:
            return f"exit code {res.code}\n{res.stderr[-2000:]}"
        digest = hashlib.sha256(res.stdout).hexdigest()
        if digests.setdefault(index, digest) != digest:
            return "output differs from an earlier identical call"
        return call.check(res.stdout.decode())


def tail_percentile(samples: list[float]):
    """(percentile, value) of the highest percentile with ten samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at small sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def _on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shiftmean" / "cli.py").is_file():
        print(f"perfbench: no shiftmean sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    env = child_env()
    calls = workloads.build(args.workload, args.seed, smoke=args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    for call in calls:
        print("call: shiftmean " + " ".join(call.args))

    setup = [] if args.trace else measure_setup(env)
    digests: dict = {}
    plain, traced = [], []
    start = time.perf_counter()
    try:
        while True:  # stop before a further round would end past --seconds
            round_start = time.perf_counter()
            if args.trace and len(plain) % 2 == 0:  # alternate which kind runs first
                traced.append(Pass(calls, env, True, digests))
            plain.append(Pass(calls, env, False, digests))
            if args.trace and len(plain) % 2 == 0:
                traced.append(Pass(calls, env, True, digests))
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    signal.alarm(0)
    passes = plain + traced
    attempted = len(calls) * len(passes)
    failed = sum(p.failed for p in passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced passes of {len(calls)} calls, closed loop, one client")
    print("sha256 of each call's stdout: " + json.dumps(
        [digests.get(i) for i in range(len(calls))]))
    if args.trace:
        missing = spans.uncovered(args.workload, [s for p in traced for s, _ in p.spans])
        if missing:
            print("perfbench: traced functions never called on workload "
                  f"{args.workload}: {', '.join(missing)}", file=sys.stderr)
            return 3
        values = spans.layer_metrics([spans.run_metrics(p.spans) for p in traced],
                                     [p.wall for p in traced], [p.wall for p in plain])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.METRICS.items()}
        traced_wall = median(p.wall for p in traced)
        print(f"pass wall medians: plain {median(p.wall for p in plain):.4f} s, "
              f"traced {traced_wall:.4f} s")
        selfs = {n: v for n, v in values.items() if n.endswith(".self_s")}
        for name, value in sorted(selfs.items(), key=lambda item: -item[1])[:4]:
            print(f"share {name}: {value / traced_wall:.1%} of the traced pass, "
                  f"{value / sum(selfs.values()):.1%} of the time inside cli.main")
    else:
        walls = [p.wall for p in plain]
        values = {
            "wall_s": median(walls),
            "cpu_s": median(p.cpu for p in plain),
            "peak_rss_mb": median(p.rss_mb for p in plain),
            "setup_s": median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        tail = tail_percentile(walls)
        print(f"wall_s samples: n={len(walls)}: " + ", ".join(f"{w:.4f}" for w in walls))
        print("wall_s tail: "
              + (f"p{tail[0]:.0f} = {tail[1]:.4f} s" if tail else "none (needs n >= 11)"))
        print(f"setup_s samples: n={len(setup)}")
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_frac':44s} {failed / attempted:>16.6g} fraction")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
