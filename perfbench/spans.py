"""Outside-in tracing of the shiftmean layers.

Run as a script, this stands in for `python -m shiftmean.cli`: it wraps the
public functions listed in TRACED, runs the CLI with the given arguments,
and writes the spans it kept in memory to the last line of stderr.  As a
module, it turns the spans of one workload run into the per-layer metrics.

A function is wrapped in every shiftmean module namespace that bound it, so
calls made through `from .arith import multiplicative_table` are seen too.
A listed function that no longer exists stops the run (exit code 3), and
each one must be called at least once on the workload named beside it, so
a rename cannot silently drop a layer's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from statistics import median

SPANS_PREFIX = "perfbench-spans "

# (module, attribute, workload on which it must be called)
TRACED = (
    ("arith", "primes_up_to", "constants"),
    ("arith", "multiplicative_table", "tables"),
    ("arith", "totient_table", "tables"),
    ("arith", "jordan_table", "tables"),
    ("euler", "shifted_mean_constant", "constants"),
    ("harness", "tabulate", "tables"),
    ("harness", "shifted_sum", "tables"),
    ("harness", "run_grid", "tables"),
    ("curveconst", "mean_order_grid", "sweep"),
    ("curveconst", "even_val_symbol_table", "tables"),
    ("curveconst", "substitution_gap", "tables"),
    ("curveconst", "twin_prime_constant", "constants"),
    ("curveconst", "eval_point", "constants"),
    ("curvelab", "order_histogram", "curvelab"),
    ("curvelab", "expected_m", "curvelab"),
    ("curvelab", "records_to_json", "curvelab"),
    ("reports", "fmt_csv", "tables"),
    ("reports", "dumps_json", "constants"),
    ("reports", "MeanValueReport.to_csv", "sweep"),
    ("cli", "main", "curvelab"),
)
REPORT_SPANS = ("curvelab.records_to_json", "reports.fmt_csv", "reports.dumps_json",
                "reports.MeanValueReport.to_csv")
TABLE_SPANS = ("arith.multiplicative_table", "arith.totient_table", "arith.jordan_table")

# Per-layer metrics: name -> unit.  Every one is reported on every workload.
METRICS = {
    "arith.primes_up_to.self_s": "s",
    "arith.primes_up_to.calls": "count",
    "arith.primes_up_to.hit_ratio": "ratio",
    "arith.primes_up_to.span": "count",
    "arith.multiplicative_table.self_s": "s",
    "arith.multiplicative_table.entries": "count",
    "arith.totient_table.self_s": "s",
    "arith.totient_table.entries": "count",
    "arith.jordan_table.self_s": "s",
    "arith.jordan_table.entries": "count",
    "arith.table_bytes": "bytes",
    "euler.shifted_mean_constant.self_s": "s",
    "euler.primes_folded": "count",
    "euler.power_depth": "count",
    "harness.tabulate.calls": "count",
    "harness.tabulate.distinct_ratio": "ratio",
    "harness.shifted_sum.self_s": "s",
    "harness.shifted_sum.terms": "count",
    "harness.shifted_sum.useful_ratio": "ratio",
    "harness.run_grid.self_s": "s",
    "curveconst.mean_order_grid.self_s": "s",
    "curveconst.mean_order_grid.terms": "count",
    "curveconst.mean_order_grid.useful_ratio": "ratio",
    "curveconst.even_val_symbol_table.self_s": "s",
    "curveconst.even_val_symbol_table.entries": "count",
    "curveconst.substitution_gap.self_s": "s",
    "curveconst.twin_prime_constant.self_s": "s",
    "curveconst.eval_point.self_s": "s",
    "curvelab.order_histogram.self_s": "s",
    "curvelab.order_histogram.calls": "count",
    "curvelab.order_histogram.hit_ratio": "ratio",
    "curvelab.order_histogram.cells": "count",
    "curvelab.expected_m.self_s": "s",
    "reports.self_s": "s",
    "reports.bytes_out": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Child side: wrap, run, dump


class Tracer:
    """Spans of one process: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.max_limit = 0  # largest primes_up_to limit asked for so far
        self.histograms: set[int] = set()  # primes whose histogram was asked for

    def wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.rsplit(".", 1)[-1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, None]
            self.spans.append(span)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[1] = start
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = count(bound.arguments, result)
            return result

        return traced

    # Counts, computed from arguments and results only.

    def _count_primes_up_to(self, a, result):
        hit = a["limit"] <= self.max_limit
        self.max_limit = max(self.max_limit, a["limit"])
        return {"limit": a["limit"], "hit": hit, "primes": len(result)}

    def _count_order_histogram(self, a, result):
        hit = a["p"] in self.histograms
        self.histograms.add(a["p"])
        return {"hit": hit, "cells": 0 if hit else a["p"] ** 2}

    @staticmethod
    def _table(a, result):
        return {"entries": a["limit"] + 1, "bytes": int(result.nbytes)}

    _count_multiplicative_table = _count_totient_table = _count_jordan_table = _table
    _count_even_val_symbol_table = _table

    @staticmethod
    def _count_shifted_mean_constant(a, result):
        return {"depth": result.power_depth}

    @staticmethod
    def _count_tabulate(a, result):
        return {"key": f"{a['spec']!r}:{a['limit']}"}

    @staticmethod
    def _count_shifted_sum(a, result):
        return {"terms": max(0, a["x"] - a["shift"]), "x": a["x"]}

    @staticmethod
    def _count_mean_order_grid(a, result):
        xs = [int(x) for x in a["x_grid"]]
        return {"terms": sum(x - 1 for x in xs), "x": max(xs)}


def install(tracer: Tracer, traced=TRACED):
    """Wrap every listed function wherever a shiftmean module bound it.

    Returns the wrapped cli.main.  Raises LookupError naming any function
    that no longer exists.
    """
    modules = {name: importlib.import_module(f"shiftmean.{name}")
               for name in {m for m, _, _ in traced} | {"cli"}}
    loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "shiftmean"]
    missing = []
    for module, attr, _ in traced:
        owner = modules[module]
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            missing.append(f"{module}.{attr}")
            continue
        wrapped = tracer.wrap(f"{module}.{attr}", fn)
        if outer:
            setattr(owner, leaf, wrapped)
            continue
        for namespace in loaded:
            for name, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, name, wrapped)
    if missing:
        raise LookupError("traced functions not found: " + ", ".join(missing))
    return modules["cli"].main


def main(argv: list[str]) -> int:
    tracer = Tracer()
    try:
        cli_main = install(tracer)
    except LookupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        print(SPANS_PREFIX + json.dumps(tracer.spans), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Parent side: spans -> per-layer metrics


def parse_spans(stderr: str) -> list:
    """The spans a traced call wrote; raises ValueError when there are none."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(SPANS_PREFIX):
            return json.loads(line[len(SPANS_PREFIX):])
    raise ValueError("traced call wrote no spans")


def self_times(spans: list) -> dict:
    """Seconds each span name spent outside its child spans, summed."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for (name, start, end, _, _), covered in zip(spans, child):
        out[name] += end - start - covered
    return out


def run_metrics(calls: list) -> dict:
    """Per-layer metrics of one workload run.

    calls holds (spans, stdout bytes) for each CLI call of the run.  Hit
    ratios, distinct ratios and useful ratios are 0 when the layer was not
    called.
    """
    selfs: dict = defaultdict(float)
    counts: dict = defaultdict(list)  # span name -> counts dicts, in call order
    useful = defaultdict(int)  # summation layer -> sum over calls of the largest x
    distinct = 0
    bytes_out = 0
    for spans, stdout_len in calls:
        for name, value in self_times(spans).items():
            selfs[name] += value
        keys = set()
        largest = defaultdict(int)
        for name, _, _, parent, info in spans:
            counts[name].append(info)
            if name == "harness.tabulate":
                keys.add(info["key"])
            if name in ("harness.shifted_sum", "curveconst.mean_order_grid"):
                largest[name] = max(largest[name], info["x"])
            if (name == "arith.primes_up_to" and parent >= 0
                    and spans[parent][0] == "euler.shifted_mean_constant"):
                counts["euler.primes_folded"].append(info["primes"])
        distinct += len(keys)
        for name, x in largest.items():
            useful[name] += x
        bytes_out += stdout_len

    def ratio(num, den):
        return num / den if den else 0.0

    def total(name, key):
        return sum(c[key] for c in counts[name])

    primes = counts["arith.primes_up_to"]
    hists = counts["curvelab.order_histogram"]
    out = {
        "arith.primes_up_to.calls": len(primes),
        "arith.primes_up_to.hit_ratio": ratio(sum(c["hit"] for c in primes), len(primes)),
        "arith.primes_up_to.span": max((c["limit"] for c in primes), default=0),
        "arith.table_bytes": sum(total(name, "bytes") for name in TABLE_SPANS),
        "euler.primes_folded": sum(counts["euler.primes_folded"]),
        "euler.power_depth": max((c["depth"] for c in counts["euler.shifted_mean_constant"]),
                                 default=0),
        "harness.tabulate.calls": len(counts["harness.tabulate"]),
        "harness.tabulate.distinct_ratio": ratio(distinct, len(counts["harness.tabulate"])),
        "curvelab.order_histogram.calls": len(hists),
        "curvelab.order_histogram.hit_ratio": ratio(sum(c["hit"] for c in hists), len(hists)),
        "curvelab.order_histogram.cells": total("curvelab.order_histogram", "cells"),
        "reports.self_s": sum(selfs[name] for name in REPORT_SPANS),
        "reports.bytes_out": bytes_out,
    }
    for name in (*TABLE_SPANS, "curveconst.even_val_symbol_table"):
        out[name + ".entries"] = total(name, "entries")
    for name in ("harness.shifted_sum", "curveconst.mean_order_grid"):
        terms = total(name, "terms")
        out[name + ".terms"] = terms
        out[name + ".useful_ratio"] = ratio(useful[name], terms)
    for metric in METRICS:
        if metric.endswith(".self_s") and metric not in out:
            out[metric] = selfs[metric[: -len(".self_s")]]
    return out


def layer_metrics(runs: list, traced_walls: list, plain_walls: list) -> dict:
    """Median of each metric over the traced runs, plus the tracing overhead."""
    merged = {name: median(run[name] for run in runs) for name in METRICS
              if name != "trace.overhead_s"}
    merged["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
    return merged


def uncovered(workload: str, runs_spans: list) -> list[str]:
    """Listed functions never called on the workload that must call them."""
    seen = {span[0] for spans in runs_spans for span in spans}
    return [f"{m}.{a}" for m, a, w in TRACED if w == workload and f"{m}.{a}" not in seen]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
