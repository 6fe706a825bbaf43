"""The benchmark's workloads: the shiftmean CLI calls each one makes, built
from a seed, and the check applied to each call's standard output.

The seed moves only things that leave the cost of a call unchanged: interior
grid points (jittered so the summed length stays fixed), shifts, and the
order given to `eval` (a safe prime, so trial division always runs to the
square root of both N and N - 1).  Every tolerance below is one that
tests/test_acceptance.py already asserts, or a sanity bound where the suite
asserts none.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

NAMES = ("sweep", "tables", "constants", "curvelab")

T2A_BOUND = 1.5  # |residual| / log x, acceptance criterion 1
T3_BOUND = 1.5  # acceptance criterion 3
T3_MEAN = 31 / 30
PHI_RATIO_TOL = 1e-3  # acceptance criterion 4
JORDAN_RATIO_TOL = 1e-2  # acceptance criterion 5
GAP_BOUND = 0.05  # acceptance criterion 8
CURVE_BAND = (0.7, 1.3)  # acceptance criterion 10

# Shifts whose residuals stay inside the bounds above on every draw.
KSTAR_SHIFTS = (1, 2, 3, 4)
TOTIENT_SHIFTS = (1, 2, 3, 4, 6)
CONSTANT_SHIFTS = (2, 6, 10, 30)

# Full sizes are the benchmark's; smoke sizes run every call and check in seconds.
SIZES = {
    False: {"t3": 5_000_000, "kstar": 2_000_000, "phi": 4_000_000,
            "jordan": 2_000_000, "gap": 4_000_000, "cutoff": "1e8",
            "eval_digits": 12, "curve_max": 300},
    True: {"t3": 200_000, "kstar": 100_000, "phi": 200_000,
           "jordan": 100_000, "gap": 200_000, "cutoff": "1e6",
           "eval_digits": 9, "curve_max": 60},
}
GRID_POINTS = 20


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check of its output (None when it passes)."""

    args: tuple
    check: Callable[[str], Optional[str]]


def build(name: str, seed: int, smoke: bool = False) -> list[Call]:
    """The fixed sequence of calls one run of the named workload repeats."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; options: {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    size = SIZES[smoke]
    if name == "sweep":
        t3_grid = _grid_arg(jittered_grid(rng, size["t3"], GRID_POINTS))
        shift = rng.choice(KSTAR_SHIFTS)
        kstar_grid = _grid_arg(jittered_grid(rng, size["kstar"], GRID_POINTS))
        return [
            Call(("verify", "t3", "--x-grid", t3_grid), check_t3),
            Call(("meanvalue", "kstar", "--shift", str(shift), "--x-grid", kstar_grid),
                 functools.partial(check_normalized, bound=T2A_BOUND)),
        ]
    if name == "tables":
        phi, jordan = size["phi"], size["jordan"]
        return [
            Call(("meanvalue", "phi", "--shift", str(rng.choice(TOTIENT_SHIFTS)),
                  "--x-grid", _grid_arg([phi // 2, phi])),
                 functools.partial(check_ratio, tol=PHI_RATIO_TOL)),
            Call(("meanvalue", "jordan-2", "--shift", str(rng.choice(TOTIENT_SHIFTS)),
                  "--x-grid", _grid_arg([jordan // 2, jordan])),
                 functools.partial(check_ratio, tol=JORDAN_RATIO_TOL)),
            Call(("verify", "gap", "--x-grid", str(size["gap"])), check_gap),
        ]
    if name == "constants":
        cutoff = size["cutoff"]
        n = safe_prime(rng, size["eval_digits"])
        return [
            Call(("constant", "c2", "--prime-cutoff", cutoff), check_c2),
            Call(("constant", "kstar", "--prime-cutoff", cutoff,
                  "--shift", str(rng.choice(CONSTANT_SHIFTS))),
                 functools.partial(check_constant, cutoff=int(float(cutoff)))),
            Call(("eval", "khat", str(n), "--prime-cutoff", cutoff),
                 functools.partial(check_eval, n=n, cutoff=int(float(cutoff)))),
        ]
    n_max = size["curve_max"]
    return [
        Call(("curvelab", "--n-min", "20", "--n-max", str(n_max), "--cap", str(n_max),
              "--format", "json"),
             functools.partial(check_curvelab, n_min=20, n_max=n_max)),
    ]


# ---------------------------------------------------------------------------
# Inputs


def jittered_grid(rng: random.Random, xmax: int, points: int) -> list[int]:
    """An even grid up to xmax with interior points moved by up to 0.4 step.

    The offsets are centred, so the summed length of all prefixes, which is
    what the summation layers pay for, does not depend on the draw; the
    first and last points stay fixed.
    """
    step = xmax // points
    offsets = [rng.uniform(-0.2, 0.2) * step for _ in range(points - 2)]
    mean = sum(offsets) / len(offsets)
    interior = [step * (i + 2) + round(o - mean) for i, o in enumerate(offsets)]
    return [step, *interior, step * points]


def _grid_arg(xs) -> str:
    return ",".join(str(int(x)) for x in xs)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def safe_prime(rng: random.Random, digits: int) -> int:
    """A prime n = 2q + 1 (q prime) with the given digit count, near its low end."""
    n = rng.randrange(10 ** (digits - 1), 10 ** (digits - 1) + 10 ** (digits - 3)) | 3
    while not (is_prime(n) and is_prime(n // 2)):
        n += 4
    return n


# ---------------------------------------------------------------------------
# Output checks


def _csv_rows(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("no data rows")
    return rows


def _guard(check):
    """Report unparseable output as a failed check, not as a crash."""

    @functools.wraps(check)
    def guarded(text: str, *args, **kwargs) -> Optional[str]:
        try:
            return check(text, *args, **kwargs)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable output: {exc}"

    return guarded


@_guard
def check_normalized(text: str, bound: float) -> Optional[str]:
    for row in _csv_rows(text):
        if not abs(float(row["normalized"])) <= bound:
            return f"x={row['x']}: |residual|/log x = {row['normalized']} exceeds {bound}"
    return None


@_guard
def check_t3(text: str) -> Optional[str]:
    failure = check_normalized(text, bound=T3_BOUND)
    if failure:
        return failure
    last = _csv_rows(text)[-1]
    mean = float(last["empirical"]) / int(last["x"])
    if not abs(mean - T3_MEAN) <= 1e-3:
        return f"mean {mean} at x={last['x']} is not within 1e-3 of 31/30"
    return None


@_guard
def check_ratio(text: str, tol: float) -> Optional[str]:
    for row in _csv_rows(text):
        ratio = float(row["empirical"]) / float(row["predicted"])
        if not abs(ratio - 1) <= tol:
            return f"x={row['x']}: empirical/predicted = {ratio} is not within {tol} of 1"
    return None


@_guard
def check_gap(text: str) -> Optional[str]:
    for row in _csv_rows(text):
        if not abs(float(row["gap"])) <= GAP_BOUND:
            return f"x={row['x']}: |gap| = {row['gap']} exceeds {GAP_BOUND}"
    return None


def _twin_prime_reference() -> float:
    import mpmath  # installed with the test tools; not a shiftmean dependency

    return float(mpmath.twinprime)


@_guard
def check_c2(text: str) -> Optional[str]:
    out = json.loads(text)
    defect = abs(out["value"] - _twin_prime_reference())
    if not defect <= out["tail_bound"]:
        return f"c2 = {out['value']} is {defect:.3e} from mpmath, over tail_bound {out['tail_bound']}"
    return None


@_guard
def check_constant(text: str, cutoff: int) -> Optional[str]:
    out = json.loads(text)
    if out["prime_cutoff"] != cutoff:
        return f"prime_cutoff {out['prime_cutoff']} != {cutoff}"
    if not (0 < out["value"] < math.inf and 0 <= out["tail_bound"] <= 1e-6 * out["value"]):
        return f"value {out['value']} or tail_bound {out['tail_bound']} out of range"
    if not out["power_depth"] >= 1:
        return f"power_depth {out['power_depth']} < 1"
    return None


@_guard
def check_eval(text: str, n: int, cutoff: int) -> Optional[str]:
    """Kstar and Khat must factor as c2 * F_star * (G_star or G1), with c2
    within its crude truncation tail 2/(cutoff - 1) of the mpmath value."""
    out = json.loads(text)
    if out["N"] != n:
        return f"N {out['N']} != {n}"
    c2 = _twin_prime_reference()
    tol = 2.0 / (cutoff - 1) / c2 + 1e-12
    for name, part in (("Kstar", "G_star"), ("Khat", "G1")):
        expect = c2 * out["F_star"] * out[part]
        if not abs(out[name] / expect - 1) <= tol:
            return f"{name} = {out[name]} but c2 * F_star * {part} = {expect}"
    return None


@_guard
def check_curvelab(text: str, n_min: int, n_max: int) -> Optional[str]:
    records = json.loads(text)
    if [r["N"] for r in records] != list(range(n_min, n_max + 1)):
        return f"records do not cover N = {n_min}..{n_max}"
    for r in records:
        n = r["N"]
        outside = [p for p in r["hasse_primes"] if p < 5 or (p + 1 - n) ** 2 > 4 * p]
        if outside:
            return f"N={n}: primes {outside} outside the Hasse window"
    mean = sum(r["expected_m"] / r["predicted"] for r in records) / len(records)
    lo, hi = CURVE_BAND
    if not lo <= mean <= hi:
        return f"mean expected_m/predicted = {mean:.3f} outside [{lo}, {hi}]"
    return None
