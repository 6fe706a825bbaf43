"""Empirical side: tabulate, sum exactly, compare against prediction.

Shifted sums start at n = shift + 1 so the shifted argument stays >= 1.
Every empirical sum goes through prefix_dots, one blockwise pass that is
exact: integer arrays (totient family) give Python ints, and float products
are accumulated into one integer and rounded once per requested prefix, so
each result is the exactly rounded sum (what math.fsum returns) no matter
how many terms enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .arith import (
    PrimePowerFn,
    jordan_table,
    multiplicative_table,
    partial_sum_fn,
    totient_table,
)
from .euler import (
    DEFAULT_DEPTH,
    DEFAULT_PRIME_CUTOFF,
    EulerProductValue,
    ShiftedPairSpec,
    shifted_mean_constant,
)
from .reports import ExponentFit, MeanValueReport, MeanValueRow


@dataclass(frozen=True)
class NamedFn:
    """Exact-integer tabulation target: 'totient' or 'jordan' of order k."""

    name: str
    k: int = 1


@dataclass(frozen=True)
class DivisorSumFn:
    """Tabulation target n^deg * sum_{d|n} fn(d)."""

    fn: PrimePowerFn
    deg: int = 0


TabSpec = Union[NamedFn, DivisorSumFn]


def tabulate(spec: TabSpec, limit: int) -> np.ndarray:
    """Values over [0, limit] in one sieve pass; index n holds the value at n."""
    if isinstance(spec, NamedFn):
        if spec.name == "totient":
            return totient_table(limit)
        if spec.name == "jordan":
            return jordan_table(limit, spec.k)
        raise ValueError(f"unknown named function {spec.name!r}")
    table = multiplicative_table(partial_sum_fn(spec.fn), limit)
    if spec.deg:
        table = table * np.arange(limit + 1, dtype=np.float64) ** spec.deg
    return table


# Terms per block of prefix_dots: bounds its working memory, and keeps every
# per-exponent limb sum below 2^16 * 2^18 = 2^34, exact in float64.
SUM_BLOCK = 2**16

# A finite float64 is m * 2^(e - 53) with |m| < 2^53 an integer and
# e >= -1073 (np.frexp), so every one is an integer multiple of 2^-1126.
_EXP_BIAS = 1073
_SCALE = 1 << 1126


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.dot(a.astype(object), b.astype(object)))


def _scaled_float_dot(a: np.ndarray, b: np.ndarray) -> int:
    """The exact sum of the float64 products a*b, times 2^1126."""
    terms = np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
    if not np.isfinite(terms).all():
        raise ValueError("non-finite term in sum")
    frac, exp = np.frexp(terms)
    exp += _EXP_BIAS
    # Cut the 53-bit integer mantissa into three 18-bit limbs, the top one
    # signed.  Every step is exact in float64: scaling by powers of two,
    # floor, and differences of integers below 2^53.
    mant = frac * 2.0**53
    top = np.floor(mant * 2.0**-36)
    rest = mant - top * 2.0**36
    mid = np.floor(rest * 2.0**-18)
    limbs = (rest - mid * 2.0**18, mid, top)
    total = 0
    for k, limb in enumerate(limbs):
        sums = np.bincount(exp, weights=limb)
        nonzero = np.flatnonzero(sums)
        for e, s in zip(nonzero.tolist(), sums[nonzero].tolist()):
            total += int(s) << (e + 18 * k)
    return total


def prefix_dots(a, b, ends) -> list:
    """sum(a[:e] * b[:e]) for each e in ends (ascending), in one pass.

    Integer arrays (int64 or object) give exact ints.  Otherwise the float64
    products are summed exactly and each prefix is rounded once, so every
    result equals math.fsum of that prefix's products.  A non-finite product
    raises ValueError.  Work runs in blocks of at most SUM_BLOCK terms.
    """
    a, b = np.asarray(a), np.asarray(b)
    ends = [int(e) for e in ends]
    if any(hi < lo for lo, hi in zip([0, *ends], [*ends, min(len(a), len(b))])):
        raise ValueError(f"prefix ends must ascend within [0, {min(len(a), len(b))}]")
    exact = all(v.dtype == object or v.dtype.kind in "iu" for v in (a, b))
    dot = _exact_dot if exact else _scaled_float_dot
    out, total, lo = [], 0, 0
    for end in ends:
        while lo < end:
            hi = min(end, lo + SUM_BLOCK)
            total += dot(a[lo:hi], b[lo:hi])
            lo = hi
        out.append(total if exact else total / _SCALE)
    return out


def shifted_sum(f_vals, g_vals, shift: int, x: int):
    """sum_{n=shift+1..x} F(n-shift) G(n), exactly (see prefix_dots).

    Arrays are indexed by n and must cover [0, x].  Integer arrays give an
    exact int; otherwise the result is the exactly rounded float.
    """
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    if x > len(f_vals) - 1 or x > len(g_vals) - 1:
        raise ValueError(f"arrays do not cover [0, {x}]")
    terms = max(0, x - shift)
    return prefix_dots(f_vals[1 : terms + 1], g_vals[shift + 1 : shift + 1 + terms], [terms])[0]


# ---------------------------------------------------------------------------
# Grid runs

# Named candidate error shapes; normalized residuals divide by these.
CANDIDATE_ERRORS: dict[str, Callable[[float], float]] = {
    "x^2 log^2 x": lambda x: float(x) ** 2 * math.log(x) ** 2,
    "log x": lambda x: math.log(x),
}


def power_error(exponent: int) -> tuple[str, Callable[[float], float]]:
    return f"x^{exponent}", lambda x: float(x) ** exponent


def resolve_error(candidate_error) -> tuple[str, Callable[[float], float]]:
    if isinstance(candidate_error, str):
        if candidate_error not in CANDIDATE_ERRORS:
            raise ValueError(f"unknown candidate error {candidate_error!r}")
        return candidate_error, CANDIDATE_ERRORS[candidate_error]
    if isinstance(candidate_error, tuple):
        return candidate_error
    raise ValueError("candidate_error must be a name or a (label, fn) pair")


def run_grid(
    target,
    x_grid,
    candidate_error=None,
    *,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
    constant: Optional[EulerProductValue] = None,
    values=None,
) -> MeanValueReport:
    """Empirical sums against the predicted main term over a grid of x.

    target is a preset name, a Preset, or a bare ShiftedPairSpec (tabulated
    through its divisor-sum form).  values, when given, overrides tabulation
    with explicit (F, G) arrays covering [0, max x].
    """
    from . import presets as _presets  # local import; presets builds on this module

    if isinstance(target, str):
        target = _presets.get_preset(target)
    if isinstance(target, _presets.Preset):
        pair = target.pair
        f_tab, g_tab = target.f_tab, target.g_tab
        if candidate_error is None:
            candidate_error = (target.error_label, target.error_fn)
        label = target.name
    elif isinstance(target, ShiftedPairSpec):
        pair = target
        f_tab = DivisorSumFn(pair.f, pair.baseline.deg_shifted)
        g_tab = DivisorSumFn(pair.g, pair.baseline.deg_direct)
        label = ""
    else:
        raise ValueError(f"cannot run a grid for {target!r}")
    if candidate_error is None:
        raise ValueError("candidate_error is required for a bare pair spec")
    err_label, err_fn = resolve_error(candidate_error)

    xs = [int(v) for v in x_grid]
    if not xs or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("x grid must be non-empty and strictly increasing")
    if xs[0] <= pair.shift:
        raise ValueError(f"grid starts at {xs[0]}, need x > shift={pair.shift}")
    xmax = xs[-1]

    if constant is None:
        constant = shifted_mean_constant(pair, prime_cutoff, depth)
    if values is not None:
        f_vals, g_vals = values
    else:
        f_vals = tabulate(f_tab, xmax)
        g_vals = f_vals if g_tab == f_tab else tabulate(g_tab, xmax)

    rows = []
    for x in xs:
        emp = shifted_sum(f_vals, g_vals, pair.shift, x)
        pred = constant.value * pair.baseline.main_term(x)
        emp_f = float(emp)
        residual = emp_f - pred
        rows.append(
            MeanValueRow(
                x=x,
                empirical=emp_f,
                predicted=pred,
                residual=residual,
                normalized=residual / err_fn(x),
            )
        )
    return MeanValueReport(rows=tuple(rows), error_label=err_label, label=label)


def fit_error_exponent(report: MeanValueReport) -> ExponentFit:
    """Ordinary least squares of log|residual| on log x; zero residuals dropped."""
    pts = [(math.log(r.x), math.log(abs(r.residual))) for r in report.rows if r.residual != 0.0]
    if len(pts) < 3:
        raise ValueError(f"insufficient data: {len(pts)} usable rows, need >= 3")
    lx = np.array([p[0] for p in pts])
    ly = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    return ExponentFit(slope=float(slope), intercept=float(intercept), n_samples=len(pts))
