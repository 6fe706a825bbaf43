"""Desk-scale probabilistic meaning of the order constant.

For a target order N, every prime p in the Hasse window admits curves
y^2 = x^3 + ax + b over F_p with exactly N points; the per-prime density of
such (a, b) pairs, summed over the window, should track Kstar(N) / log N,
with Kstar the order constant.  The per-prime histogram of orders is exact
and enumerates no curve: it reads Hurwitz class numbers H(4p - t^2) off one
table (Deuring; Birch 1968), and holds only the orders the Hasse bound
allows.  Densities and their totals are correctly rounded exact fractions.
Point counts of single curves, by character sum and by enumeration, are the
tests' oracles (tests/oracles.py).

Primes 2 and 3 are excluded throughout (the short Weierstrass form
degenerates there); JSON records carry a note to that effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import factorize_trial, primes_up_to
from .curveconst import eval_point
from .euler import EulerProductValue
from .reports import csv_text, dumps_json

# Largest admissible target order, and the ceiling on it.  A histogram costs
# O(sqrt p) lookups once the class-number table reaches 4p, and the table up
# to D costs O(D^1.5).  Measured on a 2-core VM, `curvelab --n-min 20
# --n-max 20000` runs in 1.6-2.1 s at 42 MB RSS as CSV (the records stream to
# the writer; every cached histogram together is 6.4 MiB) and in 4.0-5.4 s at
# 129 MB RSS as JSON, which writes 45 MB (each record is encoded on its own,
# and the joined text is written in slices).  Past this, the exact per-order
# bigint sums and the indented JSON encoder dominate.
DEFAULT_ORDER_CAP = 200
MAX_ORDER_CAP = 20000

EXCLUDED_PRIMES_NOTE = "primes 2 and 3 excluded (short Weierstrass form degenerates)"


@dataclass(frozen=True)
class CurveDensityRecord:
    """Per-prime curve densities for one target order and their total.

    rho maps each Hasse-window prime, in ascending order, to the fraction of
    (a, b) pairs (over all p^2, singular ones counting zero) whose curve has
    the target order, as the correctly rounded float of the exact count /
    p^2; expected_m is the exact sum of those fractions, rounded once, and
    predicted is Kstar / log(order), Kstar the order constant of eval_point.
    """

    order: int
    rho: dict
    expected_m: float
    predicted: float


def _check_prime(p: int) -> None:
    if p < 5 or factorize_trial(p) != [(p, 1)]:
        raise ValueError(f"p must be a prime >= 5, got {p}")


# h6[D] = 6 H(D) for every D < len(h6); replaced, never edited, when it grows.
_h6_cache: np.ndarray = np.zeros(1, dtype=np.int64)


def class_number_table(limit: int) -> np.ndarray:
    """h6[D] = 6 H(D) for 0 <= D <= limit (at least), H the Hurwitz class number.

    6 H(D) sums over the reduced forms (a, b, c) with b^2 - 4ac = -D a weight
    of 6, or 3 for a(x^2 + y^2) and 2 for a(x^2 + xy + y^2) (Cohen, A Course
    in Computational Algebraic Number Theory, 5.3).  Forms are enumerated with
    0 <= b <= a <= c, one strided integer add per (a, b) row: D = 4ac - b^2
    steps by 4a as c rises from a.  When 0 < b < a < c, the form with -b is
    reduced too, so the weight is 12.  The cached table grows to at least
    twice its length, so a rising limit rebuilds it O(log limit) times.
    """
    global _h6_cache
    if len(_h6_cache) > limit:
        return _h6_cache
    limit = max(limit, 2 * (len(_h6_cache) - 1))
    h6 = np.zeros(limit + 1, dtype=np.int64)
    for a in range(1, math.isqrt(limit // 3) + 1):  # 4ac - b^2 >= 3a^2
        for b in range(a, -1, -1):
            d = 4 * a * a - b * b  # c = a; D grows as b falls
            if d > limit:
                break
            h6[d] += 3 if b == 0 else 2 if b == a else 6  # a(x^2 + y^2), a(x^2 + xy + y^2)
            h6[d + 4 * a :: 4 * a] += 6 if b in (0, a) else 12  # c > a
    _h6_cache = h6
    return h6


@cache
def order_histogram(p: int) -> np.ndarray:
    """hist[j] = number of nonsingular (a, b) in F_p^2 with p + 1 - s + j points.

    s = isqrt(4p), and j runs over 0..2s, the orders the Hasse bound allows.
    By Deuring's theorem, in the form Birch (1968) gives it, exactly
    (p - 1)/2 * H(4p - t^2) nonsingular pairs have p + 1 - t points when
    t^2 < 4p, and none otherwise; H is the Hurwitz class number, read off
    class_number_table.  Cached per prime since many target orders share a
    window prime; a non-prime raises, so only primes enter the cache.
    """
    _check_prime(p)
    s = math.isqrt(4 * p)  # 4p is not a square, so t^2 < 4p means |t| <= s
    t = np.arange(-s, s + 1, dtype=np.int64)  # t = s - j; the count is even in t
    return (p - 1) * class_number_table(4 * p)[4 * p - t * t] // 12


def hasse_window_primes(order: int) -> list[int]:
    """Primes p >= 5 with (p + 1 - order)^2 <= 4p, in ascending order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    # |p + 1 - order| <= 2 sqrt p puts sqrt p within 1 of sqrt order, so the
    # window lies inside [order - 3 - 2 isqrt(order), order + 2 isqrt(order) + 4].
    r = math.isqrt(order)
    primes = primes_up_to(order + 2 * r + 4)
    lo = np.searchsorted(primes, max(5, order - 3 - 2 * r))
    return [p for p in primes[lo:].tolist() if (p + 1 - order) ** 2 <= 4 * p]


def expected_m(order: int, *, c2: EulerProductValue) -> CurveDensityRecord:
    """Full density record for one target order, 7 <= order <= MAX_ORDER_CAP.

    Each window prime costs one histogram (see order_histogram), whose count
    c_p gives rho[p] = c_p / p^2; with D = prod p^2, expected_m is
    sum(c_p * (D // p^2)) / D.  Python's int true division rounds correctly,
    so both are the floats nearest the exact fractions.
    """
    if order < 7:
        raise ValueError(f"order must be >= 7, got {order}")
    if order > MAX_ORDER_CAP:
        raise ValueError(f"order {order} exceeds the ceiling {MAX_ORDER_CAP}")
    window = hasse_window_primes(order)
    counts = [int(order_histogram(p)[order - p - 1 + math.isqrt(4 * p)]) for p in window]
    rho = {p: c / (p * p) for p, c in zip(window, counts)}
    denom = math.prod(p * p for p in window)
    total = sum(c * (denom // (p * p)) for p, c in zip(window, counts)) / denom
    predicted = eval_point(order, c2=c2)["Kstar"] / math.log(order)
    return CurveDensityRecord(order=order, rho=rho, expected_m=total, predicted=predicted)


def records_to_csv(records) -> str:
    rows = ((r.order, r.expected_m, r.predicted, r.expected_m / r.predicted) for r in records)
    return csv_text("N,expected_m,predicted,ratio", rows)


def records_to_json(records) -> str:
    """The records as dumps_json writes a list of their payloads, byte for byte.

    Each record is encoded on its own and indented one level more, between
    "[\n", ",\n" and "\n]", so neither the list of payloads nor the
    encoder's pieces of the whole array are ever held.
    """
    parts = []
    for r in records:
        payload = {
            "N": r.order,
            "hasse_primes": list(r.rho),
            "rho": {str(p): v for p, v in r.rho.items()},
            "expected_m": r.expected_m,
            "predicted": r.predicted,
            "note": EXCLUDED_PRIMES_NOTE,
        }
        parts.append(",\n  " if parts else "[\n  ")
        parts.append(dumps_json(payload).replace("\n", "\n  "))
    if not parts:
        return dumps_json([])
    parts.append("\n]")
    return "".join(parts)
