"""Desk-scale probabilistic meaning of the order constant.

For a target order N, every prime p in the Hasse window admits curves
y^2 = x^3 + ax + b over F_p with exactly N points; the per-prime density of
such (a, b) pairs, summed over the window, should track
order_constant(N) / log N.  Point counts run through a quadratic-residue
character sum; a naive enumeration is kept alongside as the oracle.  The
per-prime histogram of orders is exact: it counts every (a, b), but
enumerates b only for a = 0 and one a per quartic coset, since
(a, b) -> (u^4 a, u^6 b) preserves the curve up to isomorphism.

Primes 2 and 3 are excluded throughout (the short Weierstrass form
degenerates there); records carry a note to that effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import primes_up_to
from .curveconst import _qr_table, order_constant
from .euler import EulerProductValue
from .reports import dumps_json, fmt_csv

# Largest admissible target order, and the ceiling on it.  Histograms cost
# O(p^2) per window prime (at most five rows of p x p cells): N <= 200 runs in
# under half a second and N <= MAX_ORDER_CAP in about 8 s on 2 cores.
DEFAULT_ORDER_CAP = 200
MAX_ORDER_CAP = 2000

# Cells (b, x) per character-sum block; a whole row fits up to p = 509.
HIST_BLOCK_CELLS = 1 << 18

EXCLUDED_PRIMES_NOTE = "primes 2 and 3 excluded (short Weierstrass form degenerates)"


@dataclass(frozen=True)
class CurveDensityRecord:
    """Per-prime curve densities for one target order and their total.

    rho maps each Hasse-window prime to the exact fraction of (a, b) pairs
    (over all p^2, singular ones counting zero) whose curve has the target
    order; expected_m sums those densities and predicted is
    order_constant / log(order).
    """

    order: int
    hasse_primes: tuple
    rho: dict
    expected_m: float
    predicted: float
    note: str = EXCLUDED_PRIMES_NOTE


def _check_prime(p: int) -> None:
    if p < 5:
        raise ValueError(f"p must be an odd prime >= 5, got {p}")
    for q in range(2, math.isqrt(p) + 1):
        if p % q == 0:
            raise ValueError(f"p must be prime, got {p}")


def count_points(a: int, b: int, p: int) -> int:
    """Order of y^2 = x^3 + ax + b over F_p, point at infinity included.

    p + 1 + sum_x chi(x^3 + ax + b) with chi the quadratic-residue character
    (chi(0) = 0), read off a precomputed table.
    """
    _check_prime(p)
    a %= p
    b %= p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise ValueError(f"singular curve: 4a^3 + 27b^2 = 0 mod {p}")
    chi = _qr_table(p)
    x = np.arange(p, dtype=np.int64)
    vals = ((x * x % p) * x + a * x + b) % p
    return p + 1 + int(chi[vals].sum())


def count_points_naive(a: int, b: int, p: int) -> int:
    """Order by direct enumeration of all (x, y); the oracle for count_points."""
    _check_prime(p)
    a %= p
    b %= p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise ValueError(f"singular curve: 4a^3 + 27b^2 = 0 mod {p}")
    total = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                total += 1
    return total


_hist_cache: dict[int, np.ndarray] = {}


def _quartic_coset_reps(p: int) -> list[int]:
    """One a from each coset of F_p^* / (F_p^*)^4, smallest first.

    There are g = gcd(4, p - 1) cosets; a -> a^((p-1)/g) labels them.
    """
    g = math.gcd(4, p - 1)
    reps: dict[int, int] = {}
    a = 1
    while len(reps) < g:
        reps.setdefault(pow(a, (p - 1) // g, p), a)
        a += 1
    return list(reps.values())


def _order_row(a: int, p: int) -> np.ndarray:
    """bincount of the orders of y^2 = x^3 + ax + b over nonsingular b.

    The character table is repeated twice so that t + b < 2p indexes it
    without a reduction; b runs in blocks of at most HIST_BLOCK_CELLS cells.
    """
    chi2 = np.tile(_qr_table(p), 2)
    xs = np.arange(p, dtype=np.int64)
    t = ((xs * xs % p) * xs + a * xs) % p
    bs = np.arange(p, dtype=np.int64)
    char_sums = np.empty(p, dtype=np.int64)
    step = max(1, HIST_BLOCK_CELLS // p)
    for lo in range(0, p, step):
        block = bs[lo:lo + step]
        char_sums[lo:lo + step] = chi2[t[None, :] + block[:, None]].sum(axis=1)
    nonsingular = (4 * a**3 + 27 * bs * bs) % p != 0
    return np.bincount(p + 1 + char_sums[nonsingular], minlength=2 * p + 3)


def order_histogram(p: int) -> np.ndarray:
    """hist[m] = number of nonsingular (a, b) in F_p^2 with curve order m.

    For fixed a, b -> u^6 b permutes F_p and (a, b) -> (u^4 a, u^6 b) is an
    isomorphism (the discriminant scales by u^12), so the orders over b
    depend only on the coset of a in F_p^* / (F_p^*)^4.  Rows are enumerated
    for a = 0 and one representative per coset, weighted by the coset size
    (p - 1) / gcd(4, p - 1); cached per prime since many target orders share
    a window prime.
    """
    _check_prime(p)
    if p in _hist_cache:
        return _hist_cache[p]
    hist = _order_row(0, p).astype(np.int64)
    coset_size = (p - 1) // math.gcd(4, p - 1)
    for a in _quartic_coset_reps(p):
        hist += coset_size * _order_row(a, p)
    _hist_cache[p] = hist
    return hist


def hasse_window_primes(order: int) -> list[int]:
    """Primes p >= 5 with (p + 1 - order)^2 <= 4p, in ascending order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    hi = order + 2 * math.isqrt(order) + 4
    return [
        int(p)
        for p in primes_up_to(hi)
        if p >= 5 and (p + 1 - order) ** 2 <= 4 * p
    ]


def density(order: int, p: int) -> Fraction:
    """Exact fraction of (a, b) pairs over F_p^2 whose curve has the target order.

    Singular pairs contribute zero to the numerator; the denominator stays
    p^2 (the uniform-box heuristic).  Orders outside the Hasse window give 0.
    """
    hist = order_histogram(p)
    count = int(hist[order]) if 0 <= order < len(hist) else 0
    return Fraction(count, p * p)


def expected_m(order: int, cap: int = DEFAULT_ORDER_CAP,
               *, c2: Optional[EulerProductValue] = None) -> CurveDensityRecord:
    """Full density record for one target order.

    Work per window prime is O(p^2) (see order_histogram); cap bounds the
    largest admissible order and may not exceed MAX_ORDER_CAP.
    """
    if cap > MAX_ORDER_CAP:
        raise ValueError(f"cap {cap} exceeds the ceiling {MAX_ORDER_CAP}")
    if order < 7:
        raise ValueError(f"order must be >= 7, got {order}")
    if order > cap:
        raise ValueError(f"order {order} exceeds cap {cap}")
    window = hasse_window_primes(order)
    rho = {p: density(order, p) for p in window}
    total = float(sum(rho.values(), start=Fraction(0)))
    predicted = order_constant(order, c2=c2) / math.log(order)
    return CurveDensityRecord(
        order=order,
        hasse_primes=tuple(window),
        rho=rho,
        expected_m=total,
        predicted=predicted,
    )


def records_to_csv(records) -> str:
    lines = ["N,expected_m,predicted,ratio"]
    for r in records:
        ratio = r.expected_m / r.predicted if r.predicted else math.inf
        lines.append(
            f"{r.order},{fmt_csv(r.expected_m)},{fmt_csv(r.predicted)},{fmt_csv(ratio)}"
        )
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    payload = [
        {
            "N": r.order,
            "hasse_primes": list(r.hasse_primes),
            "rho": {str(p): float(v) for p, v in r.rho.items()},
            "expected_m": r.expected_m,
            "predicted": r.predicted,
            "note": r.note,
        }
        for r in records
    ]
    return dumps_json(payload)
