"""Elliptic-curve order constants and their mean-value verification runs.

The constant attached to a target group order N factors as

    twin_prime_constant * F(N-1) * G(N)

with F = shift_part_fn and G = order_part_fn both multiplicative.  Each
factor is defined once, by its values on prime powers; scalar values and
whole tables are both read off that one definition.  The original
(unnormalized) variant swaps G for a product that is not multiplicative at
squares: its factor at primes with even valuation carries a quadratic-residue
symbol of the p-free part of N.  Substituting that symbol by its mean value
changes each congruence-restricted sum only by O(1), which is what
substitution_gap measures directly.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .arith import (
    TABLE_SPAN,
    Factorization,
    PrimePowerFn,
    eval_multiplicative,
    factorize_trial,
    multiplicative_table,
    primes_up_to,
    quad_symbol,
    segmented_table,
)
from .euler import EulerProductValue, fold_local_factors
from .harness import RunningSum, prefix_dots, shifted_sum
from .reports import MeanValueReport

ORIGINAL_MEAN = 31.0 / 30.0  # mean value of the unnormalized constant


class SymbolConvention(enum.Enum):
    """Reading of the residue symbol of the odd part at p = 2.

    UNIT takes it to be 1 (the substitution the 31/30 mean is derived under);
    KRONECKER uses the standard Kronecker extension.  Exactly one is active
    per evaluation.
    """

    UNIT = "unit"
    KRONECKER = "kronecker"


def _symbol_at_two(odd_part: int, conv: SymbolConvention) -> int:
    if conv is SymbolConvention.UNIT:
        return 1
    r = (-odd_part) % 8
    return 1 if r in (1, 7) else -1


# ---------------------------------------------------------------------------
# Prime-power kernels (Moebius inverses of the factor functions)

def _shift_kernel_rule(p, k):
    return 1.0 / ((p + 1.0) * (p - 2.0)) if k == 1 else 0.0 * p


shift_kernel = PrimePowerFn(
    _shift_kernel_rule,
    two_rule=lambda k: -1.0 / 3.0 if k == 1 else 0.0,
    name="shift_kernel",
)


def _order_kernel_rule(p, k):
    return (p - 1.0) / (p**k * (p - 2.0))


order_kernel = PrimePowerFn(
    _order_kernel_rule,
    two_rule=lambda k: 0.0 if k == 1 else 2.0 ** (1 - k),
    name="order_kernel",
)

order_kernel_odd = PrimePowerFn(
    _order_kernel_rule,
    two_rule=lambda k: -1.0 if k == 1 else 0.0,
    name="order_kernel_odd",
)


averaged_order_kernel = PrimePowerFn(
    _order_kernel_rule,
    two_rule=lambda k: 3.0 / 2.0**k if k % 2 == 0 else 0.0,
    name="averaged_order_kernel",
)

# ---------------------------------------------------------------------------
# Factor functions, each defined once by its values on prime powers

# F: the factor attached to the shifted argument N-1.  Its second factor,
# 1 / (1 - 1/(p-1)^2), cancels the twin-prime constant's factor at p.
def _shift_part_rule(p, k):
    return (1.0 - 1.0 / ((p - 1.0) ** 2 * (p + 1.0))) * ((p - 1.0) ** 2 / (p * (p - 2.0)))


shift_part_fn = PrimePowerFn(
    _shift_part_rule, two_rule=lambda k: 2.0 / 3.0, name="shift_part"
)


# G: the factor attached to the order N itself.
def _order_part_rule(p, k):
    return (p - 1.0) / (p - 2.0) * (1.0 - 1.0 / (p**k * (p - 1.0)))


order_part_fn = PrimePowerFn(
    _order_part_rule, two_rule=lambda k: 2.0 - 2.0 ** (1 - k), name="order_part"
)

# G restricted to odd N: zero at every even N.
order_part_odd_fn = PrimePowerFn(_order_part_rule, two_rule=lambda k: 0.0, name="order_part_odd")


# G2: like G, but with the (1 - 1/(p^e (p-1))) factor only at odd valuations.
def _odd_val_part_rule(p, k):
    base = (p - 1.0) / (p - 2.0)
    if k % 2 == 1:
        return base * (1.0 - 1.0 / (p**k * (p - 1.0)))
    return base + 0.0 * p


odd_val_part_fn = PrimePowerFn(
    _odd_val_part_rule,
    two_rule=lambda k: 2.0 * (1.0 - 2.0 ** (-k)) if k % 2 == 1 else 2.0,
    name="odd_val_part",
)


# G4: the symbol-free (mean-substituted) counterpart of even_val_symbol_part.
def _even_val_mean_rule(p, k):
    if k % 2 == 1:
        return 1.0 + 0.0 * p
    return 1.0 - 1.0 / (p**k * (p - 1.0))


even_val_mean_fn = PrimePowerFn(
    _even_val_mean_rule,
    two_rule=lambda k: 1.0 - 2.0 ** (-(k + 1)) if k % 2 == 0 else 1.0,
    name="even_val_mean",
)


# G2 G4: the order-side factor of the mean-substituted constant.  At odd p the
# G4 factor fills in the (1 - 1/(p^e (p-1))) that G2 drops at even e, giving G.
def _averaged_order_part_two(k):
    return odd_val_part_fn(2, k) * even_val_mean_fn(2, k)


averaged_order_part_fn = PrimePowerFn(
    _order_part_rule, two_rule=_averaged_order_part_two, name="averaged_order_part"
)


# G3's factor at p^e, e even, for the symbol chi of the p-free part (int or array).
def _even_val_factor(p, e, chi):
    return 1.0 - (p - chi) / (float(p) ** (e + 1) * (p - 1.0))


def even_val_symbol_part(n: int, conv: SymbolConvention = SymbolConvention.UNIT,
                         fac: Optional[Factorization] = None) -> float:
    """Product over primes with even positive valuation, carrying the symbol
    of the p-free part; not multiplicative."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = 1.0
    for p, e in fac if fac is not None else factorize_trial(n):
        if e % 2 != 0:
            continue
        free_part = n // p**e
        chi = _symbol_at_two(free_part, conv) if p == 2 else quad_symbol(-free_part, p)
        out *= _even_val_factor(p, e, chi)
    return out


def even_val_symbol_table(limit: int, conv: SymbolConvention = SymbolConvention.UNIT,
                          lo: int = 0, hi: Optional[int] = None, *,
                          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Tabulate even_val_symbol_part over [0, limit].

    Given lo and hi, returns only the entries lo <= n < hi of that table
    (index n - lo), bit for bit, without building the rest; given out, they
    are written to its head, which is returned.  Not multiplicative, so it
    gets its own sieve, TABLE_SPAN entries at a time: for each prime power
    base = p^(2a), the factor at base*m depends only on m mod p (mod 8 at
    p = 2, where the symbol is read off -m mod 8), and is exactly 1.0 where
    p divides m, which leaves an entry's bits as they are and keeps entry 0
    at 0.  Each entry takes its factors in ascending p.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return segmented_table(lambda a, seg: _symbol_segment(limit, conv, a, seg),
                           np.float64, limit, lo, hi, out)


@lru_cache(maxsize=4)
def _symbol_sieve(limit: int, conv: SymbolConvention, span: int) -> tuple:
    """even_val_symbol_table's prime powers at limit, for segments of at
    most span entries, as (periodic, rare).

    periodic holds (base, factors, code) for each base = p^(2a) <= limit
    with p^2 <= span, in ascending p, then a: the factor at base*m is
    factors[code[j]] for j = m mod the period, with factors = (1.0, the
    factor at symbol +1, at -1), and code is laid out twice, so that a
    segment reads the period from its own phase as one slice.  rare holds
    the arrays of p, 2a and p^(2a) of the larger primes, each of whose
    powers has at most one multiple in a segment.
    """
    periodic, rare = [], []
    for p in primes_up_to(math.isqrt(limit)).tolist():
        powers, e = [], 2  # (2a, p^(2a))
        while p**e <= limit:
            powers.append((e, p**e))
            e += 2
        if p * p > span:
            rare += [(p, e, base) for e, base in powers]
            continue
        t = np.arange(8 if p == 2 else p)  # m mod the period
        if p > 2:
            chi = _qr_table(p)[-t % p]
        else:
            chi = np.array([_symbol_at_two(m, conv) for m in range(8)])
        code = np.tile(np.where(t % p == 0, 0, np.where(chi > 0, 1, 2)).astype(np.int8), 2)
        for e, base in powers:
            factors = np.array([1.0, _even_val_factor(p, e, 1.0), _even_val_factor(p, e, -1.0)])
            periodic.append((base, factors, code))
    return periodic, np.array(rare, dtype=np.int64).reshape(-1, 3).T


def _symbol_segment(limit: int, conv: SymbolConvention, lo: int, out: np.ndarray) -> None:
    """Write the entries lo <= n < lo + len(out) of even_val_symbol_table at
    limit into out, len(out) <= TABLE_SPAN; every segment shares one sieve."""
    periodic, rare = _symbol_sieve(limit, conv, TABLE_SPAN)
    hi = lo + len(out)
    out.fill(1.0)
    if lo == 0 and hi:
        out[0] = 0.0
    for base, factors, code in periodic:
        m0 = -(-lo // base)
        view = out[m0 * base - lo :: base]
        period = len(code) // 2
        phase = m0 % period
        if len(view) <= period:  # no whole period to repeat
            view *= factors[code[phase : phase + len(view)]]
        else:
            _multiply_periodic(view, factors[code[phase : phase + period]])
    # the rare powers' multiples come after every periodic one: their primes are larger
    p, e, base = rare
    m = -(-lo // base)
    for i in np.flatnonzero((m * base < hi) & (m % p != 0)).tolist():
        q, mi = int(p[i]), int(m[i])
        chi = _symbol_at_two(mi, conv) if q == 2 else quad_symbol(-mi, q)
        out[mi * int(base[i]) - lo] *= _even_val_factor(q, int(e[i]), float(chi))


# Entries per row when a periodic factor is multiplied into a strided view:
# long enough that the rows, not the periods, set the loop count.
PERIODIC_ROW = 2**12


def _multiply_periodic(view: np.ndarray, period: np.ndarray) -> None:
    """view[m] *= period[m % len(period)] for every m, in place and without a
    full-length copy of the factor: the view is cut into rows of whole periods."""
    row = np.tile(period, max(1, min(PERIODIC_ROW, len(view)) // len(period)))
    full = len(view) - len(view) % len(row)
    if full:
        rows = view[:full].reshape(-1, len(row), copy=False)
        np.multiply(rows, row, out=rows)
    view[full:] *= row[: len(view) - full]


@lru_cache(maxsize=128)
def _qr_table(p: int) -> np.ndarray:
    """chi[t] for t mod p: 0 at 0, +1 at nonzero squares, -1 otherwise."""
    table = np.full(p, -1, dtype=np.int8)
    table[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    table[0] = 0
    return table


# ---------------------------------------------------------------------------
# Constants

def _twin_prime_local(primes: np.ndarray, out: np.ndarray) -> tuple:
    """c2's local factors 1 + s at the odd primes: s = -1/(p-1)^2, into out."""
    odd = primes[1:] if primes[0] == 2 else primes
    x = np.subtract(odd, 1.0, out=out[: len(odd)])  # p - 1 as float64
    x *= x
    return np.divide(-1.0, x, out=x), 0.0, 1


def twin_prime_constant(prime_cutoff: int) -> EulerProductValue:
    """prod_{2 < p <= cutoff} (1 - 1/(p-1)^2), with certified crude tail 2/(P-1)
    and a sharper prime-density estimate alongside."""
    if prime_cutoff < 3:
        raise ValueError(f"prime cutoff must be >= 3, got {prime_cutoff}")
    value = fold_local_factors(prime_cutoff, _twin_prime_local)[0]
    crude = 2.0 / (prime_cutoff - 1)
    sharp = abs(value) / (prime_cutoff * (math.log(prime_cutoff) - 1.0))
    return EulerProductValue(
        value=value,
        prime_cutoff=prime_cutoff,
        power_depth=1,
        tail_bound=crude,
        tail_bound_sharp=sharp,
    )


def eval_point(n: int, conv: SymbolConvention = SymbolConvention.UNIT,
               *, c2: EulerProductValue) -> dict:
    """All factor values at a single order n, for the JSON eval interface.

    Kstar = c2 * F(n-1) * G(n) and Khat = c2 * F(n-1) * G1(n), with
    G1 = G2 * G3 the order-side factor of the unnormalized constant.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    fac = factorize_trial(n)
    f_star = eval_multiplicative(shift_part_fn, factorize_trial(n - 1))
    g_star = eval_multiplicative(order_part_fn, fac)
    g2 = eval_multiplicative(odd_val_part_fn, fac)
    g3 = even_val_symbol_part(n, conv, fac)
    g1 = g2 * g3
    return {
        "N": n,
        "Kstar": c2.value * f_star * g_star,
        "Khat": c2.value * f_star * g1,
        "F_star": f_star,
        "G_star": g_star,
        "G1": g1,
        "G2": g2,
        "G3": g3,
        "G4": eval_multiplicative(even_val_mean_fn, fac),
        "convention": conv.value,
    }


# ---------------------------------------------------------------------------
# Mean-value verification runs

# Each mean-value target and the slope of its main term.
MEAN_TARGETS = {"t2a": 1.0, "t2b": 1.0 / 3.0, "t3": ORIGINAL_MEAN}


def mean_order_grid(which: str, x_grid, conv: SymbolConvention = SymbolConvention.UNIT,
                    *, c2: EulerProductValue) -> MeanValueReport:
    """Empirical sum of the order constant over N <= x against its main term.

    t2a: all N, main term x.  t2b: odd N only, main term x/3.  t3: the
    unnormalized constant, main term 31x/30.  Each is c2 times the shifted
    sum of F(N-1) G(N) with shift 1, so it starts at N = 2 (the shifted
    factor is undefined at 0; the omission is absorbed by the O(log x) error
    scale) and the whole grid comes from one harness.shifted_sum pass, which
    also checks the grid.  The pass streams G over [lo, hi) (times the
    symbol table's segment for t3) and F over [lo - 1, hi - 1), one segment
    of each table at a time, so no whole table is held.  Normalized
    residual divides by log x.
    """
    slope = MEAN_TARGETS.get(which)
    if slope is None:
        raise ValueError(f"unknown mean-value target {which!r}; options: {tuple(MEAN_TARGETS)}")
    xs = [int(v) for v in x_grid]
    xmax = max(xs, default=1)

    order_fn = {"t2a": order_part_fn, "t2b": order_part_odd_fn, "t3": odd_val_part_fn}[which]
    # each segment of G, of the symbol factor and of F is written over the last
    g_buf, symbol_buf, f_buf = (np.empty(min(TABLE_SPAN, xmax)) for _ in range(3))

    def order_vals(lo, hi):  # G at lo <= N < hi
        vals = multiplicative_table(order_fn, xmax, lo, hi, out=g_buf)
        if which == "t3":
            vals *= even_val_symbol_table(xmax, conv, lo, hi, out=symbol_buf)
        return vals

    def shift_vals(lo, hi):  # F at lo <= N - 1 < hi
        return multiplicative_table(shift_part_fn, xmax, lo, hi, out=f_buf)

    sums = shifted_sum(shift_vals, order_vals, 1, xmax, grid=xs)
    return MeanValueReport.from_sums(
        xs, [c2.value * s for s in sums], [slope * x for x in xs], math.log,
        label=which, error_label="log x")


def substitution_gap(x_grid, d: int = 1, modulus: int = 1,
                     conv: SymbolConvention = SymbolConvention.UNIT) -> list:
    """Congruence-restricted sums of (even_val_symbol_part - even_val_mean_fn).

    One sum per x in the ascending grid, over N <= x with N = 1 (mod d) and
    N = 0 (mod modulus).  For coprime (d, modulus) those N form one residue
    class mod d * modulus.  Both tables are read a TABLE_SPAN segment at a
    time into two buffers written over each step, and the class entries of
    the two segments are subtracted.  The difference is 0 wherever no prime
    has an even valuation >= 2, and at about half of the other entries, so
    only the others are added into one exact running sum (prefix_dots), and
    no whole table is held.  The symbol substitution claims each sum stays
    O(1) in x; incompatible congruences give the empty sum, 0.
    """
    xs = [int(x) for x in x_grid]
    if not xs or xs[0] < 1 or d < 1 or modulus < 1:
        raise ValueError("x, d, modulus must all be >= 1")
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must ascend")
    if math.gcd(d, modulus) > 1:
        return [0.0] * len(xs)
    step = d * modulus
    start = modulus * pow(modulus, -1, d) % step or step  # least N >= 1 in the class
    xmax = xs[-1]
    symbol_buf, mean_buf = (np.empty(min(TABLE_SPAN, xmax + 1)) for _ in range(2))
    running, sums, i = RunningSum(), [], 0
    before = 0  # class entries below the segment
    for lo in range(0, xmax + 1, TABLE_SPAN):
        hi = min(lo + TABLE_SPAN, xmax + 1)
        first = max(start - lo, (start - lo) % step)  # the segment's first class entry, from lo
        diff = symbol_buf[:0]
        if first < hi - lo:
            diff = even_val_symbol_table(xmax, conv, lo, hi, out=symbol_buf)[first::step]
            diff -= multiplicative_table(even_val_mean_fn, xmax, lo, hi, out=mean_buf)[first::step]
        kept = np.flatnonzero(diff)
        # each grid end in the segment is mapped to the count of kept entries before it
        ends = []
        while i < len(xs) and xs[i] < hi:
            ends.append(int(np.searchsorted(kept, len(range(start, xs[i] + 1, step)) - before)))
            i += 1
        sums += prefix_dots(diff[kept], np.broadcast_to(1.0, len(kept)),
                            ends + [len(kept)], running)[:-1]
        before += len(diff)
    return sums
