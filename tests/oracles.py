"""Independent reference implementations the tests compare the package against.

None of these runs on a command-line path.  Each recomputes a quantity the
package produces by a different route: factorizations by trial division
by every odd number, the primes by one whole-array sieve
(the oracles below read theirs from it, except the two earlier package
builders kept for bit identity, which read arith.primes_up_to), the
constant as a rearranged double sum (brute and regrouped by gcd),
prime-zeta values and the twin-prime product built from them, the order
constant from its defining product, the symbol-substitution gap over a
mask of its congruence class and from whole tables, the symbol table with
the cofactors of each prime power batched and with each period tiled, the
prime-power sieve through one buffer of limit // 2 entries, the shifted
sums of a grid from whole tables, local factors and divisor sums term by
term, the curve-order presets' shifted sums at 40 digits from closed
forms, point counts by character sum and by enumeration, the class-number
table by one weighted bincount per a, curve densities as exact fractions,
and the least-squares error exponent of a report.  segments hands a whole
array to harness.shifted_sum, which reads table segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np

from shiftmean.arith import (
    Factorization,
    PrimePowerFn,
    jordan_dtype,
    multiplicative_table,
    primes_up_to,
)
from shiftmean.curveconst import (
    SymbolConvention,
    _even_val_factor,
    _qr_table,
    _symbol_at_two,
    even_val_mean_fn,
    even_val_symbol_table,
    odd_val_part_fn,
    order_part_fn,
    order_part_odd_fn,
    shift_part_fn,
)
from shiftmean.curvelab import _check_prime, class_number_table
from shiftmean.euler import EulerProductValue, ShiftedPairSpec
from shiftmean.harness import NamedFn, prefix_dots, shifted_sum
from shiftmean.reports import MeanValueReport

# ---------------------------------------------------------------------------
# Whole arrays as table segments


def segments(values: np.ndarray):
    """values as the table segment reader harness.shifted_sum takes:
    (lo, hi) -> values[lo:hi], which must lie within the array."""
    def read(lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= len(values):
            raise ValueError(f"[{lo}, {hi}) is not within the {len(values)} entries")
        return values[lo:hi]

    return read


# ---------------------------------------------------------------------------
# Primes


def plain_sieve(limit: int) -> np.ndarray:
    """Ascending int64 primes <= limit from one whole-array Eratosthenes sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).astype(np.int64)


def is_prime_miller_rabin(n: int) -> bool:
    """Primality of 0 <= n < 3,215,031,751 by strong probable-prime tests to
    the bases 2, 3, 5 and 7, which no composite below that bound passes
    (Jaeschke, Math. Comp. 1993); no sieve."""
    if n >= 3215031751:
        raise ValueError(f"bases 2, 3, 5, 7 decide only n < 3215031751, got {n}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
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


# ---------------------------------------------------------------------------
# Factorization


def factorize_by_trial_division(n: int) -> Factorization:
    """[(p, e), ...] of n >= 1 by trial division by 2 and every odd number
    up to the square root of what is left; no sieve."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out: Factorization = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


# ---------------------------------------------------------------------------
# Rearranged double sum


def double_sum_oracle(pair: ShiftedPairSpec, cutoff: int) -> float:
    """Brute-force rearranged double sum; converges to the same constant.

    Sums f(d) g(d1) gcd(d,d1) / (d d1) over all d, d1 <= cutoff whose gcd
    divides the shift.  Values of f and g come from direct per-integer
    factorization, independent of the Euler-product path this checks.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    h = pair.shift

    def table_values(fn: PrimePowerFn) -> np.ndarray:
        vals = np.empty(cutoff + 1)
        vals[0] = 0.0
        for n in range(1, cutoff + 1):
            v = 1.0
            for p, e in factorize_by_trial_division(n):
                v *= fn(p, e)
            vals[n] = v
        return vals

    f_vals = table_values(pair.f)
    g_vals = table_values(pair.g)
    d1 = np.arange(cutoff + 1, dtype=np.int64)
    g_over_d1 = np.zeros(cutoff + 1)
    g_over_d1[1:] = g_vals[1:] / d1[1:]

    contributions = []
    for d in range(1, cutoff + 1):
        fd = f_vals[d]
        if fd == 0.0:
            continue
        common = np.gcd(d, d1[1:])
        mask = h % common == 0
        inner = float(np.sum(g_over_d1[1:][mask] * common[mask]))
        contributions.append(fd / d * inner)
    return math.fsum(contributions)


def double_sum_by_gcd(pair: ShiftedPairSpec, cutoff: int) -> float:
    """The same truncated double sum as double_sum_oracle, in O(D log D).

    Grouping the pairs (d, d1) by e = gcd(d, d1) and Moebius-inverting the
    coprimality of d/e and d1/e gives

        sum_{e | h} e * sum_{k <= D/e} mu(k) F(ek) G(ek),
        F(m) = sum_{m | d <= D} f(d)/d,  G(m) = sum_{m | d <= D} g(d)/d,

    which is exact on the box d, d1 <= D.  Values of f, g and mu come from
    direct per-integer factorization, as in double_sum_oracle.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    f_vals, g_vals, mu = np.zeros(cutoff + 1), np.zeros(cutoff + 1), np.zeros(cutoff + 1)
    for n in range(1, cutoff + 1):
        fac = factorize_by_trial_division(n)
        f_vals[n] = math.prod(pair.f(p, e) for p, e in fac)
        g_vals[n] = math.prod(pair.g(p, e) for p, e in fac)
        mu[n] = 0.0 if any(e > 1 for _, e in fac) else (-1.0) ** len(fac)
    d = np.arange(1, cutoff + 1, dtype=np.float64)
    f_vals[1:] /= d
    g_vals[1:] /= d
    big_f = np.zeros(cutoff + 1)
    big_g = np.zeros(cutoff + 1)
    for m in range(1, cutoff + 1):
        big_f[m] = math.fsum(f_vals[m::m])
        big_g[m] = math.fsum(g_vals[m::m])
    terms = []
    for e in range(1, min(pair.shift, cutoff) + 1):
        if pair.shift % e == 0:
            k = np.arange(1, cutoff // e + 1)
            terms.append(e * math.fsum(mu[k] * big_f[e * k] * big_g[e * k]))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Prime zeta machinery: independent high-precision values for the products


def riemann_zeta(s: float, terms: int = 10000) -> float:
    """Riemann zeta for real s > 1 via Euler-Maclaurin; ~1e-15 relative."""
    if s <= 1:
        raise ValueError(f"zeta oracle needs s > 1, got {s}")
    n = np.arange(1, terms, dtype=np.float64)
    head = float(np.sum(n ** (-float(s))))
    t = float(terms)
    return (
        head
        + t ** (1 - s) / (s - 1)
        + 0.5 * t ** (-s)
        + s / 12.0 * t ** (-s - 1)
        - s * (s + 1) * (s + 2) / 720.0 * t ** (-s - 3)
        + s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0 * t ** (-s - 5)
    )


_MU_SMALL = [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1,
             0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1, -1, 0, 1, 1, 1, 0, -1, 1, 1,
             0, -1, -1, -1, 0, 0, 1, -1, 0, 0, 0, 1, 0, -1, 0, 1, 0, 1, 1, -1]


def prime_zeta(s: float) -> float:
    """P(s) = sum over primes of p^-s for s > 1.

    Moebius-zeta folding for small s; direct summation once s >= 14, where
    the folded result carries only absolute (not relative) accuracy and
    downstream weights would amplify that.
    """
    if s >= 14:
        return float(np.sum(plain_sieve(10000).astype(np.float64) ** (-float(s))))
    total = 0.0
    for k in range(1, len(_MU_SMALL)):
        mu = _MU_SMALL[k]
        if mu == 0:
            continue
        ks = k * s
        if ks > 120:
            break
        lz = math.log(riemann_zeta(ks)) if ks < 50 else riemann_zeta(ks) - 1.0
        total += mu / k * lz
    return total


def prime_zeta_odd(s: float) -> float:
    """Sum over odd primes of p^-s; avoids the 2^-s cancellation for large s."""
    if s >= 14:
        odd = plain_sieve(10000)[1:].astype(np.float64)
        return float(np.sum(odd ** (-float(s))))
    return prime_zeta(s) - 2.0 ** (-s)


def twin_prime_oracle() -> float:
    """Prime-zeta-accelerated value of the full product, ~1e-13 accurate.

    log of the product is -sum_{m>=2} ((2^m - 2)/m) * sum_{p odd} p^-m,
    folding the odd prime zeta values instead of truncating at a cutoff.
    """
    acc = 0.0
    for m in range(2, 130):
        term = (2.0**m - 2.0) / m * prime_zeta_odd(m)
        acc -= term
        if abs(term) < 1e-20:
            break
    return math.exp(acc)


# ---------------------------------------------------------------------------
# The order constant from its defining product


def order_constant_direct(n: int, prime_cutoff: int) -> EulerProductValue:
    """The order constant straight from its defining product, truncated.

    Runs over p <= cutoff with p not dividing n; the squared residue symbol
    of n-1 reduces to an indicator: 1 when p does not divide n-1, else 0.
    Returns the truncated value with tail accounting; multiply by n/totient(n)
    to compare with eval_point's Kstar.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if prime_cutoff < 3:
        raise ValueError(f"prime cutoff must be >= 3, got {prime_cutoff}")
    primes = plain_sieve(prime_cutoff)
    pf = primes.astype(np.float64)
    indicator = ((n - 1) % primes != 0).astype(np.float64)
    if n == 1:
        indicator[:] = 0.0  # n-1 = 0 is divisible by every prime
    deficits = -(indicator * pf + 1.0) / ((pf - 1.0) ** 2 * (pf + 1.0))
    for p, e in factorize_by_trial_division(n):
        if p <= prime_cutoff:
            idx = int(np.searchsorted(primes, p))
            deficits[idx] = -1.0 / (float(p) ** e * (p - 1.0))
    value = float(np.exp(np.sum(np.log1p(deficits))))
    crude = 2.0 / (prime_cutoff - 1)
    return EulerProductValue(
        value=value,
        prime_cutoff=prime_cutoff,
        power_depth=1,
        tail_bound=abs(value) * math.expm1(crude),
        tail_bound_sharp=abs(value) / (prime_cutoff * (math.log(prime_cutoff) - 1.0)),
    )


# ---------------------------------------------------------------------------
# The symbol-substitution gap at one x, over a mask


def substitution_gap_by_mask(x: int, d: int = 1, modulus: int = 1,
                             conv: SymbolConvention = SymbolConvention.UNIT) -> float:
    """The gap at one x, from tables built up to x and a mask of the class.

    Tests N % d == 1 % d and N % modulus == 0 for every 1 <= N <= x, so it
    needs no residue-class arithmetic, and sums with math.fsum.
    """
    if x < 1 or d < 1 or modulus < 1:
        raise ValueError("x, d, modulus must all be >= 1")
    if math.gcd(d, modulus) > 1:
        return 0.0
    symbol_vals = even_val_symbol_table(x, conv)
    mean_vals = multiplicative_table(even_val_mean_fn, x)
    n = np.arange(x + 1, dtype=np.int64)
    mask = (n % d == 1 % d) & (n % modulus == 0)
    mask[0] = False
    return math.fsum(symbol_vals[mask] - mean_vals[mask])


def substitution_gap_by_whole_tables(x_grid, d: int = 1, modulus: int = 1,
                                     conv: SymbolConvention = SymbolConvention.UNIT) -> list:
    """curveconst.substitution_gap from whole tables at the largest x.

    The class entries of the symbol table below 1.0 (those where some prime
    has an even valuation >= 2, the only ones where the two tables can
    differ) less the mean table's entries there; the differences that are
    not 0 are summed by one prefix_dots call, each grid end mapped to the
    count of kept entries before it.
    """
    xs = [int(x) for x in x_grid]
    if math.gcd(d, modulus) > 1:
        return [0.0] * len(xs)
    step = d * modulus
    start = modulus * pow(modulus, -1, d) % step or step  # least N >= 1 in the class
    symbol = even_val_symbol_table(xs[-1], conv)[start::step]
    kept = np.flatnonzero(symbol != 1.0)
    diff = symbol[kept] - multiplicative_table(even_val_mean_fn, xs[-1])[start::step][kept]
    kept, diff = kept[diff != 0], diff[diff != 0]
    ends = np.searchsorted(kept, [len(range(start, x + 1, step)) for x in xs])
    return prefix_dots(diff, np.broadcast_to(1.0, len(diff)), ends)


def even_val_symbol_table_batched(limit: int,
                                  conv: SymbolConvention = SymbolConvention.UNIT) -> np.ndarray:
    """even_val_symbol_table, with the cofactors m of each p^(2a) batched.

    For every prime power base = p^(2a) the cofactors m <= limit / base with
    p not dividing m are listed, their symbols gathered from a residue table,
    and the factors scattered to base * m.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    res = np.ones(limit + 1)
    res[0] = 0.0
    primes = plain_sieve(math.isqrt(limit))
    for p in primes.tolist():
        qr = _qr_table(p) if p > 2 else None
        base = p * p
        while base <= limit:
            m = np.arange(1, limit // base + 1, dtype=np.int64)
            m = m[m % p != 0]
            if p == 2:
                if conv is SymbolConvention.UNIT:
                    chi = np.ones(len(m))
                else:
                    r = (-m) % 8
                    chi = np.where((r == 1) | (r == 7), 1.0, -1.0)
            else:
                chi = qr[(-m) % p].astype(np.float64)
            res[base * m] *= 1.0 - (p - chi) / (float(base) * p * (p - 1.0))
            base *= p * p
    return res


def even_val_symbol_table_by_tile(limit: int,
                                  conv: SymbolConvention = SymbolConvention.UNIT) -> np.ndarray:
    """even_val_symbol_table, with each prime power's periodic factor tiled.

    The factor at base*m, base = p^(2a), is built for one period of m and
    copied by np.tile over the whole strided slice res[base::base].
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    res = np.ones(limit + 1)
    res[0] = 0.0
    for p in primes_up_to(math.isqrt(limit)).tolist():
        t = np.arange(8 if p == 2 else p)  # m mod the period
        if p > 2:
            chi = _qr_table(p)[-t % p].astype(np.float64)
        else:
            chi = np.array([_symbol_at_two(m, conv) for m in range(8)], dtype=np.float64)
        e = 2
        while (base := p**e) <= limit:
            n = limit // base
            fac = _even_val_factor(p, e, chi)
            fac[t % p == 0] = 1.0
            res[base::base] *= np.tile(fac, n // len(t) + 1)[1 : n + 1]
            e += 2
    return res


# ---------------------------------------------------------------------------
# Prime-power tables through one buffer of limit // 2 entries


def prime_power_sieve_by_buffer(limit: int, dtype, local, on_big) -> np.ndarray:
    """The table of arith.multiplicative_table and jordan_table, built whole,
    with one strided buffer per small prime.

    Each prime's factors at every multiple are laid out in one buffer of
    limit // 2 entries and multiplied in at once; the big primes' products
    are fresh arrays for each cofactor q, scattered over the whole table.
    """
    res = np.ones(limit + 1, dtype=dtype)
    res[0] = 0
    primes = primes_up_to(limit)
    n_small = int(np.searchsorted(primes, isqrt(limit), side="right"))
    buf = np.empty(limit // 2, dtype=dtype)  # buf[j]: the factor of p at n = (j + 1) p
    for p in primes[:n_small].tolist():
        s, e = 1, 1  # multiples of p^e sit every s = p^(e-1) slots; higher powers overwrite
        while s * p <= limit:
            buf[s - 1 : limit // p : s] = local(p, e)
            s, e = s * p, e + 1
        res[p::p] *= buf[: limit // p]
    del buf
    # p > sqrt(limit) divides each multiple p*q <= limit once (q <= sqrt(limit)): scatter per q
    big = primes[n_small:]
    vals = on_big(big)
    for q in range(1, isqrt(limit) + 1):
        hi = int(np.searchsorted(big, limit // q, side="right"))
        # q has only small primes, which gave res[q] and res[p*q] the same factors in order
        res[big[:hi] * q] = res[q] * vals[:hi]
    return res


def mean_order_sums_by_whole_tables(which: str, grid: list,
                                    conv: SymbolConvention = SymbolConvention.UNIT) -> list:
    """The sums of F(N-1) G(N) over 2 <= N <= x, x in the grid, that
    curveconst.mean_order_grid scales by c2, from whole tables.

    F and G are built over [0, x] by prime_power_sieve_by_buffer (and t3's
    symbol factor by even_val_symbol_table_by_tile) and summed by one
    shifted_sum call over segments of the whole arrays.
    """
    xmax = grid[-1]

    def table(fn):
        return prime_power_sieve_by_buffer(xmax, np.float64, fn, lambda big: fn.on_primes(big, 1))

    if which == "t3":
        g_vals = table(odd_val_part_fn)
        g_vals *= even_val_symbol_table_by_tile(xmax, conv)
    else:
        g_vals = table(order_part_fn if which == "t2a" else order_part_odd_fn)
    return shifted_sum(segments(table(shift_part_fn)), segments(g_vals), 1, xmax,
                       grid=grid)


def run_grid_sums_by_whole_tables(preset, grid: list) -> list:
    """The sums of F(n - shift) G(n) over shift < n <= x, x in the grid, that
    harness.run_grid reports for a presets.Preset, from whole tables.

    F and G are built over [0, x] by prime_power_sieve_by_buffer, and each
    sum is taken on its own: Python ints for exact tables, math.fsum of the
    float64 products otherwise.
    """
    xmax, shift = grid[-1], preset.pair.shift

    def table(spec):
        if not isinstance(spec, NamedFn):
            return prime_power_sieve_by_buffer(xmax, np.float64, spec,
                                               lambda big: spec.on_primes(big, 1))
        k, dtype = spec.k, jordan_dtype(xmax, spec.k)
        return prime_power_sieve_by_buffer(xmax, dtype,
                                           lambda p, e: p ** (k * (e - 1)) * (p**k - 1),
                                           lambda big: big.astype(dtype) ** k - 1)

    f_vals = table(preset.f_tab)
    g_vals = f_vals if preset.g_tab == preset.f_tab else table(preset.g_tab)
    sums = []
    for x in grid:
        f, g = f_vals[1 : x - shift + 1], g_vals[shift + 1 : x + 1]
        if f.dtype.kind == "f":
            sums.append(math.fsum((f * g).tolist()))
        else:
            sums.append(int(np.dot(f.astype(object), g.astype(object))))
    return sums


# ---------------------------------------------------------------------------
# Local factors and divisor sums, term by term


def local_factor(f: PrimePowerFn, g: PrimePowerFn, p: int, depth: int) -> float:
    """1 + sum_{j=1..depth} (f(p^j)+g(p^j))/p^j, one factor of the prime product."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    total = 1.0
    for j in range(1, depth + 1):
        total += (f(p, j) * 1.0 + 1.0 * g(p, j)) / float(p) ** j
    return total


def eval_divisor_sum(fn: PrimePowerFn, fac: Factorization) -> float:
    """Sum of fn over the divisors of n, as the product of local partial sums.

    Equals sum_{d | n} fn(d) with fn extended multiplicatively.
    """
    out = 1.0
    for p, e in fac:
        out *= 1.0 + sum(fn(p, j) for j in range(1, e + 1))
    return out


def _odd_val_kernel_rule(p, k):
    if k == 1:
        return (p - 1.0) / (p * (p - 2.0))
    if k % 2 == 0:
        return 1.0 / (p ** (k - 1) * (p - 2.0))
    return -1.0 / (p**k * (p - 2.0))


def _odd_val_kernel_two(k):
    if k == 1:
        return 0.0
    return 2.0 ** (2 - k) if k % 2 == 0 else -(2.0 ** (1 - k))


# Moebius inverse of curveconst.odd_val_part_fn; its divisor sums rebuild it.
odd_val_kernel = PrimePowerFn(
    _odd_val_kernel_rule, two_rule=_odd_val_kernel_two, name="odd_val_kernel"
)


# ---------------------------------------------------------------------------
# Shifted sums of the curve-order factors, at 40 digits


def _factor_at(which: str, p: int, k: int):
    """The factor at p^k of F ("shift") or of an order side, as an mpmath value.

    Order sides: "all" is G; "odd" is G on odd N only; "averaged" is G2 G4,
    which equals G at odd p.
    """
    p_ = mpmath.mpf(p)
    if which == "shift":
        if p == 2:
            return mpmath.mpf(2) / 3
        return (1 - 1 / ((p_ - 1) ** 2 * (p_ + 1))) * (p_ - 1) ** 2 / (p_ * (p_ - 2))
    if p > 2:
        return (p_ - 1) / (p_ - 2) * (1 - 1 / (p_**k * (p_ - 1)))
    if which == "all":
        return 2 - mpmath.mpf(2) ** (1 - k)
    if which == "odd":
        return mpmath.mpf(0)
    e = k if k % 2 else k + 1  # G2 G4 at 2^k
    return 2 * (1 - mpmath.mpf(2) ** -e)


def order_factor_sum_mp(order_side: str, shift: int, x: int):
    """sum_{n = shift+1..x} F(n - shift) G(n) at 40 digits, with G the order
    side named as in _factor_at.

    Each value is the product of its closed-form factors over a factorization
    read off a smallest-prime-factor list; nothing comes from the package.
    """
    spf = list(range(x + 1))
    for p in range(2, math.isqrt(x) + 1):
        if spf[p] == p:
            for m in range(p * p, x + 1, p):
                if spf[m] == m:
                    spf[m] = p

    def value(which, n):
        out = mpmath.mpf(1)
        while n > 1:
            p, k = spf[n], 0
            while n % p == 0:
                n, k = n // p, k + 1
            out *= _factor_at(which, p, k)
        return out

    with mpmath.workdps(40):
        return mpmath.fsum(value("shift", n - shift) * value(order_side, n)
                           for n in range(shift + 1, x + 1))


# ---------------------------------------------------------------------------
# Point counts


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


# ---------------------------------------------------------------------------
# Curve densities


def class_number_table_by_bincount(limit: int) -> np.ndarray:
    """h6[D] = 6 H(D) for 0 <= D <= limit, one weighted bincount per a.

    Each a gets the whole 2-D grid of b in 0..a and c from a up, the weight
    of every reduced form (b^2 - 4ac = -D) as a float matrix with the two
    c = a, b in (0, a) cells patched, and one bincount over the table length.
    """
    h6 = np.zeros(limit + 1, dtype=np.int64)
    for a in range(1, math.isqrt(limit // 3) + 1):  # 4ac - b^2 >= 3a^2
        b = np.arange(a + 1, dtype=np.int64)[:, None]
        c = np.arange(a, (limit + a * a) // (4 * a) + 1, dtype=np.int64)
        d = 4 * a * c - b * b
        w = np.where((b == 0) | (b == a) | (c == a), 6, 12)
        w[0, 0], w[a, 0] = 3, 2  # a(x^2 + y^2), a(x^2 + xy + y^2)
        keep = d <= limit
        h6 += np.bincount(d[keep], weights=w[keep], minlength=limit + 1).astype(np.int64)
    return h6


def expected_m_by_fractions(order: int) -> tuple[dict, float]:
    """Per-prime densities of one target order as Fractions, and their sum as a float.

    Window primes come from plain_sieve and the definition (p + 1 - N)^2 <= 4p;
    each prime's full-length histogram, indexed by the order itself, holds
    (p - 1)/2 * H(4p - t^2) at p + 1 - t (Deuring; Birch 1968); the densities
    add as Fractions, and only the total is rounded.
    """
    rho = {}
    for p in plain_sieve(order + 2 * math.isqrt(order) + 4).tolist():
        if p < 5 or (p + 1 - order) ** 2 > 4 * p:
            continue
        s = math.isqrt(4 * p)
        t = np.arange(-s, s + 1, dtype=np.int64)
        hist = np.zeros(2 * p + 3, dtype=np.int64)
        hist[p + 1 - t] = (p - 1) * class_number_table(4 * p)[4 * p - t * t] // 12
        rho[p] = Fraction(int(hist[order]), p * p)
    return rho, float(sum(rho.values(), start=Fraction(0)))


# ---------------------------------------------------------------------------
# Error exponents


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log|residual| against log x."""

    slope: float
    intercept: float
    n_samples: int


def fit_error_exponent(report: MeanValueReport) -> ExponentFit:
    """Ordinary least squares of log|residual| on log x; zero residuals dropped."""
    pts = [(math.log(r.x), math.log(abs(r.residual))) for r in report.rows if r.residual != 0.0]
    if len(pts) < 3:
        raise ValueError(f"insufficient data: {len(pts)} usable rows, need >= 3")
    lx = np.array([p[0] for p in pts])
    ly = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    return ExponentFit(slope=float(slope), intercept=float(intercept), n_samples=len(pts))
