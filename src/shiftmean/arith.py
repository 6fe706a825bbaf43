"""Sieve-backed integer arithmetic.

One segmented prime sieve (on the 6k+-1 wheel, SIEVE_SPAN integers at a
time in 1.4 MiB of flags, so a caller that streams its segments holds a
bounded amount whatever the limit), trial-division factorization, Jacobi
symbols, multiplicative functions defined by their values on prime powers,
and one prime-power sieve that tabulates them (float or exact) over an
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log
from typing import Callable, Iterator, Optional

import numpy as np

# Exact-integer evaluation refuses results that would exceed 128 bits.
INT128_CEILING = 1 << 127

Factorization = list[tuple[int, int]]


# factorize_trial divides by 2 and the odd numbers below this bound in pure
# Python, cheaper than a numpy call for the small n most callers factor, and
# by sieved primes past it.
TRIAL_BOUND = 2**8


def factorize_trial(n: int) -> Factorization:
    """Return [(p, e), ...] with strictly increasing p and prod p^e == n.

    Trial division by 2 and the odd numbers below TRIAL_BOUND, then by the
    primes up to the square root of what is left, tested a sieve segment
    at a time (prime_segments), so a large n caches no primes past the
    first segment.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out: Factorization = []
    m = n
    p = 2
    while p < TRIAL_BOUND and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if p * p <= m:
        for primes in prime_segments(isqrt(m)):
            primes = primes[int(np.searchsorted(primes, p)) :]
            if not len(primes) or int(primes[0]) ** 2 > m:
                break
            # every divisor found divides what is left of m once the smaller ones are out
            rem = m % (primes if m < 2**63 else primes.astype(object))
            for q in primes[np.flatnonzero(rem == 0)].tolist():
                if q * q > m:
                    break
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                out.append((q, e))
    if m > 1:
        out.append((m, 1))
    return out


def quad_symbol(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 1; the Legendre symbol for prime m."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {m}")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


# ---------------------------------------------------------------------------
# Multiplicative functions given on prime powers


@dataclass(frozen=True)
class PrimePowerFn:
    """A multiplicative function determined by its values on prime powers.

    rule(p, k) gives the value at p^k for k >= 1 and must accept either a
    scalar prime or an ndarray of primes, which may be float64 (k is always
    a scalar).  It must neither write into its array argument nor return
    it, since callers hold and reuse that array.  The value
    at k = 0 is implicitly 1.  two_rule, when given, overrides the values at
    p = 2 (several of the built-in tables are irregular there).
    """

    rule: Callable
    two_rule: Optional[Callable[[int], float]] = None
    name: str = ""

    def __call__(self, p: int, k: int) -> float:
        if k == 0:
            return 1.0
        if p == 2 and self.two_rule is not None:
            return float(self.two_rule(k))
        return float(self.rule(p, k))

    def on_primes(self, primes: np.ndarray, k: int) -> np.ndarray:
        """Vectorized values at p^k over an ascending array of primes."""
        if k == 0:
            return np.ones(len(primes))
        # rules may divide by zero at p = 2 before the override lands
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(self.rule(np.asarray(primes, dtype=np.float64), k), dtype=np.float64)
        if vals.shape == ():  # rule returned a scalar constant
            vals = np.full(len(primes), float(vals))
        if self.two_rule is not None and len(primes) and primes[0] == 2:
            vals[0] = float(self.two_rule(k))
        return vals


def eval_multiplicative(fn: PrimePowerFn, fac: Factorization) -> float:
    """Value of the induced multiplicative function at n = prod p^e."""
    out = 1.0
    for p, e in fac:
        out *= fn(p, e)
    return out


# ---------------------------------------------------------------------------
# Exact-integer named functions


def totient(n: int) -> int:
    """Euler totient, exact."""
    return jordan_totient(n, 1)


def _power_exceeds_128_bits(n: int, k: int) -> bool:
    """n^k >= 2^127, decided without computing n^k when k >= 127."""
    return n > 1 and (k >= 127 or n**k >= INT128_CEILING)


def jordan_totient(n: int, k: int) -> int:
    """Jordan totient J_k(n) = n^k prod_{p|n} (1 - p^-k), exact.

    Rejects arguments whose value would exceed 128 bits.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if _power_exceeds_128_bits(n, k):
        raise ValueError(f"J_{k}({n}) exceeds the 128-bit range")
    out = 1
    for p, e in factorize_trial(n):
        out *= p ** (k * e) - p ** (k * (e - 1))
    return out


# ---------------------------------------------------------------------------
# Prime lists and bulk tabulation

# Integers per sieve segment.  A segment keeps one bool per number prime to
# 6 (1.4 MiB), and one segment's primes are all an Euler product holds at a
# time.  The folds sum per segment, so the boundaries fix their last bits.
SIEVE_SPAN = 2**22

# (limit, primes <= limit); replaced in one assignment so a reader never
# pairs a limit with a prime list sieved for another.
_prime_cache: tuple = (0, np.empty(0, dtype=np.int64))

# Entries of the prime-power sieve's one scratch chunk (1 MiB of float64 or
# int64): each small prime's factors are laid out and multiplied in through
# it POWER_CHUNK multiples at a time, so no buffer grows with the limit.
POWER_CHUNK = 2**17

# Entries at a time that the sieves turn from flags into primes and from big
# primes into their values, so the temporaries stay at a few 256 KiB beside
# the arrays they fill.  Even, so a wheel entry's parity is its offset's.
PRIME_BLOCK = 2**15


def primes_up_to(limit: int, lo: int = 0) -> np.ndarray:
    """Ascending int64 array of the primes p with lo <= p <= limit.

    Calls with lo = 0 are cached: a larger limit sieves only past the cached
    one, into one array that starts with the cached primes.  Other ranges
    are sliced from the cache when it covers them, else sieved afresh into
    one array sized by bounds on their count, and not kept.
    """
    global _prime_cache
    if limit < max(lo, 2):
        return np.empty(0, dtype=np.int64)
    cached_limit, primes = _prime_cache
    if limit <= cached_limit:
        if lo <= 2 and limit == cached_limit:
            return primes
        return primes[int(np.searchsorted(primes, lo)) :
                      int(np.searchsorted(primes, limit, side="right"))]
    if lo > 0:
        out = np.empty(_prime_count_bound(limit, lo), dtype=np.int64)
        return _sieve_range(lo, limit, out)
    n = len(primes)
    out = np.empty(_prime_count_bound(limit), dtype=np.int64)
    out[:n] = primes
    n += len(_sieve_range(cached_limit + 1, limit, out[n:]))
    primes = out[:n]
    _prime_cache = (limit, primes)
    return primes


def _prime_count_bound(hi: int, lo: int = 0) -> int:
    """An upper bound on the number of primes p with lo <= p <= hi (hi >= 2).

    Dusart's upper bounds on pi(hi): pi(x) <= x/ln x (1 + 1.2762/ln x) for
    x > 1, and x/ln x (1 + 1/ln x + 2.51/ln^2 x) for x >= 355991; less his
    lower bounds on pi(lo - 1): pi(x) >= x/ln x (1 + 1/ln x) for x >= 599,
    and x/ln x (1 + 1/ln x + 2/ln^2 x) for x >= 88783 (0 below 599).
    """
    ln = log(hi)
    factor = 1 + 1 / ln + 2.51 / ln**2 if hi >= 355991 else 1 + 1.2762 / ln
    bound = int(hi / ln * factor) + 2  # + 2 and - 2 cover the float rounding
    if lo - 1 >= 599:
        ln = log(lo - 1)
        factor = 1 + 1 / ln + 2 / ln**2 if lo - 1 >= 88783 else 1 + 1 / ln
        bound -= int((lo - 1) / ln * factor) - 2
    return bound


def prime_segments(limit: int) -> Iterator[np.ndarray]:
    """Yield the primes <= limit in ascending order, one sieve segment at a
    time; a segment that holds no prime is skipped.

    The first segment and any the cache covers come from primes_up_to; the
    others are sieved, past the cache, into one flag array that they share,
    each into an array of its own.
    """
    flags = None
    for lo in range(0, limit + 1, SIEVE_SPAN):
        hi = min(lo + SIEVE_SPAN - 1, limit)
        if lo == 0 or hi <= _prime_cache[0]:
            primes = primes_up_to(hi, lo)
        else:
            if flags is None:
                flags = _sieve_flags(SIEVE_SPAN)
            primes = _sieve_wheel(lo, hi, primes_up_to(isqrt(hi))[2:], flags)
        if len(primes):
            yield primes
        del primes  # the consumer may drop it before the next segment is sieved


def _sieve_flags(span: int) -> np.ndarray:
    """Flags enough for _sieve_wheel over any span consecutive integers."""
    return np.empty(2 * ((span - 1) // 6 + 2), dtype=bool)


def _sieve_range(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi], sieved SIEVE_SPAN integers at a time into one
    flag array and written to the head of out, which must have room for
    them; that view is returned."""
    flags = _sieve_flags(min(SIEVE_SPAN, hi - lo + 1))
    wheel_base = primes_up_to(isqrt(hi))[2:]
    small = [p for p in (2, 3) if lo <= p <= hi]
    out[: len(small)] = small
    filled = len(small)
    for start in range(lo, hi + 1, SIEVE_SPAN):
        end = min(start + SIEVE_SPAN - 1, hi)
        base = wheel_base[: int(np.searchsorted(wheel_base, isqrt(end), side="right"))]
        filled += len(_sieve_wheel(start, end, base, flags, out[filled:]))
    return out[:filled]


def _sieve_wheel(lo: int, hi: int, base: np.ndarray, flags: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Primes in [lo, hi] prime to 6, given the primes 5 <= p <= sqrt(hi),
    sieved in the leading entries of flags and written to the head of out
    (allocated here, one entry per flag left, when not given)."""
    k0 = lo // 6
    # entry i stands for n = 6 k0 + 3i + 1 + (i & 1): the even entries n = 1 and
    # the odd ones n = 5 (mod 6), so each class of a prime p recurs every 2p entries
    is_prime = flags[: 2 * (hi // 6 - k0 + 1)]
    is_prime[:] = True
    firsts = []
    for r in (1, 5):
        # first multiple p c >= max(p^2, 6 k0 + r) with p c = r (mod 6): since
        # p^2 = 1 (mod 6), the cofactor c = r p (mod 6)
        c = np.maximum(base, -(-(6 * k0 + r) // base))
        c += (r * base - c) % 6
        firsts.append(2 * ((base * c - r) // 6 - k0) + (r == 5))
    for i1, i5, step in zip(firsts[0].tolist(), firsts[1].tolist(), (2 * base).tolist()):
        is_prime[i1::step] = False
        is_prime[i5::step] = False
    if k0 == 0:
        is_prime[0] = False  # n = 1
    if out is None:
        out = np.empty(np.count_nonzero(is_prime), dtype=np.int64)
    filled = 0
    for j in range(0, len(is_prime), PRIME_BLOCK):
        n = np.flatnonzero(is_prime[j : j + PRIME_BLOCK])
        # with i = j + n: 3i + 1 + (i & 1) = (3i + 1) | 1, and 6 k0 is even
        n *= 3
        n += 3 * j + 6 * k0 + 1
        n |= 1
        n = n[int(np.searchsorted(n, lo)) : int(np.searchsorted(n, hi, side="right"))]
        out[filled : filled + len(n)] = n
        filled += len(n)
    return out[:filled]


def _prime_power_sieve(limit: int, dtype, local: Callable, on_big: Callable) -> np.ndarray:
    """Table over 0 <= n <= limit of the multiplicative function local(p, e).

    on_big(primes) gives the values at primes above sqrt(limit), elementwise;
    it is called, and its values scattered, one PRIME_BLOCK of them at a
    time, so no array beside the table grows with the count of big primes.
    Entry n is the product of its prime-power values in ascending prime
    order.  A factor of exactly 1 changes no bit of a product, so it is left
    out: a small prime's leading powers valued 1 get no pass (its pass
    strides over the multiples of its first power valued otherwise), and
    big primes valued 1 get no scatter.
    """
    res = np.ones(limit + 1, dtype=dtype)
    res[0] = 0
    primes = primes_up_to(limit)
    n_small = int(np.searchsorted(primes, isqrt(limit), side="right"))
    buf = np.empty(min(limit // 2, POWER_CHUNK), dtype=dtype)
    for p in primes[:n_small].tolist():
        step, powers = 0, []  # (s, local(p, e)): the multiples of p^e sit every s = p^e / step slots
        pe, e = p, 1
        while pe <= limit:
            v = local(p, e)
            if powers or v != 1:
                step = step or pe
                powers.append((pe // step, v))
            pe, e = pe * p, e + 1
        m = limit // step if step else 0
        for c in range(0, m, POWER_CHUNK):
            n = min(POWER_CHUNK, m - c)  # buf[i]: the factor of p at (c + i + 1) step, i < n
            for s, v in powers:  # higher powers overwrite
                buf[(s - 1 - c) % s : n : s] = v
            res[(c + 1) * step : (c + n) * step + 1 : step] *= buf[:n]
    del buf
    # p > sqrt(limit) divides each multiple p*q <= limit once (q <= sqrt(limit)): scatter per
    # q, one PRIME_BLOCK of big primes at a time; q < p, so res[q] is final when it is read
    prod = np.empty(min(len(primes) - n_small, PRIME_BLOCK), dtype=dtype)
    for c in range(n_small, len(primes), PRIME_BLOCK):
        big = primes[c : c + PRIME_BLOCK]
        vals = np.asarray(on_big(big), dtype=dtype)
        keep = vals != 1
        if not keep.all():
            big, vals = big[keep], vals[keep]
        if not len(big):
            continue
        for q in range(1, limit // int(big[0]) + 1):
            hi = int(np.searchsorted(big, limit // q, side="right"))
            # q has only small primes, which gave res[q] and res[p*q] the same factors in
            # order; entry p of the view res[::q] is res[p*q]
            np.multiply(vals[:hi], res[q], out=prod[:hi])
            res[::q][big[:hi]] = prod[:hi]
    return res


def multiplicative_table(fn: PrimePowerFn, limit: int) -> np.ndarray:
    """Tabulate the multiplicative function with local values fn(p, e).

    Returns a float64 array indexed by n for 0 <= n <= limit, with entry 0
    set to 0 and entry n >= 1 equal to eval_multiplicative at n.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return _prime_power_sieve(limit, np.float64, fn, lambda big: fn.on_primes(big, 1))


def totient_table(limit: int) -> np.ndarray:
    """Exact array of totient values for 0 <= n <= limit (jordan_dtype)."""
    return jordan_table(limit, 1)


def jordan_dtype(limit: int, k: int):
    """The narrowest of int32, int64 and object that holds limit^k, so every
    J_k(n <= limit) fits, and so does each partial product of the table
    sieve, which is at most the entry it builds."""
    if limit > 1 and (k >= 62 or limit**k >= 2**62):
        return object
    return np.int32 if limit**k < 2**31 else np.int64


def jordan_table(limit: int, k: int) -> np.ndarray:
    """Exact array of J_k values for 0 <= n <= limit.

    Uses int32 or int64 when limit^k fits (jordan_dtype), Python integers
    (object dtype) up to the 128-bit ceiling, and rejects anything larger.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if _power_exceeds_128_bits(limit, k):
        raise ValueError(f"J_{k} values up to {limit} exceed the 128-bit range")
    dtype = jordan_dtype(limit, k)

    def local(p, e):  # J_k(p^e)
        return p ** (k * (e - 1)) * (p**k - 1)

    return _prime_power_sieve(limit, dtype, local, lambda big: big.astype(dtype) ** k - 1)
