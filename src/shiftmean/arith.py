"""Sieve-backed integer arithmetic.

One segmented prime sieve (on the 6k+-1 wheel, SIEVE_SPAN integers at a
time in 1.4 MiB of flags, into int32 prime lists, so a caller that streams
its segments holds a bounded amount whatever the limit), trial-division
factorization, Jacobi symbols, multiplicative functions defined by their
values on prime powers, and one prime-power sieve that tabulates them
(float or exact) over an interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    at a time (prime_segments), so a large n caches only the base primes
    up to the fourth root of n.  The int32 primes are divided into n in
    int64 (n < 2^63) or as Python ints; an n that would need a prime past
    PRIME_MAX raises ValueError.
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
            primes = primes[count_up_to(primes, p - 1) :]
            if not len(primes) or int(primes[0]) ** 2 > m:
                break
            # every divisor found divides what is left of m once the smaller ones are out
            rem = np.int64(m) % primes if m < 2**63 else m % primes.astype(object)
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

    rule(p, k) gives the value at p^k for k >= 1 (a scalar) and must accept
    either a scalar prime or a float64 ndarray of primes; for an array it
    returns a new float array shaped like p (a constant is written as
    c + 0.0 * p), and it must neither write into p nor return it, since
    callers hold and reuse that array.  The value at k = 0 is implicitly 1.
    two_rule, when given, overrides the values at p = 2 (several of the
    built-in tables are irregular there).
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
        """Vectorized values at p^k, k >= 1, over an ascending array of primes."""
        # rules may divide by zero at p = 2 before the override lands
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(self.rule(np.asarray(primes, dtype=np.float64), k), dtype=np.float64)
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

# Every prime list is int32, 4 bytes a prime, so primes go up to PRIME_MAX,
# past every CLI ceiling: --prime-cutoff 2e9, x 5e7, sqrt(n) 1e8.
PRIME_DTYPE = np.int32
PRIME_MAX = int(np.iinfo(PRIME_DTYPE).max)

# (limit, primes <= limit); replaced in one assignment so a reader never
# pairs a limit with a prime list sieved for another.
_prime_cache: tuple = (0, np.empty(0, dtype=PRIME_DTYPE))

# Entries per segment of the table sieve.  A table is filled one segment at
# a time, so beside its output the sieve holds one segment's scratch: one
# small prime's factors at its multiples (at most TABLE_SPAN / 2 entries,
# 1 MiB of float64) and the big primes' values.  A streamed sum holds a few
# segments and no whole table.
TABLE_SPAN = 2**18

# Entries at a time that the sieves turn from flags into primes, so the
# temporaries stay at a few 256 KiB beside the arrays they fill.  Even, so
# a wheel entry's parity is its offset's.
PRIME_BLOCK = 2**15

# (big prime, cofactor) pairs at a time that the table sieve values and
# scatters, so that the pairs, their values and the rule's temporaries stay
# near 1 MiB.
PAIR_BLOCK = 2**14


def count_up_to(primes: np.ndarray, x: int) -> int:
    """How many of the ascending primes are <= x, 0 <= x <= PRIME_MAX.  The
    key takes the primes' dtype: searchsorted copies int32 primes to int64
    first for a key of any other."""
    return int(np.searchsorted(primes, primes.dtype.type(x), side="right"))


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending int32 array of the primes <= limit, from the cache.

    A limit at or below the cached one is sliced from the cache (the cached
    array itself at the cached limit).  A larger one sieves only past the
    cached limit, into one array sized by _prime_count_bound that starts
    with the cached primes, and becomes the cache.  A limit past PRIME_MAX
    raises ValueError.
    """
    global _prime_cache
    if limit < 2:
        return np.empty(0, dtype=PRIME_DTYPE)
    if limit > PRIME_MAX:
        raise ValueError(f"primes are sieved up to {PRIME_MAX}, not {limit}")
    cached_limit, primes = _prime_cache
    if limit == cached_limit:
        return primes
    if limit < cached_limit:
        return primes[: count_up_to(primes, limit)]
    n = len(primes)
    out = np.empty(_prime_count_bound(limit), dtype=PRIME_DTYPE)
    out[:n] = primes
    n += len(_sieve_range(cached_limit + 1, limit, out[n:]))
    primes = out[:n]
    _prime_cache = (limit, primes)
    return primes


def _prime_count_bound(x: int) -> int:
    """An upper bound on pi(x), x >= 2: Dusart's pi(x) <= x/ln x
    (1 + 1.2762/ln x) for x > 1, and x/ln x (1 + 1/ln x + 2.51/ln^2 x) for
    x >= 355991."""
    ln = log(x)
    factor = 1 + 1 / ln + 2.51 / ln**2 if x >= 355991 else 1 + 1.2762 / ln
    return int(x / ln * factor) + 2  # + 2 covers the float rounding


def prime_segments(limit: int) -> Iterator[np.ndarray]:
    """Yield the primes <= limit in ascending order, one sieve segment at a
    time; a segment that holds no prime is skipped.

    Every segment, the first included, is sieved whatever the cache holds,
    into one flag array (for min(SIEVE_SPAN, limit + 1) integers) and one
    int32 output array that they share, so a yielded array is valid only
    until the next segment is asked for, and the cache grows only to the
    base primes up to sqrt(limit).  The output array is sized by the first
    segment's count of primes and wheel flags left standing, and grown only
    when a later segment leaves more.  A limit past PRIME_MAX raises
    ValueError once the segments up to PRIME_MAX are out.
    """
    if limit < 2:
        return
    out = np.empty(0, dtype=PRIME_DTYPE)
    for lo, hi, is_prime in _marked_segments(0, min(limit, PRIME_MAX)):
        count = int(np.count_nonzero(is_prime)) + 2  # + 2 for 2 and 3
        if len(out) < count:
            out = None  # freed before the larger one is allocated
            out = np.empty(count, dtype=PRIME_DTYPE)
        primes = _wheel_primes(lo, hi, is_prime, out)
        if len(primes):
            yield primes
        del primes  # else its view would keep the last out alive beside a grown one
    if limit > PRIME_MAX:
        raise ValueError(f"primes are sieved up to {PRIME_MAX}, not {limit}")


def _sieve_range(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi], written to the head of out, which must have room
    for them; that view is returned."""
    filled = 0
    for start, end, is_prime in _marked_segments(lo, hi):
        filled += len(_wheel_primes(start, end, is_prime, out[filled:]))
    return out[:filled]


def _marked_segments(lo: int, hi: int) -> Iterator[tuple]:
    """(start, end, is_prime) for [lo, hi] cut into SIEVE_SPAN integers at a
    time, is_prime from _mark_wheel in one flag array that they share, over
    the base primes up to sqrt(hi) from primes_up_to."""
    flags = _sieve_flags(min(SIEVE_SPAN, hi - lo + 1))
    wheel_base = primes_up_to(isqrt(hi))[2:]
    for start in range(lo, hi + 1, SIEVE_SPAN):
        end = min(start + SIEVE_SPAN - 1, hi)
        base = wheel_base[: count_up_to(wheel_base, isqrt(end))]
        yield start, end, _mark_wheel(start, end, base, flags)


def _sieve_flags(span: int) -> np.ndarray:
    """Flags enough for _mark_wheel over any span consecutive integers."""
    return np.empty(2 * ((span - 1) // 6 + 2), dtype=bool)


def _mark_wheel(lo: int, hi: int, base: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """The leading entries of flags, one per number prime to 6 from
    6 (lo // 6) up to hi rounded up to 6 k + 5, sieved by the primes
    5 <= p <= sqrt(hi) in base: True where the number is prime."""
    k0 = lo // 6
    # entry i stands for n = 6 k0 + 3i + 1 + (i & 1): the even entries n = 1 and
    # the odd ones n = 5 (mod 6), so each class of a prime p recurs every 2p entries
    is_prime = flags[: 2 * (hi // 6 - k0 + 1)]
    is_prime[:] = True
    base = base.astype(np.int64)  # the first multiples pass 2^31 near PRIME_MAX
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
    return is_prime


def _wheel_primes(lo: int, hi: int, is_prime: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The primes 2 and 3 that lie in [lo, hi], then those in [lo, hi] that
    _mark_wheel(lo, hi, ...) left standing, written to the head of out,
    which must have room for them; that view is returned."""
    k0 = lo // 6
    small = [p for p in (2, 3) if lo <= p <= hi]
    out[: len(small)] = small
    filled = len(small)
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


class _PrimePowerSieve:
    """The table over 0 <= n <= limit of the multiplicative function
    local(p, e), filled one segment at a time.

    Entry n is the product of its prime-power values in ascending prime
    order, starting from 1 (entry 0 is 0).  The small primes p <= sqrt(limit)
    go in first, each through a strided view: one multiply by a scalar when
    all its powers share one value, else by a buffer of its power's value at
    every multiple.  Then comes the one prime P > sqrt(limit) that n may
    have, n = P q, as on_big(P), elementwise.  q < P has only small primes,
    so the entry is res[q] * on_big(P) of a whole-table sieve, bit for bit,
    wherever the segment starts.  A factor of exactly 1 changes no bit, so
    it is left out: a small prime's leading powers valued 1 get no pass (its
    pass strides over the multiples of its first power valued otherwise),
    and big primes all valued 1 get no scatter.
    """

    def __init__(self, limit: int, dtype, local: Callable, on_big: Callable):
        self.limit, self.dtype, self.on_big = limit, dtype, on_big
        self.small = []  # (step, [(s, local(p, e)), ...]): the multiples of p^e sit every s steps
        for p in primes_up_to(isqrt(limit)).tolist():
            step, powers = 0, []
            pe, e = p, 1
            while pe <= limit:
                v = local(p, e)
                if powers or v != 1:
                    step = step or pe
                    powers.append((pe // step, v))
                pe, e = pe * p, e + 1
            if len({np.array(v, dtype=dtype).tobytes() for _, v in powers}) == 1:
                powers = powers[:1]  # one value at every multiple (bits compared, so -0.0 is not 0.0)
            if powers:
                self.small.append((step, powers))
        primes = primes_up_to(limit)
        big = primes[count_up_to(primes, isqrt(limit)) :]
        self.big_unit = all((np.asarray(on_big(big[c : c + PAIR_BLOCK])) == 1).all()
                            for c in range(0, len(big), PAIR_BLOCK))

    def fill(self, lo: int, out: np.ndarray) -> None:
        """Write the entries lo <= n < lo + len(out) into out."""
        hi = lo + len(out)
        out.fill(1)
        if lo == 0 and hi:
            out[0] = 0
        factors = np.empty((len(out) + 1) // 2, dtype=self.dtype)
        for step, powers in self.small:
            m0 = max(1, -(-lo // step))  # the first multiple in the segment is m0 step
            n = (hi - 1) // step - m0 + 1
            if n <= 0:
                continue
            if len(powers) == 1:
                out[m0 * step - lo :: step] *= powers[0][1]
                continue
            for s, v in powers:  # factors[i]: p's factor at (m0 + i) step; higher powers overwrite
                factors[-m0 % s : n : s] = v
            out[m0 * step - lo :: step] *= factors[:n]
        del factors
        if not self.big_unit:
            # an entry has at most one prime past sqrt(limit), so a block's
            # positions are distinct and each gets exactly one multiply
            for big, at in self._big_pairs(lo, hi):
                np.multiply.at(out, at, np.asarray(self.on_big(big), dtype=self.dtype))

    def _big_pairs(self, lo: int, hi: int) -> Iterator[tuple]:
        """(P, P q - lo) for the big primes P and cofactors q with
        lo <= P q < hi, a block of whole cofactors at a time: at most
        PAIR_BLOCK pairs, unless one cofactor alone has more."""
        primes = primes_up_to(self.limit)
        big = primes[count_up_to(primes, isqrt(self.limit)) : count_up_to(primes, hi - 1)]
        if not len(big):
            return
        qs = np.arange(1, (hi - 1) // int(big[0]) + 1)
        # the P of cofactor q are big[first : first + count]; keys in the primes' dtype
        first = np.searchsorted(big, (-(-lo // qs)).astype(big.dtype))
        counts = np.searchsorted(big, ((hi - 1) // qs).astype(big.dtype), side="right") - first
        ends = np.cumsum(counts)
        a = 0
        while a < len(qs):
            done = int(ends[a - 1]) if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + PAIR_BLOCK, side="right")))
            # pair i of the block: cofactor qs[j] and prime big[first[j] + i - (ends[j] - counts[j] - done)]
            idx = np.arange(int(ends[b - 1]) - done)
            idx += np.repeat(first[a:b] - (ends[a:b] - counts[a:b] - done), counts[a:b])
            p = big[idx]
            at = np.multiply(p, np.repeat(qs[a:b], counts[a:b]), out=idx)
            at -= lo
            yield p, at
            a = b


def segmented_table(fill: Callable, dtype, limit: int, lo: int = 0, hi: Optional[int] = None,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """The entries lo <= n < hi (by default all of 0 <= n <= limit) of a
    table that fill(a, seg) writes a segment at a time, from n = a on,
    TABLE_SPAN entries at a time.  They go to the head of out (or a new
    array of dtype), which is returned, so the segments of a stream can
    share one array.
    """
    hi = limit + 1 if hi is None else hi
    if not 0 <= lo <= hi <= limit + 1:
        raise ValueError(f"entries [{lo}, {hi}) are not within [0, {limit}]")
    if out is None:
        out = np.empty(hi - lo, dtype=dtype)
    elif len(out) < hi - lo:
        raise ValueError(f"out holds {len(out)} entries, not {hi - lo}")
    out = out[: hi - lo]
    for a in range(lo, hi, TABLE_SPAN):
        fill(a, out[a - lo : a - lo + TABLE_SPAN])
    return out


@lru_cache(maxsize=4)
def _float_sieve(fn: PrimePowerFn, limit: int) -> _PrimePowerSieve:
    """multiplicative_table's sieve for (fn, limit), kept so that a table
    asked for one segment at a time computes its small primes' power values
    once."""
    return _PrimePowerSieve(limit, np.float64, fn, lambda big: fn.on_primes(big, 1))


def multiplicative_table(fn: PrimePowerFn, limit: int, lo: int = 0, hi: Optional[int] = None,
                         *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Tabulate the multiplicative function with local values fn(p, e).

    Returns a float64 array indexed by n for 0 <= n <= limit, with entry 0
    set to 0 and entry n >= 1 equal to eval_multiplicative at n.  Given lo
    and hi, returns only the entries lo <= n < hi of that table (index
    n - lo), bit for bit, without building the rest, so a sum can stream
    the table a segment at a time; given out, they are written to its head,
    which is returned, so the segments can share one array.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return segmented_table(_float_sieve(fn, limit).fill, np.float64, limit, lo, hi, out)


def totient_table(limit: int, lo: int = 0, hi: Optional[int] = None,
                  *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact array of totient values for 0 <= n <= limit (jordan_dtype);
    lo, hi and out select a segment, as in multiplicative_table."""
    return jordan_table(limit, 1, lo, hi, out=out)


def jordan_dtype(limit: int, k: int):
    """The narrowest of int32, int64 and object that holds limit^k, so every
    J_k(n <= limit) fits, and so does each partial product of the table
    sieve, which is at most the entry it builds."""
    if limit > 1 and (k >= 62 or limit**k >= 2**62):
        return object
    return np.int32 if limit**k < 2**31 else np.int64


@lru_cache(maxsize=4)
def _jordan_sieve(limit: int, k: int) -> _PrimePowerSieve:
    """jordan_table's sieve for (limit, k), kept like _float_sieve's."""
    dtype = jordan_dtype(limit, k)

    def local(p, e):  # J_k(p^e)
        return p ** (k * (e - 1)) * (p**k - 1)

    return _PrimePowerSieve(limit, dtype, local, lambda big: big.astype(dtype) ** k - 1)


def jordan_table(limit: int, k: int, lo: int = 0, hi: Optional[int] = None,
                 *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact array of J_k values for 0 <= n <= limit.

    Uses int32 or int64 when limit^k fits (jordan_dtype), Python integers
    (object dtype) up to the 128-bit ceiling, and rejects anything larger.
    lo, hi and out select a segment, as in multiplicative_table.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if _power_exceeds_128_bits(limit, k):
        raise ValueError(f"J_{k} values up to {limit} exceed the 128-bit range")
    sieve = _jordan_sieve(limit, k)
    return segmented_table(sieve.fill, sieve.dtype, limit, lo, hi, out)
