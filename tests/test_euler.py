import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shiftmean import arith, euler
from shiftmean.arith import PrimePowerFn, multiplicative_table, primes_up_to
from shiftmean.curveconst import twin_prime_constant
from shiftmean.euler import (
    DegenerateLocalFactor,
    MonomialBaseline,
    ShiftedPairSpec,
    paired_power_sum,
    shift_local_factor,
    shifted_mean_constant,
)
from shiftmean.harness import run_grid
from shiftmean.presets import get_preset

from oracles import (
    double_sum_by_gcd,
    double_sum_oracle,
    local_factor,
    plain_sieve,
    prime_zeta,
    riemann_zeta,
)

# Independent high-precision values of the full products, frozen from the
# prime-zeta oracle (ln prod(1 - 2/p^(k+1)) = -sum_m (2^m/m) P((k+1) m)).
PHI_PAIR_CONSTANT = 0.32263409893924516
JORDAN2_PAIR_CONSTANT = 0.6768927370098817

ZERO_PAIR = ShiftedPairSpec(
    f=PrimePowerFn(lambda p, k: 0.0 * p, name="zero"),
    g=PrimePowerFn(lambda p, k: 0.0 * p, name="zero"),
    shift=1,
    baseline=MonomialBaseline(0, 0),
)


def _sp_brute(f, g, p, i, emax):
    """Literal double sum over exponent pairs with min(e1, e2) = i."""
    total = 0.0
    for e1 in range(emax + 1):
        for e2 in range(emax + 1):
            if min(e1, e2) == i:
                total += f(p, e1) * g(p, e2) / float(p) ** (e1 + e2)
    return total


def _random_table(rng, depth=10):
    vals = {k: float(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))) for k in range(1, depth + 1)}
    return PrimePowerFn(lambda p, k, _v=vals: _v.get(k, 0.0) / p**k, name="random")


# ---------------------------------------------------------------------------
# paired power sums and local factors


def test_paired_power_sum_phi_examples():
    pair = get_preset("phi").pair
    assert paired_power_sum(pair.f, pair.g, 2, 0, 20) == pytest.approx(0.5, abs=1e-16)
    assert paired_power_sum(pair.f, pair.g, 2, 1, 20) == pytest.approx(1 / 16, abs=1e-16)


def test_paired_power_sum_zero_pair():
    assert paired_power_sum(ZERO_PAIR.f, ZERO_PAIR.g, 5, 0, 10) == 1.0
    for i in (1, 2, 3):
        assert paired_power_sum(ZERO_PAIR.f, ZERO_PAIR.g, 5, i, 10) == 0.0


def test_paired_power_sum_matches_brute_force():
    rng = random.Random(23)
    for _ in range(25):
        f, g = _random_table(rng), _random_table(rng)
        p = rng.choice([2, 3, 5, 7, 11])
        for i in (0, 1, 2):
            assert paired_power_sum(f, g, p, i, 12) == pytest.approx(
                _sp_brute(f, g, p, i, 12), rel=1e-12, abs=1e-15
            )


def test_paired_power_sum_depth_precondition():
    pair = get_preset("phi").pair
    with pytest.raises(ValueError):
        paired_power_sum(pair.f, pair.g, 2, 3, 2)


def test_local_factor_equals_min_zero_sum():
    rng = random.Random(29)
    for _ in range(50):
        f, g = _random_table(rng), _random_table(rng)
        for p in (2, 3, 5, 7, 11):
            assert abs(local_factor(f, g, p, 12) - paired_power_sum(f, g, p, 0, 12)) <= 1e-14


def test_local_factor_phi_pair_closed_form():
    pair = get_preset("phi").pair
    for p in (2, 3, 5, 101):
        assert local_factor(pair.f, pair.g, p, 40) == pytest.approx(1 - 2 / p**2, rel=1e-15)


def test_completeness_rearrangement():
    # sum_i S_i equals the product of the two truncated single sums: both
    # sides arrange the same finite double sum
    rng = random.Random(31)
    for _ in range(20):
        f, g = _random_table(rng), _random_table(rng)
        p, depth = rng.choice([2, 3, 5, 7, 11]), 8
        lhs = sum(paired_power_sum(f, g, p, i, depth) for i in range(depth + 1))
        fsumv = 1.0 + sum(f(p, e) / p**e for e in range(1, depth + 1))
        gsumv = 1.0 + sum(g(p, e) / p**e for e in range(1, depth + 1))
        assert lhs == pytest.approx(fsumv * gsumv, rel=1e-12, abs=1e-14)


def test_shift_local_factor_phi_values():
    pair = get_preset("phi").pair
    # closed form 1 + 1/(p(p^2-2)) at valuation 1
    assert shift_local_factor(pair.f, pair.g, 2, 1, 40) == pytest.approx(5 / 4, rel=1e-15)
    assert shift_local_factor(pair.f, pair.g, 3, 1, 40) == pytest.approx(22 / 21, rel=1e-15)


def test_shift_local_factor_zero_pair_is_one():
    assert shift_local_factor(ZERO_PAIR.f, ZERO_PAIR.g, 7, 3, 10) == 1.0


def test_shift_local_factor_degenerate():
    # tables with value -1 at every prime kill the exponent-zero local sum at p=2
    mu_like = PrimePowerFn(lambda p, k: -1.0 + 0.0 * p if k == 1 else 0.0 * p, name="mu_like")
    with pytest.raises(DegenerateLocalFactor):
        shift_local_factor(mu_like, mu_like, 2, 1, 10)


# ---------------------------------------------------------------------------
# the constant


def test_constant_phi_pair_matches_oracle_value():
    c = shifted_mean_constant(get_preset("phi").pair, 10**6)
    assert c.tail_bound >= 0
    assert abs(c.value - PHI_PAIR_CONSTANT) <= c.tail_bound + 1e-12
    # tail itself is small at this cutoff
    assert c.tail_bound < 1e-6


def test_constant_jordan2_matches_oracle_value():
    c = shifted_mean_constant(get_preset("jordan-2").pair, 10**6)
    assert abs(c.value - JORDAN2_PAIR_CONSTANT) <= c.tail_bound + 1e-12


def test_constant_zero_pair():
    c = shifted_mean_constant(ZERO_PAIR, 10**4)
    assert c.value == 1.0
    assert c.tail_bound == 0.0


def test_constant_with_shift_factors():
    c1 = shifted_mean_constant(get_preset("phi").pair, 10**5)
    c2 = shifted_mean_constant(get_preset("phi", shift=2).pair, 10**5)
    c6 = shifted_mean_constant(get_preset("phi", shift=6).pair, 10**5)
    assert c2.value == pytest.approx(c1.value * 5 / 4, rel=1e-14)
    assert c6.value == pytest.approx(c1.value * (5 / 4) * (22 / 21), rel=1e-14)


def test_constant_reciprocal_of_twin_prime_product():
    # the curve-order pair telescopes against the twin-prime product at any
    # shared cutoff: local factor at 2 is 1, at odd p the exact reciprocal
    for cutoff in (10**3, 10**5):
        c = shifted_mean_constant(get_preset("kstar").pair, cutoff)
        t = twin_prime_constant(cutoff)
        assert c.value * t.value == pytest.approx(1.0, rel=1e-12)


def test_constant_rejects_small_cutoff_for_shift():
    with pytest.raises(ValueError):
        shifted_mean_constant(get_preset("phi", shift=22).pair, 7)


def test_constant_deterministic():
    a = shifted_mean_constant(get_preset("phi").pair, 10**5)
    b = shifted_mean_constant(get_preset("phi").pair, 10**5)
    assert a == b


def test_constant_power_series_ends_at_the_ceiling():
    # terms that never fall below TERM_FLOOR: p^k > 10^18 ends the series at 2^59
    flat = PrimePowerFn(lambda p, k: 1e-9 * p**k, name="flat")
    pair = ShiftedPairSpec(f=flat, g=flat, shift=1, baseline=MonomialBaseline(0, 0))
    assert shifted_mean_constant(pair, 10**3).power_depth == 59


def test_constant_with_a_prime_past_float_powers(monkeypatch):
    # kstar runs to k = 34, and (2e9)^34 overflows a float; one segment that
    # ends in a large prime stands in for a sieve to 2e9
    base = shifted_mean_constant(get_preset("kstar").pair, 10**5)
    primes = np.append(primes_up_to(10**5), 1999999973)
    monkeypatch.setattr(euler, "prime_segments", lambda limit: iter([primes]))
    c = shifted_mean_constant(get_preset("kstar").pair, 2 * 10**9)
    assert c.power_depth == base.power_depth == 34
    assert c.value == pytest.approx(base.value, rel=1e-15)


# a negative local factor at p = 2 sends the fold through the product path
SIGNED_PAIR = ShiftedPairSpec(
    f=PrimePowerFn(lambda p, k: 1.0 / p if k == 1 else 0.0 * p,
                   two_rule=lambda k: -3.0 if k == 1 else 0.0, name="signed"),
    g=ZERO_PAIR.g,
    shift=1,
    baseline=MonomialBaseline(0, 0),
)


# NaN at one prime, which sits in a later chunk whenever chunks are short
NAN_AT_ONE_PRIME = ShiftedPairSpec(
    f=PrimePowerFn(lambda p, k: np.where(p == 7919, np.nan, 1.0 / p**k), name="nan_at_7919"),
    g=ZERO_PAIR.g,
    shift=1,
    baseline=MonomialBaseline(0, 0),
)


@pytest.mark.parametrize("name", ["kstar", "khat", "phi", "jordan-3", "signed", "nan"])
def test_local_sums_do_not_depend_on_the_chunk(name, monkeypatch):
    pair = {"signed": SIGNED_PAIR, "nan": NAN_AT_ONE_PRIME}.get(name) or get_preset(name).pair
    primes = primes_up_to(10**5)
    monkeypatch.setattr(euler, "FOLD_CHUNK", 2**30)
    whole_sums, whole_envelope, whole_depth = euler._local_sums(pair, primes,
                                                                np.empty(len(primes)))
    assert (name == "nan") == math.isnan(whole_envelope)
    for chunk in (1, 7):
        monkeypatch.setattr(euler, "FOLD_CHUNK", chunk)
        # the fold zeroes the buffer it is given
        sums, envelope, depth = euler._local_sums(pair, primes, np.full(len(primes), np.inf))
        assert np.array_equal(sums, whole_sums, equal_nan=True), chunk
        assert envelope == whole_envelope or math.isnan(envelope) and math.isnan(whole_envelope)
        assert depth == whole_depth, chunk


def _constants(cutoff):
    out = {"c2": twin_prime_constant(cutoff), "signed": shifted_mean_constant(SIGNED_PAIR, cutoff)}
    for name in ("phi", "kstar", "khat"):
        out[name] = shifted_mean_constant(get_preset(name).pair, cutoff)
    return out


@pytest.mark.parametrize("cutoff", [arith.SIEVE_SPAN, arith.SIEVE_SPAN + 14, 10**7])
def test_segmented_constants_match_one_fold_of_every_prime(cutoff, monkeypatch):
    # 10^7 spans three sieve segments; [SIEVE_SPAN, SIEVE_SPAN + 14] holds no
    # prime.  Folding segment by segment moves the log-space fold by at most
    # 2 ulp from one fold over the whole prime array
    split = _constants(cutoff)
    monkeypatch.setattr(euler, "prime_segments", lambda limit: iter([plain_sieve(limit)]))
    whole = _constants(cutoff)
    for name, c in split.items():
        assert abs(c.value - whole[name].value) <= 2 * np.spacing(abs(whole[name].value)), name
        assert c.power_depth == whole[name].power_depth, name
        assert c.tail_bound == pytest.approx(whole[name].tail_bound, rel=1e-12), name


def test_c2_folds_the_primes_of_the_shared_stream(monkeypatch):
    # c2 and the presets fold through euler.fold_local_factors: a stream of
    # the primes 2 and 3 alone leaves c2's one odd factor, 1 - 1/4
    monkeypatch.setattr(euler, "prime_segments", lambda limit: iter([np.array([2, 3])]))
    assert twin_prime_constant(10**6).value == 0.75


def test_power_series_stops_at_the_second_dead_k():
    # khat's terms at p = 2 are 0 at odd k and 3/4^k at even k, live to k = 34;
    # the depth is the first of the two dead k, 35 and 36
    assert shifted_mean_constant(get_preset("khat").pair, 10**3).power_depth == 35


@pytest.mark.parametrize("cutoff", [10**3, 10**5, arith.SIEVE_SPAN + 14])
def test_order_constants_at_shift_one_are_their_means_over_c2(cutoff):
    # kstar, kstar-odd and khat times c2 are the products of their L_2
    # factors with c2's, which cancel to 1, 1/3 and 31/30 at every cutoff.
    # khat's series at p = 2 vanishes at every odd k; stopping at the first
    # k with no live term dropped 3/4^k for k >= 24 and read 52 ulp low
    c2 = twin_prime_constant(cutoff).value
    for name, mean in (("kstar", 1.0), ("kstar-odd", 1 / 3), ("khat", 31 / 30)):
        value = shifted_mean_constant(get_preset(name).pair, cutoff).value * c2
        assert abs(value - mean) <= 4 * np.spacing(mean), name


def test_signed_constant_matches_an_exact_log_sum():
    # factor -1/2 at p = 2 and 1 + 1/p^2 at odd p; a running product of the
    # 78,498 factors to 10^6 would round by up to that many ulp
    odd = plain_sieve(10**6)[1:].astype(np.float64)
    expected = -math.exp(math.fsum([math.log(0.5)] + np.log1p(1.0 / odd**2).tolist()))
    c = shifted_mean_constant(SIGNED_PAIR, 10**6)
    assert c.value == pytest.approx(expected, rel=1e-15, abs=0)


def _constant_peak(name, monkeypatch):
    """Traced peak of the c2 or kstar constant at cutoff 2e7, from a cold prime cache."""
    monkeypatch.setattr(arith, "_prime_cache", (0, np.empty(0, dtype=np.int32)))
    tracemalloc.start()
    try:
        if name == "c2":
            twin_prime_constant(2 * 10**7)
        else:
            shifted_mean_constant(get_preset("kstar").pair, 2 * 10**7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["c2", "kstar"])
def test_constant_memory_is_bounded_by_a_segment(name, monkeypatch):
    # one whole-array sieve to 2e7 alone peaks past 40 MiB; streamed segments
    # need a few MiB each, whatever the cutoff: 5.01 (c2) and 5.48 MiB (kstar)
    # measured
    assert _constant_peak(name, monkeypatch) < 16 * 2**20


@pytest.mark.parametrize("name", ["c2", "kstar"])
def test_constant_fold_releases_each_segment(name, monkeypatch):
    # every segment, the first included, is sieved into one flag array and
    # one int32 output array that they share, the cache keeps only the base
    # primes, c2 and kstar fold through one loop that reuses one scratch
    # array sized by the first segment, each step drops its arrays before
    # the next segment is sieved, and kstar's power series converts primes
    # to float one FOLD_CHUNK at a time: 5.01 (c2) and 5.48 MiB (kstar)
    # measured; with int64 primes 6.14 and 6.61 MiB, and with a kstar step
    # that keeps its arrays into the next segment's sieve 5.76 MiB (kstar);
    # with int64 primes and the first segment cached, a fresh kstar scratch
    # array per segment added 1.3 MiB, and chunks of 2^15 primes 0.64 MiB
    assert _constant_peak(name, monkeypatch) < 5.65 * 2**20


def test_tail_bound_monotone_in_cutoff_small_scale():
    for preset in (get_preset("phi"), get_preset("jordan-2"), get_preset("kstar")):
        tails = [shifted_mean_constant(preset.pair, P).tail_bound for P in (10**4, 10**5, 10**6)]
        assert tails[0] >= tails[1] >= tails[2]


# ---------------------------------------------------------------------------
# double-sum oracle


def test_double_sum_oracle_single_term():
    assert double_sum_oracle(ZERO_PAIR, 1) == 1.0


def test_double_sum_oracle_reduces_to_single_sum():
    # g vanishing on all prime powers leaves sum_{d<=D} f(d)/d
    pair = ShiftedPairSpec(
        f=get_preset("phi").pair.f,
        g=PrimePowerFn(lambda p, k: 0.0 * p, name="zero"),
        shift=1,
        baseline=MonomialBaseline(1, 1),
    )
    D = 200
    vals = multiplicative_table(pair.f, D)
    expect = math.fsum(vals[d] / d for d in range(1, D + 1))
    assert double_sum_oracle(pair, D) == pytest.approx(expect, rel=1e-13)


def test_double_sum_oracle_converges_to_constant():
    # errors shrink in trend across three decades of cutoff on every preset
    for preset in (get_preset("phi"), get_preset("jordan-2"), get_preset("kstar")):
        c = shifted_mean_constant(preset.pair, 10**6).value
        errs = [abs(double_sum_by_gcd(preset.pair, D) - c) for D in (100, 1000, 10000)]
        assert errs[2] < errs[0], preset.name
        assert errs[2] <= 1e-3, preset.name


def test_double_sum_by_gcd_equals_brute_form():
    # the regrouped oracle sums the same truncated box as the brute one
    cases = [("phi", 1), ("phi", 6), ("kstar", 2), ("jordan-2", 12), ("khat", 4)]
    for name, h in cases:
        pair = get_preset(name, shift=h).pair
        for D in (1, 2, 300, 2000):
            brute = double_sum_oracle(pair, D)
            assert double_sum_by_gcd(pair, D) == pytest.approx(brute, rel=1e-14, abs=1e-15), (
                name, h, D)
    with pytest.raises(ValueError):
        double_sum_by_gcd(get_preset("phi").pair, 0)


def test_double_sum_oracle_with_shift():
    # gcd condition actually bites: shift 4 admits gcd in {1, 2, 4}
    pair = get_preset("phi", shift=4).pair
    c = shifted_mean_constant(pair, 10**6).value
    assert abs(double_sum_oracle(pair, 2000) - c) < 2e-3


# ---------------------------------------------------------------------------
# predicted main term and baseline


# The predicted main term is constant.value * baseline.main_term(x).


def test_predicted_main_flat_baseline():
    pair = get_preset("kstar").pair
    c = shifted_mean_constant(pair, 10**4)
    assert c.value * pair.baseline.main_term(50) == pytest.approx(c.value * 50)
    row = run_grid(get_preset("kstar"), [50], prime_cutoff=10**4).rows[0]
    assert row.predicted == c.value * pair.baseline.main_term(50)


def test_predicted_main_degree_scaling():
    phi_pair = get_preset("phi").pair
    c = shifted_mean_constant(phi_pair, 10**4)
    assert c.value * phi_pair.baseline.main_term(100) == pytest.approx(c.value * 100**3 / 3)
    j2 = get_preset("jordan-2").pair
    cj = shifted_mean_constant(j2, 10**4)
    assert cj.value * j2.baseline.main_term(100) == pytest.approx(cj.value * 100**5 / 5)


def test_predicted_main_rejects_tiny_x():
    # a grid run predicts only where the shifted argument is positive
    with pytest.raises(ValueError):
        run_grid(get_preset("phi", shift=5), [5], prime_cutoff=10**4)


def test_baseline_progression_sums_within_error_scale():
    # direct progression sums stay within a uniform multiple of the declared
    # error envelope (constant measured over this family, frozen with margin)
    for a, b in ((0, 0), (1, 1), (2, 2), (1, 2)):
        bl = MonomialBaseline(a, b)
        for m in (1, 3, 5):
            for h in (1, 6):
                for x in (500, 2000):
                    for r in range(m)[:2]:
                        direct = sum(
                            (n - h) ** a * n**b for n in range(h + 1, x + 1) if n % m == r
                        )
                        assert abs(direct - bl.main_term(x) / m) <= 8.0 * float(x) ** (a + b)


def test_baseline_rejects_negative_degrees():
    with pytest.raises(ValueError):
        MonomialBaseline(-1, 0)


def test_pair_spec_rejects_bad_shift():
    with pytest.raises(ValueError):
        ShiftedPairSpec(
            f=ZERO_PAIR.f, g=ZERO_PAIR.g, shift=0, baseline=MonomialBaseline(0, 0)
        )


def test_pair_partial_sums_bounded():
    # sanity proxy for absolute convergence: sum_{d<=D} |f(d)|/d is
    # non-decreasing and stays under a fixed bound on every preset table
    D = 10**5
    d = np.arange(1, D + 1, dtype=np.float64)
    presets = [get_preset("phi"), get_preset("jordan-2"), get_preset("kstar"),
               get_preset("kstar-odd"), get_preset("khat")]
    for preset in presets:
        for fn in (preset.pair.f, preset.pair.g):
            vals = multiplicative_table(fn, D)
            cums = np.cumsum(np.abs(vals[1:]) / d)
            assert np.all(np.diff(cums) >= 0)
            assert cums[-1] < 3.0


# ---------------------------------------------------------------------------
# zeta oracles


def test_riemann_zeta_known_points():
    assert riemann_zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert riemann_zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-13)


def test_prime_zeta_against_direct_sum():
    from shiftmean.arith import primes_up_to

    direct = float(np.sum(primes_up_to(10**6).astype(np.float64) ** -2.0))
    # truncation tail of the direct sum is ~1/(P log P) ~ 7e-8
    assert prime_zeta(2) == pytest.approx(direct, abs=2e-7)
    assert prime_zeta(2) > direct
    # large-argument path: dominated by 2^-s
    assert prime_zeta(20) == pytest.approx(2.0**-20 + 3.0**-20 + 5.0**-20, rel=1e-10)
