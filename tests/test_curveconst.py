import tracemalloc

import numpy as np
import pytest

from shiftmean.arith import (
    eval_multiplicative,
    factorize_trial,
    multiplicative_table,
    primes_up_to,
    quad_symbol,
    totient,
)
from shiftmean import curveconst
from shiftmean.curveconst import (
    MEAN_TARGETS,
    SymbolConvention,
    averaged_order_kernel,
    averaged_order_part_fn,
    even_val_mean_fn,
    even_val_symbol_part,
    even_val_symbol_table,
    eval_point,
    mean_order_grid,
    odd_val_part_fn,
    order_kernel,
    order_kernel_odd,
    order_part_fn,
    order_part_odd_fn,
    shift_kernel,
    shift_part_fn,
    substitution_gap,
    twin_prime_constant,
)
from shiftmean.harness import prefix_dots, shifted_sum

from oracles import (
    eval_divisor_sum,
    even_val_symbol_table_batched,
    even_val_symbol_table_by_tile,
    local_factor,
    odd_val_kernel,
    order_constant_direct,
    substitution_gap_by_mask,
    twin_prime_oracle,
)

UNIT = SymbolConvention.UNIT
KRONECKER = SymbolConvention.KRONECKER


# scalar factor values, read off the prime-power definition of each factor
def shift_part(n):
    return eval_multiplicative(shift_part_fn, factorize_trial(n))


def order_part(n):
    return eval_multiplicative(order_part_fn, factorize_trial(n))


def order_part_odd(n):
    return eval_multiplicative(order_part_odd_fn, factorize_trial(n))


def averaged_order_part(n):
    return eval_multiplicative(averaged_order_part_fn, factorize_trial(n))


def odd_val_part(n):
    return eval_multiplicative(odd_val_part_fn, factorize_trial(n))


def even_val_mean_part(n):
    return eval_multiplicative(even_val_mean_fn, factorize_trial(n))


# ---------------------------------------------------------------------------
# kernel tables: values on prime powers


def test_shift_kernel_values():
    assert shift_kernel(3, 1) == pytest.approx(1 / 4)  # 1/((p+1)(p-2))
    assert shift_kernel(5, 1) == pytest.approx(1 / 18)
    assert shift_kernel(3, 2) == 0.0
    assert shift_kernel(2, 1) == pytest.approx(-1 / 3)
    assert shift_kernel(2, 5) == 0.0
    assert shift_kernel(7, 0) == 1.0


def test_order_kernel_values():
    assert order_kernel(5, 1) == pytest.approx(4 / 15)  # (p-1)/(p^k(p-2))
    assert order_kernel(5, 3) == pytest.approx(4 / 375)
    assert order_kernel(2, 1) == 0.0
    assert order_kernel(2, 2) == pytest.approx(1 / 2)
    assert order_kernel(2, 5) == pytest.approx(1 / 16)


def test_order_kernel_odd_values():
    assert order_kernel_odd(2, 1) == -1.0
    assert order_kernel_odd(2, 3) == 0.0
    assert order_kernel_odd(7, 2) == order_kernel(7, 2)


def test_odd_val_kernel_values():
    assert odd_val_kernel(5, 1) == pytest.approx(4 / 15)  # (p-1)/(p(p-2))
    assert odd_val_kernel(5, 2) == pytest.approx(1 / 15)  # 1/(p^(2s-1)(p-2)), s=1
    assert odd_val_kernel(5, 3) == pytest.approx(-1 / 375)
    assert odd_val_kernel(2, 1) == 0.0
    assert odd_val_kernel(2, 2) == 1.0
    assert odd_val_kernel(2, 3) == pytest.approx(-1 / 4)
    assert odd_val_kernel(2, 4) == pytest.approx(1 / 4)


def test_averaged_order_kernel_values():
    assert averaged_order_kernel(2, 1) == 0.0
    assert averaged_order_kernel(2, 2) == pytest.approx(3 / 4)
    assert averaged_order_kernel(2, 3) == 0.0
    assert averaged_order_kernel(2, 4) == pytest.approx(3 / 16)
    assert averaged_order_kernel(11, 2) == order_kernel(11, 2)


# ---------------------------------------------------------------------------
# factor functions at small arguments


def test_shift_part_values():
    assert shift_part(1) == 1.0
    assert shift_part(2) == pytest.approx(2 / 3, rel=1e-15)
    assert shift_part(3) == pytest.approx(5 / 4, rel=1e-15)  # (15/16)(4/3)


def test_order_part_values():
    assert order_part(1) == 1.0
    assert order_part(2) == pytest.approx(1.0, rel=1e-15)
    assert order_part(9) == pytest.approx(17 / 9, rel=1e-14)


def test_order_part_odd_support():
    # the odd-restricted factor is the divisor sum of the odd-support kernel
    assert eval_divisor_sum(order_kernel_odd, factorize_trial(10)) == 0.0
    assert eval_divisor_sum(order_kernel_odd, factorize_trial(9)) == pytest.approx(17 / 9, rel=1e-14)


def test_even_val_parts_examples():
    # squarefree: both products empty
    for n in (1, 2, 3, 30, 105):
        assert even_val_symbol_part(n) == 1.0
        assert even_val_mean_part(n) == 1.0
    # 9 = 3^2, cofactor 1: symbol(-1 mod 3) = -1
    assert even_val_symbol_part(9) == pytest.approx(25 / 27, rel=1e-15)
    # 4 = 2^2 under the unit convention agrees with the averaged factor
    assert even_val_symbol_part(4, UNIT) == pytest.approx(7 / 8, rel=1e-15)
    assert even_val_mean_part(4) == pytest.approx(7 / 8, rel=1e-15)


def test_even_val_symbol_part_uses_cofactor_symbol():
    # 45 = 3^2 * 5: cofactor of 3^2 is 5, symbol(-5 mod 3) = symbol(1 mod 3) = 1
    expect = 1 - (3 - 1) / (27 * 2)
    assert even_val_symbol_part(45) == pytest.approx(expect, rel=1e-15)
    assert quad_symbol(-5, 3) == 1


def test_original_order_part_is_product_of_parts():
    c2 = twin_prime_constant(10**3)
    for n in range(2, 500):
        out = eval_point(n, c2=c2)
        assert out["G1"] == pytest.approx(odd_val_part(n) * even_val_symbol_part(n), rel=1e-14)
        assert out["Khat"] == pytest.approx(c2.value * shift_part(n - 1) * out["G1"], rel=1e-14)


# ---------------------------------------------------------------------------
# divisor-sum reconstruction oracles: each kernel rebuilds its parent


def _check_reconstruction(kernel, parent, limit):
    table = multiplicative_table(kernel, limit)
    divsums = np.zeros(limit + 1)
    divsums[0] = 0.0
    for d in range(1, limit + 1):
        divsums[d::d] += table[d]
    for n in range(1, limit + 1):
        assert divsums[n] == pytest.approx(parent(n), rel=1e-12), n


def test_shift_kernel_rebuilds_shift_part():
    _check_reconstruction(shift_kernel, shift_part, 2000)


def test_order_kernel_rebuilds_order_part():
    _check_reconstruction(order_kernel, order_part, 2000)
    _check_reconstruction(order_kernel_odd, order_part_odd, 2000)


def test_odd_val_kernel_rebuilds_odd_val_part():
    _check_reconstruction(odd_val_kernel, odd_val_part, 2000)


def test_averaged_kernel_rebuilds_product():
    _check_reconstruction(
        averaged_order_kernel,
        lambda n: odd_val_part(n) * even_val_mean_part(n),
        2000,
    )
    _check_reconstruction(averaged_order_kernel, averaged_order_part, 2000)


def test_parent_fn_tables_match_scalar_functions():
    # scalar values and tables come from one definition, so they agree exactly
    limit = 2000
    for fn in (shift_part_fn, order_part_fn, order_part_odd_fn, averaged_order_part_fn,
               odd_val_part_fn, even_val_mean_fn):
        table = multiplicative_table(fn, limit)
        for n in range(1, limit + 1):
            assert table[n] == eval_multiplicative(fn, factorize_trial(n)), (fn.name, n)


def test_eval_point_equals_tables_exactly():
    limit = 10**4
    c2 = twin_prime_constant(10**5)
    fs = multiplicative_table(shift_part_fn, limit)
    gs = multiplicative_table(order_part_fn, limit)
    g2 = multiplicative_table(odd_val_part_fn, limit)
    g4 = multiplicative_table(even_val_mean_fn, limit)
    for n in range(2, limit + 1):
        out = eval_point(n, c2=c2)
        assert out["F_star"] == fs[n - 1], n
        assert out["G_star"] == gs[n], n
        assert out["G2"] == g2[n], n
        assert out["G4"] == g4[n], n
        assert out["Kstar"] == c2.value * out["F_star"] * out["G_star"], n
        assert out["Khat"] == c2.value * out["F_star"] * out["G1"], n


def test_symbol_table_matches_scalar_both_conventions():
    for conv in (UNIT, KRONECKER):
        table = even_val_symbol_table(2000, conv)
        for n in range(1, 2001):
            assert table[n] == even_val_symbol_part(n, conv, factorize_trial(n)), (n, conv)


@pytest.mark.parametrize("conv", [UNIT, KRONECKER], ids=lambda c: c.value)
def test_symbol_table_bytes_equal_batched_oracle(conv):
    # the tiled period multiplies by exactly 1.0 where p | m, so no bit moves
    limit = 10**5
    assert even_val_symbol_table(limit, conv).tobytes() == \
        even_val_symbol_table_batched(limit, conv).tobytes()


# limits 1..10, limits whose p = 2 views (limit // 4 + 1 entries) end one
# below, at and one past a row of PERIODIC_ROW entries, and 10^6
SYMBOL_LIMITS = (*range(1, 11),
                 *(4 * curveconst.PERIODIC_ROW + d for d in (-5, -4, -1, 0, 4)), 10**6)


@pytest.mark.parametrize("conv", [UNIT, KRONECKER], ids=lambda c: c.value)
def test_symbol_table_bytes_equal_tiled_oracle(conv, monkeypatch):
    # rows of whole periods multiply the strided view in place of a tiled
    # full-length copy of the period; no bit moves, also at a 24-entry row
    for limit in SYMBOL_LIMITS:
        assert even_val_symbol_table(limit, conv).tobytes() == \
            even_val_symbol_table_by_tile(limit, conv).tobytes(), limit
    monkeypatch.setattr(curveconst, "PERIODIC_ROW", 24)
    for limit in range(1, 2000, 7):
        assert even_val_symbol_table(limit, conv).tobytes() == \
            even_val_symbol_table_by_tile(limit, conv).tobytes(), limit


@pytest.mark.parametrize("conv", [UNIT, KRONECKER], ids=lambda c: c.value)
def test_symbol_table_memory(conv):
    # the float64 table is 7.6 MiB, and each prime power multiplies in rows
    # of at most PERIODIC_ROW factors: 7.77 MiB peak measured; a tiled
    # full-length period peaked at 9.54 MiB, and the batched oracle at 13.4
    # (unit) and 14.3 MiB (kronecker)
    primes_up_to(10**6)  # warm the prime cache so only the table's arrays count
    tracemalloc.start()
    try:
        even_val_symbol_table(10**6, conv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# local-factor identities for the kernel pairs


def test_local_factor_identities_small():
    for p in [3, 5, 7, 11, 97]:
        lf = local_factor(shift_kernel, order_kernel, p, 60)
        assert lf * (1 - 1 / (p - 1) ** 2) == pytest.approx(1.0, abs=1e-13)
    assert local_factor(shift_kernel, order_kernel, 2, 60) == pytest.approx(1.0, abs=1e-15)
    assert local_factor(shift_kernel, order_kernel_odd, 2, 60) == pytest.approx(1 / 3, abs=1e-15)
    assert local_factor(shift_kernel, averaged_order_kernel, 2, 60) == pytest.approx(
        31 / 30, abs=1e-15
    )


# ---------------------------------------------------------------------------
# constants


def test_twin_prime_constant_small_cutoffs():
    assert twin_prime_constant(3).value == pytest.approx(3 / 4, rel=1e-15)
    assert twin_prime_constant(5).value == pytest.approx(45 / 64, rel=1e-15)
    assert twin_prime_constant(4).value == pytest.approx(3 / 4, rel=1e-15)


def test_twin_prime_constant_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        twin_prime_constant(2)


def test_twin_prime_constant_vs_oracle_midrange():
    c = twin_prime_constant(10**6)
    oracle = twin_prime_oracle()
    assert abs(c.value - oracle) <= c.tail_bound
    assert abs(c.value - oracle) <= 5 * (c.tail_bound_sharp or 1)
    # oracle against the literature digits of the twin-prime product
    assert oracle == pytest.approx(0.6601618158468696, abs=1e-12)


def test_order_constant_composition():
    c2 = twin_prime_constant(10**5)
    assert eval_point(2, c2=c2)["Kstar"] == pytest.approx(c2.value, rel=1e-14)
    expect3 = c2.value * (2 / 3) * (5 / 3)
    assert eval_point(3, c2=c2)["Kstar"] == pytest.approx(expect3, rel=1e-14)
    with pytest.raises(ValueError):
        eval_point(1, c2=c2)


def test_order_constant_direct_n1_reduction():
    # at n = 1 all indicator factors drop to the bare product
    got = order_constant_direct(1, 10**4)
    expect = 1.0
    for p in (p for p in range(2, 10**4 + 1) if factorize_trial(p) == [(p, 1)]):
        expect *= 1 - 1 / ((p - 1.0) ** 2 * (p + 1.0))
    assert got.value == pytest.approx(expect, rel=1e-12)


def test_order_constant_direct_identity_small_range():
    c2 = twin_prime_constant(10**6)
    for n in range(2, 200):
        direct = order_constant_direct(n, 10**6)
        lhs = eval_point(n, c2=c2)["Kstar"]
        rhs = direct.value * n / totient(n)
        tol = direct.tail_bound * n / totient(n) + abs(lhs) * 2 / (10**6 - 1)
        assert abs(lhs - rhs) <= tol, n


def test_order_constant_original_squarefree_matches_odd_val_form():
    c2 = twin_prime_constant(10**5)
    for n in (5, 6, 15, 21, 30):
        assert eval_point(n, c2=c2)["Khat"] == pytest.approx(
            c2.value * shift_part(n - 1) * odd_val_part(n), rel=1e-14
        )


def test_eval_point_payload():
    c2 = twin_prime_constant(10**5)
    out = eval_point(561, c2=c2)
    assert set(out) == {"N", "Kstar", "Khat", "F_star", "G_star", "G1", "G2", "G3", "G4", "convention"}
    assert out["G3"] == 1.0 and out["G4"] == 1.0  # squarefree
    assert out["Kstar"] == pytest.approx(out["Khat"], rel=1e-14)
    assert out["convention"] == "unit"


# ---------------------------------------------------------------------------
# mean-value grids and the substitution gap


def test_mean_order_grid_small():
    c2 = twin_prime_constant(10**6)
    rep = mean_order_grid("t2a", [10**3, 10**4], c2=c2)
    assert [r.x for r in rep.rows] == [10**3, 10**4]
    for row in rep.rows:
        assert abs(row.normalized) < 1.5  # measured ~0.56 at these x
        assert row.predicted == row.x
    rep_b = mean_order_grid("t2b", [10**3], c2=c2)
    assert rep_b.rows[0].predicted == pytest.approx(1000 / 3)
    rep_c = mean_order_grid("t3", [10**3], c2=c2)
    assert rep_c.rows[0].predicted == pytest.approx(31000 / 30)
    with pytest.raises(ValueError):
        mean_order_grid("t4", [100], c2=c2)


def test_t3_grid_holds_two_tables():
    # the order side (its symbol table multiplied in and dropped) is done
    # before the shift table is built, so two 7.6 MiB tables are alive at
    # once: 17.75 MiB measured; building the shift table first held three,
    # 24.8 MiB
    c2 = twin_prime_constant(10**4)
    primes_up_to(10**6)  # warm the prime cache so only the run's arrays count
    tracemalloc.start()
    try:
        mean_order_grid("t3", [10**6], c2=c2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19 * 2**20


def test_mean_order_grid_agrees_with_preset_route():
    # the preset and the verify target tabulate the same factor functions, so
    # with shift 1 the harness sum times c2 is the verify row bit for bit
    from shiftmean.harness import run_grid
    from shiftmean.presets import get_preset

    c2 = twin_prime_constant(10**5)
    grid = [1000, 65537, 300000]
    for preset, which in (("kstar", "t2a"), ("kstar-odd", "t2b")):
        via_harness = run_grid(get_preset(preset), grid, prime_cutoff=10**5)
        via_parents = mean_order_grid(which, grid, c2=c2)
        for row, parent_row in zip(via_harness.rows, via_parents.rows, strict=True):
            assert c2.value * row.empirical == parent_row.empirical, (preset, row.x)
            assert c2.value * row.predicted == pytest.approx(parent_row.predicted, rel=1e-12)


def test_mean_order_grid_t3_convention_sensitivity():
    # the two symbol conventions genuinely differ in the running sums
    c2 = twin_prime_constant(10**5)
    a = mean_order_grid("t3", [2000], SymbolConvention.UNIT, c2=c2).rows[0].empirical
    b = mean_order_grid("t3", [2000], SymbolConvention.KRONECKER, c2=c2).rows[0].empirical
    assert a != b


def test_mean_order_grid_sums_the_whole_grid_in_one_call(monkeypatch):
    calls = []

    def counting(f_vals, g_vals, shift, x, **kwargs):
        calls.append((shift, x))
        return shifted_sum(f_vals, g_vals, shift, x, **kwargs)

    monkeypatch.setattr(curveconst, "shifted_sum", counting)
    c2 = twin_prime_constant(10**4)
    grid = [1000 * i for i in range(1, 21)]
    rep = mean_order_grid("t2a", grid, c2=c2)
    assert calls == [(1, grid[-1])]
    f_vals = multiplicative_table(shift_part_fn, grid[-1])
    g_vals = multiplicative_table(order_part_fn, grid[-1])
    assert [row.empirical for row in rep.rows] == [
        c2.value * shifted_sum(f_vals, g_vals, 1, x) for x in grid]


@pytest.mark.parametrize("grid", [[], [1], [1000, 100]])
def test_mean_order_grid_rejects_bad_grids(grid):
    c2 = twin_prime_constant(10**4)
    for which in MEAN_TARGETS:
        with pytest.raises(ValueError, match="grid"):
            mean_order_grid(which, grid, c2=c2)


def test_substitution_gap_trivial_cases():
    assert substitution_gap([5], 1, 7) == [0.0]  # x < modulus: empty range
    assert substitution_gap([100], 2, 2) == [0.0]  # incompatible congruences
    # squarefree-only contributions vanish term by term
    squarefree = [n for n in range(1, 50) if all(n % (p * p) for p in (2, 3, 5, 7))]
    table_sym = even_val_symbol_table(49)
    table_mean = multiplicative_table(even_val_mean_fn, 49)
    for n in squarefree:
        assert table_sym[n] == 1.0 and table_mean[n] == 1.0


def test_substitution_gap_small_magnitude():
    for x in (10**3, 10**4):
        assert abs(substitution_gap([x])[0]) < 0.05


def test_substitution_gap_congruence_restriction():
    # direct recomputation over the restricted class
    x, d, modulus = 3000, 3, 4
    table_sym = even_val_symbol_table(x)
    table_mean = multiplicative_table(even_val_mean_fn, x)
    expect = sum(
        table_sym[n] - table_mean[n]
        for n in range(1, x + 1)
        if n % d == 1 and n % modulus == 0
    )
    assert substitution_gap([x], d, modulus)[0] == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("conv", [UNIT, KRONECKER], ids=lambda c: c.value)
@pytest.mark.parametrize("d, modulus", [(1, 1), (3, 4), (5, 7), (8, 1), (1, 9), (4, 6),
                                        (7, 100), (1, 5000), (5000, 1)])
def test_substitution_gap_matches_mask_oracle(d, modulus, conv):
    # grid points below the first class member, on members and between them,
    # so the first ones precede every entry that can differ; modulus 5000
    # leaves the class empty below x, and d = 5000 holds N = 1 alone
    members = [n for n in range(1, 400) if n % d == 1 % d and n % modulus == 0][:3]
    grid = sorted({2, 3, 2999, 3000} | {m + o for m in members for o in (-1, 0, 1)} - {0})
    got = substitution_gap(grid, d, modulus, conv)
    assert got == [substitution_gap_by_mask(x, d, modulus, conv) for x in grid]


@pytest.mark.parametrize("conv", [UNIT, KRONECKER], ids=lambda c: c.value)
@pytest.mark.parametrize("d, modulus", [(1, 1), (3, 4), (5, 7), (1, 9), (8, 1)])
def test_substitution_gap_equals_the_sum_of_every_difference(d, modulus, conv):
    # leaving out the differences that are exactly 0 changes no sum: against
    # one prefix_dots pass over every difference of the class, over blocks
    x = 300_000
    step = d * modulus
    start = modulus * pow(modulus, -1, d) % step or step
    diff = even_val_symbol_table(x, conv)[start::step]
    diff -= multiplicative_table(even_val_mean_fn, x)[start::step]
    assert 0 < np.count_nonzero(diff) < len(diff)
    grid = [1, 2, 1000, 65_537, 131_073, 200_001, x - 1, x]
    ends = [len(range(start, y + 1, step)) for y in grid]
    assert substitution_gap(grid, d, modulus, conv) == prefix_dots(diff, np.ones_like(diff), ends)


def test_substitution_gap_memory():
    # one full table at a time, beside the class entries that can differ (29%
    # of them, as int32 positions and float64 values): 1.54 tables measured;
    # holding both tables gave 2.12
    x = 2 * 10**6
    primes_up_to(x)  # warm the prime cache so only the gap's arrays count
    tracemalloc.start()
    try:
        substitution_gap([x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * (x + 1)  # one float64 table is 8 (x + 1) bytes
