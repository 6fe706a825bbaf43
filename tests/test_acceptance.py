"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Boundedness constants below were measured on this implementation and frozen
with roughly 2x headroom; the asymptotic statements carry no explicit
constants, so measurement is the only way to pin them.  Run with -s to see
the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from shiftmean.arith import (
    eval_multiplicative,
    factorize_trial,
    multiplicative_table,
    primes_up_to,
    totient_table,
)
from shiftmean.curveconst import (
    SymbolConvention,
    averaged_order_kernel,
    even_val_mean_fn,
    even_val_symbol_part,
    eval_point,
    mean_order_grid,
    odd_val_part_fn,
    order_kernel,
    order_kernel_odd,
    order_part_fn,
    shift_kernel,
    shift_part_fn,
    substitution_gap,
    twin_prime_constant,
)
from shiftmean.curvelab import expected_m
from shiftmean.euler import shifted_mean_constant
from shiftmean.harness import shifted_sum
from shiftmean.presets import get_preset, jordan_preset, kstar_preset, phi_preset

from oracles import (
    count_points,
    count_points_naive,
    double_sum_by_gcd,
    fit_error_exponent,
    local_factor,
    odd_val_kernel,
    order_constant_direct,
    twin_prime_oracle,
)

GRID = (10**3, 10**4, 10**5, 10**6)
FULL_CUTOFF = 10**8

# measured maxima of |residual|/log x: t2a 0.56, t2b 0.09, t3 0.57
T2A_BOUND = 1.5
T2B_BOUND = 0.5
T3_BOUND = 1.5
GAP_BOUND = 0.05  # measured max |gap| = 0.017 on the grid
ORDER_CONSTANT_CEILING = 5.0  # measured max of the tabulated constant is ~3.2


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>2} ({desc}): {state}{suffix}")


@pytest.fixture(scope="module")
def c2_full():
    return twin_prime_constant(FULL_CUTOFF)


@pytest.fixture(scope="module")
def phi_values():
    return totient_table(GRID[-1])


def test_acceptance_1_all_orders_mean(c2_full):
    t0 = time.perf_counter()
    report = mean_order_grid("t2a", GRID, c2=c2_full)
    elapsed = time.perf_counter() - t0
    ratios = [abs(r.normalized) for r in report.rows]
    slope = fit_error_exponent(report).slope
    ok = max(ratios) <= T2A_BOUND and slope < 0.2 and elapsed <= 60.0
    _verdict(1, "order-constant mean over all N", ok,
             f"max|res|/log x={max(ratios):.3f}, slope={slope:.3f}, {elapsed:.1f}s")
    assert max(ratios) <= T2A_BOUND
    assert slope < 0.2
    assert elapsed <= 60.0


def test_acceptance_2_odd_orders_mean(c2_full):
    report = mean_order_grid("t2b", GRID, c2=c2_full)
    ratios = [abs(r.normalized) for r in report.rows]
    slope = fit_error_exponent(report).slope
    for row in report.rows:
        assert row.predicted == pytest.approx(row.x / 3)
    ok = max(ratios) <= T2B_BOUND and slope < 0.2
    _verdict(2, "order-constant mean over odd N", ok,
             f"max|res|/log x={max(ratios):.3f}, slope={slope:.3f}")
    assert max(ratios) <= T2B_BOUND
    assert slope < 0.2


def test_acceptance_3_unnormalized_mean(c2_full):
    report = mean_order_grid("t3", GRID, SymbolConvention.UNIT, c2=c2_full)
    x = GRID[-1]
    mean = report.rows[-1].empirical / x
    ratios = [abs(r.normalized) for r in report.rows]
    ok = abs(mean - 31 / 30) <= 1e-3 and max(ratios) <= T3_BOUND
    _verdict(3, "unnormalized mean is 31/30", ok,
             f"mean={mean:.7f} vs {31/30:.7f}, max|res|/log x={max(ratios):.3f}")
    assert abs(mean - 31 / 30) <= 1e-3
    assert max(ratios) <= T3_BOUND


def test_acceptance_4_totient_pair_ratio(phi_values):
    x = GRID[-1]
    worst = 0.0
    for h in (1, 2, 6):
        constant = shifted_mean_constant(phi_preset(shift=h).pair, FULL_CUTOFF)
        empirical = shifted_sum(phi_values, phi_values, h, x)
        assert isinstance(empirical, int)  # exact accumulation
        ratio = float(empirical) / (constant.value * x**3 / 3)
        worst = max(worst, abs(ratio - 1))
    ok = worst <= 1e-3
    _verdict(4, "totient-pair ratio at 1e6", ok, f"max|ratio-1|={worst:.2e}")
    assert worst <= 1e-3


def test_acceptance_5_jordan_pair_ratio():
    x = 10**5
    preset = jordan_preset(2)
    constant = shifted_mean_constant(preset.pair, FULL_CUTOFF)
    from shiftmean.harness import tabulate

    vals = tabulate(preset.f_tab, x)
    empirical = shifted_sum(vals, vals, 1, x)
    ratio = float(empirical) / (constant.value * x**5 / 5)
    ok = abs(ratio - 1) <= 1e-2
    _verdict(5, "jordan-2 pair ratio at 1e5", ok, f"|ratio-1|={abs(ratio - 1):.2e}")
    assert abs(ratio - 1) <= 1e-2


def test_acceptance_6_local_factor_identities():
    worst = 0.0
    for p in primes_up_to(1000)[1:].tolist():
        lf = local_factor(shift_kernel, order_kernel, p, 60)
        worst = max(worst, abs(lf * (1 - 1 / (p - 1) ** 2) - 1))
    at_two = abs(local_factor(shift_kernel, order_kernel, 2, 60) - 1.0)
    odd_var = abs(local_factor(shift_kernel, order_kernel_odd, 2, 60) - 1 / 3)
    avg_var = abs(local_factor(shift_kernel, averaged_order_kernel, 2, 60) - 31 / 30)
    ok = worst <= 1e-12 and at_two <= 1e-14 and odd_var <= 1e-14 and avg_var <= 1e-14
    _verdict(6, "local-factor identities", ok,
             f"worst odd-p defect={worst:.1e}, p=2 defects={max(at_two, odd_var, avg_var):.1e}")
    assert worst <= 1e-12
    assert at_two <= 1e-14
    assert odd_var <= 1e-14
    assert avg_var <= 1e-14


def test_acceptance_7_oracle_equivalences(c2_full):
    # (i) rearranged double sum vs the Euler product
    D = 10**4
    defects = []
    for preset in (phi_preset(), kstar_preset()):
        c = shifted_mean_constant(preset.pair, 10**6)
        defects.append(abs(double_sum_by_gcd(preset.pair, D) - c.value))
    ok_i = all(d <= 1e-3 for d in defects)

    # (ii) defining product vs the factored form, within reported tails
    totients = totient_table(10**3)
    ok_ii = True
    for n in range(2, 10**3 + 1):
        direct = order_constant_direct(n, 10**6)
        lhs = eval_point(n, c2=c2_full)["Kstar"]
        rhs = direct.value * n / int(totients[n])
        tol = direct.tail_bound * n / int(totients[n]) + abs(lhs) * 1e-7
        if abs(lhs - rhs) > tol:
            ok_ii = False
            break

    # (iii) every kernel rebuilds its parent through brute-force divisor sums
    limit = 10**4
    def parent(*fns):
        return lambda n: math.prod(eval_multiplicative(fn, factorize_trial(n)) for fn in fns)

    pairs = [
        (shift_kernel, parent(shift_part_fn)),
        (order_kernel, parent(order_part_fn)),
        (odd_val_kernel, parent(odd_val_part_fn)),
        (averaged_order_kernel, parent(odd_val_part_fn, even_val_mean_fn)),
    ]
    worst_rec = 0.0
    for kernel, parent in pairs:
        table = multiplicative_table(kernel, limit)
        divsums = np.zeros(limit + 1)
        for d in range(1, limit + 1):
            divsums[d::d] += table[d]
        for n in range(1, limit + 1):
            expect = parent(n)
            defect = abs(divsums[n] - expect) / max(abs(expect), 1e-300)
            worst_rec = max(worst_rec, defect)
    ok_iii = worst_rec <= 1e-12

    ok = ok_i and ok_ii and ok_iii
    _verdict(7, "oracle equivalences", ok,
             f"double-sum defects={[f'{d:.1e}' for d in defects]}, reconstruction worst={worst_rec:.1e}")
    assert ok_i
    assert ok_ii
    assert ok_iii


def test_acceptance_8_substitution_gap():
    gaps = substitution_gap(GRID)
    biggest = max(abs(g) for g in gaps)
    lx = np.log(GRID)
    ly = np.log([max(abs(g), 1e-12) for g in gaps])
    slope = float(np.polyfit(lx, ly, 1)[0])
    ok = biggest <= GAP_BOUND and slope < 0.2
    _verdict(8, "symbol-substitution gap stays O(1)", ok,
             f"max|gap|={biggest:.4f}, trend slope={slope:.3f}")
    assert biggest <= GAP_BOUND
    assert slope < 0.2


def test_acceptance_9_twin_prime_constant(c2_full):
    oracle = twin_prime_oracle()
    defect = abs(c2_full.value - oracle)
    ok = defect <= 5e-8
    _verdict(9, "twin-prime product vs independent oracle", ok, f"|diff|={defect:.2e}")
    assert defect <= 5e-8


def test_twin_prime_constant_within_sharp_tail_of_mpmath(c2_full):
    # measured 3.41e-10 against a sharp tail of 3.79e-10 at cutoff 1e8
    mpmath = pytest.importorskip("mpmath")
    defect = abs(c2_full.value - float(mpmath.twinprime))
    assert defect <= c2_full.tail_bound_sharp


def test_acceptance_10_curvelab(c2_full):
    t0 = time.perf_counter()
    dual_ok = True
    hasse_ok = True
    for p in (5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                fast = count_points(a, b, p)
                if fast != count_points_naive(a, b, p):
                    dual_ok = False
                if (p + 1 - fast) ** 2 > 4 * p:
                    hasse_ok = False
    ratios = []
    for n in range(20, 201):
        rec = expected_m(n, c2=c2_full)
        ratios.append(rec.expected_m / rec.predicted)
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - t0
    band_ok = 0.7 <= mean_ratio <= 1.3
    ok = dual_ok and hasse_ok and band_ok and elapsed <= 600.0
    _verdict(10, "curve densities track the order constant", ok,
             f"mean ratio={mean_ratio:.3f}, dual={dual_ok}, hasse={hasse_ok}, {elapsed:.1f}s")
    assert dual_ok
    assert hasse_ok
    assert band_ok
    assert elapsed <= 600.0


# ---------------------------------------------------------------------------
# module properties at full scale (not numbered criteria)


def test_tail_bounds_monotone_at_full_scale():
    presets = [phi_preset(), jordan_preset(2), kstar_preset(),
               get_preset("kstar-odd"), get_preset("khat")]
    for preset in presets:
        tails = [
            shifted_mean_constant(preset.pair, P).tail_bound
            for P in (10**6, 10**7, 10**8)
        ]
        assert tails[0] >= tails[1] >= tails[2], preset.name


def test_order_constant_positive_and_bounded_to_1e6(c2_full):
    xmax = GRID[-1]
    shift_vals = multiplicative_table(shift_part_fn, xmax - 1)
    order_vals = multiplicative_table(order_part_fn, xmax)
    values = c2_full.value * shift_vals[1:xmax] * order_vals[2 : xmax + 1]
    assert float(values.min()) > 0.0
    assert float(values.max()) < ORDER_CONSTANT_CEILING


def test_curvelab_window_total_tracks_prime_count(c2_full):
    # summed over all admissible orders, the densities add up to roughly one
    # unit per window prime (the prime-counting analogue at desk scale)
    total = 0.0
    for n in range(7, 201):
        total += expected_m(n, c2=c2_full).expected_m
    captured = [p for p in primes_up_to(200).tolist() if p >= 5 and 7 <= p + 1 <= 200]
    assert abs(total / len(captured) - 1) <= 0.15
