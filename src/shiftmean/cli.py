"""Command-line surface.

Subcommands: constant, eval, meanvalue, verify, curvelab.  Every run echoes
its subcommand's options to stderr, parsed, so outputs can be reproduced.
Each handler checks its input, computes, and returns a writer; main then
opens --output (or stdout) and runs it, so bad input leaves no file.
curvelab's writer draws each record as it writes it, so a run that fails
part-way leaves the records written so far.  Identical invocations produce
byte-identical files (fixed float formatting, fixed reduction order).

Exit codes: 0 success, 2 usage/configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import decimal
import sys
from contextlib import nullcontext

from . import curveconst, curvelab, harness, presets
from .arith import (
    _power_exceeds_128_bits,
    factorize_trial,
    jordan_totient,
    totient,
)
from .curveconst import SymbolConvention
from .euler import shifted_mean_constant
from .reports import dumps_json, write_csv, write_json

DEFAULT_GRID_START = 1000

# eval factors n by trial division by sieved primes: a prime near 1e16
# takes about 0.3 s and 37 MB RSS, sieving the primes to 1e8 a segment at
# a time.
MAX_EVAL_N = 10**16

# meanvalue and verify read every table one segment at a time, so a run
# holds its segments and the primes up to x, 4 bytes each: 36-41 MB RSS at
# x = 1e7 for phi, jordan-2, kstar, t3 and gap, and 64 MB for meanvalue
# jordan-3 at this ceiling, whose tables hold Python ints (23 s).
MAX_X = 5 * 10**7

# Largest --prime-cutoff: c2 and kstar fold the primes up to it in 4-7 s.
MAX_PRIME_CUTOFF = 2 * 10**9

# Integer options are parsed exactly up to this many digits.
MAX_PARSE_DIGITS = 100


class UsageError(ValueError):
    """Configuration problem; maps to exit code 2."""


def _echo_config(args, **parsed) -> None:
    """Echo the subcommand's options to stderr, parsed values in place of raw text."""
    config = {k: v for k, v in vars(args).items() if k != "handler"} | parsed
    print("config: " + dumps_json(config).replace("\n", " "), file=sys.stderr)


def _parse_int(text: str, field: str) -> int:
    """text as an exact integer: "1e3" and "9007199254740993e0" are read exactly.

    The exponent is bounded before int() runs, so "1e1000000000" cannot build
    a billion-digit integer; every caller's own ceiling lies far below it.
    """
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        value = None
    if (value is None or not value.is_finite() or value.adjusted() >= MAX_PARSE_DIGITS
            or value != value.to_integral_value()):
        raise UsageError(f"{field}: expected an integer of at most {MAX_PARSE_DIGITS} digits "
                         f"(got {text!r})")
    return int(value)


def _parse_grid(args, field_grid="--x-grid", field_max="--xmax") -> tuple:
    if args.x_grid and args.xmax:
        raise UsageError(f"{field_grid}: give {field_grid} or {field_max}, not both")
    if args.x_grid:
        xs = tuple(_parse_int(s, field_grid) for s in args.x_grid.split(","))
        if any(b <= a for a, b in zip(xs, xs[1:])) or xs[0] < 2:
            raise UsageError(f"{field_grid}: grid must be ascending and start at x >= 2")
        if xs[-1] > MAX_X:
            raise UsageError(f"{field_grid}: x must be <= {MAX_X} (got {xs[-1]})")
        return xs
    if args.xmax:
        xmax = _parse_int(args.xmax, field_max)
        if xmax < DEFAULT_GRID_START:
            raise UsageError(f"{field_max}: must be >= {DEFAULT_GRID_START}")
        if xmax > MAX_X:
            raise UsageError(f"{field_max}: must be <= {MAX_X} (got {xmax})")
        xs, x = [], DEFAULT_GRID_START
        while x <= xmax:
            xs.append(x)
            x *= 10
        if xs[-1] != xmax:
            xs.append(xmax)
        return tuple(xs)
    raise UsageError(f"{field_grid}: one of {field_grid} or {field_max} is required")


def _check_cutoff(cutoff: int, floor: int = 2) -> int:
    # Euler products stream the primes one sieve segment at a time, so memory
    # does not grow with the cutoff.
    if cutoff < floor or cutoff > MAX_PRIME_CUTOFF:
        raise UsageError(f"--prime-cutoff: out of range [{floor}, 2e9] (got {cutoff})")
    return cutoff


def _check_shift(shift: int, cutoff: int) -> None:
    """The shift correction needs every prime of the shift inside the cutoff."""
    if shift < 1:
        raise UsageError(f"--shift: must be >= 1 (got {shift})")
    if shift > MAX_EVAL_N:  # trial division below runs to sqrt(shift)
        raise UsageError(f"--shift: must be <= {MAX_EVAL_N} (got {shift})")
    largest = factorize_trial(shift)[-1][0] if shift > 1 else 1
    if largest > cutoff:
        raise UsageError(f"--shift: prime factor {largest} exceeds --prime-cutoff {cutoff}")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns a writer, called with the open output.


def _cmd_constant(args):
    cutoff = _check_cutoff(_parse_int(args.prime_cutoff, "--prime-cutoff"), floor=3)
    if args.target != "c2":
        _check_shift(args.shift, cutoff)
    elif args.shift != 1:
        raise UsageError(f"--shift: c2 does not depend on the shift; omit it (got {args.shift})")
    _echo_config(args, prime_cutoff=cutoff)
    if args.target == "c2":
        ev = curveconst.twin_prime_constant(cutoff)
    else:
        try:
            preset = presets.get_preset(args.target, shift=args.shift)
        except ValueError as exc:
            raise UsageError(f"target: {exc}") from None
        ev = shifted_mean_constant(preset.pair, cutoff)
    payload = {
        "target": args.target,
        "value": ev.value,
        "prime_cutoff": ev.prime_cutoff,
        "power_depth": ev.power_depth,
        "tail_bound": ev.tail_bound,
        "tail_bound_sharp": ev.tail_bound_sharp,
    }
    return lambda fh: write_json(fh, payload)


def _cmd_eval(args):
    n = _parse_int(args.n, "n")
    conv = SymbolConvention(args.convention)
    cutoff = _check_cutoff(_parse_int(args.prime_cutoff, "--prime-cutoff"), floor=3)
    _echo_config(args, n=n, prime_cutoff=cutoff)
    if n > MAX_EVAL_N:
        raise UsageError(f"n: must be <= {MAX_EVAL_N} (got {n})")
    if args.target in ("kstar", "khat"):
        if n < 2:
            raise UsageError(f"n: order evaluations need n >= 2 (got {n})")
        c2 = curveconst.twin_prime_constant(cutoff)
        payload = curveconst.eval_point(n, conv, c2=c2)
    elif args.target not in ("totient", "jordan"):
        raise UsageError(f"target: unknown eval target {args.target!r}")
    elif n < 1:
        raise UsageError(f"n: must be >= 1 (got {n})")
    elif args.target == "totient":
        payload = {"n": n, "totient": totient(n)}
    elif args.k < 1:
        raise UsageError(f"--k: must be >= 1 (got {args.k})")
    elif _power_exceeds_128_bits(n, args.k):
        raise UsageError(f"--k: J_{args.k}({n}) exceeds the 128-bit range (n^k >= 2^127)")
    else:
        payload = {"n": n, "k": args.k, "jordan": jordan_totient(n, args.k)}
    return lambda fh: write_json(fh, payload)


def _cmd_meanvalue(args):
    grid = _parse_grid(args)
    cutoff = _check_cutoff(_parse_int(args.prime_cutoff, "--prime-cutoff"), floor=2)
    if args.shift >= grid[0]:
        raise UsageError(f"--shift: must be below the first grid point {grid[0]} (got {args.shift})")
    _check_shift(args.shift, cutoff)
    try:
        preset = presets.get_preset(args.preset, shift=args.shift)
    except ValueError as exc:
        raise UsageError(f"preset: {exc}") from None
    tab, field = preset.f_tab, "--x-grid" if args.x_grid else "--xmax"
    if isinstance(tab, harness.NamedFn) and _power_exceeds_128_bits(grid[-1], tab.k):
        raise UsageError(f"{field}: {preset.name} values at x = {grid[-1]} "
                         "exceed the 128-bit range (x^k >= 2^127)")
    _echo_config(args, prime_cutoff=cutoff, x_grid=grid)
    report = harness.run_grid(preset, grid, prime_cutoff=cutoff)
    return report.to_csv if args.format == "csv" else report.to_json


def _cmd_verify(args):
    grid = _parse_grid(args)
    conv = SymbolConvention(args.convention)
    cutoff = _check_cutoff(_parse_int(args.prime_cutoff, "--prime-cutoff"), floor=3)
    if args.target == "gap":
        for field, value in (("--gap-d", args.gap_d), ("--gap-l", args.gap_l)):
            if value < 1:
                raise UsageError(f"{field}: must be >= 1 (got {value})")
    _echo_config(args, prime_cutoff=cutoff, x_grid=grid)
    if args.target in curveconst.MEAN_TARGETS:
        c2 = curveconst.twin_prime_constant(cutoff)
        report = curveconst.mean_order_grid(args.target, grid, conv, c2=c2)
        return report.to_csv if args.format == "csv" else report.to_json
    if args.target != "gap":
        raise UsageError(f"target: unknown verify target {args.target!r}")
    gaps = curveconst.substitution_gap(grid, args.gap_d, args.gap_l, conv)
    if args.format == "csv":
        return lambda fh: write_csv(fh, "x,gap", zip(grid, gaps))
    rows = [{"x": x, "gap": gap} for x, gap in zip(grid, gaps)]
    return lambda fh: write_json(fh, {"label": "gap", "rows": rows})


def _cmd_curvelab(args):
    cutoff = _check_cutoff(_parse_int(args.prime_cutoff, "--prime-cutoff"), floor=3)
    if args.cap > curvelab.MAX_ORDER_CAP:
        raise UsageError(f"--cap: must be <= {curvelab.MAX_ORDER_CAP} (got {args.cap})")
    if args.n_min < 7 or args.n_max < args.n_min:
        raise UsageError(f"--n-min/--n-max: need 7 <= n-min <= n-max (got {args.n_min}, {args.n_max})")
    if args.n_max > args.cap:
        raise UsageError(f"--n-max: exceeds cap {args.cap}")
    _echo_config(args, prime_cutoff=cutoff)
    c2 = curveconst.twin_prime_constant(cutoff)
    records = (curvelab.expected_m(n, c2=c2) for n in range(args.n_min, args.n_max + 1))
    write = curvelab.records_to_csv if args.format == "csv" else curvelab.records_to_json
    return lambda fh: write(records, fh)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftmean",
        description="Mean values of shifted multiplicative functions and "
        "elliptic-curve order constants.",
        epilog="presets: phi, jordan-k (e.g. jordan-2), kstar, kstar-odd, khat",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, grid=True):
        p.add_argument("--prime-cutoff", default="1e6",
                       help="largest prime folded into constants (default 1e6)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write to this path instead of stdout")
        if grid:
            p.add_argument("--x-grid", help="comma-separated ascending x values")
            p.add_argument("--xmax", help="decade grid 1e3..xmax instead of --x-grid")

    p = sub.add_parser("constant", help="compute an Euler-product constant")
    p.add_argument("target", help="c2 or a preset name (phi, jordan-k, kstar, kstar-odd, khat)")
    p.add_argument("--prime-cutoff", default="1e6")
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_constant)

    p = sub.add_parser("eval", help="evaluate at a single point, JSON out")
    p.add_argument("target", help="kstar, khat, totient, or jordan")
    p.add_argument("n")
    p.add_argument("--k", type=int, default=2, help="order for jordan")
    p.add_argument("--convention", default=SymbolConvention.UNIT.value,
                   choices=[c.value for c in SymbolConvention])
    p.add_argument("--prime-cutoff", default="1e6")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("meanvalue", help="empirical vs predicted sums for a preset")
    p.add_argument("preset", help="phi, jordan-k, kstar, kstar-odd, or khat")
    p.add_argument("--shift", type=int, default=1)
    add_common(p)
    p.set_defaults(handler=_cmd_meanvalue)

    p = sub.add_parser("verify", help="order-constant mean values and the symbol-substitution gap")
    p.add_argument("target", help="t2a (all N), t2b (odd N), t3 (unnormalized), or gap")
    p.add_argument("--convention", default=SymbolConvention.UNIT.value,
                   choices=[c.value for c in SymbolConvention])
    p.add_argument("--gap-d", type=int, default=1, help="gap: restrict to N = 1 mod d")
    p.add_argument("--gap-l", type=int, default=1, help="gap: restrict to N = 0 mod l")
    add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("curvelab", help="per-prime curve densities vs the order constant")
    p.add_argument("--n-min", type=int, default=20)
    p.add_argument("--n-max", type=int, default=curvelab.DEFAULT_ORDER_CAP)
    p.add_argument("--cap", type=int, default=curvelab.DEFAULT_ORDER_CAP,
                   help=f"largest admissible order, at most {curvelab.MAX_ORDER_CAP}")
    add_common(p, grid=False)
    p.set_defaults(handler=_cmd_curvelab)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        write = args.handler(args)
        out = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
        with out as fh:
            write(fh)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
