"""Named problem bundles: (f, g, shift, baseline, candidate error) in one place.

Presets wire the totient family and the curve-order factor pairs into the
grid harness so verification runs need no manual table entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .arith import PrimePowerFn
from .curveconst import averaged_order_kernel, order_kernel, order_kernel_odd, shift_kernel
from .euler import MonomialBaseline, ShiftedPairSpec
from .harness import DivisorSumFn, NamedFn, TabSpec


@dataclass(frozen=True)
class Preset:
    name: str
    pair: ShiftedPairSpec
    f_tab: TabSpec
    g_tab: TabSpec
    error_label: str
    error_fn: Callable[[float], float]


def _jordan_kernel(k: int) -> PrimePowerFn:
    return PrimePowerFn(
        lambda p, j, _k=k: -1.0 / p**_k if j == 1 else 0.0 * p,
        name=f"jordan_{k}_kernel",
    )


def _table(k: int) -> dict:
    """name -> (f kernel, g kernel, f_tab, g_tab, baseline degree, error label, error fn).

    phi and jordan-k pair the Jordan kernel of order k (phi: k = 1) with
    itself and tabulate exactly.  kstar, kstar-odd and khat pair
    shift_kernel with an order-side kernel: all N (main term x), odd N only
    (x/3), and the mean-substituted unnormalized constant (31x/30).
    """
    jordan = _jordan_kernel(k)
    table = {
        "phi": (jordan, jordan, NamedFn("totient"), NamedFn("totient"), 1,
                "x^2 log^2 x", lambda x: float(x) ** 2 * math.log(x) ** 2),
        "jordan-k": (jordan, jordan, NamedFn("jordan", k), NamedFn("jordan", k), k,
                     f"x^{2 * k}", lambda x: float(x) ** (2 * k)),
    }
    for name, g in (("kstar", order_kernel), ("kstar-odd", order_kernel_odd),
                    ("khat", averaged_order_kernel)):
        table[name] = (shift_kernel, g, DivisorSumFn(shift_kernel), DivisorSumFn(g), 0,
                       "log x", math.log)
    return table


def get_preset(name: str, shift: int = 1) -> Preset:
    """Look up a preset by CLI name; jordan orders parse as 'jordan-2' etc."""
    key, k = name, 1
    if name.startswith("jordan-"):
        tail = name[len("jordan-"):]
        if not tail.isdigit() or int(tail) < 1:
            raise ValueError(f"bad jordan preset {name!r}; use e.g. jordan-2")
        name, key, k = f"jordan-{int(tail)}", "jordan-k", int(tail)
    table = _table(k)
    if key not in table:
        raise ValueError(f"unknown preset {name!r}; options: {', '.join(table)}")
    f, g, f_tab, g_tab, deg, error_label, error_fn = table[key]
    pair = ShiftedPairSpec(f=f, g=g, shift=shift, baseline=MonomialBaseline(deg, deg))
    return Preset(name, pair, f_tab, g_tab, error_label, error_fn)
