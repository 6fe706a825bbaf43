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

PRESET_NAMES = ("phi", "jordan-k", "kstar", "kstar-odd", "khat")


@dataclass(frozen=True)
class Preset:
    name: str
    pair: ShiftedPairSpec
    f_tab: TabSpec
    g_tab: TabSpec
    error_label: str
    error_fn: Callable[[float], float]


def _totient_kernel() -> PrimePowerFn:
    return PrimePowerFn(
        lambda p, k: -1.0 / p if k == 1 else 0.0 * p, name="totient_kernel"
    )


def _jordan_kernel(k: int) -> PrimePowerFn:
    return PrimePowerFn(
        lambda p, j, _k=k: -1.0 / p**_k if j == 1 else 0.0 * p,
        name=f"jordan_{k}_kernel",
    )


def phi_preset(shift: int = 1) -> Preset:
    """Totient times shifted totient; exact integer tabulation."""
    kern = _totient_kernel()
    return Preset(
        name="phi",
        pair=ShiftedPairSpec(f=kern, g=kern, shift=shift, baseline=MonomialBaseline(1, 1)),
        f_tab=NamedFn("totient"),
        g_tab=NamedFn("totient"),
        error_label="x^2 log^2 x",
        error_fn=lambda x: float(x) ** 2 * math.log(x) ** 2,
    )


def jordan_preset(k: int, shift: int = 1) -> Preset:
    """Jordan totient pair of order k >= 1; exact integer tabulation."""
    if k < 1:
        raise ValueError(f"jordan order must be >= 1, got {k}")
    kern = _jordan_kernel(k)
    return Preset(
        name=f"jordan-{k}",
        pair=ShiftedPairSpec(f=kern, g=kern, shift=shift, baseline=MonomialBaseline(k, k)),
        f_tab=NamedFn("jordan", k),
        g_tab=NamedFn("jordan", k),
        error_label=f"x^{2 * k}",
        error_fn=lambda x: float(x) ** (2 * k),
    )


def kstar_preset(shift: int = 1) -> Preset:
    """Curve-order factor pair; its constant is the reciprocal of the twin-prime product."""
    return Preset(
        name="kstar",
        pair=ShiftedPairSpec(
            f=shift_kernel, g=order_kernel, shift=shift, baseline=MonomialBaseline(0, 0)
        ),
        f_tab=DivisorSumFn(shift_kernel),
        g_tab=DivisorSumFn(order_kernel),
        error_label="log x",
        error_fn=math.log,
    )


def kstar_odd_preset(shift: int = 1) -> Preset:
    """Order-side factor restricted to odd support; main term drops to x/3."""
    return Preset(
        name="kstar-odd",
        pair=ShiftedPairSpec(
            f=shift_kernel, g=order_kernel_odd, shift=shift, baseline=MonomialBaseline(0, 0)
        ),
        f_tab=DivisorSumFn(shift_kernel),
        g_tab=DivisorSumFn(order_kernel_odd),
        error_label="log x",
        error_fn=math.log,
    )


def khat_preset(shift: int = 1) -> Preset:
    """Mean-substituted unnormalized pair; reproduces the 31/30 mean."""
    return Preset(
        name="khat",
        pair=ShiftedPairSpec(
            f=shift_kernel, g=averaged_order_kernel, shift=shift, baseline=MonomialBaseline(0, 0)
        ),
        f_tab=DivisorSumFn(shift_kernel),
        g_tab=DivisorSumFn(averaged_order_kernel),
        error_label="log x",
        error_fn=math.log,
    )


def get_preset(name: str, shift: int = 1) -> Preset:
    """Look up a preset by CLI name; jordan orders parse as 'jordan-2' etc."""
    if name == "phi":
        return phi_preset(shift)
    if name.startswith("jordan-"):
        tail = name[len("jordan-"):]
        if not tail.isdigit() or int(tail) < 1:
            raise ValueError(f"bad jordan preset {name!r}; use e.g. jordan-2")
        return jordan_preset(int(tail), shift)
    if name == "kstar":
        return kstar_preset(shift)
    if name == "kstar-odd":
        return kstar_odd_preset(shift)
    if name == "khat":
        return khat_preset(shift)
    raise ValueError(f"unknown preset {name!r}; options: {', '.join(PRESET_NAMES)}")
