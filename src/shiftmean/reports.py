"""Report containers and their CSV/JSON wire formats.

CSV carries 12 significant digits, JSON 17 (full round-trip); identical
inputs therefore serialize to byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


def fmt_csv(v: float) -> str:
    return f"{float(v):.12g}"


def json_ready(obj):
    """Recursively convert to JSON-serializable data with 17-digit floats."""
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, int):
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return json_ready(obj.item())
    return str(obj)


def dumps_json(obj) -> str:
    return json.dumps(json_ready(obj), sort_keys=True, indent=2)


@dataclass(frozen=True)
class MeanValueRow:
    x: int
    empirical: float
    predicted: float
    residual: float
    normalized: float


@dataclass(frozen=True)
class MeanValueReport:
    """Empirical vs predicted mean values over a grid of x.

    residual is empirical - predicted exactly as stored in the row;
    normalized divides it by the named candidate error function at x.
    """

    rows: tuple
    error_label: str
    label: str = ""

    def __post_init__(self):
        xs = [r.x for r in self.rows]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("report rows must be strictly increasing in x")

    def to_csv(self) -> str:
        lines = ["x,empirical,predicted,residual,normalized"]
        for r in self.rows:
            lines.append(
                f"{r.x},{fmt_csv(r.empirical)},{fmt_csv(r.predicted)},"
                f"{fmt_csv(r.residual)},{fmt_csv(r.normalized)}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return dumps_json(
            {
                "label": self.label,
                "candidate_error": self.error_label,
                "rows": [
                    {
                        "x": r.x,
                        "empirical": r.empirical,
                        "predicted": r.predicted,
                        "residual": r.residual,
                        "normalized": r.normalized,
                    }
                    for r in self.rows
                ],
            }
        )
