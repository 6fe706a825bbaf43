"""Report containers and their CSV/JSON wire formats.

CSV carries 12 significant digits, JSON the shortest repr that round-trips
each float; identical inputs therefore serialize to byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


def fmt_csv(v: float) -> str:
    return f"{float(v):.12g}"


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row: its integer, then its floats."""
    lines = [header]
    lines.extend(",".join([str(first), *map(fmt_csv, rest)]) for first, *rest in rows)
    return "\n".join(lines) + "\n"


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

    @classmethod
    def from_sums(cls, xs, empirical, predicted, error_fn, *, label, error_label):
        """One row per x; the residual is divided by error_fn(x)."""
        rows = []
        for x, emp, pred in zip(xs, empirical, predicted):
            residual = emp - pred
            rows.append(MeanValueRow(x, emp, pred, residual, residual / error_fn(x)))
        return cls(rows=tuple(rows), error_label=error_label, label=label)

    def to_csv(self) -> str:
        return csv_text("x,empirical,predicted,residual,normalized",
                        ((r.x, r.empirical, r.predicted, r.residual, r.normalized)
                         for r in self.rows))

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
