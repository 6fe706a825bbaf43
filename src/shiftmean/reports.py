"""Report containers and their CSV/JSON wire formats.

CSV carries 12 significant digits, JSON the shortest repr that round-trips
each float; identical inputs therefore serialize to byte-identical output.
Every writer takes an open text handle and ends its document with a newline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass


def fmt_csv(v: float) -> str:
    return f"{float(v):.12g}"


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def write_json(fh, obj) -> None:
    fh.write(dumps_json(obj) + "\n")


def write_csv(fh, header: str, rows) -> None:
    """Write the header line, then each row's line as it is drawn: its
    integer, then its floats."""
    fh.write(header + "\n")
    for first, *rest in rows:
        fh.write(",".join([str(first), *map(fmt_csv, rest)]) + "\n")


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

    def to_csv(self, fh) -> None:
        write_csv(fh, "x,empirical,predicted,residual,normalized", map(astuple, self.rows))

    def to_json(self, fh) -> None:
        write_json(fh, {"label": self.label, "candidate_error": self.error_label,
                        "rows": [asdict(r) for r in self.rows]})
