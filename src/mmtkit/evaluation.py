"""Tier-table aggregation of per-direction metric values.

Directions are grouped into four classes by which side is a center: En->X,
X->En, Zh->X, X->Zh. The non-center side determines the resource tier. The
two center-pair directions are members of both classes that match them (zh
counts as an X for En-centric classes and en for Zh-centric ones); pass
include_center_pairs=False to leave them out. Cells are unweighted means.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .directions import Direction
from .errors import DuplicateRecord, RecordParseError, UnknownLanguage
from .registry import Registry, Tier, parse_json_lines, required_fields

METRICS = ("COMET22", "SacreBLEU")

CLASSES = ("En→X", "X→En", "Zh→X", "X→Zh")

TIER_ORDER = (Tier.HIGH, Tier.MEDIUM, Tier.LOW)


@dataclass(frozen=True)
class EvalRecord:
    model: str
    direction: Direction
    metric: str
    value: float

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of {METRICS}")
        if not 0.0 <= self.value <= 100.0:
            raise ValueError(f"{self.metric} value outside [0, 100]: {self.value}")
        if not self.model:
            raise ValueError("model name must be non-empty")


def read_eval_records(stream: Iterable[str], registry: Registry | None = None, path: str | None = None) -> Iterator[EvalRecord]:
    """Parse evaluation records. A repeated (model, src, tgt, metric) raises
    DuplicateRecord; with a registry, a code outside it raises UnknownLanguage."""
    seen: set[tuple[str, str, str, str]] = set()

    def record(obj: dict) -> EvalRecord:
        model, src, tgt, metric = required_fields(obj, ("model", "src", "tgt", "metric"))
        (value,) = required_fields(obj, ("value",), object)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise RecordParseError(f"field 'value' must be a number, got {value!r}")
        for code in (src, tgt):
            if registry is not None and code not in registry:
                raise UnknownLanguage(code)
        try:
            rec = EvalRecord(model, Direction(src, tgt), metric, float(value))
        except (TypeError, ValueError) as e:
            raise RecordParseError(str(e)) from None
        key = (model, src, tgt, metric)
        if key in seen:
            raise DuplicateRecord(_duplicate_message(rec))
        seen.add(key)
        return rec

    return parse_json_lines(stream, path, record)


def _duplicate_message(rec: EvalRecord) -> str:
    return f"duplicate record for model {rec.model!r}, direction {rec.direction}, metric {rec.metric!r}"


def classes_of(
    direction: Direction, include_center_pairs: bool = True
) -> list[tuple[str, str]]:
    """(class, X) memberships of a direction; center pairs match two classes."""
    src, tgt = direction.src, direction.tgt
    out: list[tuple[str, str]] = []
    if src == "en":
        out.append(("En→X", tgt))
    if tgt == "en":
        out.append(("X→En", src))
    if src == "zh":
        out.append(("Zh→X", tgt))
    if tgt == "zh":
        out.append(("X→Zh", src))
    if not include_center_pairs:
        out = [(cls, x) for cls, x in out if x not in ("en", "zh")]
    return out


def intersect_support(
    langs_a: Iterable[str], langs_b: Iterable[str], registry: Registry
) -> tuple[set[str], tuple[int, int, int]]:
    """Overlap of two supported-language sets with its (high, medium, low) counts."""
    a, b = set(langs_a), set(langs_b)
    for code in a | b:
        if code not in registry:
            raise UnknownLanguage(code)
    overlap = a & b
    counts = {t: 0 for t in Tier}
    for code in overlap:
        counts[registry.tier_of(code)] += 1
    return overlap, (counts[Tier.HIGH], counts[Tier.MEDIUM], counts[Tier.LOW])


@dataclass
class TierTable:
    metric: str
    models: list[str]
    cells: dict[tuple[str, Tier, str], float] = field(default_factory=dict)
    skipped: int = 0

    def cell(self, model: str, tier: Tier, cls: str) -> float | None:
        return self.cells.get((model, tier, cls))


def aggregate(
    records: Iterable[EvalRecord],
    registry: Registry,
    overlap: set[str] | None = None,
    metric: str = "COMET22",
    include_center_pairs: bool = True,
    models: list[str] | None = None,
) -> TierTable:
    """Build a tier table from records of one metric.

    Records whose direction touches a language outside the overlap set are
    skipped (and counted); a second record for the same (model, direction)
    raises DuplicateRecord. Cell order and values are independent of record
    order.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if overlap is None:
        overlap = set(registry.codes())
    else:
        for code in overlap:
            if code not in registry:
                raise UnknownLanguage(code)

    sums: dict[tuple[str, Tier, str], float] = {}
    counts: dict[tuple[str, Tier, str], int] = {}
    seen: set[tuple[str, str, str]] = set()
    seen_models: list[str] = []
    skipped = 0
    for rec in records:
        if rec.metric != metric:
            continue
        if models is not None and rec.model not in models:
            continue
        key = (rec.model, rec.direction.src, rec.direction.tgt)
        if key in seen:
            raise DuplicateRecord(_duplicate_message(rec))
        seen.add(key)
        for side in (rec.direction.src, rec.direction.tgt):
            if side not in registry:
                raise UnknownLanguage(side)
        if rec.direction.src not in overlap or rec.direction.tgt not in overlap:
            skipped += 1
            continue
        if rec.model not in seen_models:
            seen_models.append(rec.model)
        for cls, x in classes_of(rec.direction, include_center_pairs):
            k = (rec.model, registry.tier_of(x), cls)
            sums[k] = sums.get(k, 0.0) + rec.value
            counts[k] = counts.get(k, 0) + 1

    # A repeated model name gives one row, at its first position.
    ordered = list(dict.fromkeys(models)) if models is not None else sorted(seen_models)
    table = TierTable(metric=metric, models=ordered, skipped=skipped)
    for k, total in sums.items():
        table.cells[k] = total / counts[k]
    return table


def render_table(table: TierTable, fmt: str = "markdown") -> str:
    """Fixed column order, 2-decimal cells, "-" for absent cells."""
    header = ["Model"] + [f"{tier.value} {cls}" for tier in TIER_ORDER for cls in CLASSES]
    rows = []
    for model in table.models:
        row = [model]
        for tier in TIER_ORDER:
            for cls in CLASSES:
                v = table.cell(model, tier, cls)
                row.append("-" if v is None else f"{v:.2f}")
        rows.append(row)

    if fmt == "markdown":
        return "".join("| " + " | ".join(row) + " |\n" for row in [header, ["---"] * len(header), *rows])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown table format {fmt!r}")
