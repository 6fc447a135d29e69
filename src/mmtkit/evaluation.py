"""Tier-table aggregation of per-direction metric values.

Directions are grouped into four classes by which side is a center: En->X,
X->En, Zh->X, X->Zh. The non-center side determines the resource tier. The
two center-pair directions are members of both classes that match them (zh
counts as an X for En-centric classes and en for Zh-centric ones); pass
include_center_pairs=False to leave them out. Cells are unweighted means,
summed exactly (math.fsum), so they do not depend on record order.

read_eval_records is the one check of an evaluation file: it refuses a bad
field, an unknown code and a repeated (model, direction, metric) at the line
that holds it. aggregate takes the records it returns and checks none again.
"""
from __future__ import annotations

import csv
import io
import math
from typing import Collection, Iterable, Iterator

from .directions import Direction
from .errors import DuplicateRecord, RecordParseError, UnknownLanguage
from .registry import Frozen, Registry, Tier, Value, parse_json_lines, required_fields

METRICS = ("COMET22", "SacreBLEU")

CLASSES = ("En→X", "X→En", "Zh→X", "X→Zh")

TIER_ORDER = (Tier.HIGH, Tier.MEDIUM, Tier.LOW)


class EvalRecord(Frozen):
    __slots__ = __match_args__ = ("model", "direction", "metric", "value")

    def __init__(self, model: str, direction: Direction, metric: str, value: float):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"{metric} value outside [0, 100]: {value}")
        if not model:
            raise ValueError("model name must be non-empty")
        self._set(model=model, direction=direction, metric=metric, value=value)


def read_eval_records(stream: Iterable[str], registry: Registry, path: str | None = None) -> Iterator[EvalRecord]:
    """Parse evaluation records. A repeated (model, src, tgt, metric) raises
    DuplicateRecord, and a code outside the registry raises UnknownLanguage."""
    seen: set[tuple[str, str, str, str]] = set()

    def record(obj: dict) -> EvalRecord:
        model, src, tgt, metric = required_fields(obj, ("model", "src", "tgt", "metric"))
        (value,) = required_fields(obj, ("value",), object)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise RecordParseError(f"field 'value' must be a number, got {value!r}")
        for code in (src, tgt):
            if code not in registry:
                raise UnknownLanguage(code)
        try:
            rec = EvalRecord(model, Direction(src, tgt), metric, float(value))
        except (TypeError, ValueError) as e:
            raise RecordParseError(str(e)) from None
        key = (model, src, tgt, metric)
        if key in seen:
            raise DuplicateRecord(f"duplicate record for model {model!r}, direction {rec.direction}, metric {metric!r}")
        seen.add(key)
        return rec

    return parse_json_lines(stream, path, record)


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
    """Overlap of two supported-language sets with its (high, medium, low) counts.
    The codes are checked in the order given, a's then b's, so the unknown code
    named does not depend on the hash seed."""
    a, b = list(langs_a), list(langs_b)
    for code in a + b:
        if code not in registry:
            raise UnknownLanguage(code)
    overlap = set(a) & set(b)
    counts = {t: 0 for t in Tier}
    for code in overlap:
        counts[registry.tier_of(code)] += 1
    return overlap, (counts[Tier.HIGH], counts[Tier.MEDIUM], counts[Tier.LOW])


class TierTable(Value):
    __slots__ = __match_args__ = ("metric", "models", "cells", "skipped")

    def __init__(self, metric: str, models: list[str], cells: dict[tuple[str, Tier, str], float] | None = None,
                 skipped: int = 0):
        self.metric, self.models, self.skipped = metric, models, skipped
        self.cells = {} if cells is None else cells

    def cell(self, model: str, tier: Tier, cls: str) -> float | None:
        return self.cells.get((model, tier, cls))


def aggregate(
    records: Iterable[EvalRecord],
    registry: Registry,
    overlap: Collection[str] | None = None,
    metric: str = "COMET22",
    include_center_pairs: bool = True,
    models: list[str] | None = None,
) -> TierTable:
    """Build a tier table from records of one metric.

    The records are those read_eval_records returns: codes in the registry,
    one record per (model, direction, metric). Records whose direction touches
    a language outside the overlap are skipped (and counted). The overlap's
    codes are checked in the order given, so the unknown code named does not
    depend on the hash seed. Cell order and values are independent of record
    order: each cell's sum is math.fsum's correctly rounded sum, which no
    order of its terms changes.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if overlap is None:
        overlap = set(registry.codes())
    else:
        for code in overlap:
            if code not in registry:
                raise UnknownLanguage(code)
        overlap = set(overlap)

    values: dict[tuple[str, Tier, str], list[float]] = {}
    seen_models: list[str] = []
    skipped = 0
    for rec in records:
        if rec.metric != metric:
            continue
        if models is not None and rec.model not in models:
            continue
        if rec.direction.src not in overlap or rec.direction.tgt not in overlap:
            skipped += 1
            continue
        if rec.model not in seen_models:
            seen_models.append(rec.model)
        for cls, x in classes_of(rec.direction, include_center_pairs):
            values.setdefault((rec.model, registry.tier_of(x), cls), []).append(rec.value)

    # A repeated model name gives one row, at its first position.
    ordered = list(dict.fromkeys(models)) if models is not None else sorted(seen_models)
    table = TierTable(metric=metric, models=ordered, skipped=skipped)
    for k, cell in values.items():
        table.cells[k] = math.fsum(cell) / len(cell)
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
