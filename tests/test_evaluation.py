"""Class membership, tier aggregation, overlap handling, table rendering."""
from __future__ import annotations

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmtkit.directions import Direction
from mmtkit.errors import DuplicateRecord, RecordParseError, UnknownLanguage
from mmtkit.evaluation import (
    EvalRecord,
    TierTable,
    aggregate,
    classes_of,
    intersect_support,
    read_eval_records,
    render_table,
)
from mmtkit.records import json_line
from mmtkit.registry import Tier


def rec(model, src, tgt, value, metric="COMET22"):
    return EvalRecord(model=model, direction=Direction(src, tgt), metric=metric, value=value)


def test_classes_of_plain_directions():
    assert classes_of(Direction("en", "fr")) == [("En→X", "fr")]
    assert classes_of(Direction("fr", "en")) == [("X→En", "fr")]
    assert classes_of(Direction("zh", "fr")) == [("Zh→X", "fr")]
    assert classes_of(Direction("fr", "zh")) == [("X→Zh", "fr")]


def test_classes_of_center_pairs():
    assert classes_of(Direction("en", "zh")) == [("En→X", "zh"), ("X→Zh", "en")]
    assert classes_of(Direction("zh", "en")) == [("X→En", "zh"), ("Zh→X", "en")]
    assert classes_of(Direction("en", "zh"), include_center_pairs=False) == []
    assert classes_of(Direction("zh", "en"), include_center_pairs=False) == []


def test_eval_record_validation():
    with pytest.raises(ValueError):
        rec("m", "en", "fr", 101.0)
    with pytest.raises(ValueError):
        rec("m", "en", "fr", -0.5)
    with pytest.raises(ValueError):
        rec("m", "en", "fr", 50.0, metric="BLEURT")
    with pytest.raises(ValueError):
        EvalRecord(model="", direction=Direction("en", "fr"), metric="COMET22", value=1.0)


_ROW = {"model": "m", "src": "en", "tgt": "fr", "metric": "COMET22", "value": 80.0}


def eval_lines(*changes):
    """An evaluation file with one line per change to _ROW."""
    return io.StringIO("".join(json_line({**_ROW, **change}) + "\n" for change in changes))


def test_read_eval_records(registry):
    lines = [
        json_line({"model": "m", "src": "en", "tgt": "fr", "metric": "COMET22", "value": 88.5}),
        json_line({"model": "m", "src": "fr", "tgt": "en", "metric": "SacreBLEU", "value": 30.1}),
    ]
    out = list(read_eval_records(io.StringIO("\n".join(lines) + "\n"), registry))
    assert len(out) == 2
    assert out[0].direction == Direction("en", "fr")
    bad = json_line({"model": "m", "src": "en", "tgt": "fr", "metric": "COMET22"})
    with pytest.raises(RecordParseError):
        list(read_eval_records(io.StringIO(bad + "\n"), registry))
    bad2 = json_line({"model": "m", "src": "fr", "tgt": "de", "metric": "COMET22", "value": 1})
    with pytest.raises(RecordParseError):
        list(read_eval_records(io.StringIO(bad2 + "\n"), registry))


def test_aggregate_means(registry):
    records = [
        rec("m", "en", "fr", 80.0),
        rec("m", "en", "de", 90.0),
        rec("m", "fr", "en", 70.0),
        rec("m", "en", "bg", 60.0),
    ]
    table = aggregate(records, registry)
    assert table.cell("m", Tier.HIGH, "En→X") == pytest.approx(85.0)
    assert table.cell("m", Tier.HIGH, "X→En") == pytest.approx(70.0)
    assert table.cell("m", Tier.MEDIUM, "En→X") == pytest.approx(60.0)
    assert table.cell("m", Tier.HIGH, "Zh→X") is None


def test_aggregate_center_pair_membership(registry):
    records = [rec("m", "en", "zh", 88.0)]
    table = aggregate(records, registry)
    # zh is High-tier X for En→X; en is High-tier X for X→Zh
    assert table.cell("m", Tier.HIGH, "En→X") == pytest.approx(88.0)
    assert table.cell("m", Tier.HIGH, "X→Zh") == pytest.approx(88.0)
    excl = aggregate(records, registry, include_center_pairs=False)
    assert excl.cell("m", Tier.HIGH, "En→X") is None
    assert excl.cell("m", Tier.HIGH, "X→Zh") is None


def test_read_eval_records_duplicate_raises(registry):
    with pytest.raises(DuplicateRecord, match="line 2: duplicate record"):
        list(read_eval_records(eval_lines({}, {"value": 81.0}), registry))
    # same direction under different models or metrics is fine
    assert len(list(read_eval_records(eval_lines({"model": "a"}, {"model": "b"}), registry))) == 2
    assert len(list(read_eval_records(eval_lines({}, {"metric": "SacreBLEU", "value": 30.0}), registry))) == 2


def test_aggregate_metric_and_model_filter(registry):
    records = [
        rec("a", "en", "fr", 80.0),
        rec("b", "en", "fr", 90.0),
        rec("a", "en", "fr", 30.0, metric="SacreBLEU"),
    ]
    table = aggregate(records, registry, metric="SacreBLEU")
    assert table.cell("a", Tier.HIGH, "En→X") == pytest.approx(30.0)
    assert table.cell("b", Tier.HIGH, "En→X") is None
    only_b = aggregate(records, registry, models=["b"])
    assert only_b.models == ["b"]
    assert only_b.cell("a", Tier.HIGH, "En→X") is None


def test_aggregate_model_order(registry):
    records = [rec("zeta", "en", "fr", 80.0), rec("alpha", "en", "fr", 90.0)]
    assert aggregate(records, registry).models == ["alpha", "zeta"]
    assert aggregate(records, registry, models=["zeta", "alpha"]).models == ["zeta", "alpha"]


def test_aggregate_overlap_skips_and_counts(registry):
    records = [rec("m", "en", "fr", 80.0), rec("m", "en", "mn_cn", 70.0)]
    overlap = set(registry.codes()) - {"mn_cn"}
    table = aggregate(records, registry, overlap=overlap)
    assert table.skipped == 1
    assert table.cell("m", Tier.LOW, "En→X") is None
    with pytest.raises(UnknownLanguage):
        aggregate(records, registry, overlap={"en", "fr", "qq"})


def test_read_eval_records_unknown_language(registry):
    with pytest.raises(UnknownLanguage, match="line 1: unknown language code: 'qq'"):
        list(read_eval_records(eval_lines({"tgt": "qq"}), registry))


def test_intersect_support(registry):
    overlap, counts = intersect_support(registry.codes(), registry.codes(), registry)
    assert len(overlap) == 60
    assert counts == (13, 18, 29)
    other = set(registry.codes()) - {"mn_cn"}
    overlap2, counts2 = intersect_support(registry.codes(), other, registry)
    assert len(overlap2) == 59
    assert counts2 == (13, 18, 28)
    with pytest.raises(UnknownLanguage):
        intersect_support(["en", "nope"], ["en"], registry)


def test_unknown_codes_are_named_in_the_order_given(registry):
    # Eight unknown codes: a set's order would name the first one given by
    # chance only.
    unknown = [f"q{c}" for c in "abcdefgh"]
    with pytest.raises(UnknownLanguage, match="'qa'"):
        aggregate([], registry, overlap=["en", *unknown])
    with pytest.raises(UnknownLanguage, match="'qd'"):
        intersect_support(["en", *unknown[3:]], unknown[:3], registry)


def test_render_markdown_and_csv(registry):
    records = [rec("m", "en", "fr", 80.0), rec("m", "fr", "en", 70.134)]
    table = aggregate(records, registry)
    md = render_table(table, fmt="markdown")
    lines = md.splitlines()
    assert lines[0].startswith("| Model | High En→X | High X→En |")
    assert "| m |" in lines[2]
    assert " 80.00 " in lines[2] and " 70.13 " in lines[2] and " - " in lines[2]
    csv_text = render_table(table, fmt="csv")
    rows = csv_text.splitlines()
    assert rows[0].startswith("Model,High En→X,High X→En")
    assert rows[1].startswith("m,80.00,70.13,-")
    with pytest.raises(ValueError):
        render_table(table, fmt="html")


def test_render_empty_table():
    table = TierTable(metric="COMET22", models=[])
    md = render_table(table)
    assert md.count("\n") == 2  # header and separator only


@pytest.mark.parametrize("value", [True, "88.5", None])
def test_read_eval_records_refuses_non_number_value(registry, value):
    with pytest.raises(RecordParseError, match="line 1: field 'value' must be a number"):
        list(read_eval_records(eval_lines({"value": value}), registry))


_X = ("ar", "es", "de", "fr", "it", "ja", "bg", "ru", "sw", "ko")
_EVAL_DIRECTIONS = [Direction(a, b) for x in _X for a, b in ((x, "en"), ("en", x), (x, "zh"), ("zh", x))]
_EVAL_DIRECTIONS += [Direction("en", "zh"), Direction("zh", "en")]


# Two-decimal values, as metric files hold them: most of their float sums round.
_EVAL_VALUE = st.integers(0, 10000).map(lambda hundredths: hundredths / 100)


@given(st.lists(st.tuples(st.sampled_from(_EVAL_DIRECTIONS), _EVAL_VALUE, st.sampled_from(["m", "n"])),
                unique_by=lambda row: (row[0], row[2]), max_size=40),
       st.randoms(use_true_random=False))
def test_aggregate_cells_do_not_depend_on_record_order(registry, rows, rng):
    records = [rec(model, d.src, d.tgt, value) for d, value, model in rows]
    shuffled = rng.sample(records, len(records))
    assert aggregate(shuffled, registry).cells == aggregate(records, registry).cells
