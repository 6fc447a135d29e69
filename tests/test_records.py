"""Record types and line-delimited JSON round trips."""
from __future__ import annotations

import dataclasses
import io
import json
import pickle
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import any_text
from mmtkit.diagnostics import ClassStats, RepetitionStats
from mmtkit.directions import Direction, DirectionSet
from mmtkit.downsampling import DownsampleStats, RetentionPolicy
from mmtkit.errors import DuplicateLanguage, DuplicateRecordId, InvalidScore, RecordParseError, UnknownLanguage
from mmtkit.evaluation import EvalRecord, TierTable, read_eval_records
from mmtkit.filtering import FilterReport, LengthBounds, MaxLengthRatio, rules_from_config
from mmtkit.mixture import DirectionMixReport, MixtureReport, MixtureSpec
from mmtkit.prompts import PromptedExample, PromptFormat, read_prompted
from mmtkit.records import (
    DirectionalExample,
    MultiWayRecord,
    Provenance,
    ScoredPair,
    SeenIds,
    _SUFFIX_BITS,
    check_score,
    json_line,
    open_score_sidecar,
    read_examples,
    read_multiway,
    read_score_sidecar,
    _WRITE_BATCH,
    write_jsonl,
    write_score_sidecar,
)
from mmtkit.registry import Language, Registry, Tier, load_registry, parse_json_lines
from mmtkit.synthesis import SynthStats

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30
)


def test_json_line_compact_and_unicode():
    assert json_line({"a": 1, "b": "é"}) == '{"a":1,"b":"é"}'


def test_multiway_roundtrip(registry):
    recs = [
        MultiWayRecord(id="r1", sentences={"en": "hello", "fr": "bonjour"}),
        MultiWayRecord(id="r2", sentences={"en": "x", "zh": "好"}),
    ]
    text = "".join(json_line({"id": r.id, "sentences": r.sentences}) + "\n" for r in recs)
    back = list(read_multiway(io.StringIO(text), registry))
    assert back == recs


def test_multiway_validation(registry):
    line = json_line({"id": "r1", "sentences": {"qq": "text"}})
    with pytest.raises(RecordParseError) as exc:
        list(read_multiway(io.StringIO(line + "\n"), registry))
    assert "qq" in str(exc.value)
    empty = json_line({"id": "r1", "sentences": {"en": ""}})
    with pytest.raises(RecordParseError):
        list(read_multiway(io.StringIO(empty + "\n"), registry))


def test_multiway_duplicate_ids(registry):
    line = json_line({"id": "r1", "sentences": {"en": "a"}})
    stream = io.StringIO(line + "\n" + line + "\n")
    with pytest.raises(DuplicateRecordId):
        list(read_multiway(stream, registry))


def test_examples_roundtrip(mk_example):
    examples = [
        mk_example("a#en2fr", "en", "fr", "hi", "salut"),
        mk_example("b#fr2en", "fr", "en", "salut", "hi", Provenance.SYNTH_PIVOT),
    ]
    buf = io.StringIO()
    assert write_jsonl(examples, buf) == 2
    back = list(read_examples(io.StringIO(buf.getvalue())))
    assert back == examples
    assert back[1].provenance is Provenance.SYNTH_PIVOT


def test_examples_semantic_validation_toggle():
    # validate=False lets an empty text side through, never a bad direction.
    off_center = json_line({"id": "e1", "src_lang": "fr", "tgt_lang": "de", "src": "a", "tgt": "b"}) + "\n"
    empty_src = json_line({"id": "e2", "src_lang": "en", "tgt_lang": "fr", "src": "", "tgt": "b"}) + "\n"
    for validate in (True, False):
        with pytest.raises(RecordParseError):
            list(read_examples(io.StringIO(off_center), validate=validate))
    with pytest.raises(RecordParseError):
        list(read_examples(io.StringIO(empty_src)))
    lax = list(read_examples(io.StringIO(empty_src), validate=False))
    assert [ex.id for ex in lax] == ["e2"]


def test_examples_field_errors_carry_location():
    payload = json_line({"id": "e1", "src_lang": "en", "tgt_lang": "fr", "src": "a"}) + "\n"
    with pytest.raises(RecordParseError) as exc:
        list(read_examples(io.StringIO(payload), path="pairs.djsonl"))
    msg = str(exc.value)
    assert "tgt" in msg and "pairs.djsonl" in msg and "line 1" in msg


def test_examples_unknown_provenance():
    payload = (
        json_line(
            {"id": "e1", "src_lang": "en", "tgt_lang": "fr", "src": "a", "tgt": "b", "provenance": "alien"}
        )
        + "\n"
    )
    with pytest.raises(RecordParseError):
        list(read_examples(io.StringIO(payload)))


def test_blank_lines_skipped(registry):
    line = json_line({"id": "r1", "sentences": {"en": "a"}})
    stream = io.StringIO("\n" + line + "\n\n")
    assert len(list(read_multiway(stream, registry))) == 1


def test_scored_roundtrip_and_bounds(mk_example):
    # A scored line reads back as its pair (read_examples) and its score
    # (read_score_sidecar).
    pair = ScoredPair(example=mk_example(), qe_score=0.75)
    buf = io.StringIO()
    assert write_jsonl([pair], buf) == 1
    assert list(read_examples(io.StringIO(buf.getvalue()))) == [pair.example]
    assert read_score_sidecar(io.StringIO(buf.getvalue())) == {pair.example.id: 0.75}
    bad = json.loads(buf.getvalue())
    bad["qe_score"] = 1.5
    with pytest.raises(InvalidScore):
        read_score_sidecar(io.StringIO(json_line(bad) + "\n"))


def test_check_score():
    assert check_score(0, "x") == 0.0
    assert check_score(1, "x") == 1.0
    with pytest.raises(InvalidScore):
        check_score(-0.1, "x")
    with pytest.raises(InvalidScore):
        check_score(True, "x")
    with pytest.raises(InvalidScore):
        check_score("0.5", "x")


def test_sidecar_roundtrip_and_errors():
    buf = io.StringIO()
    write_score_sidecar([("a", 0.5), ("b", 1.0)], buf)
    scores = read_score_sidecar(io.StringIO(buf.getvalue()))
    assert scores == {"a": 0.5, "b": 1.0}
    dup = json_line({"id": "a", "qe_score": 0.5})
    with pytest.raises(RecordParseError):
        read_score_sidecar(io.StringIO(dup + "\n" + dup + "\n"))


# Every score write_score_sidecar is given has passed check_score: 0, 1 and
# -0.0 among them.
_checked_score = st.one_of(st.floats(0.0, 1.0), st.just(-0.0), st.integers(0, 1)).map(lambda s: check_score(s, "x"))


@given(st.lists(st.tuples(any_text, _checked_score), max_size=5))
def test_sidecar_lines_equal_the_json_encoder(items):
    buf = io.StringIO()
    assert write_score_sidecar(items, buf) == len(items)
    assert buf.getvalue() == "".join(
        json.dumps({"id": pair_id, "qe_score": score}, ensure_ascii=False, separators=(",", ":")) + "\n"
        for pair_id, score in items
    )


# A second sidecar line after '{"id": "a", "qe_score": 0.5}' -> the score
# read for "b", or the error type and message at line 2. The first four are
# taken in one pass, the rest by the checks in turn, whose order picks the
# message of a line with several faults.
_SIDECAR_ROWS = {
    "float": ('{"id": "b", "qe_score": 0.25}', 0.25),
    "negative zero": ('{"id": "b", "qe_score": -0.0}', -0.0),
    "int 0": ('{"id": "b", "qe_score": 0}', 0.0),
    "int 1": ('{"id": "b", "qe_score": 1}', 1.0),
    "true": ('{"id": "b", "qe_score": true}', (InvalidScore, "score for 'b' must be a number, got True")),
    "nan": ('{"id": "b", "qe_score": NaN}', (InvalidScore, "score for 'b' outside [0, 1]: nan")),
    "above one": ('{"id": "b", "qe_score": 1.5}', (InvalidScore, "score for 'b' outside [0, 1]: 1.5")),
    "repeated id": ('{"id": "a", "qe_score": 0.5}', (RecordParseError, "duplicate score entry for id 'a'")),
    "repeated id, int score": ('{"id": "a", "qe_score": 1}', (RecordParseError, "duplicate score entry for id 'a'")),
    "repeated id, bad score": ('{"id": "a", "qe_score": 1.5}', (RecordParseError, "duplicate score entry for id 'a'")),
    "empty id, bad score": ('{"id": "", "qe_score": 1.5}', (RecordParseError, "field 'id' must be a non-empty string")),
    "int id": ('{"id": 7, "qe_score": 0.5}', (RecordParseError, "field 'id' must be a string")),
    "no score": ('{"id": "b"}', (RecordParseError, "missing field 'qe_score'")),
}


@pytest.mark.parametrize("reader", ["map", "in step"])
@pytest.mark.parametrize("row", list(_SIDECAR_ROWS))
def test_sidecar_row_is_read_or_refused_at_its_line(tmp_path, reader, row):
    line, expected = _SIDECAR_ROWS[row]
    path = tmp_path / "s.jsonl"
    path.write_text('{"id": "a", "qe_score": 0.5}\n' + line + "\n", encoding="utf-8")

    def score_of_b():
        if reader == "map":
            with open(path, encoding="utf-8") as f:
                return read_score_sidecar(f, str(path))["b"]
        with open_score_sidecar(str(path)) as scores:
            return scores["b"]

    if isinstance(expected, float):
        score = score_of_b()
        assert type(score) is float and repr(score) == repr(expected)
    else:
        error, message = expected
        with pytest.raises(error) as info:
            score_of_b()
        assert str(info.value) == f"{path}:line 2: {message}"


def test_sidecar_accepts_full_scored_lines(mk_example):
    buf = io.StringIO()
    write_jsonl([ScoredPair(example=mk_example(), qe_score=0.25)], buf)
    scores = read_score_sidecar(io.StringIO(buf.getvalue()))
    assert scores == {"r0#en2fr": 0.25}


@given(
    rec_id=st.text(min_size=1, max_size=12, alphabet=st.characters(blacklist_categories=("Cs",))),
    sentences=st.dictionaries(
        st.sampled_from(["en", "zh", "fr", "de", "ja"]), text_strategy, min_size=1, max_size=4
    ),
)
def test_multiway_roundtrip_property(registry, rec_id, sentences):
    line = json_line({"id": rec_id, "sentences": sentences})
    (back,) = read_multiway(io.StringIO(line + "\n"), registry)
    assert back == MultiWayRecord(id=rec_id, sentences=sentences)


@given(src=text_strategy, tgt=text_strategy, score=st.floats(min_value=0.0, max_value=1.0))
def test_scored_roundtrip_property(src, tgt, score):
    pair = ScoredPair(
        example=DirectionalExample(id="p#en2fr", src_lang="en", tgt_lang="fr", src=src, tgt=tgt),
        qe_score=score,
    )
    buf = io.StringIO()
    write_jsonl([pair], buf)
    (back,) = read_examples(io.StringIO(buf.getvalue()))
    assert back == pair.example
    assert read_score_sidecar(io.StringIO(buf.getvalue())) == {"p#en2fr": score}


def _lang_row(code, **fields):
    return {"code": code, "name": code.upper(), "script": "Latn", "family": "F", "tier": "High", **fields}


def _reader(read):
    def run(path):
        with open(path, encoding="utf-8") as f:
            return list(read(f, path=path))

    return run


def _read_multiway(stream, path):
    return read_multiway(stream, load_registry(), path)


def _read_eval_records(stream, path):
    return read_eval_records(stream, load_registry(), path)


_PAIR = {"id": "e1", "src_lang": "en", "tgt_lang": "fr", "src": "a", "tgt": "b"}
_PROMPTED = {
    "text": "t", "loss_start": 0, "loss_end": 0, "format": "STP",
    "src_lang": "en", "tgt_lang": "fr", "aux_lang": None, "id": "p1",
}
# case -> (reader of a path, lines with the bad one last and "" for a blank line, mistyped field)
NON_STRING_CASES = {
    "read_examples": (_reader(read_examples), ["", {**_PAIR, "src": 5}], "src"),
    "read_multiway": (_reader(_read_multiway), ["", {"id": 7, "sentences": {"en": "a"}}], "id"),
    "read_score_sidecar": (_reader(read_score_sidecar), ["", {"id": 7, "qe_score": 0.5}], "id"),
    "read_eval_records": (
        _reader(_read_eval_records),
        ["", {"model": 5, "src": "en", "tgt": "fr", "metric": "COMET22", "value": 80.0}],
        "model",
    ),
    "read_prompted": (_reader(read_prompted), ["", {**_PROMPTED, "text": 5}], "text"),
    "read_prompted_aux_lang": (
        _reader(read_prompted), ["", {**_PROMPTED, "format": "PMP", "aux_lang": 7}], "aux_lang"
    ),
    "read_prompted_schema": (_reader(read_prompted), ["", {**_PROMPTED, "prompt_schema": [1]}], "prompt_schema"),
    "load_registry": (load_registry, [_lang_row("en"), _lang_row("zh"), _lang_row("fr", name=5)], "name"),
    "load_registry_aux": (lambda p: load_registry(None, p), ["", {"lang": "bg", "aux": 5}], "aux"),
}


@pytest.mark.parametrize("case", sorted(NON_STRING_CASES))
def test_non_string_field_reports_file_and_line(tmp_path, case):
    read, rows, field = NON_STRING_CASES[case]
    path = tmp_path / "in.jsonl"
    path.write_text("".join((json_line(r) if r else "") + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(RecordParseError) as exc:
        read(str(path))
    assert type(exc.value) is RecordParseError
    assert str(exc.value) == f"{path}:line {len(rows)}: field {field!r} must be a string"


# case -> (reader of a path, lines with the bad one last, error type, message)
LOCATED_ERROR_CASES = {
    "read_multiway": (
        _reader(_read_multiway),
        [{"id": "a", "sentences": {"en": "x"}}] * 2,
        DuplicateRecordId,
        "duplicate record id 'a'",
    ),
    "read_examples": (_reader(read_examples), [_PAIR, _PAIR], DuplicateRecordId, "duplicate example id 'e1'"),
    "load_registry": (
        load_registry,
        [_lang_row("en"), _lang_row("zh"), _lang_row("en")],
        DuplicateLanguage,
        "duplicate language code 'en'",
    ),
    "load_registry_aux": (
        lambda p: load_registry(None, p),
        [{"lang": "bg", "aux": "ru"}, {"lang": "uk", "aux": "xx"}],
        UnknownLanguage,
        "unknown language code: 'xx'",
    ),
}


@pytest.mark.parametrize("case", sorted(LOCATED_ERROR_CASES))
def test_duplicate_and_unknown_code_errors_name_file_and_line(tmp_path, case):
    read, rows, error, message = LOCATED_ERROR_CASES[case]
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(error) as exc:
        read(str(path))
    assert type(exc.value) is error
    assert isinstance(exc.value, RecordParseError)
    assert str(exc.value) == f"{path}:line {len(rows)}: {message}"


def _infer_prompt(path):
    from mmtkit.cli import build_parser

    args = build_parser().parse_args(["infer-prompt", "--strategy", "dt", "--in", path, "--out", path + ".out"])
    return args.func(args)


def _read_mono(path):
    from mmtkit.cli import _read_mono

    with open(path, encoding="utf-8") as f:
        return list(_read_mono(f, path, "en"))


_EVAL = {"model": "m", "src": "en", "tgt": "fr", "metric": "COMET22", "value": 80.0}
# input -> (reader of a path, two good lines, bad line 3, error type, message)
EVERY_READER_CASES = {
    "mwjsonl": (
        _reader(_read_multiway),
        [{"id": "a", "sentences": {"en": "x"}}, {"id": "b", "sentences": {"en": "y"}}],
        {"id": "c", "sentences": {"en": ""}},
        RecordParseError,
        "sentence for 'en' must be a non-empty string",
    ),
    "djsonl": (
        _reader(read_examples),
        [_PAIR, {**_PAIR, "id": "e2"}],
        {**_PAIR, "id": "e3", "src_lang": "fr", "tgt_lang": "de"},
        RecordParseError,
        "direction fr->de does not involve a center language",
    ),
    "score-sidecar": (
        _reader(read_score_sidecar),
        [{"id": "a", "qe_score": 0.5}, {"id": "b", "qe_score": 1}],
        {"id": "c", "qe_score": 1.5},
        InvalidScore,
        "score for 'c' outside [0, 1]: 1.5",
    ),
    "registry": (
        load_registry,
        [_lang_row("en"), _lang_row("zh")],
        _lang_row("fr", tier="Huge"),
        RecordParseError,
        "field 'tier' must be one of ['High', 'Medium', 'Low'], got 'Huge'",
    ),
    "auxiliaries": (
        lambda p: load_registry(None, p),
        [{"lang": "bg", "aux": "ru"}, {"lang": "uk", "aux": "ru"}],
        {"lang": "en", "aux": "fr"},
        RecordParseError,
        "center language 'en' cannot have an auxiliary",
    ),
    "eval-records": (
        _reader(_read_eval_records),
        [_EVAL, {**_EVAL, "tgt": "de"}],
        {**_EVAL, "tgt": "bg", "value": 101},
        RecordParseError,
        "COMET22 value outside [0, 100]: 101.0",
    ),
    "synth-mono": (
        _read_mono,
        [{"id": "m1", "text": "a"}, {"id": "m2", "text": "b", "lang": "en"}],
        {"id": "m3", "text": "c", "lang": "fr"},
        RecordParseError,
        "item language 'fr' does not match direction source 'en'",
    ),
    "synth-mono-empty-id": (
        _read_mono,
        [{"id": "m1", "text": "a"}, {"id": "m2", "text": "b"}],
        {"id": "", "text": "c"},
        RecordParseError,
        "item id must be non-empty",
    ),
    "synth-mono-duplicate-id": (
        _read_mono,
        [{"id": "m1", "text": "a"}, {"id": "m2", "text": "b"}],
        {"id": "m1", "text": "c"},
        DuplicateRecordId,
        "duplicate item id 'm1'",
    ),
    "infer-prompt-requests": (
        _infer_prompt,
        [{"id": "q1", "src_lang": "en", "tgt_lang": "fr", "src": "a"}, {"id": "q2", "src_lang": "en", "tgt_lang": "fr", "src": "a"}],
        {"id": "q3", "src_lang": "en", "tgt_lang": "fr"},
        RecordParseError,
        "missing field 'src'",
    ),
    "infer-prompt-empty-id": (
        _infer_prompt,
        [{"id": "q1", "src_lang": "en", "tgt_lang": "fr", "src": "a"}, {"id": "q2", "src_lang": "en", "tgt_lang": "fr", "src": "b"}],
        {"id": "", "src_lang": "en", "tgt_lang": "fr", "src": "c"},
        RecordParseError,
        "request id must be non-empty",
    ),
    "infer-prompt-duplicate-id": (
        _infer_prompt,
        [{"id": "q1", "src_lang": "en", "tgt_lang": "fr", "src": "a"}, {"id": "q2", "src_lang": "en", "tgt_lang": "fr", "src": "b"}],
        {"id": "q1", "src_lang": "en", "tgt_lang": "fr", "src": "c"},
        DuplicateRecordId,
        "duplicate prompt id 'q1#en2fr'",
    ),
    "read_prompted": (
        _reader(read_prompted),
        [_PROMPTED, {**_PROMPTED, "loss_start": 1, "loss_end": 1, "id": "p2"}],
        {**_PROMPTED, "loss_end": 5, "id": "p3"},
        RecordParseError,
        "loss span [0, 5) outside text of 1 bytes",
    ),
    "read_prompted-empty-id": (
        _reader(read_prompted),
        [_PROMPTED, {**_PROMPTED, "id": "p2"}],
        {**_PROMPTED, "id": ""},
        RecordParseError,
        "prompt id must be non-empty",
    ),
    "read_prompted-duplicate-id": (
        _reader(read_prompted),
        [_PROMPTED, {**_PROMPTED, "id": "p2"}],
        {**_PROMPTED, "id": "p1"},
        DuplicateRecordId,
        "duplicate prompt id 'p1'",
    ),
    "read_prompted-unknown-format": (
        _reader(read_prompted),
        [_PROMPTED, {**_PROMPTED, "id": "p2"}],
        {**_PROMPTED, "id": "p3", "format": "CPT_MONO"},
        RecordParseError,
        "'CPT_MONO' is not a valid PromptFormat",
    ),
}


@pytest.mark.parametrize("case", sorted(EVERY_READER_CASES))
def test_every_reader_names_file_and_line(tmp_path, case):
    read, good, bad, error, message = EVERY_READER_CASES[case]
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json_line(r) + "\n" for r in [*good, bad]), encoding="utf-8")
    with pytest.raises(error) as exc:
        read(str(path))
    assert type(exc.value) is error
    assert str(exc.value) == f"{path}:line 3: {message}"


# Ids with no, one or several '#', empty prefixes and suffixes, non-ASCII text
# and lone surrogates, from few characters so that ids and prefixes repeat.
_ID = st.text(alphabet=st.sampled_from("ab#2\u00e9\ud800"), max_size=6)


@given(
    before=st.lists(_ID, max_size=20),
    filler=st.sampled_from([0, 5, _SUFFIX_BITS - 3, _SUFFIX_BITS, _SUFFIX_BITS + 5]),
    after=st.lists(_ID, max_size=20),
)
def test_seen_ids_add_answers_as_a_set(before, filler, after):
    # The filler's distinct suffixes can take every suffix bit, so that a new
    # suffix after them goes to the plain set; every drawn id then comes back
    # once more, its prefix out of order.
    run = before + [f"f{k % 3}#s{k}" for k in range(filler)] + after + before + after
    store, plain = SeenIds(), set()
    for item_id in run:
        new = item_id not in plain
        plain.add(item_id)
        assert store.add(item_id) is new, item_id


def test_read_examples_holds_ids_per_record_not_per_example(registry, dirset):
    # 12 languages give 42 directions, so each record's examples share one
    # id prefix. A set of the full ids held 107-139 bytes per line.
    from mmtkit.directions import expand

    codes = ("en", "zh", "fr", "de", "bg", "ar", "ru", "ja", "ko", "es", "it", "pt")
    buf = io.StringIO()
    for i in range(1000):
        record = MultiWayRecord(f"r{i:05d}", {code: f"{code} {i}" for code in codes})
        write_jsonl(expand(record, dirset), buf)
    stream = io.StringIO(buf.getvalue())
    del buf
    tracemalloc.start()
    try:
        n = sum(1 for _ in read_examples(stream))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 42_000
    assert peak < 16 * n


def test_unhashable_provenance_is_a_parse_error():
    row = {"id": "e1", "src_lang": "en", "tgt_lang": "fr", "src": "a", "tgt": "b", "provenance": [1]}
    with pytest.raises(RecordParseError) as exc:
        list(read_examples(io.StringIO(json_line(row) + "\n"), path="p.djsonl"))
    assert str(exc.value).startswith("p.djsonl:line 1: ")

examples = st.builds(
    DirectionalExample, any_text, any_text, any_text, any_text, any_text, st.sampled_from(Provenance)
)


@given(ex=examples)
def test_example_to_line_equals_json_line(ex):
    assert ex.to_line() == json_line(ex.to_json())


@given(ex=examples, score=st.one_of(st.floats(), st.integers(), st.booleans()))
def test_scored_to_line_equals_json_line(ex, score):
    pair = ScoredPair(example=ex, qe_score=score)
    assert pair.to_line() == json_line(pair.to_json())


def test_write_jsonl_leaves_lone_surrogates_to_the_stream(mk_example):
    buf = io.StringIO()
    write_jsonl([mk_example(src="hi \ud800 there")], buf)
    assert buf.getvalue() == json_line(mk_example(src="hi \ud800 there").to_json()) + "\n"
    with pytest.raises(UnicodeEncodeError):
        buf.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"a":1} x', "invalid JSON (Extra data)"),
        ('{"a":1}{"b":2}', "invalid JSON (Extra data)"),
        ('\ufeff{"a":1}', "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        ("{", "invalid JSON (Expecting property name enclosed in double quotes)"),
        ('{"a": "x', "invalid JSON (Unterminated string starting at)"),
        ("[1]", "expected a JSON object"),
        ('"x"', "expected a JSON object"),
        ("NaN", "expected a JSON object"),
    ],
)
def test_parse_json_lines_error_messages(line, message):
    with pytest.raises(RecordParseError) as exc:
        list(parse_json_lines(["\n", line + "\n"], "f.jsonl"))
    assert str(exc.value) == f"f.jsonl:line 2: {message}"


def test_invalid_utf8_in_a_stream_without_a_file_names_only_the_path():
    stream = io.TextIOWrapper(io.BytesIO(b'{"a": 1}\n\xff\n'), encoding="utf-8")
    with pytest.raises(RecordParseError) as exc:
        list(parse_json_lines(stream, "not-a-file"))
    assert str(exc.value) == "not-a-file: invalid UTF-8"


@pytest.mark.parametrize("pad", [" ", "\t \r", "\x1c", "\t \u2028", "\u00a0", "\u3000"])
def test_parse_json_lines_accepts_what_json_loads_accepts(pad):
    # Only JSON's own whitespace pads a line; str.strip() would also take the rest.
    line = f'{pad}{{"a": [1, {{"b": null}}], "c": "\\u00e9"}}{pad}'
    try:
        expected = json.loads(line)
    except json.JSONDecodeError as e:
        with pytest.raises(RecordParseError) as exc:
            list(parse_json_lines([line + "\n"], "f.jsonl"))
        assert str(exc.value) == f"f.jsonl:line 1: invalid JSON ({e.msg})"
    else:
        assert list(parse_json_lines([line + "\n"])) == [expected]


def _utf8_encodable(value):
    """Whether every string in a decoded JSON value, keys included, has a UTF-8 form."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True
    if isinstance(value, dict):
        return all(_utf8_encodable(k) and _utf8_encodable(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_utf8_encodable(v) for v in value)
    return True


def _reference_parse_json_lines(stream, path=None):
    """parse_json_lines as it read every line before a line starting with "{"
    was decoded in place: strip JSON whitespace, raw_decode, and json.loads
    for the error message of a line that is not one value. An object is
    refused if, decoded again with the line's raw surrogate characters
    replaced by U+FFFD (a file read as UTF-8 holds none), a string of it
    still has no UTF-8 form: a \\u escape gave it a lone surrogate."""
    raw_decode = json.JSONDecoder().raw_decode
    try:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip(" \t\n\r")
            if not line:
                continue
            try:
                obj, end = raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise RecordParseError(f"invalid JSON ({e.msg})") from None
            if not isinstance(obj, dict):
                raise RecordParseError("expected a JSON object")
            if not _utf8_encodable(json.loads(re.sub("[\ud800-\udfff]", "\ufffd", line))):
                raise RecordParseError("text with no UTF-8 form (a lone surrogate escape)")
            yield obj
    except RecordParseError as e:
        if e.line_no is None:
            e.line_no, e.path = line_no, path
        raise


def _parsed(parse, lines):
    """repr of the objects parse yields before it stops, and what it raises."""
    got = []
    try:
        for obj in parse(lines, "f.jsonl"):
            got.append(obj)
    except RecordParseError as e:
        return repr(got), (type(e), str(e), e.line_no, e.path)
    return repr(got), None


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(any_text, inner, max_size=3),
    max_leaves=6,
)
_line_values = st.one_of(
    st.builds(json.dumps, st.dictionaries(any_text, _json_values, max_size=3), ensure_ascii=st.booleans(),
              indent=st.sampled_from([None, 0])),
    st.builds(json.dumps, _json_values),
    st.sampled_from(['{', '{"a":', '{"a": "x', '{"a" 1}', '{"a": 1,}', '{"a": [1}', "{}", "[]", "[1]", '"x"', "1",
                     "null", "NaN", "x", "", '{"a": 1}{"b": 2}', '{"a": 1} {"b": 2}', '{"a": 1}}']),
)
# JSON whitespace, and padding that json.loads refuses (U+00A0, U+3000, U+001C).
_pads = st.text(alphabet=" \t\r\u00a0\u3000\x1c", max_size=3)
_maybe_pads = st.just("") | _pads
_lines = st.builds(
    lambda left, value, after, right, end: left + value + after + right + end,
    _maybe_pads, _line_values, st.sampled_from(["", "", "", "x", "}", ",", '{"b": 2}', " 1"]), _maybe_pads,
    st.sampled_from(["\n", "\r\n", "\n\n", ""]),
)


@settings(max_examples=300)
@given(lines=st.lists(_lines | _pads.map(lambda pad: pad + "\n"), max_size=6))
# A value cut off after a key, which the scanner refuses with StopIteration,
# not JSONDecodeError; an object padded with U+00A0; CRLF and no line end.
@example(lines=['{"a": 1}\r\n', '{"a":\n'])
@example(lines=['{"a": 1}\u00a0\n'])
@example(lines=['{"a": 1} \t\r\n', "\r\n", '{"b": [2]}'])
# A surrogate pair, Hangul and an escaped backslash pass, and so does a raw
# surrogate; a lone surrogate escape, in a value or a key, does not, nor do a
# high and a low one split by an escaped backslash, nor a high one before a raw
# low surrogate, which json does not join to it.
@example(lines=['{"a": "\\ud83d\\ude00 \\ud55c \\\\ud800"}\n', '{"a": ["\\ud800"]}\n'])
@example(lines=['{"\\uDFFF": 1}\n'])
@example(lines=['{"a": "\\\\\\ud83d\\ude00"}\n', '{"a": "\\ud83d\\\\\\ude00"}\n'])
@example(lines=['{"a": "\ud800 \\\\udc00"}\n', '{"a": "\\ud83d\ude00"}\n'])
def test_parse_json_lines_reads_as_the_reference(lines):
    # The last line may lack its line end; blank lines hold padding only.
    assert _parsed(parse_json_lines, lines) == _parsed(_reference_parse_json_lines, lines)


_MULTIWAY_LINE = json_line({"id": "r1", "sentences": {"en": "a", "fr": "b"}})
_EXAMPLE_LINE = json_line({"id": "e1", "src_lang": "en", "tgt_lang": "fr", "src": "a", "tgt": "b"})
_SCORE_LINE = json_line({"id": "e1", "qe_score": 0.5})


@pytest.mark.parametrize(
    "read, line",
    [
        (lambda stream: list(read_multiway(stream, load_registry(), "in.jsonl")), _MULTIWAY_LINE),
        (lambda stream: list(read_examples(stream, "in.jsonl")), _EXAMPLE_LINE),
        (lambda stream: read_score_sidecar(stream, "in.jsonl"), _SCORE_LINE),
    ],
    ids=["read_multiway", "read_examples", "read_score_sidecar"],
)
@pytest.mark.parametrize(
    "bad, problem",
    [(lambda line: line + "\u00a0", "Extra data"), (lambda line: "\u3000", "Expecting value")],
    ids=["trailing-nbsp", "ideographic-space-only"],
)
def test_readers_refuse_lines_padded_with_non_json_whitespace(read, line, bad, problem):
    # A line of U+3000 alone is not blank: json.loads refuses it.
    with pytest.raises(RecordParseError) as exc:
        read(io.StringIO(line + "\n\n" + bad(line) + "\n"))
    assert str(exc.value) == f"in.jsonl:line 3: invalid JSON ({problem})"


def test_records_are_slots_and_value_types_stay_frozen(registry):
    """The four record types, as their readers and renderers return them, have
    no __dict__; the hashed or shared value types stay frozen, and have none either."""
    from mmtkit.filtering import attach_scores
    from mmtkit.prompts import render_stp

    row = {"id": "e1", "src_lang": "en", "tgt_lang": "fr", "src": "hello", "tgt": "bonjour"}
    (ex,) = read_examples(io.StringIO(json_line(row) + "\n"))
    rec_line = json_line({"id": "r1", "sentences": {"en": "hello", "fr": "bonjour"}})
    (rec,) = read_multiway(io.StringIO(rec_line + "\n"), registry)
    (pair,) = attach_scores([ex], {"e1": 0.5})
    prompt = render_stp(ex, registry)
    for record in (ex, rec, pair, prompt):
        assert not hasattr(record, "__dict__"), type(record).__name__

    for value, name in ((Direction("en", "fr"), "src"), (RetentionPolicy(0.05), "p_reverse"), (MixtureSpec(), "seed")):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, type(before)())
        assert getattr(value, name) == before
        assert not hasattr(value, "__dict__"), type(value).__name__
    assert hash(Direction("en", "fr")) == hash(Direction("en", "fr"))


_EX_E1 = DirectionalExample("e1", "en", "fr", "hello", "bonjour")
_LANG_EN = Language("en", "English", "Latin", "Indo-European", Tier.HIGH)

# (build, kind) for every record, value and report class: build() makes a new
# instance with the same fields each call.
_VALUES = [
    (lambda: MultiWayRecord("r1", {"en": "hello", "fr": "bonjour"}), "record"),
    (lambda: DirectionalExample("e1", "en", "fr", "hello", "bonjour", Provenance.SYNTH_PIVOT), "record"),
    (lambda: ScoredPair(_EX_E1, 0.5), "record"),
    (lambda: PromptedExample("ab", 1, 2, PromptFormat.STP, "en", "fr", None, "e1"), "record"),
    (lambda: Language("en", "English", "Latin", "Indo-European", Tier.HIGH), "frozen"),
    (lambda: Registry({"en": _LANG_EN}, {"sw": "fr"}), "frozen"),
    (lambda: Direction("zh", "fr"), "frozen"),
    (lambda: DirectionSet((Direction("en", "fr"), Direction("fr", "en")), 1, 2), "frozen"),
    (lambda: RetentionPolicy(0.25, 7), "frozen"),
    (lambda: MixtureSpec(per_direction_min=4, per_direction_max=9, seed=3), "frozen"),
    (lambda: EvalRecord("m", Direction("en", "fr"), "COMET22", 80.5), "frozen"),
    (lambda: DownsampleStats(), "report"),
    (lambda: ClassStats(2, 5, 3), "report"),
    (lambda: RepetitionStats({("en", "00"): 2}, {2: 1}, 2, {}), "report"),
    (lambda: MaxLengthRatio(2.5), "report"),
    (lambda: LengthBounds(2, 9), "report"),
    (lambda: FilterReport(3, 2, {"NonEmpty": 1}), "report"),
    (lambda: DirectionMixReport(5, 4, 3, 2, 1), "report"),
    (lambda: MixtureReport({"en->fr": DirectionMixReport(1)}, ["w"]), "report"),
    (lambda: SynthStats(10, 1), "report"),
    (lambda: TierTable("COMET22", ["m"], {}, 1), "report"),
]


@pytest.mark.parametrize("build, kind", _VALUES, ids=[build().__class__.__name__ for build, _ in _VALUES])
def test_value_classes_keep_dataclass_semantics(build, kind):
    """Every record, value and report class compares, hashes, refuses changes,
    prints and pickles as the dataclass it replaces, and has no __dict__."""
    a, b = build(), build()
    fields = tuple(getattr(a, f) for f in a.__match_args__)
    assert a == b and not a != b and a is not b
    # The reference: a dataclass of the same name and fields.
    ref = dataclasses.make_dataclass(type(a).__name__, a.__match_args__, frozen=kind == "frozen")(*fields)
    assert a != ref and a != fields and a != object()
    assert repr(a) == repr(ref)
    assert not hasattr(a, "__dict__")
    assert pickle.loads(pickle.dumps(a)) == a
    if kind != "frozen":
        with pytest.raises(TypeError):
            hash(a)
        return
    try:
        expected = hash(fields)
    except TypeError:  # a Registry holds dicts
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == expected
    field = a.__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    assert a == b


def test_direction_sorts_by_its_sides():
    pairs = [("zh", "fr"), ("en", "zh"), ("fr", "en"), ("en", "de"), ("de", "zh")]
    assert [(d.src, d.tgt) for d in sorted(Direction(*p) for p in pairs)] == sorted(pairs)
    assert Direction("en", "de") < Direction("en", "fr") <= Direction("en", "fr") and Direction("zh", "fr") > Direction("fr", "en")


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
def test_write_jsonl_batches_write_the_lines_of_a_per_line_write(mk_example, n):
    assert _WRITE_BATCH == 64
    items = [mk_example(f"e{i}", src=f"s\u00e9 {i}", tgt="\u4e00" * (i % 5 + 1)) for i in range(n)]
    stream = _CountingStream()
    assert write_jsonl(iter(items), stream) == n
    assert stream.getvalue() == "".join(json_line(ex.to_json()) + "\n" for ex in items)
    # Whole lines per write, at most a batch of them.
    assert all(w.endswith("\n") and 1 <= w.count("\n") <= _WRITE_BATCH for w in stream.writes)
    assert len(stream.writes) == -(-n // _WRITE_BATCH)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RetentionPolicy(1.5), ValueError, "p_reverse must be in [0, 1], got 1.5"),
        (lambda: MixtureSpec(per_direction_min=-1), ValueError,
         "need 0 <= per_direction_min <= per_direction_max, got -1..20000"),
        (lambda: MaxLengthRatio(ratio=0), ValueError, "ratio must be a positive number, got 0"),
        (lambda: LengthBounds(0, 5), ValueError, "need 0 < min_len <= max_len, got 0..5"),
        (lambda: Direction("en", "en"), ValueError, "direction with identical sides: 'en'"),
        (lambda: EvalRecord("m", Direction("en", "fr"), "BLEU", 1.0), ValueError,
         "unknown metric 'BLEU'; expected one of ('COMET22', 'SacreBLEU')"),
        (lambda: rules_from_config([{"kind": "MaxLengthRatio", "max_len": 2}]), RecordParseError,
         "rule 0 (MaxLengthRatio): MaxLengthRatio.__init__() got an unexpected keyword argument 'max_len'"),
    ],
    ids=["RetentionPolicy", "MixtureSpec", "MaxLengthRatio", "LengthBounds", "Direction", "EvalRecord", "rule-param"],
)
def test_value_classes_refuse_bad_fields_as_before(build, error, message):
    """Each check a class makes of its fields raises the type and message it
    raised as a dataclass; an unknown rule parameter is named by the rule's own
    __init__."""
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
