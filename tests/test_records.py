"""Record types and line-delimited JSON round trips."""
from __future__ import annotations

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import any_text
from mmtkit.errors import DuplicateLanguage, DuplicateRecordId, InvalidScore, RecordParseError, UnknownLanguage
from mmtkit.evaluation import read_eval_records
from mmtkit.prompts import read_prompted
from mmtkit.records import (
    DirectionalExample,
    MultiWayRecord,
    Provenance,
    ScoredPair,
    check_score,
    json_line,
    read_examples,
    read_multiway,
    read_score_sidecar,
    write_jsonl,
    write_score_sidecar,
)
from mmtkit.registry import load_registry, parse_json_lines

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
    # without a registry the language check is skipped
    assert len(list(read_multiway(io.StringIO(line + "\n")))) == 1
    empty = json_line({"id": "r1", "sentences": {"en": ""}})
    with pytest.raises(RecordParseError):
        list(read_multiway(io.StringIO(empty + "\n")))


def test_multiway_duplicate_ids():
    line = json_line({"id": "r1", "sentences": {"en": "a"}})
    stream = io.StringIO(line + "\n" + line + "\n")
    with pytest.raises(DuplicateRecordId):
        list(read_multiway(stream))


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


def test_blank_lines_skipped():
    line = json_line({"id": "r1", "sentences": {"en": "a"}})
    stream = io.StringIO("\n" + line + "\n\n")
    assert len(list(read_multiway(stream))) == 1


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
def test_multiway_roundtrip_property(rec_id, sentences):
    line = json_line({"id": rec_id, "sentences": sentences})
    (back,) = read_multiway(io.StringIO(line + "\n"))
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
    "read_multiway": (_reader(read_multiway), ["", {"id": 7, "sentences": {"en": "a"}}], "id"),
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
        _reader(read_multiway),
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
        _reader(read_multiway),
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
    "infer-prompt-requests": (
        _infer_prompt,
        [{"id": "q1", "src_lang": "en", "tgt_lang": "fr", "src": "a"}] * 2,
        {"id": "q3", "src_lang": "en", "tgt_lang": "fr"},
        RecordParseError,
        "missing field 'src'",
    ),
    "read_prompted": (
        _reader(read_prompted),
        [_PROMPTED, {**_PROMPTED, "loss_start": 1, "loss_end": 1}],
        {**_PROMPTED, "loss_end": 5},
        RecordParseError,
        "loss span [0, 5) outside text of 1 bytes",
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


@pytest.mark.parametrize("pad", [" ", "\x1c", "\t \u2028"])
def test_parse_json_lines_strips_like_str_strip(pad):
    line = f'{pad}{{"a": [1, {{"b": null}}], "c": "\\u00e9"}}{pad}'
    assert list(parse_json_lines([line + "\n"])) == [json.loads(line.strip())]


def test_records_are_slots_and_value_types_stay_frozen(registry):
    """The four record types, as their readers and renderers return them, have
    no __dict__; the hashed or shared value types stay frozen."""
    import dataclasses

    from mmtkit.directions import Direction
    from mmtkit.downsampling import RetentionPolicy
    from mmtkit.filtering import attach_scores
    from mmtkit.mixture import MixtureSpec
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
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    assert hash(Direction("en", "fr")) == hash(Direction("en", "fr"))
