"""Prompt templates, byte-exact loss spans, and the prompted-example reader."""
from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import any_text
from mmtkit.errors import EmptySource, NoAuxiliaryDefined, RecordParseError
from mmtkit.prompts import (
    PROMPT_SCHEMA,
    PromptFormat,
    PromptedExample,
    build_inference_prompt,
    read_prompted,
    render_pmp,
    render_stp,
    render_translation,
    write_prompted,
)
from mmtkit.records import json_line

plain_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=40
)


def span_bytes(pe: PromptedExample) -> bytes:
    return pe.text.encode("utf-8")[pe.loss_start : pe.loss_end]


def test_stp_golden(registry, mk_example):
    ex = mk_example("g1#en2fr", "en", "fr", "Hello.", "Bonjour.")
    pe = render_stp(ex, registry)
    assert pe.text == (
        "Translate the following text from English to French.\n"
        "English: Hello.\n"
        "French: Bonjour."
    )
    assert pe.format is PromptFormat.STP
    assert pe.aux_lang is None
    assert span_bytes(pe).decode() == "Bonjour."
    assert pe.prompt_schema == PROMPT_SCHEMA


def test_pmp_golden(registry, mk_example):
    ex = mk_example("g2#en2bg", "en", "bg", "water", "voda")
    pe = render_pmp(ex, "voda-ru", "ru", registry)
    assert pe.text == (
        "Translate the following text from English to Bulgarian.\n"
        "English: water\n"
        "Russian: voda-ru\n"
        "Bulgarian: voda"
    )
    assert pe.format is PromptFormat.PMP
    assert pe.aux_lang == "ru"
    assert span_bytes(pe).decode() == "voda"


def test_pmp_zh_centric_uses_english_aux(registry, mk_example):
    ex = mk_example("g3#zh2sw", "zh", "sw", "水", "maji")
    pe = render_pmp(ex, "water", "en", registry)
    assert "English: water\n" in pe.text
    assert pe.text.endswith("Swahili: maji")


def test_pmp_errors(registry, mk_example):
    no_aux = mk_example("g4#en2fr", "en", "fr", "a", "b")
    with pytest.raises(NoAuxiliaryDefined):
        render_pmp(no_aux, "x", "de", registry)
    center = mk_example("g5#en2zh", "en", "zh", "a", "b")
    with pytest.raises(NoAuxiliaryDefined):
        render_pmp(center, "x", "fr", registry)
    ex = mk_example("g6#en2bg", "en", "bg", "a", "b")
    with pytest.raises(ValueError):
        render_pmp(ex, "x", "de", registry)  # wrong auxiliary language
    with pytest.raises(ValueError):
        render_pmp(ex, "", "ru", registry)  # empty auxiliary text


def test_stp_empty_source(registry, mk_example):
    ex = mk_example("g7#en2fr", "en", "fr", "", "b")
    with pytest.raises(EmptySource):
        render_stp(ex, registry)


def test_multibyte_spans(registry, mk_example):
    ex = mk_example("g8#en2zh?", "zh", "fr", "你好🙂", "café")
    pe = render_stp(ex, registry)
    assert span_bytes(pe) == "café".encode("utf-8")


def test_inference_prompts_are_training_prefixes(registry, mk_example):
    ex = mk_example("q1#en2fr", "en", "fr", "Good day", "Bonjour")
    training = render_stp(ex, registry)
    (prompt,) = build_inference_prompt("dt", "en", "fr", "Good day", registry, item_id="q1")
    assert training.text == prompt.text + "Bonjour"
    assert prompt.loss_start == prompt.loss_end == len(prompt.text.encode("utf-8"))
    assert span_bytes(prompt).decode() == ""

    ex2 = mk_example("q2#en2bg", "en", "bg", "water", "voda")
    training2 = render_pmp(ex2, "voda-ru", "ru", registry)
    (prompt2,) = build_inference_prompt("pmp-o", "en", "bg", "water", registry, aux_text="voda-ru", item_id="q2")
    assert training2.text == prompt2.text + "voda"
    assert prompt2.loss_start == prompt2.loss_end == len(prompt2.text.encode("utf-8"))


def test_pmp_prompt_errors(registry):
    with pytest.raises(NoAuxiliaryDefined):
        build_inference_prompt("pmp-o", "en", "fr", "x", registry, aux_text="y")


def test_read_prompted_refuses_bad_span_or_aux_at_its_line(registry, mk_example):
    """read_prompted is a PromptedExample's one check: a span outside the
    text's bytes, or an aux_lang on any format but PMP (or none on PMP), is
    refused at path:line."""
    good = json_line(render_stp(mk_example("m1#en2fr", "en", "fr", "a", "b"), registry).to_json())
    base = {"text": "ab", "format": "STP", "src_lang": "en", "tgt_lang": "fr", "aux_lang": None, "id": "x"}
    cases = [
        ({"loss_start": 1, "loss_end": 5}, "loss span [1, 5) outside text of 2 bytes"),
        ({"loss_start": 2, "loss_end": 1}, "loss span [2, 1) outside text of 2 bytes"),
        ({"loss_start": 0, "loss_end": 1, "aux_lang": "ru"}, "aux_lang must be set exactly for PMP prompts"),
        ({"loss_start": 0, "loss_end": 1, "format": "PMP"}, "aux_lang must be set exactly for PMP prompts"),
    ]
    for fields, message in cases:
        bad = json_line({**base, **fields})
        with pytest.raises(RecordParseError) as exc:
            list(read_prompted(io.StringIO(f"{good}\n{bad}\n"), path="p.pjsonl"))
        assert str(exc.value) == f"p.pjsonl:line 2: {message}"
    # A text with a lone surrogate has no UTF-8 bytes to measure the span in.
    bad = json_line({**base, "text": "\ud800", "loss_start": 0, "loss_end": 0})
    with pytest.raises(RecordParseError, match="^p.pjsonl:line 1: 'utf-8' codec can't encode"):
        list(read_prompted(io.StringIO(bad + "\n"), path="p.pjsonl"))


def test_prompted_io_roundtrip(registry, mk_example):
    pes = [
        render_stp(mk_example("io1#en2fr", "en", "fr", "a", "b"), registry),
        render_pmp(mk_example("io2#en2bg", "en", "bg", "water", "voda"), "voda-ru", "ru", registry),
    ]
    buf = io.StringIO()
    assert write_prompted(pes, buf) == 2
    back = list(read_prompted(io.StringIO(buf.getvalue())))
    assert back == pes
    obj_keys = list(pes[0].to_json())
    assert obj_keys == [
        "text", "loss_start", "loss_end", "format", "src_lang",
        "tgt_lang", "aux_lang", "id", "prompt_schema",
    ]


@given(src=plain_text, tgt=plain_text)
def test_stp_span_property(registry, src, tgt):
    from mmtkit.records import DirectionalExample

    ex = DirectionalExample(id="p#en2ja", src_lang="en", tgt_lang="ja", src=src, tgt=tgt)
    pe = render_stp(ex, registry)
    assert span_bytes(pe) == tgt.encode("utf-8")


@given(src=plain_text, aux=plain_text, tgt=plain_text)
def test_pmp_span_property(registry, src, aux, tgt):
    from mmtkit.records import DirectionalExample

    ex = DirectionalExample(id="p#en2bg", src_lang="en", tgt_lang="bg", src=src, tgt=tgt)
    pe = render_pmp(ex, aux, "ru", registry)
    assert span_bytes(pe) == tgt.encode("utf-8")


def _has_utf8_form(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@st.composite
def prompted_examples(draw):
    # The loss span counts UTF-8 bytes, so only the text must have a UTF-8
    # form; every other field may hold lone surrogates.
    text = draw(any_text.filter(_has_utf8_form))
    n = len(text.encode("utf-8"))
    start = draw(st.integers(0, n))
    end = draw(st.integers(start, n))
    fmt = draw(st.sampled_from(PromptFormat))
    aux_lang = draw(any_text) if fmt is PromptFormat.PMP else None
    return PromptedExample(
        text, start, end, fmt, draw(any_text), draw(any_text), aux_lang, draw(any_text), draw(any_text)
    )


@given(pe=prompted_examples())
def test_prompted_to_line_equals_json_line(pe):
    assert pe.to_line() == json_line(pe.to_json())


def test_read_prompted_refuses_boolean_span():
    line = json_line({
        "text": "ab", "loss_start": False, "loss_end": True, "format": "stp",
        "src_lang": "en", "tgt_lang": "fr", "id": "x",
    })
    with pytest.raises(RecordParseError, match="line 1: field 'loss_start' must be an integer"):
        list(read_prompted(io.StringIO(line + "\n")))


def _reference_render(fmt, prompt_id, src_lang, tgt_lang, src, tgt, registry, aux_lang=None, aux_text=None):
    """render_translation as the prompt was spelled out for every call before
    the registry memoized each direction's template pieces."""
    names = registry.languages
    src_name, tgt_name = names[src_lang].name, names[tgt_lang].name
    prefix = f"Translate the following text from {src_name} to {tgt_name}.\n{src_name}: {src}\n"
    if fmt is PromptFormat.PMP:
        prefix += f"{names[aux_lang].name}: {aux_text}\n"
    prefix += f"{tgt_name}: "
    text = prefix + tgt
    return PromptedExample(
        text, len(prefix.encode("utf-8")), len(text.encode("utf-8")), fmt, src_lang, tgt_lang, aux_lang, prompt_id
    )


# Sentences with a UTF-8 form, drawn often with what a template could trip
# on: non-BMP characters, combining marks, quotes, backslashes, controls.
_TRICKY = '"\\\x00\x07\x1f\x7f\u0301\u0308\u200d\u2028\U0001f600\U00010348'
prompt_text = st.text(
    alphabet=st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from(_TRICKY)), max_size=12
)


def _renders_as_the_reference(registry, src, aux, tgt):
    from mmtkit.directions import enumerate_directions

    for d in enumerate_directions(registry).directions:
        prompt_id = f"p{d.id_tag}"
        calls = [(PromptFormat.STP, prompt_id, d.src, d.tgt, src, tgt, registry)]
        aux_lang = registry.auxiliary_for(d.src, d.tgt)
        if aux_lang is not None:
            calls.append((PromptFormat.PMP, prompt_id, d.src, d.tgt, src, tgt, registry, aux_lang, aux))
        for args in calls:
            assert render_translation(*args) == _reference_render(*args)


@settings(max_examples=40)
@given(src=prompt_text.filter(bool), aux=prompt_text.filter(bool), tgt=prompt_text)
def test_render_translation_equals_the_reference_for_every_builtin_direction(registry, src, aux, tgt):
    _renders_as_the_reference(registry, src, aux, tgt)


def _quoted_registry():
    """Three languages whose names hold non-ASCII characters, quotes and a
    backslash; xx has the auxiliary yy."""
    from mmtkit.registry import Language, Registry, Tier

    names = {"en": 'Eng"lish', "zh": "中文 \\ zh", "xx": "Ελληνικά «x»", "yy": "Fran'çais \U0001f600"}
    return Registry({code: Language(code, name, "Latn", "f", Tier.LOW) for code, name in names.items()}, {"xx": "yy"})


@settings(max_examples=20)
@given(src=prompt_text.filter(bool), aux=prompt_text.filter(bool), tgt=prompt_text)
def test_render_translation_equals_the_reference_with_quoted_language_names(src, aux, tgt):
    _renders_as_the_reference(_quoted_registry(), src, aux, tgt)


def test_template_memo_is_no_field_of_the_registry():
    import copy
    import pickle

    from mmtkit.directions import enumerate_directions
    from mmtkit.registry import load_registry

    used, fresh = load_registry(), load_registry()
    directions = enumerate_directions(used).directions
    for _ in range(2):
        for d in directions:
            render_translation(PromptFormat.STP, "p", d.src, d.tgt, "a", "b", used)
            aux_lang = used.auxiliary_for(d.src, d.tgt)
            if aux_lang is not None:
                render_translation(PromptFormat.PMP, "p", d.src, d.tgt, "a", "b", used, aux_lang, "c")
    # One entry per direction's STP template and one per PMP template.
    with_aux = sum(used.auxiliary_for(d.src, d.tgt) is not None for d in directions)
    assert len(used._templates) == len(directions) + with_aux
    assert not fresh._templates
    assert used == fresh
    assert repr(used) == repr(fresh)
    for twin in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
        assert twin == fresh
        assert twin._templates == {}  # rebuilt through __init__
    with pytest.raises(AttributeError):
        used._templates = {}


# A lone surrogate has no UTF-8 form. No file reader lets one through, so a
# renderer meets one only from a library caller: the error names the sentence
# it is in, encoded alone, on the template memo's first use and later ones.
@pytest.mark.parametrize(
    "render, sentence",
    [
        (lambda r, D: render_stp(D("x#en2fr", "en", "fr", "a\ud800b", "c"), r), "a\ud800b"),
        (lambda r, D: render_stp(D("x#en2fr", "en", "fr", "ab", "c\ud800"), r), "c\ud800"),
        (lambda r, D: render_pmp(D("x#en2bg", "en", "bg", "a", "b"), "c\ud800", "ru", r), "c\ud800"),
    ],
    ids=["stp-src", "stp-tgt", "pmp-aux"],
)
def test_lone_surrogate_error_names_its_sentence(registry, render, sentence):
    from mmtkit.records import DirectionalExample

    for _ in range(2):
        with pytest.raises(UnicodeEncodeError) as exc:
            render(registry, DirectionalExample)
        assert exc.value.object == sentence
        assert exc.value.reason == "surrogates not allowed"


@pytest.mark.parametrize("where", ["src", "aux", "tgt", "xx", "yy", "en"])
def test_text_with_no_utf8_form_raises_the_reference_error(where):
    # A lone surrogate in a sentence, or in the name of the source (xx),
    # auxiliary (yy) or target (en) language of an xx->en PMP prompt.
    from mmtkit.registry import Language, Registry, Tier

    names = {"en": "English", "zh": "Chinese", "xx": "Xish", "yy": "Yish"}
    texts = {"src": "source", "aux": "auxiliary", "tgt": "target"}
    if where in names:
        names[where] = names[where][:2] + "\ud800" + names[where][2:]
    else:
        texts[where] = texts[where][:2] + "\ud800" + texts[where][2:]
    registry = Registry({code: Language(code, name, "Latn", "f", Tier.LOW) for code, name in names.items()}, {"xx": "yy"})
    args = (PromptFormat.PMP, "p#xx2en", "xx", "en", texts["src"], texts["tgt"], registry, "yy", texts["aux"])
    with pytest.raises(UnicodeEncodeError) as expected:
        _reference_render(*args)
    for _ in range(2):  # the memo's first and later uses
        with pytest.raises(UnicodeEncodeError) as exc:
            render_translation(*args)
        assert exc.value.reason == expected.value.reason
