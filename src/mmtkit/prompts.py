"""Prompt rendering with exact loss spans.

Two training formats: STP (source-only translation prompt) and PMP (adds one
auxiliary parallel sentence). Loss offsets are byte offsets into the UTF-8
encoding of the text; for every training render,
text_bytes[loss_start:loss_end] is exactly the target.
Inference prompts are the STP or PMP training prefix with an empty loss span
at end of text, built by one of four strategies: DT (direct), PT (two-step
pivot through en), PMP-O (gold auxiliary), PMP-S (auxiliary produced by the
backend).

STP and PMP text comes from one formatter, render_translation, which checks
nothing; render_stp and render_pmp check their example, build_inference_prompt
its request, and mix renders records read_multiway checked. Their texts have
a UTF-8 form: registry.parse_json_lines, behind every file reader, refuses a
lone surrogate escape. Each direction's fixed template pieces are made once
and kept in a memo on the registry (Registry._templates), which the
registry's languages bound. read_prompted alone checks a PromptedExample
(span inside the text's UTF-8 bytes, aux_lang set exactly for PMP, an id
non-empty and unique in its file), which every renderer here meets by
construction.
"""
from __future__ import annotations

from enum import Enum
from json.encoder import encode_basestring  # the escaper json_line uses
from typing import Iterable, Iterator

from .errors import BackendError, DuplicateRecordId, EmptySource, InvalidInput, NoAuxiliaryDefined, RecordParseError, UnknownLanguage
from .records import DirectionalExample, SeenIds, fields_json, write_jsonl
from .registry import Registry, Value, direction_error, parse_json_lines, required_fields

PROMPT_SCHEMA = "prompt_schema_v1"


class PromptFormat(str, Enum):
    STP = "STP"
    PMP = "PMP"


class InferenceStrategy(str, Enum):
    DT = "dt"
    PT = "pt"
    PMP_O = "pmp-o"
    PMP_S = "pmp-s"


class PromptedExample(Value):
    __slots__ = __match_args__ = ("text", "loss_start", "loss_end", "format", "src_lang", "tgt_lang", "aux_lang", "id",
                                  "prompt_schema")

    def __init__(self, text: str, loss_start: int, loss_end: int, format: PromptFormat, src_lang: str, tgt_lang: str,
                 aux_lang: str | None, id: str, prompt_schema: str = PROMPT_SCHEMA):
        self.text = text
        self.loss_start = loss_start
        self.loss_end = loss_end
        self.format = format
        self.src_lang = src_lang
        self.tgt_lang = tgt_lang
        self.aux_lang = aux_lang
        self.id = id
        self.prompt_schema = prompt_schema

    to_json = fields_json

    def to_line(self) -> str:
        """json_line(self.to_json()), joined from the quoted fields. The loss
        offsets are written with int.__repr__, as json_line writes an int (a
        bool offset would come out as 0 or 1, not false or true). The format
        member is quoted itself, since its string is its value."""
        q = encode_basestring
        aux = "null" if self.aux_lang is None else q(self.aux_lang)
        return (
            f'{{"text":{q(self.text)},"loss_start":{int.__repr__(self.loss_start)},'
            f'"loss_end":{int.__repr__(self.loss_end)},"format":{q(self.format)},'
            f'"src_lang":{q(self.src_lang)},"tgt_lang":{q(self.tgt_lang)},"aux_lang":{aux},'
            f'"id":{q(self.id)},"prompt_schema":{q(self.prompt_schema)}}}'
        )


def _template(names: dict, src_lang: str, tgt_lang: str, *aux_lang: str) -> tuple[str, str, str, int]:
    """(head, aux piece, tail, their UTF-8 bytes together) of one direction's
    prompt, which reads head + src + aux piece + aux text + tail + tgt. The
    aux piece is "" for STP, which passes no aux_lang."""
    src_name, tgt_name = names[src_lang].name, names[tgt_lang].name
    head = f"Translate the following text from {src_name} to {tgt_name}.\n{src_name}: "
    aux = f"\n{names[aux_lang[0]].name}: " if aux_lang else ""
    tail = f"\n{tgt_name}: "
    return head, aux, tail, len(f"{head}{aux}{tail}".encode("utf-8"))


def render_translation(
    fmt: PromptFormat,
    prompt_id: str,
    src_lang: str,
    tgt_lang: str,
    src: str,
    tgt: str,
    registry: Registry,
    aux_lang: str | None = None,
    aux_text: str | None = None,
) -> PromptedExample:
    """Render an STP or PMP prompt, checking nothing: the caller has checked
    that both codes are in the registry, that src is non-empty, and for PMP
    that aux_lang is the direction's auxiliary and aux_text a non-empty
    sentence in it. A tgt of "" renders an inference prompt: the training
    prefix with an empty loss span at end of text.

    Each direction's fixed pieces and their byte count are made once and kept
    in the registry's _templates memo, keyed by (src_lang, tgt_lang) for STP
    and (src_lang, tgt_lang, aux_lang) for PMP, so the registry's languages
    bound the memo. A prompt then costs one f-string and one encode per
    sentence."""
    key = (src_lang, tgt_lang, aux_lang) if fmt is PromptFormat.PMP else (src_lang, tgt_lang)
    memo = registry._templates
    template = memo.get(key)
    if template is None:
        template = memo[key] = _template(registry.languages, *key)
    head, aux, tail, fixed = template
    if aux:
        text = f"{head}{src}{aux}{aux_text}{tail}{tgt}"
    else:
        text = f"{head}{src}{tail}{tgt}"
    start = fixed + len(src.encode("utf-8")) + (len(aux_text.encode("utf-8")) if aux else 0)
    end = start + len(tgt.encode("utf-8"))
    return PromptedExample(text, start, end, fmt, src_lang, tgt_lang, aux_lang, prompt_id)


def _render_training(
    fmt: PromptFormat, example: DirectionalExample, registry: Registry, aux_lang: str | None = None, aux_text: str | None = None
) -> PromptedExample:
    """render_translation of a training example, after checking it."""
    src_lang, tgt_lang = example.src_lang, example.tgt_lang
    for code in (src_lang, tgt_lang):
        if code not in registry:
            raise UnknownLanguage(code)
    if fmt is PromptFormat.PMP:
        expected = registry.auxiliary_for(src_lang, tgt_lang)
        if expected is None:
            raise NoAuxiliaryDefined(f"direction {src_lang}->{tgt_lang} has no auxiliary language")
        if aux_lang != expected:
            raise ValueError(f"auxiliary for {src_lang}->{tgt_lang} is {expected!r}, got {aux_lang!r}")
    if not example.src:
        raise EmptySource(f"example {example.id!r} has an empty source")
    if fmt is PromptFormat.PMP and not aux_text:
        raise ValueError(f"example {example.id!r}: empty auxiliary text")
    if not example.tgt:
        raise ValueError(f"example {example.id!r} has an empty target")
    return render_translation(fmt, example.id, src_lang, tgt_lang, example.src, example.tgt, registry, aux_lang, aux_text)


def render_stp(example: DirectionalExample, registry: Registry) -> PromptedExample:
    return _render_training(PromptFormat.STP, example, registry)


def render_pmp(example: DirectionalExample, aux_text: str, aux_lang: str, registry: Registry) -> PromptedExample:
    return _render_training(PromptFormat.PMP, example, registry, aux_lang, aux_text)


def build_inference_prompt(
    strategy: InferenceStrategy,
    src_lang: str,
    tgt_lang: str,
    src_text: str,
    registry: Registry,
    backend: "Backend | None" = None,
    aux_text: str | None = None,
    item_id: str = "q0",
) -> list[PromptedExample]:
    """Generation prompt(s) for one source text. PT returns two prompts; the
    others return one. All loss spans are empty (end of text). Every refusal
    of the request is raised before any backend request. The backend is any
    object with a Backend's translate(); this module does not import
    backends, so that mix loads no subprocess machinery."""
    strategy = InferenceStrategy(strategy)
    for code in (src_lang, tgt_lang):
        if code not in registry:
            raise UnknownLanguage(code)
    # dt and pt also serve X->Y requests (a direct prompt, a pivot through
    # en); a pmp prompt needs a center direction's auxiliary.
    problem = direction_error(src_lang, tgt_lang)
    needs_center = strategy in (InferenceStrategy.PMP_O, InferenceStrategy.PMP_S)
    if problem is not None and (needs_center or src_lang == tgt_lang):
        raise InvalidInput(problem)
    prompt_id = f"{item_id}#{src_lang}2{tgt_lang}"
    if not src_text:
        raise EmptySource(f"item {prompt_id!r} has an empty source")

    if strategy is InferenceStrategy.DT:
        return [render_translation(PromptFormat.STP, prompt_id, src_lang, tgt_lang, src_text, "", registry)]

    if strategy is InferenceStrategy.PT:
        # The pivot is always en, so neither endpoint may be en.
        if "en" in (src_lang, tgt_lang):
            raise InvalidInput(f"pivot strategy is undefined for {src_lang}->{tgt_lang}")
        if backend is None:
            raise InvalidInput("pivot strategy requires a backend for the first hop")
        first = render_translation(PromptFormat.STP, f"{item_id}#{src_lang}2en", src_lang, "en", src_text, "", registry)
        en_text = backend.translate(item_id, src_lang, "en", src_text)
        if not en_text:
            raise BackendError(f"item {item_id!r}: empty pivot translation")
        second = render_translation(PromptFormat.STP, f"{item_id}#en2{tgt_lang}", "en", tgt_lang, en_text, "", registry)
        return [first, second]

    aux_lang = registry.auxiliary_for(src_lang, tgt_lang)
    if aux_lang is None:
        raise NoAuxiliaryDefined(f"direction {src_lang}->{tgt_lang} has no auxiliary language")

    if strategy is InferenceStrategy.PMP_O:
        if not aux_text:
            raise InvalidInput(f"item {item_id!r}: strategy pmp-o needs a gold auxiliary sentence")
    else:
        if backend is None:
            raise InvalidInput("strategy pmp-s requires a backend to produce the auxiliary")
        aux_text = backend.translate(item_id, src_lang, aux_lang, src_text)
        if not aux_text:
            raise BackendError(f"item {item_id!r}: empty auxiliary translation")

    return [
        render_translation(PromptFormat.PMP, prompt_id, src_lang, tgt_lang, src_text, "", registry, aux_lang, aux_text)
    ]


write_prompted = write_jsonl


def read_prompted(stream: Iterable[str], path: str | None = None) -> Iterator[PromptedExample]:
    seen = SeenIds()

    def prompted(obj: dict) -> PromptedExample:
        text, fmt, src_lang, tgt_lang, item_id = required_fields(obj, ("text", "format", "src_lang", "tgt_lang", "id"))
        loss_start, loss_end = required_fields(obj, ("loss_start", "loss_end"), int)
        # Optional fields: aux_lang may be null, prompt_schema may be absent.
        (aux_lang,) = required_fields(obj, ("aux_lang",)) if obj.get("aux_lang") is not None else (None,)
        (schema,) = required_fields(obj, ("prompt_schema",)) if "prompt_schema" in obj else (PROMPT_SCHEMA,)
        try:
            fmt = PromptFormat(fmt)
            n = len(text.encode("utf-8"))  # a lone surrogate has no UTF-8 form
        except ValueError as e:
            raise RecordParseError(str(e)) from None
        if not 0 <= loss_start <= loss_end <= n:
            raise RecordParseError(f"loss span [{loss_start}, {loss_end}) outside text of {n} bytes")
        if (aux_lang is not None) != (fmt is PromptFormat.PMP):
            raise RecordParseError("aux_lang must be set exactly for PMP prompts")
        if not item_id:
            raise RecordParseError("prompt id must be non-empty")
        if not seen.add(item_id):
            raise DuplicateRecordId(f"duplicate prompt id {item_id!r}")
        return PromptedExample(text, loss_start, loss_end, fmt, src_lang, tgt_lang, aux_lang, item_id, schema)

    return parse_json_lines(stream, path, prompted)
