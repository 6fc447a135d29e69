"""Prompt rendering with exact loss spans.

Four formats: STP (source-only translation prompt), PMP (adds one auxiliary
parallel sentence), CPT_BILINGUAL (tagged bitext line), CPT_MONO (raw text).
Loss offsets are byte offsets into the UTF-8 encoding of the text; for every
training render, text_bytes[loss_start:loss_end] is exactly the target.
Inference renders carry an empty loss span at end of text.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import EmptySource, NoAuxiliaryDefined, RecordParseError
from .records import DirectionalExample, json_line
from .registry import Registry, parse_json_lines

PROMPT_SCHEMA = "prompt_schema_v1"


class PromptFormat(str, Enum):
    STP = "STP"
    PMP = "PMP"
    CPT_BILINGUAL = "CPT_BILINGUAL"
    CPT_MONO = "CPT_MONO"


@dataclass(frozen=True)
class PromptedExample:
    text: str
    loss_start: int
    loss_end: int
    format: PromptFormat
    src_lang: str
    tgt_lang: str
    aux_lang: str | None
    id: str
    prompt_schema: str = PROMPT_SCHEMA

    def __post_init__(self):
        n = len(self.text.encode("utf-8"))
        if not 0 <= self.loss_start <= self.loss_end <= n:
            raise ValueError(
                f"loss span [{self.loss_start}, {self.loss_end}) outside text of {n} bytes"
            )
        if (self.aux_lang is not None) != (self.format is PromptFormat.PMP):
            raise ValueError("aux_lang must be set exactly for PMP prompts")

    def loss_slice(self) -> str:
        return self.text.encode("utf-8")[self.loss_start : self.loss_end].decode("utf-8")

    def to_json(self) -> dict:
        return {
            "text": self.text,
            "loss_start": self.loss_start,
            "loss_end": self.loss_end,
            "format": self.format.value,
            "src_lang": self.src_lang,
            "tgt_lang": self.tgt_lang,
            "aux_lang": self.aux_lang,
            "id": self.id,
            "prompt_schema": self.prompt_schema,
        }


def _spanned(prefix: str, target: str) -> tuple[str, int, int]:
    text = prefix + target
    start = len(prefix.encode("utf-8"))
    return text, start, len(text.encode("utf-8"))


def _render_translation(
    fmt: PromptFormat,
    item_id: str,
    src_lang: str,
    tgt_lang: str,
    src: str,
    tgt: str | None,
    registry: Registry,
    aux_lang: str | None = None,
    aux_text: str | None = None,
) -> PromptedExample:
    """Render an STP or PMP prompt. A tgt of None renders an inference prompt:
    the training prefix with an empty loss span at end of text."""
    owner = f"item {item_id!r}" if tgt is None else f"example {item_id!r}"
    if fmt is PromptFormat.PMP:
        expected = registry.auxiliary_for(src_lang, tgt_lang)
        if expected is None:
            raise NoAuxiliaryDefined(f"direction {src_lang}->{tgt_lang} has no auxiliary language")
        if aux_lang != expected:
            raise ValueError(f"auxiliary for {src_lang}->{tgt_lang} is {expected!r}, got {aux_lang!r}")
    if not src:
        raise EmptySource(f"{owner} has an empty source")
    if fmt is PromptFormat.PMP and not aux_text:
        raise ValueError(f"{owner}: empty auxiliary text")
    if tgt is not None and not tgt:
        raise ValueError(f"{owner} has an empty target")
    src_name, tgt_name = registry.name_of(src_lang), registry.name_of(tgt_lang)
    prefix = f"Translate the following text from {src_name} to {tgt_name}.\n{src_name}: {src}\n"
    if fmt is PromptFormat.PMP:
        prefix += f"{registry.name_of(aux_lang)}: {aux_text}\n"
    text, start, end = _spanned(prefix + f"{tgt_name}: ", tgt or "")
    return PromptedExample(
        text=text,
        loss_start=start,
        loss_end=end,
        format=fmt,
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        aux_lang=aux_lang,
        id=item_id,
    )


def render_stp(example: DirectionalExample, registry: Registry) -> PromptedExample:
    return _render_translation(
        PromptFormat.STP, example.id, example.src_lang, example.tgt_lang, example.src, example.tgt, registry
    )


def render_pmp(
    example: DirectionalExample,
    aux_text: str,
    aux_lang: str,
    registry: Registry,
) -> PromptedExample:
    return _render_translation(
        PromptFormat.PMP,
        example.id,
        example.src_lang,
        example.tgt_lang,
        example.src,
        example.tgt,
        registry,
        aux_lang,
        aux_text,
    )


def render_cpt_bilingual(
    example: DirectionalExample, loss: str = "target"
) -> PromptedExample:
    """Tagged bitext line "[SRC2TGT] src [TGT] tgt". loss is "target" or "full"."""
    if loss not in ("target", "full"):
        raise ValueError(f"loss must be 'target' or 'full', got {loss!r}")
    if not example.src:
        raise EmptySource(f"example {example.id!r} has an empty source")
    src_tag = example.src_lang.upper()
    tgt_tag = example.tgt_lang.upper()
    prefix = f"[{src_tag}2{tgt_tag}] {example.src} [{tgt_tag}] "
    text, start, end = _spanned(prefix, example.tgt)
    if loss == "full":
        start = 0
    return PromptedExample(
        text=text,
        loss_start=start,
        loss_end=end,
        format=PromptFormat.CPT_BILINGUAL,
        src_lang=example.src_lang,
        tgt_lang=example.tgt_lang,
        aux_lang=None,
        id=example.id,
    )


def render_cpt_mono(item_id: str, lang: str, text: str) -> PromptedExample:
    """Raw monolingual text, loss over the whole sequence."""
    if not text:
        raise EmptySource(f"item {item_id!r} has empty text")
    return PromptedExample(
        text=text,
        loss_start=0,
        loss_end=len(text.encode("utf-8")),
        format=PromptFormat.CPT_MONO,
        src_lang=lang,
        tgt_lang=lang,
        aux_lang=None,
        id=item_id,
    )


_CPT_HEADER = re.compile(r"^\[([A-Z0-9_]+)2([A-Z0-9_]+)\] ")


def parse_cpt_bilingual(text: str) -> tuple[str, str, str, str]:
    """Invert render_cpt_bilingual: text -> (src_lang, tgt_lang, src, tgt).

    The separator is the first occurrence of " [TGT] " after the header, so
    the parse is ambiguous only when the source text itself contains that
    token. Language codes must not contain the digit 2.
    """
    m = _CPT_HEADER.match(text)
    if m is None:
        raise RecordParseError(f"no direction tag at start of {text[:40]!r}")
    src_lang = m.group(1).lower()
    tgt_lang = m.group(2).lower()
    rest = text[m.end() :]
    sep = f" [{tgt_lang.upper()}] "
    idx = rest.find(sep)
    if idx < 0:
        raise RecordParseError(f"no [{tgt_lang.upper()}] separator in {text[:40]!r}")
    return src_lang, tgt_lang, rest[:idx], rest[idx + len(sep) :]


def render_stp_prompt(
    src_lang: str, tgt_lang: str, src: str, registry: Registry, item_id: str
) -> PromptedExample:
    """STP inference prompt: the training prefix with an empty loss span."""
    return _render_translation(PromptFormat.STP, item_id, src_lang, tgt_lang, src, None, registry)


def render_pmp_prompt(
    src_lang: str,
    tgt_lang: str,
    src: str,
    aux_lang: str,
    aux_text: str,
    registry: Registry,
    item_id: str,
) -> PromptedExample:
    """PMP inference prompt: the training prefix with an empty loss span."""
    return _render_translation(
        PromptFormat.PMP, item_id, src_lang, tgt_lang, src, None, registry, aux_lang, aux_text
    )


def write_prompted(examples: Iterable[PromptedExample], stream) -> int:
    n = 0
    for pe in examples:
        stream.write(json_line(pe.to_json()) + "\n")
        n += 1
    return n


def read_prompted(stream: Iterable[str], path: str | None = None) -> Iterator[PromptedExample]:
    for line_no, obj in parse_json_lines(stream, path):
        try:
            yield PromptedExample(
                text=obj["text"],
                loss_start=obj["loss_start"],
                loss_end=obj["loss_end"],
                format=PromptFormat(obj["format"]),
                src_lang=obj["src_lang"],
                tgt_lang=obj["tgt_lang"],
                aux_lang=obj.get("aux_lang"),
                id=obj["id"],
                prompt_schema=obj.get("prompt_schema", PROMPT_SCHEMA),
            )
        except KeyError as e:
            raise RecordParseError(f"missing field {e.args[0]!r}", line_no, path) from None
        except ValueError as e:
            raise RecordParseError(str(e), line_no, path) from None
