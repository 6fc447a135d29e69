"""Pseudo-parallel synthesis planning and inference prompt construction.

Two synthesis modes: direct (translate center-language monolingual text into
the target side) and pivot (turn En-X bitext into Zh-X bitext by translating
the English side into Chinese). Items that fail in the backend are skipped
and logged; a run aborts if more than 10% of its items failed by the end of
the stream. Four inference strategies build generation prompts with empty
loss spans: DT (direct), PT (two-step pivot through en), PMP-O (gold
auxiliary), PMP-S (auxiliary produced by the backend).
"""
from __future__ import annotations

import logging
from enum import Enum
from typing import Iterable, Iterator

from .backends import Backend, BackendItemError
from .errors import BackendError, InvalidInput, NoAuxiliaryDefined
from .prompts import PromptedExample, render_pmp_prompt, render_stp_prompt
from .records import DirectionalExample, Provenance
from .registry import CENTERS, Registry
from .directions import Direction

log = logging.getLogger(__name__)

FAILURE_BUDGET = 0.10


class InferenceStrategy(str, Enum):
    DT = "dt"
    PT = "pt"
    PMP_O = "pmp-o"
    PMP_S = "pmp-s"


class _FailureBudget:
    """Tracks per-item failures; enforces the 10% budget at stream end."""

    def __init__(self, what: str):
        self.what = what
        self.total = 0
        self.failed = 0

    def item(self) -> None:
        self.total += 1

    def failure(self, item_id: str, err: Exception) -> None:
        self.failed += 1
        log.warning("%s: skipping item %s: %s", self.what, item_id, err)

    def finish(self) -> None:
        if self.total and self.failed > FAILURE_BUDGET * self.total:
            raise BackendError(
                f"{self.what}: {self.failed}/{self.total} items failed, "
                f"over the {FAILURE_BUDGET:.0%} budget"
            )


def synth_direct(
    mono: Iterable[tuple[str, str]],
    backend: Backend,
    direction: Direction,
) -> Iterator[DirectionalExample]:
    """Translate (item_id, text) monolingual items along a forward direction."""
    if direction.src not in CENTERS:
        raise InvalidInput(f"direct synthesis needs a center source, got {direction}")
    budget = _FailureBudget(f"synth_direct {direction}")

    def to_args(item: tuple[str, str]) -> tuple[str, str, str, str] | None:
        item_id, text = item
        return (item_id, direction.src, direction.tgt, text) if text else None

    for item_id, text in backend.send_ahead(mono, to_args):
        budget.item()
        if not text:
            budget.failure(item_id, ValueError("empty source text"))
            continue
        try:
            out = backend.translate(item_id, direction.src, direction.tgt, text)
        except BackendItemError as e:
            budget.failure(item_id, e)
            continue
        if not out:
            budget.failure(item_id, ValueError("backend returned empty text"))
            continue
        yield DirectionalExample(
            id=f"{item_id}#{direction.suffix}",
            src_lang=direction.src,
            tgt_lang=direction.tgt,
            src=text,
            tgt=out,
            provenance=Provenance.SYNTH_DIRECT,
        )
    budget.finish()


def _pivot_sides(pair: DirectionalExample) -> tuple[str, str, str]:
    """(en text, other language, other text) of an En-X pair."""
    if pair.src_lang == "en":
        en_text, x_lang, x_text = pair.src, pair.tgt_lang, pair.tgt
    elif pair.tgt_lang == "en":
        en_text, x_lang, x_text = pair.tgt, pair.src_lang, pair.src
    else:
        raise InvalidInput(f"pivot input {pair.id!r} has no en side")
    if x_lang == "zh":
        raise InvalidInput(f"pivot input {pair.id!r} pairs en with zh; nothing to synthesize")
    return en_text, x_lang, x_text


def synth_pivot(
    en_x_pairs: Iterable[DirectionalExample],
    en2zh_backend: Backend,
) -> Iterator[DirectionalExample]:
    """Turn En-X pairs into Zh-X pairs in both directions (2 outputs per input)."""
    budget = _FailureBudget("synth_pivot")
    for pair in en2zh_backend.send_ahead(en_x_pairs, lambda p: (p.id, "en", "zh", _pivot_sides(p)[0])):
        en_text, x_lang, x_text = _pivot_sides(pair)
        budget.item()
        try:
            zh_text = en2zh_backend.translate(pair.id, "en", "zh", en_text)
        except BackendItemError as e:
            budget.failure(pair.id, e)
            continue
        if not zh_text:
            budget.failure(pair.id, ValueError("backend returned empty text"))
            continue
        yield DirectionalExample(
            id=f"{pair.id}#zh2{x_lang}",
            src_lang="zh",
            tgt_lang=x_lang,
            src=zh_text,
            tgt=x_text,
            provenance=Provenance.SYNTH_PIVOT,
        )
        yield DirectionalExample(
            id=f"{pair.id}#{x_lang}2zh",
            src_lang=x_lang,
            tgt_lang="zh",
            src=x_text,
            tgt=zh_text,
            provenance=Provenance.SYNTH_PIVOT,
        )
    budget.finish()


def build_inference_prompt(
    strategy: InferenceStrategy,
    src_lang: str,
    tgt_lang: str,
    src_text: str,
    registry: Registry,
    backend: Backend | None = None,
    aux_text: str | None = None,
    item_id: str = "q0",
) -> list[PromptedExample]:
    """Generation prompt(s) for one source text. PT returns two prompts; the
    others return one. All loss spans are empty (end of text)."""
    strategy = InferenceStrategy(strategy)

    if strategy is InferenceStrategy.DT:
        return [render_stp_prompt(src_lang, tgt_lang, src_text, registry, f"{item_id}#{src_lang}2{tgt_lang}")]

    if strategy is InferenceStrategy.PT:
        # The pivot is always en, so neither endpoint may be en.
        if "en" in (src_lang, tgt_lang):
            raise InvalidInput(f"pivot strategy is undefined for {src_lang}->{tgt_lang}")
        if backend is None:
            raise InvalidInput("pivot strategy requires a backend for the first hop")
        first = render_stp_prompt(src_lang, "en", src_text, registry, f"{item_id}#{src_lang}2en")
        en_text = backend.translate(item_id, src_lang, "en", src_text)
        if not en_text:
            raise BackendError(f"item {item_id!r}: empty pivot translation")
        second = render_stp_prompt("en", tgt_lang, en_text, registry, f"{item_id}#en2{tgt_lang}")
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
        render_pmp_prompt(
            src_lang,
            tgt_lang,
            src_text,
            aux_lang,
            aux_text,
            registry,
            f"{item_id}#{src_lang}2{tgt_lang}",
        )
    ]
