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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, TypeVar

from .backends import Backend, BackendItemError
from .errors import BackendError, EmptySource, InvalidInput, NoAuxiliaryDefined, UnknownLanguage
from .prompts import PromptedExample, render_pmp_prompt, render_stp_prompt
from .records import DirectionalExample, Provenance
from .registry import CENTERS, Registry, direction_error
from .directions import Direction

log = logging.getLogger(__name__)

T = TypeVar("T")

FAILURE_BUDGET = 0.10


class InferenceStrategy(str, Enum):
    DT = "dt"
    PT = "pt"
    PMP_O = "pmp-o"
    PMP_S = "pmp-s"


@dataclass
class SynthStats:
    """Items a synthesis stream read, and those it skipped as failed."""

    items: int = 0
    failed: int = 0


def _translated(
    items: Iterable[T],
    backend: Backend,
    to_args: Callable[[T], tuple[str, str, str, str]],
    what: str,
    stats: SynthStats | None,
) -> Iterator[tuple[T, str]]:
    """Yield (item, translation) in input order. to_args(item) gives the
    translate() arguments (item_id, src_lang, tgt_lang, text). An item with an
    empty text, an item error or an empty translation is skipped and logged.
    If more than FAILURE_BUDGET of the items counted in stats failed, the end
    of the stream raises BackendError."""
    stats = SynthStats() if stats is None else stats
    with_args = ((item, to_args(item)) for item in items)
    # An empty text is skipped without a request.
    for item, args in backend.send_ahead(with_args, lambda pair: pair[1] if pair[1][3] else None):
        stats.items += 1
        if not args[3]:
            err = "empty source text"
        else:
            try:
                out = backend.translate(*args)
            except BackendItemError as e:
                err = e
            else:
                if out:
                    yield item, out
                    continue
                err = "backend returned empty text"
        stats.failed += 1
        log.warning("%s: skipping item %s: %s", what, args[0], err)
    if stats.items and stats.failed > FAILURE_BUDGET * stats.items:
        raise BackendError(
            f"{what}: {stats.failed}/{stats.items} items failed, over the {FAILURE_BUDGET:.0%} budget"
        )


def synth_direct(
    mono: Iterable[tuple[str, str]],
    backend: Backend,
    direction: Direction,
    stats: SynthStats | None = None,
) -> Iterator[DirectionalExample]:
    """Translate (item_id, text) monolingual items along a forward direction.
    stats, when given, is complete only after the iterator is exhausted."""
    src, tgt = direction.src, direction.tgt
    if src not in CENTERS:
        raise InvalidInput(f"direct synthesis needs a center source, got {direction}")
    for (item_id, text), out in _translated(
        mono, backend, lambda item: (item[0], src, tgt, item[1]), f"synth_direct {direction}", stats
    ):
        yield DirectionalExample(f"{item_id}{direction.id_tag}", src, tgt, text, out, Provenance.SYNTH_DIRECT)


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
    stats: SynthStats | None = None,
) -> Iterator[DirectionalExample]:
    """Turn En-X pairs into Zh-X pairs in both directions (2 outputs per input).
    stats, when given, is complete only after the iterator is exhausted."""
    sided = ((pair, *_pivot_sides(pair)) for pair in en_x_pairs)
    for (pair, _, x, x_text), zh_text in _translated(
        sided, en2zh_backend, lambda s: (s[0].id, "en", "zh", s[1]), "synth_pivot", stats
    ):
        yield DirectionalExample(f"{pair.id}#zh2{x}", "zh", x, zh_text, x_text, Provenance.SYNTH_PIVOT)
        yield DirectionalExample(f"{pair.id}#{x}2zh", x, "zh", x_text, zh_text, Provenance.SYNTH_PIVOT)


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
    others return one. All loss spans are empty (end of text). Every refusal
    of the request is raised before any backend request."""
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
        return [render_stp_prompt(src_lang, tgt_lang, src_text, registry, prompt_id)]

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

    return [render_pmp_prompt(src_lang, tgt_lang, src_text, aux_lang, aux_text, registry, prompt_id)]
