"""Pseudo-parallel synthesis planning.

Two synthesis modes: direct (translate center-language monolingual text into
the target side) and pivot (turn En-X bitext into Zh-X bitext by translating
the English side into Chinese). Items that fail in the backend are skipped
with a warning; a run aborts if more than 10% of its items failed by the end of
the stream.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

from .backends import Backend, BackendItemError
from .errors import BackendError, InvalidInput, warn
from .records import DirectionalExample, Provenance
from .registry import CENTERS, Value
from .directions import Direction

T = TypeVar("T")

FAILURE_BUDGET = 0.10


class SynthStats(Value):
    """Items a synthesis stream read, and those it skipped as failed."""

    __slots__ = __match_args__ = ("items", "failed")

    def __init__(self, items: int = 0, failed: int = 0):
        self.items, self.failed = items, failed


def _translated(
    items: Iterable[T],
    backend: Backend,
    to_args: Callable[[T], tuple[str, str, str, str]],
    what: str,
    stats: SynthStats | None,
) -> Iterator[tuple[T, str]]:
    """Yield (item, translation) in input order. to_args(item) gives the
    translate() arguments (item_id, src_lang, tgt_lang, text). An item with an
    empty text, an item error or an empty translation is skipped with a warning.
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
        warn(__name__, f"{what}: skipping item {args[0]}: {err}")
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

