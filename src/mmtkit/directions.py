"""Bi-centric direction space and multi-way record expansion.

Every supported direction has en or zh on at least one side. The en-zh pair
is enumerated once, under the En-centric block, so an n-language registry
yields (n-1) + (n-2) pairs and twice as many directions.
"""
from __future__ import annotations

from functools import total_ordering
from typing import Iterable

from .records import DirectionalExample, MultiWayRecord, Provenance
from .registry import CENTERS, Frozen, Registry, direction_error


@total_ordering
class Direction(Frozen):
    """A supported direction, ordered by (src, tgt). id_tag, what an id gains in
    its example id in this direction, is read for every example, so made once."""

    __match_args__ = ("src", "tgt")
    __slots__ = (*__match_args__, "id_tag")

    def __init__(self, src: str, tgt: str):
        problem = direction_error(src, tgt)
        if problem is not None:
            raise ValueError(problem)
        self._set(src=src, tgt=tgt, id_tag=f"#{src}2{tgt}")

    def __lt__(self, other):
        return self._fields() < other._fields() if other.__class__ is self.__class__ else NotImplemented

    @property
    def suffix(self) -> str:
        return f"{self.src}2{self.tgt}"

    @property
    def is_reverse(self) -> bool:
        # Reverse means center-targeted; en->zh and zh->en are both reverse.
        return self.tgt in CENTERS

    def __str__(self) -> str:
        return f"{self.src}->{self.tgt}"


class DirectionSet(Frozen):
    __slots__ = __match_args__ = ("directions", "pair_count", "direction_count")

    def __init__(self, directions: tuple[Direction, ...], pair_count: int, direction_count: int):
        self._set(directions=directions, pair_count=pair_count, direction_count=direction_count)


def enumerate_directions(registry: Registry) -> DirectionSet:
    """All En<->X and Zh<->X directions in registry order, En-centric first.
    The registry holds both centers: load_registry refuses one without them."""
    codes = registry.codes()
    directions: list[Direction] = []
    for x in codes:
        if x != "en":
            directions.append(Direction("en", x))
            directions.append(Direction(x, "en"))
    for x in codes:
        if x not in CENTERS:
            directions.append(Direction("zh", x))
            directions.append(Direction(x, "zh"))
    return DirectionSet(
        directions=tuple(directions),
        pair_count=len(directions) // 2,
        direction_count=len(directions),
    )


# Language sets a memo of covered holds, at about 1 KB each. A corpus
# usually has few sets, often one, so the memo rarely fills.
_COVERED_MEMO = 64


def covered(
    record: MultiWayRecord, dirset: DirectionSet, memo: dict[frozenset[str], tuple[Direction, ...]] | None = None
) -> tuple[Direction, ...]:
    """The directions of dirset with both sides in the record, in dirset order.

    memo, a dict a loop over records keeps for one dirset, remembers the
    answer per language set, up to _COVERED_MEMO sets.
    """
    sentences = record.sentences
    if memo is None:
        return tuple([d for d in dirset.directions if d.src in sentences and d.tgt in sentences])
    langs = frozenset(sentences)
    found = memo.get(langs)
    if found is None:
        if len(memo) >= _COVERED_MEMO:
            memo.clear()
        found = memo[langs] = covered(record, dirset)
    return found


def examples(record: MultiWayRecord, directions: Iterable[Direction]) -> list[DirectionalExample]:
    """One human-provenance example per direction, each of which the record covers."""
    record_id, sentences = record.id, record.sentences
    return [
        DirectionalExample(f"{record_id}{d.id_tag}", d.src, d.tgt, sentences[d.src], sentences[d.tgt], Provenance.HUMAN)
        for d in directions
    ]


def expand(record: MultiWayRecord, dirset: DirectionSet) -> list[DirectionalExample]:
    """One human-provenance example per direction covered by the record."""
    return examples(record, covered(record, dirset))
