"""Bi-centric direction space and multi-way record expansion.

Every supported direction has en or zh on at least one side. The en-zh pair
is enumerated once, under the En-centric block, so an n-language registry
yields (n-1) + (n-2) pairs and twice as many directions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .records import DirectionalExample, MultiWayRecord, Provenance
from .registry import CENTERS, Registry, direction_error


@dataclass(frozen=True, order=True)
class Direction:
    src: str
    tgt: str

    def __post_init__(self):
        problem = direction_error(self.src, self.tgt)
        if problem is not None:
            raise ValueError(problem)

    @property
    def suffix(self) -> str:
        return f"{self.src}2{self.tgt}"

    @cached_property  # read for every example, so made once per direction
    def id_tag(self) -> str:
        """What a record or item id gains in its example id in this direction."""
        return f"#{self.suffix}"

    @property
    def is_reverse(self) -> bool:
        # Reverse means center-targeted; en->zh and zh->en are both reverse.
        return self.tgt in CENTERS

    def __str__(self) -> str:
        return f"{self.src}->{self.tgt}"


@dataclass(frozen=True)
class DirectionSet:
    directions: tuple[Direction, ...]
    pair_count: int
    direction_count: int


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


def covered(record: MultiWayRecord, dirset: DirectionSet) -> list[Direction]:
    """The directions of dirset with both sides in the record, in dirset order."""
    sentences = record.sentences
    return [d for d in dirset.directions if d.src in sentences and d.tgt in sentences]


def examples(record: MultiWayRecord, directions: Iterable[Direction]) -> list[DirectionalExample]:
    """The record's human-provenance example in each of the directions, which it must cover."""
    record_id, sentences = record.id, record.sentences
    return [
        DirectionalExample(f"{record_id}{d.id_tag}", d.src, d.tgt, sentences[d.src], sentences[d.tgt], Provenance.HUMAN)
        for d in directions
    ]


def expand(record: MultiWayRecord, dirset: DirectionSet) -> list[DirectionalExample]:
    """One human-provenance example per direction covered by the record."""
    return examples(record, covered(record, dirset))
