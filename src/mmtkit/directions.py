"""Bi-centric direction space and multi-way record expansion.

Every supported direction has en or zh on at least one side. The en-zh pair
is enumerated once, under the En-centric block, so an n-language registry
yields (n-1) + (n-2) pairs and twice as many directions.
"""
from __future__ import annotations

from functools import total_ordering
from json.encoder import encode_basestring

from .records import DirectionalExample, MultiWayRecord, Provenance, example_line
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
    """_covered, the memo of covered, is no field: it does not count in ==,
    hash or repr, and a copy or unpickled set starts with an empty one."""

    __match_args__ = ("directions", "pair_count", "direction_count")
    __slots__ = (*__match_args__, "_covered")

    def __init__(self, directions: tuple[Direction, ...], pair_count: int, direction_count: int):
        self._set(directions=directions, pair_count=pair_count, direction_count=direction_count, _covered={})


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


# Language sets a DirectionSet's memo of covered holds, at about 1 KB each. A
# corpus usually has few sets, often one, so the memo rarely fills.
_COVERED_MEMO = 64


def covered(record: MultiWayRecord, dirset: DirectionSet) -> tuple[Direction, ...]:
    """The directions of dirset with both sides in the record, in dirset order.
    dirset remembers the answer per language set, up to _COVERED_MEMO sets."""
    sentences = record.sentences
    memo = dirset._covered
    langs = frozenset(sentences)
    found = memo.get(langs)
    if found is None:
        if len(memo) >= _COVERED_MEMO:
            memo.clear()
        found = memo[langs] = tuple([d for d in dirset.directions if d.src in sentences and d.tgt in sentences])
    return found


def expand(record: MultiWayRecord, dirset: DirectionSet) -> list[DirectionalExample]:
    """One human-provenance example per direction covered by the record."""
    record_id, sentences = record.id, record.sentences
    return [
        DirectionalExample(f"{record_id}{d.id_tag}", d.src, d.tgt, sentences[d.src], sentences[d.tgt], Provenance.HUMAN)
        for d in covered(record, dirset)
    ]


_HUMAN = encode_basestring(Provenance.HUMAN)


def expand_lines(record: MultiWayRecord, dirset: DirectionSet) -> list[str]:
    """[e.to_line() for e in expand(record, dirset)], with the record's id and
    each of its sentences quoted once, not once per direction that reads it.
    A tag (#en2fr) and a code ([a-z_]+) hold nothing to escape, so an example
    id quoted is the record id quoted with the tag before its closing quote."""
    q = encode_basestring
    open_id = q(record.id)[:-1]
    quoted = {lang: (f'"{lang}"', q(text)) for lang, text in record.sentences.items()}
    lines = []
    for d in covered(record, dirset):
        src_lang, src = quoted[d.src]
        tgt_lang, tgt = quoted[d.tgt]
        lines.append(example_line(f'{open_id}{d.id_tag}"', src_lang, tgt_lang, src, tgt, _HUMAN))
    return lines
