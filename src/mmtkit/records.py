"""Core record types and streaming line-delimited JSON persistence.

Three file flavors, all UTF-8, one JSON object per line:
  *.mwjsonl  multi-way records   {"id", "sentences": {lang: text, ...}}
  *.djsonl   directional pairs   {"id", "src_lang", "tgt_lang", "src", "tgt", "provenance"}
  *.sjsonl   scored pairs        directional fields plus "qe_score"

Readers yield one record at a time and never buffer the file; the only state
kept across lines is a SeenIds store of the ids read so far, which refuses a
repeat. It keeps one int of bits per record prefix of an id such as
`r1#en2fr`, not the id string, so it grows with records, not examples. A score
sidecar is read into a map (read_score_sidecar), or forward in step with
lookups made in its line order, which may skip lines (open_score_sidecar).
Each reader is a converter of one parsed line that checks the record once, as
it reads it; parse_json_lines names the path:line of any error it raises.

Records are slots classes (registry.Value), not Frozen: a frozen __init__ sets
every field through object.__setattr__, and every line builds a record. They
compare by value and are not hashable; no stage changes a record after building
it, so callers treat them as read-only. Stages write directional and scored
pairs; multi-way records are only read, so they have no to_line.
"""
from __future__ import annotations

import contextlib
import json
import os
import stat
from enum import Enum
from functools import partial
from itertools import islice
# The C escaper json_line uses under ensure_ascii=False: to_line methods quote
# each string field with it, so their lines equal json_line(to_json()) byte for
# byte, and lone surrogates pass through to the stream as there.
from json.encoder import encode_basestring
from typing import IO, Callable, Iterable, Iterator

from .errors import DuplicateRecordId, InvalidScore, RecordParseError
from .registry import Registry, T, Value, direction_error, parse_json_lines, required_fields


class Provenance(str, Enum):
    HUMAN = "human"
    SYNTH_DIRECT = "synth_direct"
    SYNTH_PIVOT = "synth_pivot"


# One encoder for every line: json.dumps with these arguments builds a new
# JSONEncoder per call, for the same string.
json_line = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def fields_json(record: Value) -> dict:
    """The to_json of a written record type: its fields by name, in
    __match_args__ order, each enum member given as its value."""
    return {name: value.value if isinstance(value := getattr(record, name), Enum) else value
            for name in record.__match_args__}


class MultiWayRecord(Value):
    __slots__ = __match_args__ = ("id", "sentences")

    def __init__(self, id: str, sentences: dict[str, str]):
        self.id, self.sentences = id, sentences


class DirectionalExample(Value):
    __slots__ = __match_args__ = ("id", "src_lang", "tgt_lang", "src", "tgt", "provenance")

    def __init__(self, id: str, src_lang: str, tgt_lang: str, src: str, tgt: str, provenance: Provenance = Provenance.HUMAN):
        self.id = id
        self.src_lang = src_lang
        self.tgt_lang = tgt_lang
        self.src = src
        self.tgt = tgt
        self.provenance = provenance

    to_json = fields_json

    def to_line(self) -> str:
        """json_line(self.to_json()), joined from the quoted fields. The
        provenance member is quoted itself, since its string is its value."""
        q = encode_basestring
        return example_line(q(self.id), q(self.src_lang), q(self.tgt_lang), q(self.src), q(self.tgt), q(self.provenance))


def example_line(id: str, src_lang: str, tgt_lang: str, src: str, tgt: str, provenance: str) -> str:
    """The line of a directional example from its fields, each one already
    quoted by encode_basestring: the one layout of that line, which to_line
    and directions.expand_lines both write."""
    return (
        f'{{"id":{id},"src_lang":{src_lang},"tgt_lang":{tgt_lang},'
        f'"src":{src},"tgt":{tgt},"provenance":{provenance}}}'
    )


class ScoredPair(Value):
    __slots__ = __match_args__ = ("example", "qe_score")

    def __init__(self, example: DirectionalExample, qe_score: float):
        self.example, self.qe_score = example, qe_score

    def to_json(self) -> dict:
        obj = self.example.to_json()
        obj["qe_score"] = self.qe_score
        return obj

    def to_line(self) -> str:
        return f'{self.example.to_line()[:-1]},"qe_score":{json_line(self.qe_score)}}}'


def check_score(score, owner: str) -> float:
    if not isinstance(score, (int, float)) or isinstance(score, bool):
        raise InvalidScore(f"score for {owner!r} must be a number, got {score!r}")
    if not 0.0 <= score <= 1.0:
        raise InvalidScore(f"score for {owner!r} outside [0, 1]: {score}")
    return float(score)


# Distinct id suffixes that SeenIds gives a bit of their own: more than the
# built-in registry's 234 directions, few enough that a mask stays small.
_SUFFIX_BITS = 256


class SeenIds:
    """The ids added so far, held to refuse a repeat.

    An id splits at its last '#' into a prefix and a suffix, the record or
    item id and the direction tag (`r1#en2fr` -> `r1`, `en2fr`). Each distinct
    suffix gets one bit, in order of arrival, and each prefix keeps the bits of
    its suffixes seen so far in one int, so an expanded record's directions
    cost one dict entry between them. An id without '#', or whose suffix came
    after _SUFFIX_BITS others, is held whole in a set. The split is one-to-one
    and a suffix keeps the place it got first, so add answers exactly as a set
    of the ids would.
    """

    __slots__ = ("_bits", "_masks", "_ids")

    def __init__(self) -> None:
        self._bits: dict[str, int] = {}
        self._masks: dict[str, int] = {}
        self._ids: set[str] = set()

    def add(self, item_id: str) -> bool:
        """Add item_id; False, adding nothing, if it was added before."""
        prefix, cut, suffix = item_id.rpartition("#")
        if cut:
            bit = self._bits.get(suffix)
            if bit is None and len(self._bits) < _SUFFIX_BITS:
                bit = self._bits[suffix] = 1 << len(self._bits)
            if bit is not None:
                mask = self._masks.get(prefix, 0)
                if mask & bit:
                    return False
                self._masks[prefix] = mask | bit
                return True
        if item_id in self._ids:
            return False
        self._ids.add(item_id)
        return True


def read_multiway(stream: Iterable[str], registry: Registry, path: str | None = None) -> Iterator[MultiWayRecord]:
    seen = SeenIds()

    def record(obj: dict) -> MultiWayRecord:
        (rec_id,) = required_fields(obj, ("id",))
        (sentences,) = required_fields(obj, ("sentences",), dict)
        if not rec_id:
            raise RecordParseError("record id must be non-empty")
        for lang, text in sentences.items():
            if lang not in registry:
                raise RecordParseError(f"unknown language code: {lang!r}")
            if not isinstance(text, str) or not text:
                raise RecordParseError(f"sentence for {lang!r} must be a non-empty string")
        if not seen.add(rec_id):
            raise DuplicateRecordId(f"duplicate record id {rec_id!r}")
        return MultiWayRecord(id=rec_id, sentences=sentences)

    return parse_json_lines(stream, path, record)


_EXAMPLE_FIELDS = ("id", "src_lang", "tgt_lang", "src", "tgt")
_PROVENANCE = {p.value: p for p in Provenance}


def read_examples(stream: Iterable[str], path: str | None = None, validate: bool = True) -> Iterator[DirectionalExample]:
    """Parse directional examples. validate=False skips only the empty-text
    check, so that empty pairs reach the NonEmpty filter rule as data; the id
    and direction checks run in both modes."""
    seen = SeenIds()

    def example(obj: dict) -> DirectionalExample:
        ex_id, src_lang, tgt_lang, src, tgt = required_fields(obj, _EXAMPLE_FIELDS)
        prov = obj.get("provenance", "human")
        try:
            provenance = _PROVENANCE[prov]
        except (KeyError, TypeError):
            raise RecordParseError(f"unknown provenance {prov!r}") from None
        if not ex_id:
            raise RecordParseError("example id must be non-empty")
        problem = direction_error(src_lang, tgt_lang)
        if problem is not None:
            raise RecordParseError(problem)
        if validate and (not src or not tgt):
            raise RecordParseError(f"example {ex_id!r} has an empty text side")
        if not seen.add(ex_id):
            raise DuplicateRecordId(f"duplicate example id {ex_id!r}")
        return DirectionalExample(ex_id, src_lang, tgt_lang, src, tgt, provenance)

    return parse_json_lines(stream, path, example)


def slices(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Lists of the next size items, the last one shorter, each taken from
    items only when the one before it has been used."""
    items = iter(items)
    while part := list(islice(items, size)):
        yield part


def write_lines(lines: Iterable[str], stream: IO[str]) -> int:
    """Write each line and a newline, one write per line; return the count."""
    n = 0
    for n, line in enumerate(lines, 1):
        stream.write(f"{line}\n")
    return n


def write_jsonl(items: Iterable, stream: IO[str]) -> int:
    """Write each item's to_line(), which equals json_line(item.to_json()),
    as one line (write_lines); return the count."""
    return write_lines((item.to_line() for item in items), stream)


def _score_entry(obj: dict, is_new: Callable[[str], bool]) -> tuple[str, float]:
    """The (id, score) of one sidecar line, whose id is_new must accept; is_new
    adds nothing when it refuses, so asking it twice gives the same answer.

    A line with a non-empty str id and a float score in [0, 1] is taken in one
    pass, is_new asked last; any other line goes through the checks in turn,
    so each refusal keeps its message and its order."""
    pair_id, raw = obj.get("id"), obj.get("qe_score")
    if type(pair_id) is str and pair_id and type(raw) is float and 0.0 <= raw <= 1.0 and is_new(pair_id):
        return pair_id, raw
    (pair_id,) = required_fields(obj, ("id",))
    (raw,) = required_fields(obj, ("qe_score",), object)
    if not pair_id:
        raise RecordParseError("field 'id' must be a non-empty string")
    if not is_new(pair_id):
        raise RecordParseError(f"duplicate score entry for id {pair_id!r}")
    return pair_id, check_score(raw, pair_id)


def read_score_sidecar(stream: Iterable[str], path: str | None = None) -> dict[str, float]:
    """Load an {"id", "qe_score"} sidecar into a map. Extra fields are ignored,
    so full scored-pair files double as sidecars."""
    scores: dict[str, float] = {}
    for pair_id, score in parse_json_lines(stream, path, partial(_score_entry, is_new=lambda i: i not in scores)):
        scores[pair_id] = score
    return scores


class _InStepScores:
    """The scores of a regular sidecar file, read forward as lookups ask for them.

    A lookup reads lines until it meets its id, checking each line it passes
    as read_score_sidecar does, repeats included, and keeping none of them. So
    lookups made in the file's line order cost no map, even when they skip
    lines, such as filter's lookups past the pairs a rule rejected. A lookup
    that reaches the end of the file hands over to read_score_sidecar's map of
    the whole file, read again from the start; every line has been checked by
    then, so the map only answers or raises KeyError. Each line is checked
    once, in file order, so the first bad line raised is the one the map would
    report.
    """

    def __init__(self, f: IO[str], path: str):
        self._file, self._path = f, path
        self._entries = parse_json_lines(f, path, partial(_score_entry, is_new=SeenIds().add))
        self._map: dict[str, float] | None = None

    def __getitem__(self, pair_id: str) -> float:
        if self._map is None:
            for entry_id, score in self._entries:
                if entry_id == pair_id:
                    return score
            self._file.seek(0)
            self._map = read_score_sidecar(self._file, self._path)
        return self._map[pair_id]

    def finish(self) -> None:
        """Check the lines left after the last lookup."""
        for _ in self._entries:
            pass


@contextlib.contextmanager
def open_score_sidecar(path: str) -> Iterator[dict[str, float] | _InStepScores]:
    """The scores of the sidecar at path, looked up as scores[id], which raises
    KeyError for an id the sidecar lacks.

    A regular file is read forward in step with lookups made in its line
    order, such as mix's candidates in corpus order or filter's kept pairs, so
    a sidecar that score wrote from an expand output costs no map. Other files
    (a FIFO, /dev/stdin) cannot be read twice and are read whole into
    read_score_sidecar's map. Either way, the sidecar's error wins: if the
    block fails while the file is read in step, the rest of the file is
    checked first and its error raised, if it has one.
    """
    with open(path, encoding="utf-8") as f:
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            yield read_score_sidecar(f, path)
            return
        scores = _InStepScores(f, path)
        try:
            yield scores
        except Exception:
            scores.finish()
            raise
        scores.finish()


def write_score_sidecar(items: Iterable[tuple[str, float]], stream: IO[str]) -> int:
    """Write json_line({"id", "qe_score"}) per item (write_lines); return the
    count. Each score has passed check_score, so it is a finite float, which
    json_line writes as its repr."""
    q = encode_basestring
    return write_lines((f'{{"id":{q(pair_id)},"qe_score":{score!r}}}' for pair_id, score in items), stream)
