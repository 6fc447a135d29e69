"""Core record types and streaming line-delimited JSON persistence.

Three file flavors, all UTF-8, one JSON object per line:
  *.mwjsonl  multi-way records   {"id", "sentences": {lang: text, ...}}
  *.djsonl   directional pairs   {"id", "src_lang", "tgt_lang", "src", "tgt", "provenance"}
  *.sjsonl   scored pairs        directional fields plus "qe_score"

Readers yield one record at a time and never buffer the file; the only state
kept across lines is the set of seen ids for uniqueness checking.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator

from .errors import (
    DuplicateRecordId,
    InvalidScore,
    RecordParseError,
    UnknownLanguage,
)
from .registry import CENTERS, Registry, parse_json_lines


class Provenance(str, Enum):
    HUMAN = "human"
    SYNTH_DIRECT = "synth_direct"
    SYNTH_PIVOT = "synth_pivot"


def json_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


@dataclass(frozen=True)
class MultiWayRecord:
    id: str
    sentences: dict[str, str]

    def validate(self, registry: Registry | None = None) -> None:
        if not self.id:
            raise RecordParseError("record id must be non-empty")
        for lang, text in self.sentences.items():
            if registry is not None and lang not in registry:
                raise UnknownLanguage(lang)
            if not isinstance(text, str) or not text:
                raise RecordParseError(f"sentence for {lang!r} must be a non-empty string")

    def to_json(self) -> dict:
        return {"id": self.id, "sentences": dict(self.sentences)}


@dataclass(frozen=True)
class DirectionalExample:
    id: str
    src_lang: str
    tgt_lang: str
    src: str
    tgt: str
    provenance: Provenance = Provenance.HUMAN

    def validate(self) -> None:
        if not self.id:
            raise RecordParseError("example id must be non-empty")
        if self.src_lang == self.tgt_lang:
            raise RecordParseError(f"identical source and target language {self.src_lang!r}")
        if self.src_lang not in CENTERS and self.tgt_lang not in CENTERS:
            raise RecordParseError(
                f"direction {self.src_lang}->{self.tgt_lang} does not involve a center language"
            )
        if not self.src or not self.tgt:
            raise RecordParseError(f"example {self.id!r} has an empty text side")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "src_lang": self.src_lang,
            "tgt_lang": self.tgt_lang,
            "src": self.src,
            "tgt": self.tgt,
            "provenance": self.provenance.value,
        }


@dataclass(frozen=True)
class ScoredPair:
    example: DirectionalExample
    qe_score: float

    def validate(self) -> None:
        self.example.validate()
        check_score(self.qe_score, self.example.id)

    def to_json(self) -> dict:
        obj = self.example.to_json()
        obj["qe_score"] = self.qe_score
        return obj


def check_score(score, owner: str) -> float:
    if not isinstance(score, (int, float)) or isinstance(score, bool):
        raise InvalidScore(f"score for {owner!r} must be a number, got {score!r}")
    if not 0.0 <= score <= 1.0:
        raise InvalidScore(f"score for {owner!r} outside [0, 1]: {score}")
    return float(score)


def _require(obj: dict, field: str, line_no: int, path: str | None):
    if field not in obj:
        raise RecordParseError(f"missing field {field!r}", line_no, path)
    return obj[field]


def read_multiway(
    stream: Iterable[str],
    registry: Registry | None = None,
    path: str | None = None,
    check_unique: bool = True,
) -> Iterator[MultiWayRecord]:
    seen: set[str] = set()
    for line_no, obj in parse_json_lines(stream, path):
        rec_id = _require(obj, "id", line_no, path)
        sentences = _require(obj, "sentences", line_no, path)
        if not isinstance(rec_id, str) or not isinstance(sentences, dict):
            raise RecordParseError("fields 'id' (string) and 'sentences' (object) required", line_no, path)
        rec = MultiWayRecord(id=rec_id, sentences=sentences)
        try:
            rec.validate(registry)
        except (RecordParseError, UnknownLanguage) as e:
            raise RecordParseError(str(e), line_no, path) from None
        if check_unique:
            if rec.id in seen:
                raise DuplicateRecordId(f"duplicate record id {rec.id!r} (line {line_no})")
            seen.add(rec.id)
        yield rec


def read_examples(
    stream: Iterable[str],
    path: str | None = None,
    check_unique: bool = True,
    validate: bool = True,
) -> Iterator[DirectionalExample]:
    """Parse directional examples. validate=False skips the semantic checks
    (empty texts, center rule) so that dirty pairs reach filter rules as data."""
    seen: set[str] = set()
    for line_no, obj in parse_json_lines(stream, path):
        ex = _example_from_json(obj, line_no, path, validate=validate)
        if check_unique:
            if ex.id in seen:
                raise DuplicateRecordId(f"duplicate example id {ex.id!r} (line {line_no})")
            seen.add(ex.id)
        yield ex


def _example_from_json(
    obj: dict, line_no: int, path: str | None, validate: bool = True
) -> DirectionalExample:
    for f in ("id", "src_lang", "tgt_lang", "src", "tgt"):
        v = _require(obj, f, line_no, path)
        if not isinstance(v, str):
            raise RecordParseError(f"field {f!r} must be a string", line_no, path)
    prov = obj.get("provenance", Provenance.HUMAN.value)
    try:
        provenance = Provenance(prov)
    except ValueError:
        raise RecordParseError(f"unknown provenance {prov!r}", line_no, path) from None
    ex = DirectionalExample(
        id=obj["id"],
        src_lang=obj["src_lang"],
        tgt_lang=obj["tgt_lang"],
        src=obj["src"],
        tgt=obj["tgt"],
        provenance=provenance,
    )
    if validate:
        try:
            ex.validate()
        except RecordParseError as e:
            raise RecordParseError(str(e), line_no, path) from None
    return ex


def read_scored(stream: Iterable[str], path: str | None = None) -> Iterator[ScoredPair]:
    for line_no, obj in parse_json_lines(stream, path):
        ex = _example_from_json(obj, line_no, path)
        raw = _require(obj, "qe_score", line_no, path)
        try:
            score = check_score(raw, ex.id)
        except InvalidScore as e:
            raise InvalidScore(f"{path or '<stream>'}:line {line_no}: {e}") from None
        yield ScoredPair(example=ex, qe_score=score)


def write_multiway(records: Iterable[MultiWayRecord], stream: IO[str]) -> int:
    n = 0
    for rec in records:
        stream.write(json_line(rec.to_json()) + "\n")
        n += 1
    return n


def write_examples(examples: Iterable[DirectionalExample], stream: IO[str]) -> int:
    n = 0
    for ex in examples:
        stream.write(json_line(ex.to_json()) + "\n")
        n += 1
    return n


def write_scored(pairs: Iterable[ScoredPair], stream: IO[str]) -> int:
    n = 0
    for pair in pairs:
        stream.write(json_line(pair.to_json()) + "\n")
        n += 1
    return n


def read_score_sidecar(stream: Iterable[str], path: str | None = None) -> dict[str, float]:
    """Load an {"id", "qe_score"} sidecar into a map. Extra fields are ignored,
    so full scored-pair files double as sidecars."""
    scores: dict[str, float] = {}
    for line_no, obj in parse_json_lines(stream, path):
        pair_id = _require(obj, "id", line_no, path)
        raw = _require(obj, "qe_score", line_no, path)
        if not isinstance(pair_id, str) or not pair_id:
            raise RecordParseError("field 'id' must be a non-empty string", line_no, path)
        if pair_id in scores:
            raise RecordParseError(f"duplicate score entry for id {pair_id!r}", line_no, path)
        scores[pair_id] = check_score(raw, pair_id)
    return scores


def write_score_sidecar(items: Iterable[tuple[str, float]], stream: IO[str]) -> int:
    n = 0
    for pair_id, score in items:
        stream.write(json_line({"id": pair_id, "qe_score": score}) + "\n")
        n += 1
    return n
