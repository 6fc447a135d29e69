"""Language registry and auxiliary-language lookup.

The built-in registry ships 60 languages with script/family/tier metadata and
a 19-entry auxiliary map used for parallel multilingual prompting. Custom
registries load from line-delimited JSON and must contain both center
languages (en, zh); everything else about them is up to the caller.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterable, Iterator

from .errors import (
    DuplicateLanguage,
    MissingCenter,
    RecordParseError,
    UnknownLanguage,
)

CENTERS = ("en", "zh")

_LANG_FIELDS = ("code", "name", "script", "family", "tier")


class Tier(str, Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"


@dataclass(frozen=True)
class Language:
    code: str
    name: str
    script: str
    family: str
    tier: Tier


@dataclass(frozen=True)
class Registry:
    """Immutable after load; safe for concurrent shared reads."""

    languages: dict[str, Language]
    auxiliaries: dict[str, str] = field(default_factory=dict)
    centers: tuple[str, str] = CENTERS

    def __contains__(self, code: str) -> bool:
        return code in self.languages

    def __len__(self) -> int:
        return len(self.languages)

    def codes(self) -> list[str]:
        return list(self.languages)

    def language(self, code: str) -> Language:
        try:
            return self.languages[code]
        except KeyError:
            raise UnknownLanguage(code) from None

    def tier_of(self, code: str) -> Tier:
        return self.language(code).tier

    def name_of(self, code: str) -> str:
        return self.language(code).name

    def tier_counts(self) -> dict[Tier, int]:
        counts = {t: 0 for t in Tier}
        for lang in self.languages.values():
            counts[lang.tier] += 1
        return counts

    def is_center(self, code: str) -> bool:
        return code in self.centers

    def auxiliary_for(self, src: str, tgt: str) -> str | None:
        """Auxiliary language for a center-involving direction, or None.

        En-centric directions use the per-language auxiliary table (absent
        entries mean no auxiliary); Zh-centric directions always anchor on
        en; the en-zh pair itself has no auxiliary. The lookup is symmetric
        in direction (src->tgt and tgt->src agree).
        """
        self.language(src)
        self.language(tgt)
        if src == tgt:
            raise ValueError(f"direction with identical sides: {src!r}")
        sides = {src, tgt}
        centers = set(self.centers)
        involved = sides & centers
        if not involved:
            raise ValueError(f"direction {src}->{tgt} does not involve a center language")
        if sides <= centers:
            return None
        x = (sides - centers).pop()
        if "en" in involved:
            return self.auxiliaries.get(x)
        return "en"


def _parse_language_line(obj: dict, line_no: int, path: str | None) -> Language:
    for f in _LANG_FIELDS:
        if f not in obj:
            raise RecordParseError(f"missing field {f!r}", line_no, path)
        if not isinstance(obj[f], str):
            raise RecordParseError(f"field {f!r} must be a string", line_no, path)
    code = obj["code"]
    if not code:
        raise RecordParseError("empty language code", line_no, path)
    if code != code.lower():
        raise RecordParseError(f"language code must be lowercase: {code!r}", line_no, path)
    try:
        tier = Tier(obj["tier"])
    except ValueError:
        raise RecordParseError(
            f"field 'tier' must be one of {[t.value for t in Tier]}, got {obj['tier']!r}",
            line_no,
            path,
        ) from None
    return Language(code, obj["name"], obj["script"], obj["family"], tier)


def parse_json_lines(stream: Iterable[str], path: str | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) for each non-blank line; line numbers are 1-based."""
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise RecordParseError(f"invalid JSON ({e.msg})", line_no, path) from None
        if not isinstance(obj, dict):
            raise RecordParseError("expected a JSON object", line_no, path)
        yield line_no, obj


def _load_languages(lines: Iterable[str], path: str | None) -> dict[str, Language]:
    languages: dict[str, Language] = {}
    for line_no, obj in parse_json_lines(lines, path):
        lang = _parse_language_line(obj, line_no, path)
        if lang.code in languages:
            raise DuplicateLanguage(f"duplicate language code {lang.code!r} (line {line_no})")
        languages[lang.code] = lang
    return languages


def _load_auxiliaries(lines: Iterable[str], path: str | None, languages: dict[str, Language]) -> dict[str, str]:
    aux: dict[str, str] = {}
    for line_no, obj in parse_json_lines(lines, path):
        for f in ("lang", "aux"):
            if f not in obj or not isinstance(obj[f], str):
                raise RecordParseError(f"auxiliary entry needs string field {f!r}", line_no, path)
        lang, a = obj["lang"], obj["aux"]
        if lang not in languages:
            raise UnknownLanguage(lang)
        if a not in languages:
            raise UnknownLanguage(a)
        if lang in CENTERS:
            raise RecordParseError(f"center language {lang!r} cannot have an auxiliary", line_no, path)
        if a in CENTERS:
            raise RecordParseError(f"auxiliary must not be a center language: {a!r}", line_no, path)
        if a == lang:
            raise RecordParseError(f"language {lang!r} cannot be its own auxiliary", line_no, path)
        if lang in aux:
            raise RecordParseError(f"duplicate auxiliary entry for {lang!r}", line_no, path)
        aux[lang] = a
    return aux


def _builtin_text(name: str) -> str:
    return resources.files("mmtkit").joinpath(f"data/{name}").read_text(encoding="utf-8")


def load_registry(lang_path: str | None = None, aux_path: str | None = None) -> Registry:
    """Load a registry from files, or the built-in one when lang_path is None.

    With a custom language file and no auxiliary file, the auxiliary map is
    empty (Zh-centric lookups still resolve to en by rule). The built-in
    auxiliary map is only used together with the built-in language table.
    """
    if lang_path is None:
        languages = _load_languages(_builtin_text("languages.jsonl").splitlines(), "builtin:languages")
        if aux_path is None:
            aux_lines = _builtin_text("auxiliaries.jsonl").splitlines()
            aux_src = "builtin:auxiliaries"
        else:
            with open(aux_path, encoding="utf-8") as f:
                aux_lines = f.read().splitlines()
            aux_src = aux_path
    else:
        with open(lang_path, encoding="utf-8") as f:
            languages = _load_languages(f.read().splitlines(), lang_path)
        if aux_path is None:
            aux_lines, aux_src = [], None
        else:
            with open(aux_path, encoding="utf-8") as f:
                aux_lines = f.read().splitlines()
            aux_src = aux_path

    for center in CENTERS:
        if center not in languages:
            raise MissingCenter(f"registry must contain center language {center!r}")
    auxiliaries = _load_auxiliaries(aux_lines, aux_src, languages)
    return Registry(languages=languages, auxiliaries=auxiliaries)
