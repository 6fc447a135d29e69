"""Language registry and auxiliary-language lookup.

The built-in registry ships 60 languages with script/family/tier metadata and
a 19-entry auxiliary map used for parallel multilingual prompting. Custom
registries load from line-delimited JSON and must contain both center
languages (en, zh); everything else about them is up to the caller.
"""
from __future__ import annotations

import contextlib
import json
import os
import stat
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

    def auxiliary_for(self, src: str, tgt: str) -> str | None:
        """Auxiliary language for a center-involving direction, or None.

        En-centric directions use the per-language auxiliary table (absent
        entries mean no auxiliary); Zh-centric directions always anchor on
        en; the en-zh pair itself has no auxiliary. The lookup is symmetric
        in direction (src->tgt and tgt->src agree).
        """
        self.language(src)
        self.language(tgt)
        problem = direction_error(src, tgt)
        if problem is not None:
            raise ValueError(problem)
        if src in CENTERS and tgt in CENTERS:
            return None
        x = tgt if src in CENTERS else src
        if "en" in (src, tgt):
            return self.auxiliaries.get(x)
        return "en"


def direction_error(src: str, tgt: str) -> str | None:
    """Why src->tgt is not a supported direction, or None when it is.

    A supported direction has two different sides, at least one of which is
    a center language.
    """
    if src == tgt:
        return f"direction with identical sides: {src!r}"
    if src not in CENTERS and tgt not in CENTERS:
        return f"direction {src}->{tgt} does not involve a center language"
    return None


def _parse_language_line(obj: dict, line_no: int, path: str | None) -> Language:
    code, name, script, family, tier = required_fields(obj, _LANG_FIELDS, line_no, path)
    if not code:
        raise RecordParseError("empty language code", line_no, path)
    if code != code.lower():
        raise RecordParseError(f"language code must be lowercase: {code!r}", line_no, path)
    try:
        tier = Tier(tier)
    except ValueError:
        raise RecordParseError(
            f"field 'tier' must be one of {[t.value for t in Tier]}, got {tier!r}",
            line_no,
            path,
        ) from None
    return Language(code, name, script, family, tier)


# Decodes one JSON value at the start of a string and says where it ended.
_raw_decode = json.JSONDecoder().raw_decode


def parse_json_lines(stream: Iterable[str], path: str | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) for each non-blank line; line numbers are 1-based.
    A stream that is not valid UTF-8 raises at its first undecodable line."""
    try:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            # A stripped line holds no JSON whitespace at either end, so a value
            # that spans all of it is exactly what json.loads accepts. Anything
            # else goes through json.loads for its error message.
            try:
                obj, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise RecordParseError(f"invalid JSON ({e.msg})", line_no, path) from None
            if not isinstance(obj, dict):
                raise RecordParseError("expected a JSON object", line_no, path)
            yield line_no, obj
    except UnicodeDecodeError:
        # The decoder fails a whole read chunk ahead of the lines yielded so far.
        raise RecordParseError("invalid UTF-8", _first_invalid_utf8_line(path), path) from None


def _first_invalid_utf8_line(path: str | None) -> int | None:
    """Number of the first line of the regular file at path that is not valid
    UTF-8; None when there is no such file to read again."""
    try:
        if path is None or not stat.S_ISREG(os.stat(path).st_mode):
            return None
        # latin-1 maps each byte to one character, and UTF-8 multi-byte
        # sequences hold no line-break bytes, so lines split as in a UTF-8 read.
        with open(path, encoding="latin-1") as f:
            for line_no, line in enumerate(f, start=1):
                try:
                    line.encode("latin-1").decode("utf-8")
                except UnicodeDecodeError:
                    return line_no
    except OSError:
        pass
    return None


_KIND_NAMES = {str: "a string", dict: "an object", int: "an integer"}


def required_fields(
    obj: dict, names: tuple[str, ...], line_no: int, path: str | None, kind: type = str
) -> list:
    """Values of the named fields of one parsed line. Each must be present and
    an instance of kind (kind=object checks presence only; kind=int refuses a
    JSON boolean); else RecordParseError."""
    values = []
    for name in names:
        try:
            value = obj[name]
        except KeyError:
            raise RecordParseError(f"missing field {name!r}", line_no, path) from None
        # bool subclasses int, so kind=int takes the exact type alone.
        if type(value) is not kind and (kind is int or not isinstance(value, kind)):
            raise RecordParseError(f"field {name!r} must be {_KIND_NAMES[kind]}", line_no, path)
        values.append(value)
    return values


def _load_languages(lines: Iterable[str], path: str | None) -> dict[str, Language]:
    languages: dict[str, Language] = {}
    for line_no, obj in parse_json_lines(lines, path):
        lang = _parse_language_line(obj, line_no, path)
        if lang.code in languages:
            raise DuplicateLanguage(f"duplicate language code {lang.code!r}", line_no, path)
        languages[lang.code] = lang
    return languages


def _load_auxiliaries(lines: Iterable[str], path: str | None, languages: dict[str, Language]) -> dict[str, str]:
    aux: dict[str, str] = {}
    for line_no, obj in parse_json_lines(lines, path):
        lang, a = required_fields(obj, ("lang", "aux"), line_no, path)
        for code in (lang, a):
            if code not in languages:
                raise UnknownLanguage(code, line_no, path)
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


@contextlib.contextmanager
def _registry_file(path: str | None, builtin: str):
    """(lines, name) of a registry file; the bundled data/<builtin>.jsonl when
    path is None."""
    if path is None:
        text = resources.files("mmtkit").joinpath(f"data/{builtin}.jsonl").read_text(encoding="utf-8")
        yield text.splitlines(), f"builtin:{builtin}"
    else:
        with open(path, encoding="utf-8") as f:
            yield f, path


def load_registry(lang_path: str | None = None, aux_path: str | None = None) -> Registry:
    """Load a registry from files, or the built-in one when lang_path is None.

    With a custom language file and no auxiliary file, the auxiliary map is
    empty (Zh-centric lookups still resolve to en by rule). The built-in
    auxiliary map is only used together with the built-in language table.
    """
    with _registry_file(lang_path, "languages") as (lines, name):
        languages = _load_languages(lines, name)
    for center in CENTERS:
        if center not in languages:
            raise MissingCenter(f"registry must contain center language {center!r}")
    auxiliaries: dict[str, str] = {}
    if lang_path is None or aux_path is not None:
        with _registry_file(aux_path, "auxiliaries") as (lines, name):
            auxiliaries = _load_auxiliaries(lines, name, languages)
    return Registry(languages=languages, auxiliaries=auxiliaries)
