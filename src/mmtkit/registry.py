"""Language registry and auxiliary-language lookup.

The built-in registry ships 60 languages with script/family/tier metadata and
a 19-entry auxiliary map used for parallel multilingual prompting. Custom
registries load from line-delimited JSON and must contain both center
languages (en, zh); each code is [a-z_]+, so that the "2" of an example id
{id}#{src}2{tgt} splits it one way only. Value and Frozen, the bases of the
package's record, value and report classes, live here: every stage imports it.
"""
from __future__ import annotations

import json
import os
import re
import stat
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import (
    DuplicateLanguage,
    MissingCenter,
    RecordParseError,
    UnknownLanguage,
)

CENTERS = ("en", "zh")

T = TypeVar("T")

_LANG_FIELDS = ("code", "name", "script", "family", "tier")
_CODE = re.compile("[a-z_]+")


class Tier(str, Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"


class Value:
    """Base of a slots class that names its fields in __match_args__, as a
    dataclass does, and writes its own __init__: field-wise == (an instance of
    another type is unequal), the dataclass repr, no hash. dataclasses itself
    would cost each stage's process about 1 MB and 10 ms (inspect, ast, dis)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"


class Frozen(Value):
    """A Value hashed by its fields, which __init__ sets through _set; setattr and delattr raise."""

    __slots__ = ()

    def _set(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle would restore the slots through __setattr__
        return type(self), self._fields()


class Language(Frozen):
    __slots__ = __match_args__ = ("code", "name", "script", "family", "tier")

    def __init__(self, code: str, name: str, script: str, family: str, tier: Tier):
        self._set(code=code, name=name, script=script, family=family, tier=tier)


class Registry(Frozen):
    """Immutable after load: languages and auxiliaries are read-only views
    (types.MappingProxyType) over copies of the dicts passed in, so a registry
    is not hashable. _templates, the memo of prompts.render_translation (each
    direction's fixed prompt pieces, at most one entry per source, target and
    auxiliary of the registry's languages), is no field: it does not count in
    == or repr, and a copy or unpickled registry starts with an empty one."""

    __match_args__ = ("languages", "auxiliaries")
    __slots__ = (*__match_args__, "_templates")

    def __init__(self, languages: dict[str, Language], auxiliaries: dict[str, str] | None = None):
        self._set(languages=MappingProxyType(dict(languages)), auxiliaries=MappingProxyType(dict(auxiliaries or ())),
                  _templates={})

    def __reduce__(self):  # a mappingproxy neither copies nor pickles
        return Registry, (dict(self.languages), dict(self.auxiliaries))

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


# The C scanner json.loads calls: (value, end) of the JSON value at an index,
# raising JSONDecodeError, or StopIteration when no value starts there.
_scan_once = json.JSONDecoder().scan_once
# The whitespace JSON allows around a value (RFC 8259); str.strip() with no
# argument would also strip what json.loads refuses, such as U+00A0 and U+3000.
_JSON_WHITESPACE = " \t\n\r"
# A \u escape of a surrogate (D800-DFFF), maybe not at an escape's start; and,
# with escaped backslashes made spaces (each backslash left starts an escape),
# a high surrogate escape no low one follows, or a low one no high one precedes.
_SURROGATE = re.compile(r"\\u[dD][89a-fA-F]")
_HIGH = r"\\u[dD][89abAB][0-9a-fA-F]{2}"
_LONE_SURROGATE = re.compile(rf"{_HIGH}(?!\\u[dD][c-fC-F])|(?<!{_HIGH})\\u[dD][c-fC-F]")


def has_lone_surrogate_escape(line: str) -> bool:
    """Whether a line json decoded holds a \\u escape of a lone surrogate.
    Callers first test it for a backslash, which most lines lack."""
    return bool(_SURROGATE.search(line) and _LONE_SURROGATE.search(line.replace("\\\\", "  ")))


def parse_json_lines(
    stream: Iterable[str], path: str | None = None, convert: Callable[[dict], T] = lambda obj: obj
) -> Iterator[T]:
    """Yield convert(object) for the JSON object on each non-blank line; a
    blank line holds only JSON whitespace (space, tab, LF, CR). Lines are
    read one at a time: line N + 1 is taken from the stream only after line
    N's object is converted and yielded. A RecordParseError raised for a
    line, by the parse or by convert, leaves here with path and the 1-based
    line number set on it. A stream that is not valid UTF-8 raises at its
    first undecodable line; a line with a \\u escape of a lone surrogate,
    text with no UTF-8 form, before convert.

    A line that starts with "{" is decoded in place by json's C scanner, with
    no stripped copy; if the object is not all of the line but JSON
    whitespace, or does not decode, json.loads decodes the stripped line,
    which gives the same objects, and the error messages, for every line."""
    try:
        for line_no, raw in enumerate(stream, start=1):
            try:
                obj, end = _scan_once(raw, 0) if raw[:1] == "{" else (None, 0)
            except (json.JSONDecodeError, StopIteration):
                obj = None
            if obj is None or raw[end:].strip(_JSON_WHITESPACE):
                line = raw.strip(_JSON_WHITESPACE)
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise RecordParseError(f"invalid JSON ({e.msg})") from None
                if not isinstance(obj, dict):
                    raise RecordParseError("expected a JSON object")
            if "\\" in raw and has_lone_surrogate_escape(raw):
                raise RecordParseError("text with no UTF-8 form (a lone surrogate escape)")
            yield convert(obj)
    except RecordParseError as e:
        if e.line_no is None:
            e.line_no, e.path = line_no, path
        raise
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


def required_fields(obj: dict, names: tuple[str, ...], kind: type = str) -> list:
    """Values of the named fields of one parsed line. Each must be present and
    an instance of kind (kind=object checks presence only; kind=int refuses a
    JSON boolean); else RecordParseError."""
    values = []
    for name in names:
        try:
            value = obj[name]
        except KeyError:
            raise RecordParseError(f"missing field {name!r}") from None
        # bool subclasses int, so kind=int takes the exact type alone.
        if type(value) is not kind and (kind is int or not isinstance(value, kind)):
            raise RecordParseError(f"field {name!r} must be {_KIND_NAMES[kind]}")
        values.append(value)
    return values


def _load_languages(lines: Iterable[str], path: str | None) -> dict[str, Language]:
    languages: dict[str, Language] = {}

    def add(obj: dict) -> None:
        code, name, script, family, tier = required_fields(obj, _LANG_FIELDS)
        if not code:
            raise RecordParseError("empty language code")
        # Example ids are {id}#{src}2{tgt}, so a code holds no digit.
        if _CODE.fullmatch(code) is None:
            raise RecordParseError(f"language code must be lowercase ASCII letters and underscores: {code!r}")
        try:
            tier = Tier(tier)
        except ValueError:
            raise RecordParseError(f"field 'tier' must be one of {[t.value for t in Tier]}, got {tier!r}") from None
        if code in languages:
            raise DuplicateLanguage(f"duplicate language code {code!r}")
        languages[code] = Language(code, name, script, family, tier)

    for _ in parse_json_lines(lines, path, add):
        pass
    return languages


def _load_auxiliaries(lines: Iterable[str], path: str | None, languages: dict[str, Language]) -> dict[str, str]:
    aux: dict[str, str] = {}

    def add(obj: dict) -> None:
        lang, a = required_fields(obj, ("lang", "aux"))
        for code in (lang, a):
            if code not in languages:
                raise UnknownLanguage(code)
        if lang in CENTERS:
            raise RecordParseError(f"center language {lang!r} cannot have an auxiliary")
        if a in CENTERS:
            raise RecordParseError(f"auxiliary must not be a center language: {a!r}")
        if a == lang:
            raise RecordParseError(f"language {lang!r} cannot be its own auxiliary")
        if lang in aux:
            raise RecordParseError(f"duplicate auxiliary entry for {lang!r}")
        aux[lang] = a

    for _ in parse_json_lines(lines, path, add):
        pass
    return aux


# The built-in registry files, beside this module (package data).
_DATA = os.path.join(os.path.dirname(__file__), "data")


def load_registry(lang_path: str | None = None, aux_path: str | None = None) -> Registry:
    """Load a registry from files, or the built-in one when lang_path is None.

    With a custom language file and no auxiliary file, the auxiliary map is
    empty (Zh-centric lookups still resolve to en by rule). The built-in
    auxiliary map is only used together with the built-in language table.
    """
    if lang_path is None:
        lang_path = os.path.join(_DATA, "languages.jsonl")
        if aux_path is None:
            aux_path = os.path.join(_DATA, "auxiliaries.jsonl")
    with open(lang_path, encoding="utf-8") as f:
        languages = _load_languages(f, lang_path)
    for center in CENTERS:
        if center not in languages:
            raise MissingCenter(f"registry must contain center language {center!r}")
    auxiliaries: dict[str, str] = {}
    if aux_path is not None:
        with open(aux_path, encoding="utf-8") as f:
            auxiliaries = _load_auxiliaries(f, aux_path, languages)
    return Registry(languages=languages, auxiliaries=auxiliaries)
