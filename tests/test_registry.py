"""Registry loading, tier metadata, and auxiliary-language resolution."""
from __future__ import annotations

import json

import pytest

from mmtkit.errors import (
    DuplicateLanguage,
    MissingCenter,
    RecordParseError,
    UnknownLanguage,
)
from mmtkit.registry import Tier, load_registry

AUX_TABLE = {
    "bg": "ru", "da": "de", "fa": "ar", "no": "de", "ro": "it", "sk": "cs",
    "sv": "de", "uk": "ru", "vi": "fr", "az": "tr", "hr": "pl", "is": "de",
    "kk": "ru", "ky": "ru", "ps": "ar", "tg": "ru", "tl": "es", "ur": "fa",
    "uz": "tr",
}


def test_builtin_shape(registry):
    assert len(registry) == 60
    tiers = [lang.tier for lang in registry.languages.values()]
    assert tiers.count(Tier.HIGH) == 13
    assert tiers.count(Tier.MEDIUM) == 18
    assert tiers.count(Tier.LOW) == 29
    assert "en" in registry and "zh" in registry


def test_builtin_names_and_tiers(registry):
    assert registry.language("en").name == "English"
    assert registry.language("zh").name == "Chinese"
    assert registry.language("bg").name == "Bulgarian"
    assert registry.tier_of("en") is Tier.HIGH
    assert registry.tier_of("bg") is Tier.MEDIUM
    assert registry.tier_of("am") is Tier.LOW


def test_unknown_language(registry):
    with pytest.raises(UnknownLanguage):
        registry.language("xx")
    with pytest.raises(UnknownLanguage):
        registry.tier_of("xx")
    with pytest.raises(UnknownLanguage):
        registry.auxiliary_for("en", "xx")


def test_auxiliary_table_complete(registry):
    assert registry.auxiliaries == AUX_TABLE
    for lang, aux in AUX_TABLE.items():
        assert registry.auxiliary_for("en", lang) == aux
        assert registry.auxiliary_for(lang, "en") == aux


def test_auxiliary_zh_centric_always_en(registry):
    for code in registry.codes():
        if code in ("en", "zh"):
            continue
        assert registry.auxiliary_for("zh", code) == "en"
        assert registry.auxiliary_for(code, "zh") == "en"


def test_auxiliary_center_pair_and_absent_entries(registry):
    assert registry.auxiliary_for("en", "zh") is None
    assert registry.auxiliary_for("zh", "en") is None
    for code in ("fr", "de", "ru", "am"):
        assert registry.auxiliary_for("en", code) is None
        assert registry.auxiliary_for(code, "en") is None


def test_auxiliary_rejects_bad_directions(registry):
    with pytest.raises(ValueError):
        registry.auxiliary_for("en", "en")
    with pytest.raises(ValueError):
        registry.auxiliary_for("fr", "de")


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _lang(code, tier="High"):
    return {"code": code, "name": code.upper(), "script": "Latn", "family": "F", "tier": tier}


def test_custom_registry_without_aux_file(tmp_path):
    langs = tmp_path / "langs.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), _lang("fr", "Medium")])
    reg = load_registry(str(langs))
    assert len(reg) == 3
    assert reg.auxiliaries == {}
    assert reg.auxiliary_for("en", "fr") is None
    assert reg.auxiliary_for("zh", "fr") == "en"


def test_custom_registry_with_aux_file(tmp_path):
    langs = tmp_path / "langs.jsonl"
    aux = tmp_path / "aux.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), _lang("fr"), _lang("de")])
    _write_jsonl(aux, [{"lang": "fr", "aux": "de"}])
    reg = load_registry(str(langs), str(aux))
    assert reg.auxiliary_for("en", "fr") == "de"
    assert reg.auxiliary_for("en", "de") is None


def test_missing_center_rejected(tmp_path):
    langs = tmp_path / "langs.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("fr")])
    with pytest.raises(MissingCenter):
        load_registry(str(langs))


def test_duplicate_language_rejected(tmp_path):
    langs = tmp_path / "langs.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), _lang("fr"), _lang("fr")])
    with pytest.raises(DuplicateLanguage):
        load_registry(str(langs))


@pytest.mark.parametrize(
    "row,message_part",
    [
        ({"code": "fr", "name": "F", "script": "L", "family": "F"}, "tier"),
        ({"code": "fr", "name": "F", "script": "L", "family": "F", "tier": "Huge"}, "tier"),
        ({"code": "FR", "name": "F", "script": "L", "family": "F", "tier": "High"}, "lowercase"),
        ({"code": "", "name": "F", "script": "L", "family": "F", "tier": "High"}, "empty"),
    ],
)
def test_bad_language_rows(tmp_path, row, message_part):
    langs = tmp_path / "langs.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), row])
    with pytest.raises(RecordParseError) as exc:
        load_registry(str(langs))
    assert message_part in str(exc.value)


def test_invalid_json_line_reports_line_number(tmp_path):
    langs = tmp_path / "langs.jsonl"
    langs.write_text(json.dumps(_lang("en")) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(RecordParseError) as exc:
        load_registry(str(langs))
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("bad_file", ["languages", "auxiliaries"])
def test_non_object_line_reports_file_and_line(tmp_path, bad_file):
    langs = tmp_path / "langs.jsonl"
    aux = tmp_path / "aux.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), _lang("fr"), _lang("de")])
    _write_jsonl(aux, [{"lang": "fr", "aux": "de"}])
    bad = langs if bad_file == "languages" else aux
    bad.write_text(bad.read_text(encoding="utf-8") + "[1, 2]\n", encoding="utf-8")
    with pytest.raises(RecordParseError) as exc:
        load_registry(str(langs), str(aux))
    line = 5 if bad_file == "languages" else 2
    assert str(exc.value) == f"{bad}:line {line}: expected a JSON object"


@pytest.mark.parametrize(
    "aux_row",
    [
        {"lang": "en", "aux": "fr"},  # center cannot have an auxiliary
        {"lang": "fr", "aux": "zh"},  # auxiliary must not be a center
        {"lang": "fr", "aux": "fr"},  # self-auxiliary
    ],
)
def test_bad_aux_rows(tmp_path, aux_row):
    langs = tmp_path / "langs.jsonl"
    aux = tmp_path / "aux.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), _lang("fr"), _lang("de")])
    _write_jsonl(aux, [aux_row])
    with pytest.raises(RecordParseError):
        load_registry(str(langs), str(aux))


def test_aux_unknown_language_and_duplicate(tmp_path):
    langs = tmp_path / "langs.jsonl"
    aux = tmp_path / "aux.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), _lang("fr"), _lang("de")])
    _write_jsonl(aux, [{"lang": "sw", "aux": "de"}])
    with pytest.raises(UnknownLanguage):
        load_registry(str(langs), str(aux))
    _write_jsonl(aux, [{"lang": "fr", "aux": "de"}, {"lang": "fr", "aux": "de"}])
    with pytest.raises(RecordParseError):
        load_registry(str(langs), str(aux))


@pytest.mark.parametrize("bad_file", ["languages", "auxiliaries"])
def test_invalid_utf8_reports_file_and_line(tmp_path, bad_file):
    langs = tmp_path / "langs.jsonl"
    aux = tmp_path / "aux.jsonl"
    _write_jsonl(langs, [_lang("en"), _lang("zh"), _lang("fr"), _lang("de"), _lang("ru")])
    _write_jsonl(aux, [{"lang": "fr", "aux": "de"}, {"lang": "de", "aux": "fr"}, {"lang": "ru", "aux": "de"}])
    bad = langs if bad_file == "languages" else aux
    lines = bad.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"', b'"\xff\xfe', 1)  # inside the first key
    bad.write_bytes(b"".join(lines))
    with pytest.raises(RecordParseError) as exc:
        load_registry(str(langs), str(aux))
    assert str(exc.value) == f"{bad}:line 3: invalid UTF-8"


def test_registry_mappings_are_read_only(registry):
    from mmtkit.registry import Language, Registry

    bg = registry.language("bg")
    with pytest.raises(TypeError):
        registry.languages["xx"] = bg
    with pytest.raises(TypeError):
        registry.auxiliaries["bg"] = "uk"
    with pytest.raises(TypeError):
        hash(registry)
    assert "xx" not in registry and registry.auxiliary_for("en", "bg") == "ru"
    # A registry holds copies: the dicts it was built from stay the caller's.
    languages = {c: registry.language(c) for c in ("en", "zh")}
    built = Registry(languages)
    languages["bg"] = bg
    assert built.codes() == ["en", "zh"] and built == Registry({c: registry.language(c) for c in ("en", "zh")}, {})
    assert isinstance(built.languages["en"], Language)
