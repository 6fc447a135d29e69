"""Direction space enumeration and multi-way expansion."""
from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import any_text

from mmtkit.directions import _COVERED_MEMO, Direction, covered, enumerate_directions, expand, expand_lines
from mmtkit.errors import MissingCenter
from mmtkit.records import MultiWayRecord, Provenance
from mmtkit.registry import load_registry


def test_builtin_counts(dirset):
    assert dirset.direction_count == 234
    assert dirset.pair_count == 117
    assert len(dirset.directions) == 234
    assert len(set(dirset.directions)) == 234


def test_every_direction_touches_a_center(dirset):
    for d in dirset.directions:
        assert "en" in (d.src, d.tgt) or "zh" in (d.src, d.tgt)
        assert d.src != d.tgt


def test_center_pair_enumerated_once_in_en_block(dirset):
    ds = list(dirset.directions)
    assert ds.count(Direction("en", "zh")) == 1
    assert ds.count(Direction("zh", "en")) == 1
    # En-centric block first: 59 languages x 2 directions, then the Zh block.
    en_block, zh_block = ds[:118], ds[118:]
    assert all("en" in (d.src, d.tgt) for d in en_block)
    assert all("en" not in (d.src, d.tgt) and "zh" in (d.src, d.tgt) for d in zh_block)
    assert len(zh_block) == 116


def test_registry_order_preserved(registry, dirset):
    non_en = [c for c in registry.codes() if c != "en"]
    assert dirset.directions[0] == Direction("en", non_en[0])
    assert dirset.directions[1] == Direction(non_en[0], "en")


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction("en", "en")
    with pytest.raises(ValueError):
        Direction("fr", "de")
    assert str(Direction("fr", "zh")) == "fr->zh"


def test_is_reverse():
    assert not Direction("en", "fr").is_reverse
    assert Direction("fr", "en").is_reverse
    assert Direction("en", "zh").is_reverse
    assert Direction("zh", "en").is_reverse


def test_missing_center_registry(tmp_path):
    import json

    rows = [
        {"code": c, "name": c, "script": "L", "family": "F", "tier": "High"}
        for c in ("en", "fr")
    ]
    path = tmp_path / "langs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(MissingCenter):
        load_registry(str(path))


def test_expand_full_record(dirset):
    rec = MultiWayRecord(id="r7", sentences={"en": "E", "zh": "Z", "fr": "F"})
    out = expand(rec, dirset)
    assert len(out) == 6
    ids = {ex.id for ex in out}
    assert ids == {"r7#en2zh", "r7#zh2en", "r7#en2fr", "r7#fr2en", "r7#zh2fr", "r7#fr2zh"}
    by_id = {ex.id: ex for ex in out}
    assert by_id["r7#en2fr"].src == "E" and by_id["r7#en2fr"].tgt == "F"
    assert by_id["r7#fr2zh"].src == "F" and by_id["r7#fr2zh"].tgt == "Z"
    assert all(ex.provenance is Provenance.HUMAN for ex in out)


def test_expand_partial_record_skips_missing(dirset):
    rec = MultiWayRecord(id="r8", sentences={"fr": "F", "de": "D"})
    assert expand(rec, dirset) == []
    rec = MultiWayRecord(id="r9", sentences={"en": "E", "de": "D"})
    out = expand(rec, dirset)
    assert {ex.id for ex in out} == {"r9#en2de", "r9#de2en"}


def test_expand_order_follows_dirset(dirset):
    rec = MultiWayRecord(id="r10", sentences={"en": "E", "zh": "Z", "ar": "A"})
    out = expand(rec, dirset)
    suffixes = [ex.id.split("#", 1)[1] for ex in out]
    wanted = [
        d.id_tag[1:]
        for d in dirset.directions
        if {d.src, d.tgt} <= {"en", "zh", "ar"}
    ]
    assert suffixes == wanted


@given(
    langs=st.sets(
        st.sampled_from(["en", "zh", "fr", "de", "ar", "ja", "bg", "sw"]), max_size=6
    )
)
def test_expand_count_matches_brute_force(dirset, langs):
    sentences = {lang: f"text-{lang}" for lang in langs}
    rec = MultiWayRecord(id="p", sentences=sentences)
    out = expand(rec, dirset)
    expected = sum(1 for d in dirset.directions if d.src in langs and d.tgt in langs)
    assert len(out) == expected
    assert len({ex.id for ex in out}) == len(out)


_LANGS = ["en", "zh", "fr", "de", "ar", "ja", "bg", "sw", "ru", "ko"]


@settings(max_examples=25)  # each draw walks more than twice the memo's bound
@given(drawn=st.lists(st.sets(st.sampled_from(_LANGS)), max_size=30), order=st.randoms(use_true_random=False))
def test_covered_memo_answers_as_covered_past_its_bound(registry, drawn, order):
    # Twice the bound of distinct language sets, drawn sets around them and
    # again after, in the first key order and a shuffled one.
    dirset = enumerate_directions(registry)
    many = [{"en", *(lang for bit, lang in enumerate(_LANGS[1:]) if i >> bit & 1)} for i in range(2 * _COVERED_MEMO + 1)]
    for i, langs in enumerate(drawn + many + drawn):
        codes = sorted(langs)
        order.shuffle(codes)
        rec = MultiWayRecord(id=f"r{i}", sentences={lang: f"text-{lang}" for lang in codes})
        assert covered(rec, dirset) == tuple(d for d in dirset.directions if d.src in langs and d.tgt in langs)
        assert len(dirset._covered) <= _COVERED_MEMO


def test_covered_memo_is_no_field_of_the_direction_set(registry):
    dirset, fresh = enumerate_directions(registry), enumerate_directions(registry)
    for i in range(3 * _COVERED_MEMO // 2):
        langs = ["en", *(lang for bit, lang in enumerate(_LANGS[1:]) if i >> bit & 1)]
        expand(MultiWayRecord(id=f"r{i}", sentences={lang: f"text-{lang}" for lang in langs}), dirset)
    assert dirset._covered
    assert not fresh._covered
    assert dirset == fresh
    assert hash(dirset) == hash(fresh)
    assert repr(dirset) == repr(fresh)
    for twin in (copy.copy(dirset), copy.deepcopy(dirset), pickle.loads(pickle.dumps(dirset))):
        assert twin == fresh and hash(twin) == hash(fresh)
        assert twin._covered == {}  # rebuilt through __init__
    with pytest.raises(AttributeError):
        dirset._covered = {}


@given(
    record_id=any_text.filter(bool),
    sentences=st.dictionaries(st.sampled_from(_LANGS), any_text, max_size=len(_LANGS)),
)
def test_expand_lines_are_the_examples_lines(dirset, record_id, sentences):
    # Ids and sentences draw quotes, backslashes, C0 controls, U+2028, lone
    # surrogates and non-BMP characters; a language set may miss either
    # center, or both, so a record may cover no direction at all.
    record = MultiWayRecord(id=record_id, sentences=sentences)
    assert expand_lines(record, dirset) == [e.to_line() for e in expand(record, dirset)]
