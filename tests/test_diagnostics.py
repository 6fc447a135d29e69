"""Repetition statistics: exact counts, NFC collapsing, stats after downsampling."""
from __future__ import annotations

import hashlib
import random
import unicodedata

from hypothesis import given
from hypothesis import strategies as st

from mmtkit.diagnostics import _TEXT_KEY_MEMO, render_histogram, target_repetition_stats
from mmtkit.directions import expand
from mmtkit.downsampling import RetentionPolicy, SampleClass, downsample
from mmtkit.records import MultiWayRecord
from mmtkit.registry import CENTERS


def full_record(registry, rec_id="f0"):
    return MultiWayRecord(
        id=rec_id, sentences={c: f"{rec_id} sentence {c}" for c in registry.codes()}
    )


def test_full_record_repetition_structure(registry, dirset):
    examples = expand(full_record(registry), dirset)
    stats = target_repetition_stats(examples)
    assert stats.max_repetition == 59
    rev = stats.by_class[SampleClass.REVERSE]
    fwd = stats.by_class[SampleClass.FORWARD]
    # en and zh targets each collect all 59 other languages as sources
    assert rev.distinct_targets == 2
    assert rev.max_repetition == 59
    assert rev.total_pairs == 118
    # each of the 58 non-center targets is reached from en and zh only
    assert fwd.distinct_targets == 58
    assert fwd.max_repetition == 2
    assert stats.histogram == {2: 58, 59: 2}


def test_mean_repetition(registry, dirset):
    stats = target_repetition_stats(expand(full_record(registry), dirset))
    assert stats.by_class[SampleClass.REVERSE].mean_repetition == 59.0
    assert stats.by_class[SampleClass.FORWARD].mean_repetition == 2.0


def test_nfc_equivalent_targets_collapse(mk_example):
    composed = "café"
    decomposed = "café"
    examples = [
        mk_example("a#fr2en", "fr", "en", "source one", composed),
        mk_example("b#de2en", "de", "en", "source two", decomposed),
    ]
    stats = target_repetition_stats(examples)
    assert len(stats.per_target) == 1
    assert stats.max_repetition == 2


def test_identical_sources_count_once(mk_example):
    examples = [
        mk_example("a#fr2en", "fr", "en", "same source", "the target"),
        mk_example("b#fr2en", "fr", "en", "same source", "the target"),
        mk_example("c#de2en", "de", "en", "same source", "the target"),
    ]
    stats = target_repetition_stats(examples)
    # (fr, h) and (de, h): language is part of the source identity
    assert stats.max_repetition == 2


def test_brute_force_recount_on_random_partial_records(registry, dirset):
    rng = random.Random(77)
    codes = registry.codes()
    examples = []
    for i in range(40):
        langs = rng.sample(codes, rng.randrange(2, 10))
        if rng.random() < 0.5:
            langs.append("en")
        rec = MultiWayRecord(
            id=f"r{i}", sentences={c: f"{c} text {i}" for c in set(langs)}
        )
        examples.extend(expand(rec, dirset))
    stats = target_repetition_stats(examples)
    brute: dict[tuple[str, str], set] = {}
    for ex in examples:
        brute.setdefault((ex.tgt_lang, ex.tgt), set()).add((ex.src_lang, ex.src))
    assert len(stats.per_target) == len(brute)
    assert sorted(stats.per_target.values()) == sorted(len(v) for v in brute.values())
    assert stats.max_repetition == max((len(v) for v in brute.values()), default=0)


def _reference_stats(examples):
    """The per-target sets of (lang, 16-digit hex key) tuples the packed int keys replaced."""
    def key(text):
        return hashlib.sha256(unicodedata.normalize("NFC", text).encode("utf-8")).hexdigest()[:16]

    sources: dict[tuple[str, str], set] = {}
    for ex in examples:
        sources.setdefault((ex.tgt_lang, key(ex.tgt)), set()).add((ex.src_lang, key(ex.src)))
    per_target = {k: len(v) for k, v in sources.items()}
    histogram: dict[int, int] = {}
    by_class: dict[SampleClass, list[int]] = {c: [] for c in SampleClass}
    for (lang, _), count in per_target.items():
        histogram[count] = histogram.get(count, 0) + 1
        by_class[SampleClass.REVERSE if lang in CENTERS else SampleClass.FORWARD].append(count)
    return per_target, histogram, {c: (len(v), sum(v), max(v, default=0)) for c, v in by_class.items()}


# Canonically equivalent spellings, and short texts so that pairs repeat.
_diag_text = st.one_of(st.sampled_from(["\u00e9", "e\u0301", "a", "b", "", "\U0001f600"]),
                       st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
_diag_example = st.tuples(st.sampled_from(["en", "zh", "fr", "de"]), st.sampled_from(["en", "zh", "fr", "ja"]),
                          _diag_text, _diag_text)


@given(st.lists(_diag_example, max_size=40))
def test_packed_keys_count_as_the_text_key_sets(mk_example, rows):
    examples = [mk_example(f"e{i}", src_lang, tgt_lang, src, tgt) for i, (src_lang, tgt_lang, src, tgt) in enumerate(rows)]
    # The same text under two languages, and an NFC variant, on every draw.
    examples += [mk_example("x", "fr", "en", "\u00e9", "\u00e9"), mk_example("y", "de", "en", "\u00e9", "e\u0301")]
    per_target, histogram, by_class = _reference_stats(examples)
    stats = target_repetition_stats(examples)
    assert list(stats.per_target.items()) == list(per_target.items())
    assert stats.histogram == histogram
    assert {c: (s.distinct_targets, s.total_pairs, s.max_repetition) for c, s in stats.by_class.items()} == by_class


def test_frozen_seeded_mean_after_policy(registry, dirset):
    # 1000 records over all 60 languages, reverse retention 5%, seed 42.
    # Independently derived: 950 of 1000 en-target texts survive with at
    # least one source; their source counts sum to 2937 (max 8).
    records = (
        MultiWayRecord(id=f"d{i:04d}", sentences={c: f"{c} s{i}" for c in registry.codes()})
        for i in range(1000)
    )
    def examples():
        for r in records:
            yield from expand(r, dirset)

    stats = target_repetition_stats(downsample(examples(), RetentionPolicy(p_reverse=0.05, seed=42)))
    en_counts = [n for (lang, _), n in stats.per_target.items() if lang == "en"]
    assert len(en_counts) == 950
    assert sum(en_counts) == 2937
    assert max(en_counts) == 8


def test_render_histogram(registry, dirset):
    stats = target_repetition_stats(expand(full_record(registry), dirset))
    text = render_histogram(stats)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("     2 sources |")
    assert lines[0].endswith(" 58")
    assert lines[1].startswith("    59 sources |")
    assert lines[1].endswith(" 2")
    from mmtkit.diagnostics import RepetitionStats

    empty = RepetitionStats(per_target={}, histogram={}, max_repetition=0, by_class={})
    assert render_histogram(empty) == "(no targets)\n"


def test_as_dict_shape(registry, dirset):
    stats = target_repetition_stats(expand(full_record(registry), dirset))
    d = stats.as_dict()
    assert d["distinct_targets"] == 60
    assert d["max_repetition"] == 59
    assert d["histogram"] == {"2": 58, "59": 2}
    assert d["by_class"]["Reverse"]["max_repetition"] == 59


@given(n_texts=st.integers(min_value=1, max_value=3 * _TEXT_KEY_MEMO),
       picks=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0), st.booleans(), st.booleans()),
                      max_size=3 * _TEXT_KEY_MEMO))
def test_text_key_memo_counts_as_the_plain_keys_past_its_bound(mk_example, n_texts, picks):
    # Texts with two canonically equivalent spellings each: the memo keys a
    # spelling, and both spellings must still count as one text.
    def spelling(i, decomposed):
        return ("cafe\u0301 " if decomposed else "caf\u00e9 ") + str(i)

    examples = [
        mk_example(f"e{k}", "fr", "en", spelling(s % n_texts, ds), spelling(t % n_texts, dt))
        for k, (s, t, ds, dt) in enumerate(picks)
    ]
    # Past the bound on every draw: one pass over twice as many texts, then the first texts again.
    examples += [mk_example(f"w{i}", "de", "zh", spelling(i, i % 2), spelling(i // 3, False))
                 for i in range(2 * _TEXT_KEY_MEMO + 1)]
    examples += examples[:10]
    per_target, histogram, by_class = _reference_stats(examples)
    stats = target_repetition_stats(examples)
    assert list(stats.per_target.items()) == list(per_target.items())
    assert stats.histogram == histogram
    assert {c: (s.distinct_targets, s.total_pairs, s.max_repetition) for c, s in stats.by_class.items()} == by_class
