"""Heuristic rules, report conservation, and threshold semantics."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import any_text
from mmtkit.errors import MissingScore, RecordParseError
from mmtkit.filtering import (
    ControlCharFree,
    ExactDedup,
    FilterReport,
    LengthBounds,
    MaxLengthRatio,
    NonEmpty,
    SrcTgtDistinct,
    apply_heuristics,
    attach_scores,
    count_thresholds,
    default_rules,
    rules_from_config,
    threshold_filter,
    token_length,
)
from mmtkit.records import ScoredPair


def test_token_length_spaced_vs_spaceless():
    assert token_length("en", "one two three") == 3.0
    assert token_length("zh", "四个字符") == 1.0  # 4 chars -> 1 token unit
    assert token_length("ja", "ああ") == 0.5


def test_non_empty(mk_example):
    rule = NonEmpty()
    assert rule.passes(mk_example(src="a", tgt="b"))
    assert not rule.passes(mk_example(src="   ", tgt="b"))
    assert not rule.passes(mk_example(src="a", tgt="\t\n"))


def test_src_tgt_distinct(mk_example):
    rule = SrcTgtDistinct()
    assert rule.passes(mk_example(src="a", tgt="b"))
    assert not rule.passes(mk_example(src="same", tgt="same"))


def test_max_length_ratio(mk_example):
    rule = MaxLengthRatio(3.0)
    assert rule.passes(mk_example(src="a b c", tgt="x"))  # 3 vs 1: ratio 3, inclusive
    assert not rule.passes(mk_example(src="a b c d", tgt="x"))  # ratio 4
    # spaceless target measured in 4-char units
    assert rule.passes(mk_example("e#en2zh", "en", "zh", "ab cd", "一二三四五六七八"))  # 2 vs 2
    assert not rule.passes(
        mk_example("e#en2zh", "en", "zh", "ab", "一二三四五六七八九十一二三四五六")
    )  # 1 vs 4
    # very short spaceless text clamps to one unit instead of exploding the ratio
    assert rule.passes(mk_example("e#en2zh", "en", "zh", "hi", "好"))
    with pytest.raises(ValueError):
        MaxLengthRatio(0.0)


def test_length_bounds(mk_example):
    rule = LengthBounds(min_len=2, max_len=4)
    assert rule.passes(mk_example(src="a b", tgt="x y z"))
    assert not rule.passes(mk_example(src="a", tgt="x y"))  # src below min
    assert not rule.passes(mk_example(src="a b c d e", tgt="x y"))  # src above max
    # spaceless: max scales by 4 chars per token, min stays in raw characters
    assert rule.passes(mk_example("e#en2zh", "en", "zh", "a b", "好字"))
    assert rule.passes(mk_example("e#en2zh", "en", "zh", "a b", "好" * 16))
    assert not rule.passes(mk_example("e#en2zh", "en", "zh", "a b", "好" * 17))
    assert not rule.passes(mk_example("e#en2zh", "en", "zh", "a b", "好"))  # 1 char < min 2
    with pytest.raises(ValueError):
        LengthBounds(0, 5)


def test_control_char_free(mk_example):
    rule = ControlCharFree()
    assert rule.passes(mk_example(src="tab\there", tgt="line\nbreak"))
    assert not rule.passes(mk_example(src="nul\x00", tgt="b"))
    assert not rule.passes(mk_example(src="a", tgt="bell\x07"))
    # Only C0 controls other than tab and newline are rejected; DEL, C1 (U+0085)
    # and the Unicode line separator U+2028 pass.
    for cp in [*range(0x80), 0x85, 0x2028]:
        ch = chr(cp)
        clean = cp >= 0x20 or ch in "\t\n"
        assert rule.passes(mk_example(src=f"a{ch}b", tgt="t")) is clean, hex(cp)
        assert rule.passes(mk_example(src="s", tgt=f"a{ch}b")) is clean, hex(cp)


def test_exact_dedup_and_reset(mk_example):
    rule = ExactDedup()
    a = mk_example("a", src="s", tgt="t")
    b = mk_example("b", src="s", tgt="t")
    assert rule.passes(a)
    assert not rule.passes(b)
    rule.reset()
    assert rule.passes(b)


# Pairs that differ only at a boundary, by a lone surrogate, by a surrogate
# pair against its code point, or by normalization must all stay distinct.
_DEDUP_TEXTS = ["", "a", "ab", "bc", "c", "\ud800", "\ud801", "\udfff", "\u00e9", "e\u0301", "\xff", "\U0001f600"]
_dedup_text = st.one_of(st.sampled_from(_DEDUP_TEXTS), any_text)
_NEAR_PAIRS = [("ab", "c"), ("a", "bc"), ("\ud800", "x"), ("\ud801", "x"), ("\u00e9", "x"), ("e\u0301", "x"),
               ("\ud83d\ude00", "x"), ("\U0001f600", "x")]


@given(st.lists(st.tuples(_dedup_text, _dedup_text), max_size=40))
@example(_NEAR_PAIRS + _NEAR_PAIRS)
def test_exact_dedup_decides_as_a_set_of_text_pairs(mk_example, pairs):
    rule, seen, expected = ExactDedup(), set(), []
    for pair in pairs:
        expected.append(pair not in seen)
        seen.add(pair)
    assert [rule.passes(mk_example(src=s, tgt=t)) for s, t in pairs] == expected


def test_first_failing_rule_charged(mk_example):
    pairs = [
        mk_example("p1", src="ok one", tgt="bon un"),
        mk_example("p2", src="", tgt="bon"),  # NonEmpty
        mk_example("p3", src="same", tgt="same"),  # SrcTgtDistinct
        mk_example("p4", src="ok one", tgt="bon un"),  # ExactDedup (duplicate of p1)
    ]
    kept, report = apply_heuristics(pairs, default_rules())
    kept = list(kept)
    assert [ex.id for ex in kept] == ["p1"]
    assert report.rejected == {"NonEmpty": 1, "SrcTgtDistinct": 1, "ExactDedup": 1}
    assert report.consistent()


def test_idempotent_on_kept_output(mk_example):
    rng = random.Random(5)
    pairs = []
    for i in range(400):
        src = " ".join(f"w{rng.randrange(30)}" for _ in range(rng.randrange(0, 8)))
        tgt = " ".join(f"v{rng.randrange(30)}" for _ in range(rng.randrange(0, 8)))
        pairs.append(mk_example(f"p{i}", src=src, tgt=tgt))
    rules = default_rules()
    kept1, rep1 = apply_heuristics(pairs, rules)
    kept1 = list(kept1)
    kept2, rep2 = apply_heuristics(kept1, rules)
    kept2 = list(kept2)
    assert kept2 == kept1
    assert rep2.rejected == {}
    assert rep1.consistent() and rep2.consistent()


def test_report_conservation_random(mk_example):
    rng = random.Random(9)
    dirty = []
    for i in range(1000):
        roll = rng.random()
        if roll < 0.1:
            src, tgt = "", "t"
        elif roll < 0.2:
            src = tgt = "identical"
        elif roll < 0.3:
            src, tgt = "a " * 20, "b"
        else:
            src, tgt = f"src {i} {rng.random():.3f}", f"tgt {i}"
        dirty.append(mk_example(f"p{i}", src=src, tgt=tgt))
    kept, report = apply_heuristics(dirty, default_rules())
    n_kept = sum(1 for _ in kept)
    assert report.input_count == 1000
    assert report.kept == n_kept
    assert report.consistent()


def test_rules_from_config_roundtrip():
    rules = default_rules()
    rebuilt = rules_from_config([{"kind": r.name} for r in rules])
    assert [r.name for r in rebuilt] == [r.name for r in rules]
    # A kind with no parameters gets the parameters of default_rules().
    assert rebuilt[2:4] == rules[2:4]
    custom = rules_from_config([{"kind": "LengthBounds", "min_len": 2, "max_len": 9}])
    assert custom[0].min_len == 2 and custom[0].max_len == 9
    with pytest.raises(RecordParseError):
        rules_from_config([{"kind": "Unknown"}])
    with pytest.raises(RecordParseError):
        rules_from_config([{"kind": "LengthBounds", "min_len": 0}])
    with pytest.raises(RecordParseError):
        rules_from_config([])


def test_attach_scores(mk_example):
    pairs = [mk_example("p1"), mk_example("p2")]
    scored = list(attach_scores(pairs, {"p1": 0.4, "p2": 0.9}))
    assert [s.qe_score for s in scored] == [0.4, 0.9]
    with pytest.raises(MissingScore):
        list(attach_scores([mk_example("p3")], {}))


def test_threshold_inclusive_boundary(mk_example):
    pairs = [
        ScoredPair(mk_example("a"), 0.699999),
        ScoredPair(mk_example("b"), 0.7),
        ScoredPair(mk_example("c"), 0.700001),
    ]
    kept = [p.example.id for p in threshold_filter(pairs, 0.7)]
    assert kept == ["b", "c"]
    with pytest.raises(ValueError):
        list(threshold_filter(pairs, 1.5))


@given(
    scores=st.lists(st.floats(0, 1), min_size=1, max_size=60),
    t1=st.floats(0, 1),
    t2=st.floats(0, 1),
)
def test_threshold_monotone(mk_example, scores, t1, t2):
    pairs = [ScoredPair(mk_example(f"p{i}"), s) for i, s in enumerate(scores)]
    lo, hi = sorted((t1, t2))
    kept_lo = {p.example.id for p in threshold_filter(pairs, lo)}
    kept_hi = {p.example.id for p in threshold_filter(pairs, hi)}
    assert kept_hi <= kept_lo


def test_score_histogram_against_recount(mk_example):
    rng = random.Random(12)
    pairs = [ScoredPair(mk_example(f"p{i}"), rng.random()) for i in range(500)]
    pairs.append(ScoredPair(mk_example("exact6"), 0.6))
    pairs.append(ScoredPair(mk_example("exact8"), 0.8))
    report = FilterReport()
    stream = count_thresholds(pairs, report)
    assert report.histogram is None  # filled once the stream is consumed
    assert list(stream) == pairs
    hist = report.histogram
    assert set(hist) == {0.6, 0.7, 0.8}
    for tau, (count, prop) in hist.items():
        brute = sum(1 for p in pairs if p.qe_score >= tau)
        assert count == brute
        assert prop == pytest.approx(brute / len(pairs))
    assert hist[0.6][0] >= hist[0.7][0] >= hist[0.8][0]


def test_score_histogram_empty():
    report = FilterReport()
    assert list(count_thresholds([], report)) == []
    assert report.histogram == {0.6: (0, 0.0), 0.7: (0, 0.0), 0.8: (0, 0.0)}


def test_report_as_dict_includes_histogram(mk_example):
    report = FilterReport(input_count=2, kept=2)
    report.histogram = {0.6: (2, 1.0), 0.7: (1, 0.5), 0.8: (0, 0.0)}
    d = report.as_dict()
    assert d["histogram"]["0.6"] == {"count": 2, "proportion": 1.0}


def _plain_ratio_ok(ex, ratio):
    """MaxLengthRatio's decision, each side counted on its own."""
    a = max(1.0, token_length(ex.src_lang, ex.src))
    b = max(1.0, token_length(ex.tgt_lang, ex.tgt))
    return max(a, b) / min(a, b) <= ratio


def _plain_bounds_ok(ex, min_len, max_len):
    """LengthBounds' decision, each side counted on its own."""
    def ok(lang, text):
        if lang in ("zh", "ja"):
            return min_len <= len(text) <= max_len * 4
        return min_len <= len(text.split()) <= max_len
    return ok(ex.src_lang, ex.src) and ok(ex.tgt_lang, ex.tgt)


_length_text = st.one_of(
    st.sampled_from(["", " ", "a", "a b", "a  b c", "\u4e00" * 3, "\u4e00" * 9, "w " * 12]),
    st.text(alphabet=st.sampled_from("ab \t\n\u4e00\u3042"), max_size=24),
)
_length_pair = st.tuples(st.sampled_from(["en", "zh", "ja", "fr"]), st.sampled_from(["en", "zh", "fr"]),
                         _length_text, _length_text)


@given(
    rows=st.lists(_length_pair, max_size=30),
    ratio=st.sampled_from([1, 1.5, 3.0, 4]),
    bounds=st.sampled_from([(1, 1), (1, 3), (2, 4), (3, 512), (10**30, 10**30)]),
)
def test_length_rules_keep_their_own_verdicts_in_every_order_and_subset(mk_example, rows, ratio, bounds):
    pairs = [mk_example(f"p{i}", src_lang, tgt_lang, src, tgt) for i, (src_lang, tgt_lang, src, tgt) in enumerate(rows)]
    han = "\u4e00" * 9
    pairs += [mk_example("q0", "en", "fr", "a b c d", "a"), mk_example("q1", "en", "fr", "a b c d", "a b c"),
              mk_example("q2", "zh", "en", "\u4e00", "a b c d e"),
              mk_example("q3", "en", "fr", han, "a"), mk_example("q4", "zh", "fr", han, "a"),
              mk_example("q5", "fr", "en", "a", han), mk_example("q6", "fr", "zh", "a", han)]
    pairs.append(pairs[0])
    min_len, max_len = bounds
    plain = {
        "MaxLengthRatio": lambda ex: _plain_ratio_ok(ex, ratio),
        "LengthBounds": lambda ex: _plain_bounds_ok(ex, min_len, max_len),
        "NonEmpty": lambda ex: bool(ex.src.strip()) and bool(ex.tgt.strip()),
    }
    config = {
        "MaxLengthRatio": {"kind": "MaxLengthRatio", "ratio": ratio},
        "LengthBounds": {"kind": "LengthBounds", "min_len": min_len, "max_len": max_len},
        "NonEmpty": {"kind": "NonEmpty"},
    }
    for size in (1, 2, 3):
        for kinds in itertools.permutations(config, size):
            rules = rules_from_config([config[k] for k in kinds])
            kept, report = apply_heuristics(pairs, rules)
            kept_ids = [ex.id for ex in kept]
            want_kept, want_rejected = [], {}
            for ex in pairs:
                failed = next((k for k in kinds if not plain[k](ex)), None)
                if failed is None:
                    want_kept.append(ex.id)
                else:
                    want_rejected[failed] = want_rejected.get(failed, 0) + 1
            assert kept_ids == want_kept, kinds
            assert report.rejected == want_rejected, kinds
            # The same rules alone, one after another over every pair, as a
            # per-rule timing loop calls them.
            for rule, kind in zip(rules_from_config([config[k] for k in kinds]), kinds):
                assert [rule.passes(ex) for ex in pairs] == [plain[kind](ex) for ex in pairs], kind
