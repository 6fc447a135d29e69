"""Hash-threshold downsampling: class rules, determinism, monotonicity."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmtkit.downsampling import (
    SLICE,
    DownsampleStats,
    RetentionPolicy,
    SampleClass,
    classify,
    downsample,
    retained,
    retained_each,
)

ids = st.text(min_size=1, max_size=24, alphabet=st.characters(blacklist_categories=("Cs",)))


def test_classify(mk_example):
    assert classify(mk_example("a", "en", "fr")) is SampleClass.FORWARD
    assert classify(mk_example("a", "zh", "sw")) is SampleClass.FORWARD
    assert classify(mk_example("a", "fr", "en")) is SampleClass.REVERSE
    assert classify(mk_example("a", "sw", "zh")) is SampleClass.REVERSE
    assert classify(mk_example("a", "en", "zh")) is SampleClass.REVERSE
    assert classify(mk_example("a", "zh", "en")) is SampleClass.REVERSE


def test_policy_validation():
    RetentionPolicy(p_reverse=0.0)
    RetentionPolicy(p_reverse=1.0)
    with pytest.raises(ValueError):
        RetentionPolicy(p_reverse=-0.01)
    with pytest.raises(ValueError):
        RetentionPolicy(p_reverse=1.01)


def test_forward_always_kept_even_at_p_zero(mk_example):
    policy = RetentionPolicy(p_reverse=0.0, seed=42)
    examples = [mk_example(f"e{i}#en2fr", "en", "fr") for i in range(50)]
    assert list(downsample(examples, policy)) == examples


def test_reverse_all_dropped_at_p_zero_and_kept_at_p_one(mk_example):
    examples = [mk_example(f"e{i}#fr2en", "fr", "en") for i in range(50)]
    assert list(downsample(examples, RetentionPolicy(0.0))) == []
    assert list(downsample(examples, RetentionPolicy(1.0))) == examples


def test_frozen_retained_count(oracle_unit, mk_example):
    # 2000 reverse ids, p=0.1, seed 7: the threshold oracle gives exactly 174.
    policy = RetentionPolicy(p_reverse=0.1, seed=7)
    ex_ids = [f"x{i}#de2en" for i in range(2000)]
    kept = [i for i in ex_ids if retained(policy, i)]
    assert len(kept) == 174
    oracle_kept = [i for i in ex_ids if oracle_unit(7, i) < 0.1]
    assert kept == oracle_kept


def test_stats_partition_input(mk_example):
    rng = random.Random(3)
    examples = []
    for i in range(300):
        if rng.random() < 0.5:
            examples.append(mk_example(f"e{i}#en2fr", "en", "fr"))
        else:
            examples.append(mk_example(f"e{i}#fr2en", "fr", "en"))
    stats = DownsampleStats()
    kept = list(downsample(examples, RetentionPolicy(0.2, seed=1), stats))
    total = sum(stats.retained.values()) + sum(stats.dropped.values())
    assert total == 300
    assert sum(stats.retained.values()) == len(kept)
    assert stats.dropped[SampleClass.FORWARD] == 0
    d = stats.as_dict()
    assert set(d) == {"Forward", "Reverse"}
    assert d["Reverse"]["retained"] + d["Reverse"]["dropped"] == stats.retained[
        SampleClass.REVERSE
    ] + stats.dropped[SampleClass.REVERSE]


def test_order_and_run_independence(mk_example):
    examples = [mk_example(f"e{i}#fr2en", "fr", "en") for i in range(500)]
    policy = RetentionPolicy(0.3, seed=11)
    kept_a = {ex.id for ex in downsample(list(examples), policy)}
    shuffled = list(examples)
    random.Random(0).shuffle(shuffled)
    kept_b = {ex.id for ex in downsample(shuffled, policy)}
    kept_c = {ex.id for ex in downsample(reversed(examples), policy)}
    assert kept_a == kept_b == kept_c


@given(ex_id=ids, p1=st.floats(0, 1), p2=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_monotone_in_p(ex_id, p1, p2, seed):
    lo, hi = sorted((p1, p2))
    if retained(RetentionPolicy(lo, seed), ex_id):
        assert retained(RetentionPolicy(hi, seed), ex_id)


@given(ex_id=ids, p=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_agrees_with_independent_oracle(oracle_unit, ex_id, p, seed):
    assert retained(RetentionPolicy(p, seed), ex_id) == (oracle_unit(seed, ex_id) < p)


@given(ex_ids=st.lists(ids, max_size=30), p=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_batched_retention_is_each_ids_retained(ex_ids, p, seed):
    policy = RetentionPolicy(p, seed)
    assert retained_each(policy, ex_ids) == [retained(policy, i) for i in ex_ids]


def test_output_preserves_input_order(mk_example):
    examples = [mk_example(f"e{i}#fr2en", "fr", "en") for i in range(200)]
    kept = list(downsample(examples, RetentionPolicy(0.5, seed=2)))
    positions = [int(ex.id[1:].split("#")[0]) for ex in kept]
    assert positions == sorted(positions)


# Id parts with no '#', and tails that hold one or several; non-ASCII included.
_id_part = st.text(alphabet=st.sampled_from("ab#2éü日本\U0001f600"), max_size=6)


@given(
    seed=st.integers(min_value=-(2**40), max_value=2**70),
    p=st.floats(0, 1),
    groups=st.lists(st.tuples(_id_part, st.lists(_id_part, min_size=1, max_size=4)), max_size=12),
)
def test_kept_reverse_ids_are_those_retained_keeps(mk_example, seed, p, groups):
    # Runs of ids that share a record prefix, as expand writes them, and ids
    # with zero, one or several '#' (a bare group part has none); each id
    # comes as a reverse and a forward example.
    ex_ids = []
    for record_id, tails in groups:
        ex_ids.append(record_id)
        ex_ids += [f"{record_id}#{tail}" for tail in tails]
    examples = [mk_example(ex_id, src, tgt) for ex_id in ex_ids for src, tgt in (("fr", "en"), ("en", "fr"))]
    policy = RetentionPolicy(p, seed)
    kept = list(downsample(examples, policy))
    assert [ex.id for ex in kept if ex.tgt_lang == "en"] == [i for i in ex_ids if retained(policy, i)]
    assert [ex.id for ex in kept if ex.tgt_lang == "fr"] == ex_ids


def test_an_id_that_cannot_be_encoded_raises_every_time(mk_example):
    policy = RetentionPolicy(0.5, seed=42)
    for bad in ["r1\ud800#fr2en", "r1#\ud800"]:
        examples = [mk_example("r1#fr2en", "fr", "en"), mk_example(bad, "fr", "en")]
        for _ in range(2):
            with pytest.raises(UnicodeEncodeError):
                list(downsample(examples, policy))


@pytest.mark.parametrize("kind", ["forward", "reverse", "mixed"])
@pytest.mark.parametrize("n", [0, 1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 7])
def test_sliced_downsample_keeps_what_retained_keeps(mk_example, kind, n):
    # Streams that end before, at and after a slice's end, and run over
    # several slices; a mixed stream draws each example's class.
    rng = random.Random(n)
    directions = {"forward": [("en", "fr")], "reverse": [("fr", "en")], "mixed": [("en", "fr"), ("de", "zh")]}[kind]
    examples = []
    for i in range(n):
        src, tgt = rng.choice(directions)
        examples.append(mk_example(f"r{i}#{src}2{tgt}", src, tgt))
    policy = RetentionPolicy(0.3, seed=5)
    stats = DownsampleStats()
    kept = list(downsample(iter(examples), policy, stats))
    assert kept == [ex for ex in examples if classify(ex) is SampleClass.FORWARD or retained(policy, ex.id)]
    expected = DownsampleStats()
    for ex in examples:
        cls = classify(ex)
        keep = cls is SampleClass.FORWARD or retained(policy, ex.id)
        (expected.retained if keep else expected.dropped)[cls] += 1
    assert stats == expected
