"""Hash primitive: published FNV-1a vectors, the digest rule, determinism,
batched coins equal to the scalar ones, and the built-in digests the stages
take instead of hashlib's."""
from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmtkit import diagnostics, filtering, hashing
from mmtkit.hashing import FNV64_OFFSET, FNV64_PRIME, fnv1a64, unit_uniform, unit_uniforms

# Published FNV-1a 64-bit reference vectors.
KNOWN = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}


def test_constants():
    assert FNV64_OFFSET == 14695981039346656037
    assert FNV64_PRIME == 1099511628211


def test_known_vectors():
    for data, digest in KNOWN.items():
        assert fnv1a64(data) == digest


def test_digest_rule_is_seed_colon_key():
    assert unit_uniform(42, "x") == fnv1a64(b"42:x") / 2.0**64
    assert unit_uniform(0, "") == fnv1a64(b"0:") / 2.0**64


def test_seed_and_domain_tag_change_the_value():
    assert unit_uniform(41, "x") != unit_uniform(42, "x")
    assert unit_uniform(42, "fmt:x") != unit_uniform(42, "x")


@given(seed=st.integers(min_value=0, max_value=2**31), key=st.text(max_size=40))
def test_unit_uniform_range_and_determinism(oracle_unit, seed, key):
    v = unit_uniform(seed, key)
    assert 0.0 <= v < 1.0
    assert v == unit_uniform(seed, key)
    assert v == oracle_unit(seed, key)


@pytest.mark.parametrize("seed", [0, 42, -7, 2**70])
def test_cached_seed_state_matches_the_reference_digest(seed):
    # unit_uniform hashes the "{seed}:" prefix once per seed and continues over
    # the key; the floats must equal the one-shot digest of the whole string.
    keys = [f"rec{i:05d}#{('fr2en', 'zh2ja', 'é2ü', '日本', '😀x')[i % 5]}" for i in range(50_000)]
    for key in keys:
        assert unit_uniform(seed, key) == fnv1a64(f"{seed}:{key}".encode()) / 2**64


def test_fnv1a64_continues_from_a_state():
    for a, b in [(b"", b""), (b"42:", b"x"), (b"-7:", "日本".encode())]:
        assert fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)


def test_equal_seeds_of_other_types_keep_their_own_prefix():
    assert unit_uniform(True, "x") == fnv1a64(b"True:x") / 2**64
    assert unit_uniform(1, "x") == fnv1a64(b"1:x") / 2**64
    assert unit_uniform(1.0, "x") == fnv1a64(b"1.0:x") / 2**64


# Keys with a UTF-8 form: every code point but the surrogates, non-ASCII ones
# included, and the empty key.
_KEYS = st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=24)


@given(
    seed=st.sampled_from([1, True, 1.0, 0, 42, -7, 2**70]),
    keys=st.lists(_KEYS, max_size=40),
    padding=st.sampled_from([0, hashing._BATCH + 1]),
)
def test_batched_coins_equal_the_scalar_ones(seed, keys, padding):
    # padding adds one group of equal-length keys past the batch size, placed
    # between the drawn keys, so a group is split and scattered back.
    keys = keys[: len(keys) // 2] + [f"p{i:06d}" for i in range(padding)] + keys[len(keys) // 2 :]
    assert unit_uniforms(seed, keys) == [unit_uniform(seed, k) for k in keys]


@pytest.mark.parametrize("seed, prefix", [(1, b"1:"), (True, b"True:"), (1.0, b"1.0:")])
def test_batched_coins_of_equal_seeds_of_other_types_keep_their_own_prefix(seed, prefix):
    # Run in this order, 1 fills the seed-state cache before True and 1.0 ask.
    keys = ["x", "", "日本", "r1#en2fr"]
    assert unit_uniforms(seed, keys) == [fnv1a64(prefix + k.encode()) / 2**64 for k in keys]


def test_batched_coins_of_no_keys():
    assert unit_uniforms(42, []) == []


def test_batched_coins_raise_the_scalar_error_of_the_first_unencodable_key():
    keys = ["ok", "fine", "r1\ud800#en2fr", "\udfffx", "later"]
    with pytest.raises(UnicodeEncodeError) as scalar:
        [unit_uniform(42, k) for k in keys]
    with pytest.raises(UnicodeEncodeError) as batched:
        unit_uniforms(42, keys)
    assert str(batched.value) == str(scalar.value)
    assert batched.value.object == scalar.value.object == "r1\ud800#en2fr"


@given(data=st.binary(max_size=200))
def test_builtin_digests_equal_hashlibs(data):
    assert filtering.blake2b(data, digest_size=16).digest() == hashlib.blake2b(data, digest_size=16).digest()
    assert diagnostics.sha256(data).digest() == hashlib.sha256(data).digest()
