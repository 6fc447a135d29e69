"""Deterministic hash utilities.

All sampling decisions in the toolkit are pure functions of (seed, key) built
on FNV-1a 64-bit. That makes every probabilistic stage reproducible bit for
bit across runs, platforms and shard orders: there is no sequential RNG
state to share or synchronize.

Coins may be flipped one at a time (unit_uniform) or in batches
(unit_uniforms), which hashes many keys at once as lanes of one integer; a
batched coin equals the scalar one for the same (seed, key), bit for bit.
"""
from __future__ import annotations

import sys
from functools import lru_cache

DEFAULT_SEED = 42

FNV64_OFFSET = 14695981039346656037
FNV64_PRIME = 1099511628211
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO64 = 2.0**64
# Keys unit_uniforms hashes in one integer: enough to spread the per-column
# cost, few enough that each temporary integer stays about 16 KB.
_BATCH = 1024
# One 16-byte lane whose low 64 bits are set, little-endian.
_LOW64 = b"\xff" * 8 + bytes(8)


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """FNV-1a over bytes, 64-bit. h is the state to continue from: the
    result for earlier bytes a gives fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)."""
    for b in data:
        h ^= b
        h = (h * FNV64_PRIME) & _MASK64
    return h


def unit_uniform(seed: int, key: str) -> float:
    """Map (seed, key) to [0, 1).

    The digest input is the decimal seed, a ':' separator, and the key,
    all UTF-8. Keys must therefore not be chosen so that (seed, key) pairs
    collide across call sites; prefix keys with a short domain tag when a
    second independent decision is needed for the same id.
    """
    return fnv1a64(key.encode("utf-8"), _seed_state(seed)) / _TWO64


def unit_uniforms(seed: int, keys: list[str]) -> list[float]:
    """[unit_uniform(seed, k) for k in keys], hashed in batches.

    The keys are grouped by UTF-8 length, and each group of up to _BATCH keys
    is one integer with a 16-byte lane per key, every lane starting at the
    seed's state. Each byte column is then one xor, one multiply and one mask
    for the whole group: a lane's 64-bit state times the 41-bit prime stays
    below 2**105, so no product spills into the next lane. The first key
    with no UTF-8 form, such as one holding a lone surrogate, raises the
    UnicodeEncodeError unit_uniform raises for it.
    """
    if not keys:
        return []
    encoded = [key.encode("utf-8") for key in keys]
    if sys.byteorder != "little":
        # The lanes are read back as native 64-bit words.
        state = _seed_state(seed)
        return [fnv1a64(data, state) / _TWO64 for data in encoded]
    by_length: dict[int, list[int]] = {}
    for i, data in enumerate(encoded):
        by_length.setdefault(len(data), []).append(i)
    out = [0.0] * len(keys)
    lane = _seed_state(seed).to_bytes(16, "little")
    for n, group in by_length.items():
        for start in range(0, len(group), _BATCH):
            part = group[start:start + _BATCH]
            width = 16 * len(part)
            mask = int.from_bytes(_LOW64 * len(part), "little")
            h = int.from_bytes(lane * len(part), "little")
            joined = b"".join([encoded[i] for i in part])
            column = bytearray(width)
            for j in range(n):
                column[::16] = joined[j::n]
                h = ((h ^ int.from_bytes(column, "little")) * FNV64_PRIME) & mask
            for i, state in zip(part, memoryview(h.to_bytes(width, "little")).cast("Q")[::2]):
                out[i] = state / _TWO64
    return out


@lru_cache(maxsize=256, typed=True)
def _seed_state(seed: int) -> int:
    """FNV-1a state after the f"{seed}:" prefix. typed=True keeps seeds that
    compare equal but format differently (1, True, 1.0) apart."""
    return fnv1a64(f"{seed}:".encode("utf-8"))
