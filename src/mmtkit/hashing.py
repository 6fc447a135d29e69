"""Deterministic hash utilities.

All sampling decisions in the toolkit are pure functions of (seed, key) built
on FNV-1a 64-bit. That makes every probabilistic stage reproducible bit for
bit across runs, platforms, shard orders, and worker counts: there is no
sequential RNG state to share or synchronize.
"""
from __future__ import annotations

from functools import lru_cache

DEFAULT_SEED = 42

FNV64_OFFSET = 14695981039346656037
FNV64_PRIME = 1099511628211
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO64 = 2.0**64


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


@lru_cache(maxsize=256, typed=True)
def _seed_state(seed: int) -> int:
    """FNV-1a state after the f"{seed}:" prefix. typed=True keeps seeds that
    compare equal but format differently (1, True, 1.0) apart."""
    return fnv1a64(f"{seed}:".encode("utf-8"))
