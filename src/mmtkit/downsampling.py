"""Strategic downsampling of reverse (center-targeted) examples.

Forward examples (En/Zh -> X) are always kept. A reverse example survives iff
its hash coordinate u(e) = fnv1a64("{seed}:{id}") / 2^64 falls below the
retention probability. Retention is a pure function of (seed, id), so the
kept set is identical across runs and shard orders, and is monotone in p:
raising p only ever adds examples.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .hashing import DEFAULT_SEED, unit_uniform, unit_uniforms
from .records import DirectionalExample, slices
from .registry import CENTERS, Frozen, Value


class SampleClass(str, Enum):
    FORWARD = "Forward"
    REVERSE = "Reverse"


class RetentionPolicy(Frozen):
    __slots__ = __match_args__ = ("p_reverse", "seed")

    def __init__(self, p_reverse: float, seed: int = DEFAULT_SEED):
        if not 0.0 <= p_reverse <= 1.0:
            raise ValueError(f"p_reverse must be in [0, 1], got {p_reverse}")
        self._set(p_reverse=p_reverse, seed=seed)


def classify(example: DirectionalExample) -> SampleClass:
    return SampleClass.REVERSE if example.tgt_lang in CENTERS else SampleClass.FORWARD


def retained(policy: RetentionPolicy, example_id: str) -> bool:
    """Retention decision for a reverse example, by id alone."""
    return unit_uniform(policy.seed, example_id) < policy.p_reverse


# Examples downsample reads per retained_each batch, and coin keys mix takes
# per batch: at 256 keys a batched coin costs about a third of a scalar one,
# and a slice of examples stays a few hundred KB.
SLICE = 256


def retained_each(policy: RetentionPolicy, example_ids: list[str]) -> list[bool]:
    """[retained(policy, i) for i in example_ids], with the coins hashed in one batch."""
    p = policy.p_reverse
    return [u < p for u in unit_uniforms(policy.seed, example_ids)]


class DownsampleStats(Value):
    __slots__ = __match_args__ = ("retained", "dropped")

    def __init__(self, retained: dict[SampleClass, int] | None = None, dropped: dict[SampleClass, int] | None = None):
        self.retained = {c: 0 for c in SampleClass} if retained is None else retained
        self.dropped = {c: 0 for c in SampleClass} if dropped is None else dropped

    def as_dict(self) -> dict:
        return {
            c.value: {"retained": self.retained[c], "dropped": self.dropped[c]}
            for c in SampleClass
        }


def downsample(
    examples: Iterable[DirectionalExample],
    policy: RetentionPolicy,
    stats: DownsampleStats | None = None,
) -> Iterator[DirectionalExample]:
    """Yield retained examples in input order. The examples are read SLICE at
    a time, and each slice's reverse coins flipped in one retained_each call.
    stats, when given, is complete only after the iterator is exhausted."""
    for part in slices(examples, SLICE):
        coins = retained_each(policy, [ex.id for ex in part if ex.tgt_lang in CENTERS])
        flips = iter(coins)
        kept = [ex for ex in part if ex.tgt_lang not in CENTERS or next(flips)]
        if stats is not None:
            n_kept = sum(coins)
            stats.retained[SampleClass.FORWARD] += len(part) - len(coins)
            stats.retained[SampleClass.REVERSE] += n_kept
            stats.dropped[SampleClass.REVERSE] += len(coins) - n_kept
        yield from kept
