"""Target-repetition diagnostics for many-to-one training data.

When a multi-way corpus is fully expanded, every center-language sentence
appears as the target of up to n-1 different sources. These statistics
measure that structure exactly: distinct (src_lang, src_text) count per
distinct (tgt_lang, tgt_text), before or after a retention policy. Texts are
NFC-normalized before hashing so canonically equivalent strings collapse.
"""
from __future__ import annotations

import unicodedata
from typing import Iterable

# CPython's built-in sha256 (_sha2 from 3.12, _sha256 before): hashlib would
# also load OpenSSL's _hashlib, a few MB per process, for the same digest.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .downsampling import SampleClass
from .records import DirectionalExample
from .registry import CENTERS, Value


_KEY_MASK = (1 << 64) - 1
# Texts whose keys target_repetition_stats remembers. A record's examples
# come together and share a dozen or so texts, so a few hundred suffice; the
# memo holds the texts themselves, which is why it stays this small.
_TEXT_KEY_MEMO = 256


def _text_key(text: str) -> int:
    """The first 8 bytes of sha256 over the NFC form, as an int."""
    norm = unicodedata.normalize("NFC", text)
    return int.from_bytes(sha256(norm.encode("utf-8")).digest()[:8], "big")


class ClassStats(Value):
    __slots__ = __match_args__ = ("distinct_targets", "total_pairs", "max_repetition")

    def __init__(self, distinct_targets: int = 0, total_pairs: int = 0, max_repetition: int = 0):
        self.distinct_targets, self.total_pairs, self.max_repetition = distinct_targets, total_pairs, max_repetition

    @property
    def mean_repetition(self) -> float:
        return self.total_pairs / self.distinct_targets if self.distinct_targets else 0.0

    def as_dict(self) -> dict:
        return {
            "distinct_targets": self.distinct_targets,
            "total_pairs": self.total_pairs,
            "max_repetition": self.max_repetition,
            "mean_repetition": self.mean_repetition,
        }


class RepetitionStats(Value):
    __slots__ = __match_args__ = ("per_target", "histogram", "max_repetition", "by_class")

    def __init__(self, per_target: dict[tuple[str, str], int], histogram: dict[int, int], max_repetition: int,
                 by_class: dict[SampleClass, ClassStats]):
        self.per_target, self.histogram, self.max_repetition, self.by_class = per_target, histogram, max_repetition, by_class

    def as_dict(self) -> dict:
        return {
            "distinct_targets": len(self.per_target),
            "max_repetition": self.max_repetition,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "by_class": {c.value: s.as_dict() for c, s in self.by_class.items()},
        }


def target_repetition_stats(examples: Iterable[DirectionalExample]) -> RepetitionStats:
    """Exact distinct-source counts per identical target.

    A text is keyed by the 64-bit sha256 prefix of its NFC form, so memory
    grows with the number of distinct pairs and targets, not with text size.
    While counting, a side is one int, (language index << 64) | text key, and
    a pair is (target << 96) | source; language indices stay below 2³², so
    both packings are injective. per_target keys are (lang, 16-digit hex key).
    The keys of recent texts are remembered, up to _TEXT_KEY_MEMO texts.
    """
    lang_index: dict[str, int] = {}
    pairs: set[int] = set()
    n_sources: dict[int, int] = {}
    memo: dict[str, int] = {}

    def text_key(text: str) -> int:
        key = memo.get(text)
        if key is None:
            if len(memo) >= _TEXT_KEY_MEMO:
                memo.clear()
            key = memo[text] = _text_key(text)
        return key

    for ex in examples:
        tgt = (lang_index.setdefault(ex.tgt_lang, len(lang_index)) << 64) | text_key(ex.tgt)
        src = (lang_index.setdefault(ex.src_lang, len(lang_index)) << 64) | text_key(ex.src)
        pair = (tgt << 96) | src
        if pair not in pairs:
            pairs.add(pair)
            n_sources[tgt] = n_sources.get(tgt, 0) + 1
    del pairs  # freed before the public keys are built, so the two never coexist

    langs = list(lang_index)
    per_target = {(langs[t >> 64], f"{t & _KEY_MASK:016x}"): c for t, c in n_sources.items()}
    histogram: dict[int, int] = {}
    by_class = {c: ClassStats() for c in SampleClass}
    for (tgt_lang, _), count in per_target.items():
        histogram[count] = histogram.get(count, 0) + 1
        cls = SampleClass.REVERSE if tgt_lang in CENTERS else SampleClass.FORWARD
        stats = by_class[cls]
        stats.distinct_targets += 1
        stats.total_pairs += count
        stats.max_repetition = max(stats.max_repetition, count)
    return RepetitionStats(
        per_target=per_target,
        histogram=histogram,
        max_repetition=max(per_target.values(), default=0),
        by_class=by_class,
    )


_HISTOGRAM_WIDTH = 50


def render_histogram(stats: RepetitionStats) -> str:
    """ASCII histogram of repetition counts over distinct targets."""
    if not stats.histogram:
        return "(no targets)\n"
    peak = max(stats.histogram.values())
    lines = []
    for count in sorted(stats.histogram):
        freq = stats.histogram[count]
        bar = "#" * max(1, round(_HISTOGRAM_WIDTH * freq / peak))
        lines.append(f"{count:>6} sources | {bar} {freq}")
    return "\n".join(lines) + "\n"
