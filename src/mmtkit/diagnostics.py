"""Target-repetition diagnostics for many-to-one training data.

When a multi-way corpus is fully expanded, every center-language sentence
appears as the target of up to n-1 different sources. These statistics
measure that structure exactly: distinct (src_lang, src_text) count per
distinct (tgt_lang, tgt_text), before or after a retention policy. Texts are
NFC-normalized before hashing so canonically equivalent strings collapse.
"""
from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass
from typing import Iterable

from .downsampling import SampleClass
from .records import DirectionalExample
from .registry import CENTERS


def _text_key(text: str) -> str:
    norm = unicodedata.normalize("NFC", text)
    return hashlib.sha256(norm.encode("utf-8")).hexdigest()[:16]


@dataclass
class ClassStats:
    distinct_targets: int = 0
    total_pairs: int = 0
    max_repetition: int = 0

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


@dataclass
class RepetitionStats:
    per_target: dict[tuple[str, str], int]
    histogram: dict[int, int]
    max_repetition: int
    by_class: dict[SampleClass, ClassStats]

    def as_dict(self) -> dict:
        return {
            "distinct_targets": len(self.per_target),
            "max_repetition": self.max_repetition,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "by_class": {c.value: s.as_dict() for c, s in self.by_class.items()},
        }


def target_repetition_stats(examples: Iterable[DirectionalExample]) -> RepetitionStats:
    """Exact distinct-source counts per identical target. Memory grows with
    the number of distinct texts (16-character hex keys, not the texts themselves)."""
    sources: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for ex in examples:
        tgt_key = (ex.tgt_lang, _text_key(ex.tgt))
        sources.setdefault(tgt_key, set()).add((ex.src_lang, _text_key(ex.src)))

    per_target = {k: len(v) for k, v in sources.items()}
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
