"""Heuristic pair filtering and quality-score thresholding.

Rules are applied in list order and a pair is charged to the first rule it
fails, so report counts partition the input: kept + sum(rejected) = total.
Stateful rules (dedup) are reset at the start of every apply_heuristics pass,
which keeps filtering idempotent.

Lengths are whitespace-token counts, except for languages written without
word spacing (zh, ja, th, my, km, lo, bo, yue) where characters stand in for
tokens: bounds scale their maximum by 4 characters per token (the minimum
stays in raw characters so short CJK sentences survive) and ratios divide
character counts by 4 to stay comparable across scripts.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from .errors import MissingScore, RecordParseError
from .records import DirectionalExample, ScoredPair
from .registry import Value

# CPython's built-in blake2b: hashlib would also load OpenSSL's _hashlib, a
# few MB per process, for the same digest.
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

SPACELESS = frozenset({"zh", "ja", "th", "my", "km", "lo", "bo", "yue"})

CHARS_PER_TOKEN = 4

DEFAULT_THRESHOLDS = (0.6, 0.7, 0.8)

# C0 controls are disallowed except tab and newline.
_CONTROL_CHAR = re.compile(r"[\x00-\x08\x0b-\x1f]")


def token_length(lang: str, text: str) -> float:
    """Length in token-like units, comparable across spaced and unspaced scripts."""
    if lang in SPACELESS:
        return len(text) / CHARS_PER_TOKEN
    return float(len(text.split()))


class FilterRule:
    __slots__ = ()

    @property
    def name(self) -> str:
        return type(self).__name__

    def passes(self, ex: DirectionalExample) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        pass


class NonEmpty(FilterRule):
    def passes(self, ex: DirectionalExample) -> bool:
        return bool(ex.src.strip()) and bool(ex.tgt.strip())


class SrcTgtDistinct(FilterRule):
    def passes(self, ex: DirectionalExample) -> bool:
        return ex.src != ex.tgt


class MaxLengthRatio(Value, FilterRule):
    __slots__ = __match_args__ = ("ratio",)

    def __init__(self, ratio: float = 3.0):
        if not isinstance(ratio, (int, float)) or isinstance(ratio, bool) or not ratio > 0:  # NaN fails ratio > 0
            raise ValueError(f"ratio must be a positive number, got {ratio!r}")
        self.ratio = ratio

    def passes(self, ex: DirectionalExample) -> bool:
        a = max(1.0, token_length(ex.src_lang, ex.src))
        b = max(1.0, token_length(ex.tgt_lang, ex.tgt))
        return max(a, b) / min(a, b) <= self.ratio


class LengthBounds(Value, FilterRule):
    __slots__ = __match_args__ = ("min_len", "max_len")

    def __init__(self, min_len: int = 1, max_len: int = 512):
        for name, v in (("min_len", min_len), ("max_len", max_len)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not 0 < min_len <= max_len:
            raise ValueError(f"need 0 < min_len <= max_len, got {min_len}..{max_len}")
        self.min_len, self.max_len = min_len, max_len

    def _ok(self, lang: str, text: str) -> bool:
        if lang in SPACELESS:
            return self.min_len <= len(text) <= self.max_len * CHARS_PER_TOKEN
        return self.min_len <= len(text.split()) <= self.max_len

    def passes(self, ex: DirectionalExample) -> bool:
        return self._ok(ex.src_lang, ex.src) and self._ok(ex.tgt_lang, ex.tgt)


class ControlCharFree(FilterRule):
    """A printable string (str.isprintable) holds no C0 control, so the regex
    runs only on a side that is not, such as one with a tab or newline."""

    def passes(self, ex: DirectionalExample) -> bool:
        src, tgt = ex.src, ex.tgt
        return (src.isprintable() or _CONTROL_CHAR.search(src) is None) and (
            tgt.isprintable() or _CONTROL_CHAR.search(tgt) is None
        )


class ExactDedup(FilterRule):
    """Drops a pair whose exact (src, tgt) was seen earlier in the pass.

    A pair is held as the 16-byte blake2b digest of its UTF-8 src, the byte
    0xff and its UTF-8 tgt, not as its texts. 0xff never occurs in UTF-8 and
    "surrogatepass" encodes every str, lone surrogates included, injectively,
    so two pairs share a key only by a digest collision: about n²/2¹²⁹ for n
    kept pairs. A lone surrogate still fails later, in the writer.
    """

    def __init__(self):
        self._seen: set[bytes] = set()

    def passes(self, ex: DirectionalExample) -> bool:
        key = blake2b(
            ex.src.encode("utf-8", "surrogatepass") + b"\xff" + ex.tgt.encode("utf-8", "surrogatepass"),
            digest_size=16,
        ).digest()
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def reset(self) -> None:
        self._seen.clear()


def default_rules() -> list[FilterRule]:
    return [
        NonEmpty(),
        SrcTgtDistinct(),
        MaxLengthRatio(3.0),
        LengthBounds(1, 512),
        ControlCharFree(),
        ExactDedup(),
    ]


_RULE_KINDS = {type(rule).__name__: type(rule) for rule in default_rules()}


def rules_from_config(entries: list[dict]) -> list[FilterRule]:
    """Build a rule list from [{"kind": ..., <params>}] config objects."""
    rules: list[FilterRule] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise RecordParseError(f"rule {i}: expected an object with a 'kind' field")
        kind = entry["kind"]
        if kind not in _RULE_KINDS:
            raise RecordParseError(f"rule {i}: unknown kind {kind!r}")
        params = {k: v for k, v in entry.items() if k != "kind"}
        try:
            rules.append(_RULE_KINDS[kind](**params))
        except (TypeError, ValueError) as e:
            raise RecordParseError(f"rule {i} ({kind}): {e}") from None
    if not rules:
        raise RecordParseError("rule list must not be empty")
    return rules


class FilterReport(Value):
    __slots__ = __match_args__ = ("input_count", "kept", "rejected", "histogram")

    def __init__(self, input_count: int = 0, kept: int = 0, rejected: dict[str, int] | None = None,
                 histogram: dict[float, tuple[int, float]] | None = None):
        self.input_count, self.kept, self.histogram = input_count, kept, histogram
        self.rejected = {} if rejected is None else rejected

    def consistent(self) -> bool:
        return self.kept + sum(self.rejected.values()) == self.input_count

    def as_dict(self) -> dict:
        obj = {
            "input_count": self.input_count,
            "kept": self.kept,
            "rejected": dict(self.rejected),
        }
        if self.histogram is not None:
            obj["histogram"] = {
                f"{tau:g}": {"count": c, "proportion": p}
                for tau, (c, p) in self.histogram.items()
            }
        return obj


def apply_heuristics(
    pairs: Iterable[DirectionalExample],
    rules: list[FilterRule],
) -> tuple[Iterator[DirectionalExample], FilterReport]:
    """Stream kept pairs; the report is complete once the stream is consumed."""
    if not rules:
        raise ValueError("rules must be non-empty")
    report = FilterReport()

    def run() -> Iterator[DirectionalExample]:
        for rule in rules:
            rule.reset()
        for ex in pairs:
            report.input_count += 1
            failed = None
            for rule in rules:
                if not rule.passes(ex):
                    failed = rule.name
                    break
            if failed is None:
                report.kept += 1
                yield ex
            else:
                report.rejected[failed] = report.rejected.get(failed, 0) + 1

    return run(), report


def attach_scores(
    pairs: Iterable[DirectionalExample], scores: Mapping[str, float]
) -> Iterator[ScoredPair]:
    """Pair each example with its checked score, scores[id], from
    read_score_sidecar's map or open_score_sidecar. An id whose lookup raises
    KeyError raises MissingScore."""
    for ex in pairs:
        try:
            score = scores[ex.id]
        except KeyError:
            raise MissingScore(ex.id) from None
        yield ScoredPair(ex, score)


def threshold_filter(scored: Iterable[ScoredPair], tau: float) -> Iterator[ScoredPair]:
    """Keep pairs with qe_score >= tau (inclusive boundary)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    for pair in scored:
        if pair.qe_score >= tau:
            yield pair


def count_thresholds(scored: Iterable[ScoredPair], report: FilterReport) -> Iterator[ScoredPair]:
    """Pass scored pairs through; once the stream is consumed, report.histogram
    holds the count and proportion of pairs at or above each of DEFAULT_THRESHOLDS."""
    counts = {tau: 0 for tau in DEFAULT_THRESHOLDS}
    total = 0
    for pair in scored:
        total += 1
        for tau in DEFAULT_THRESHOLDS:
            if pair.qe_score >= tau:
                counts[tau] += 1
        yield pair
    report.histogram = {tau: (c, c / total if total else 0.0) for tau, c in counts.items()}
