"""SFT mixture assembly: per-direction selection, reverse retention, and
STP/PMP format assignment.

Pipeline per direction: select up to per_direction_max candidates (by
descending score with id tiebreak when a score sidecar is present, corpus
order otherwise), then, for reverse directions only, apply the hash-threshold
retention used by the downsampler, then assign each surviving example a
format. The format coin uses a "fmt:"-prefixed hash key so it is independent
of the retention coin for the same id. Auxiliary sentences for PMP come from
the same multi-way record as the pair itself; examples whose direction has no
auxiliary, or whose record lacks the auxiliary sentence, fall back to STP.

Output is grouped by direction in direction-set order and sorted by id within
each direction, so scored mixtures are independent of input shard order.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .directions import DirectionSet, expand
from .downsampling import RetentionPolicy, retained
from .errors import MissingScore
from .hashing import unit_uniform
from .prompts import PromptedExample, render_pmp, render_stp
from .records import DirectionalExample, MultiWayRecord
from .registry import Registry

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MixtureSpec:
    per_direction_min: int = 3000
    per_direction_max: int = 20000
    forward_pmp_share: float = 0.5
    reverse_total_retention: float = 0.05
    reverse_pmp_share_of_retained: float = 0.5
    seed: int = 42

    def __post_init__(self):
        for name in ("forward_pmp_share", "reverse_total_retention", "reverse_pmp_share_of_retained"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.per_direction_min < 0 or self.per_direction_min > self.per_direction_max:
            raise ValueError(
                f"need 0 <= per_direction_min <= per_direction_max, "
                f"got {self.per_direction_min}..{self.per_direction_max}"
            )

    @classmethod
    def from_json(cls, obj: dict) -> "MixtureSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown mixture spec fields: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class DirectionMixReport:
    candidates: int = 0
    selected: int = 0
    retained: int = 0
    stp: int = 0
    pmp: int = 0


@dataclass
class MixtureReport:
    per_direction: dict[str, DirectionMixReport] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def emitted(self) -> int:
        return sum(r.stp + r.pmp for r in self.per_direction.values())

    def as_dict(self) -> dict:
        return {
            "emitted": self.emitted,
            "per_direction": {
                d: vars(r) for d, r in self.per_direction.items()
            },
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class _Candidate:
    example: DirectionalExample
    aux_lang: str | None
    aux_text: str | None
    score: float | None


class _Selector:
    """Per-direction candidate store honoring the selection rule."""

    def __init__(self, cap: int, scored: bool):
        self.cap = cap
        self.scored = scored
        self.seen = 0
        self.items: list[_Candidate] = []

    def offer(self, cand: _Candidate) -> None:
        self.seen += 1
        if self.scored:
            self.items.append(cand)
        elif len(self.items) < self.cap:
            self.items.append(cand)

    def selected(self) -> list[_Candidate]:
        if not self.scored:
            return self.items
        ranked = sorted(self.items, key=lambda c: (-c.score, c.example.id))
        return ranked[: self.cap]


def build_sft_mixture(
    records: Iterable[MultiWayRecord],
    registry: Registry,
    dirset: DirectionSet,
    spec: MixtureSpec,
    scores: dict[str, float] | None = None,
) -> tuple[list[PromptedExample], MixtureReport]:
    """Assemble the SFT mixture. Returns (prompted examples, report).

    Memory is bounded by per_direction_max per direction without scores; with
    scores all candidates are buffered so the global top-k is exact.
    """
    selectors: dict[tuple[str, str], _Selector] = {
        (d.src, d.tgt): _Selector(spec.per_direction_max, scores is not None) for d in dirset.directions
    }
    aux_of = {(d.src, d.tgt): registry.auxiliary_for(d.src, d.tgt) for d in dirset.directions}

    for record in records:
        for ex in expand(record, dirset):
            key = (ex.src_lang, ex.tgt_lang)
            aux = aux_of[key]
            aux_text = record.sentences.get(aux) if aux is not None else None
            score = None
            if scores is not None:
                if ex.id not in scores:
                    raise MissingScore(ex.id)
                score = scores[ex.id]
            selectors[key].offer(_Candidate(ex, aux, aux_text, score))

    policy = RetentionPolicy(p_reverse=spec.reverse_total_retention, seed=spec.seed)
    report = MixtureReport()
    out: list[PromptedExample] = []
    for d in dirset.directions:
        sel = selectors[(d.src, d.tgt)]
        rep = DirectionMixReport(candidates=sel.seen)
        chosen = sel.selected()
        rep.selected = len(chosen)
        if rep.selected < spec.per_direction_min:
            msg = (
                f"direction {d}: {rep.selected} selected examples, "
                f"below per_direction_min={spec.per_direction_min}"
            )
            report.warnings.append(msg)
            log.warning(msg)
        if d.is_reverse:
            chosen = [c for c in chosen if retained(policy, c.example.id)]
            pmp_share = spec.reverse_pmp_share_of_retained
        else:
            pmp_share = spec.forward_pmp_share
        rep.retained = len(chosen)
        for cand in sorted(chosen, key=lambda c: c.example.id):
            want_pmp = unit_uniform(spec.seed, f"fmt:{cand.example.id}") < pmp_share
            if want_pmp and cand.aux_text:
                out.append(render_pmp(cand.example, cand.aux_text, cand.aux_lang, registry))
                rep.pmp += 1
            else:
                out.append(render_stp(cand.example, registry))
                rep.stp += 1
        report.per_direction[str(d)] = rep
    return out, report
