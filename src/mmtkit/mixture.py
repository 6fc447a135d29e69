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

Selection holds at most 2 x per_direction_max + 1 candidates per direction,
with or without scores, so memory does not grow with the corpus. Output is
grouped by direction in direction-set order and sorted by id within each
direction, so scored mixtures are independent of input shard order.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable

from .directions import DirectionSet, expand
from .downsampling import RetentionPolicy, retained
from .errors import MissingScore
from .hashing import DEFAULT_SEED, unit_uniform
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
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("per_direction_min", "per_direction_max", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        for name in ("forward_pmp_share", "reverse_total_retention", "reverse_pmp_share_of_retained"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValueError(f"{name} must be a number, got {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.per_direction_min < 0 or self.per_direction_min > self.per_direction_max:
            raise ValueError(
                f"need 0 <= per_direction_min <= per_direction_max, "
                f"got {self.per_direction_min}..{self.per_direction_max}"
            )


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


def build_sft_mixture(
    records: Iterable[MultiWayRecord],
    registry: Registry,
    dirset: DirectionSet,
    spec: MixtureSpec,
    scores: dict[str, float] | None = None,
) -> tuple[list[PromptedExample], MixtureReport]:
    """Assemble the SFT mixture. Returns (prompted examples, report).

    Memory is bounded by per_direction_max per direction, with or without
    scores: a direction's candidates are cut back to the best per_direction_max
    whenever they pass twice that cap, and once more at the end.
    """
    cap = spec.per_direction_max
    keys = [(d.src, d.tgt) for d in dirset.directions]
    pool: dict[tuple[str, str], list[tuple[DirectionalExample, str | None]]] = {k: [] for k in keys}
    seen = dict.fromkeys(keys, 0)
    aux_of = {k: registry.auxiliary_for(*k) for k in keys}

    def cut(pairs: list) -> None:
        if scores is not None:
            pairs.sort(key=lambda p: (-scores[p[0].id], p[0].id))
        del pairs[cap:]

    for record in records:
        for ex in expand(record, dirset):
            if scores is not None and ex.id not in scores:
                raise MissingScore(ex.id)
            key = (ex.src_lang, ex.tgt_lang)
            aux = aux_of[key]
            pairs = pool[key]
            pairs.append((ex, record.sentences.get(aux) if aux is not None else None))
            seen[key] += 1
            if len(pairs) > 2 * cap:
                cut(pairs)

    policy = RetentionPolicy(p_reverse=spec.reverse_total_retention, seed=spec.seed)
    report = MixtureReport()
    out: list[PromptedExample] = []
    for d, key in zip(dirset.directions, keys):
        chosen = pool[key]
        cut(chosen)
        rep = DirectionMixReport(candidates=seen[key], selected=len(chosen))
        if rep.selected < spec.per_direction_min:
            report.warnings.append(
                f"direction {d}: {rep.selected} selected examples, "
                f"below per_direction_min={spec.per_direction_min}"
            )
        if d.is_reverse:
            chosen = [c for c in chosen if retained(policy, c[0].id)]
            pmp_share = spec.reverse_pmp_share_of_retained
        else:
            pmp_share = spec.forward_pmp_share
        rep.retained = len(chosen)
        for ex, aux_text in sorted(chosen, key=lambda c: c[0].id):
            if aux_text and unit_uniform(spec.seed, f"fmt:{ex.id}") < pmp_share:
                out.append(render_pmp(ex, aux_text, aux_of[key], registry))
                rep.pmp += 1
            else:
                out.append(render_stp(ex, registry))
                rep.stp += 1
        report.per_direction[str(d)] = rep
    if report.warnings:
        log.warning(
            "%d of %d directions below per_direction_min=%d; first: %s",
            len(report.warnings), len(keys), spec.per_direction_min, report.warnings[0],
        )
    return out, report
