"""SFT mixture assembly: per-direction selection, reverse retention, and
STP/PMP format assignment.

Pipeline per direction: select up to per_direction_max candidates (by
descending score with id tiebreak when a score sidecar is present, corpus
order otherwise), then, for reverse directions only, apply the hash-threshold
retention used by the downsampler, then assign each surviving example a
format. The format coin uses a "fmt:"-prefixed hash key so it is independent
of the retention coin for the same id. Each direction's retention coins, and
then its format coins, are hashed in batches of downsampling.SLICE keys
(retained_each, hashing.unit_uniforms), over the keys the coins flipped one
at a time would hash, in the same order; a batched coin equals the scalar
one, and one slice of keys, bytes and coins is held at a time. Auxiliary
sentences for PMP come from the same multi-way record as the pair itself;
examples whose direction has no auxiliary, or whose record lacks the
auxiliary sentence, fall back to STP.

A candidate is a reference to the multi-way record that covers its direction;
its prompt is rendered, straight from the record's sentences, only if it
survives the cap and the retention coin. The records are taken as
read_multiway checked them, so the prompts are not checked again; their
reader has refused any text with no UTF-8 form, so every coin key hashes.
Selection holds at most per_direction_max candidates per direction without
scores (corpus order, so later candidates are only counted) and at most
2 x per_direction_max + 1 with scores, each beside its score, so the pools do
not grow with the corpus. The pools, counts and score arrays are keyed by the
direction's id_tag, a string made once per direction. A scored pool is cut
to its best per_direction_max in (-score, example id) order: sorted by score
alone, then with each run of equal scores put in id order. Each candidate's score is looked up once, in corpus
order and each record's directions in direction-set order, the order expand
writes examples in; a score sidecar in that order is read in step with the
lookups (records.open_score_sidecar), so no map of the corpus's scores is
held either. Prompts are streamed direction by direction in direction-set
order, sorted by id within each direction, so scored mixtures are
independent of input shard order.
"""
from __future__ import annotations

from itertools import compress, groupby
from typing import Iterable, Iterator, Mapping

from .directions import Direction, DirectionSet, covered
from .downsampling import SLICE, RetentionPolicy, retained_each
from .errors import MissingScore, warn
from .hashing import DEFAULT_SEED, unit_uniforms
from .prompts import PromptedExample, PromptFormat, render_translation
from .records import MultiWayRecord, slices
from .registry import Frozen, Registry, Value


class MixtureSpec(Frozen):
    __slots__ = __match_args__ = ("per_direction_min", "per_direction_max", "forward_pmp_share",
                                  "reverse_total_retention", "reverse_pmp_share_of_retained", "seed")

    def __init__(self, per_direction_min: int = 3000, per_direction_max: int = 20000, forward_pmp_share: float = 0.5,
                 reverse_total_retention: float = 0.05, reverse_pmp_share_of_retained: float = 0.5,
                 seed: int = DEFAULT_SEED):
        self._set(per_direction_min=per_direction_min, per_direction_max=per_direction_max,
                  forward_pmp_share=forward_pmp_share, reverse_total_retention=reverse_total_retention,
                  reverse_pmp_share_of_retained=reverse_pmp_share_of_retained, seed=seed)
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


class DirectionMixReport(Value):
    __slots__ = __match_args__ = ("candidates", "selected", "retained", "stp", "pmp")

    def __init__(self, candidates: int = 0, selected: int = 0, retained: int = 0, stp: int = 0, pmp: int = 0):
        self.candidates, self.selected, self.retained, self.stp, self.pmp = candidates, selected, retained, stp, pmp


class MixtureReport(Value):
    __slots__ = __match_args__ = ("per_direction", "warnings")

    def __init__(self, per_direction: dict[str, DirectionMixReport] | None = None, warnings: list[str] | None = None):
        self.per_direction = {} if per_direction is None else per_direction
        self.warnings = [] if warnings is None else warnings

    @property
    def emitted(self) -> int:
        return sum(r.stp + r.pmp for r in self.per_direction.values())

    def as_dict(self) -> dict:
        return {
            "emitted": self.emitted,
            "per_direction": {
                d: {name: getattr(r, name) for name in r.__match_args__} for d, r in self.per_direction.items()
            },
            "warnings": list(self.warnings),
        }


def stream_sft_mixture(
    records: Iterable[MultiWayRecord],
    registry: Registry,
    dirset: DirectionSet,
    spec: MixtureSpec,
    scores: Mapping[str, float] | None = None,
) -> tuple[Iterator[PromptedExample], MixtureReport]:
    """Stream the SFT mixture; the report is complete once the stream is consumed.

    Records are read when the first prompt is asked for, and each direction's
    candidates are released once its prompts are emitted. Only scores[example
    id] is read, once per candidate; a KeyError there raises MissingScore.
    """
    cap = spec.per_direction_max
    report = MixtureReport()
    if scores is not None:
        # Imported here: loading the module raises unscored mix's peak RSS.
        from array import array

    def cut(pool: list[MultiWayRecord], kept: "array[float]", tag: str) -> None:
        """Keep the pool's best cap records by (-score, example id), in that
        order, and their scores. The C-level key sorts by score alone, and the
        sort is stable, so only runs of equal scores (0.0 equals -0.0) are
        then put in example-id order; ids are built for those alone."""
        order = sorted(range(len(pool)), key=kept.__getitem__, reverse=True)
        ranked = [kept[i] for i in order]
        if len(set(ranked)) < len(ranked):
            start = 0
            for _, run in groupby(ranked):
                end = start + sum(1 for _ in run)
                if end - start > 1:
                    order[start:end] = sorted(order[start:end], key=lambda i: f"{pool[i].id}{tag}")
                if end >= cap:
                    break
                start = end
        del order[cap:]
        pool[:] = [pool[i] for i in order]
        kept[:] = array("d", [kept[i] for i in order])

    def run() -> Iterator[PromptedExample]:
        # Keyed by each direction's id_tag: the string is made once, so a
        # lookup reuses its cached hash and matches on identity.
        pools: dict[str, list[MultiWayRecord]] = {d.id_tag: [] for d in dirset.directions}
        seen = dict.fromkeys(pools, 0)
        if scores is not None:
            # Each pooled record's score, at the record's index in its pool.
            kept = {tag: array("d") for tag in pools}
        for record in records:
            for d in covered(record, dirset):
                tag = d.id_tag
                seen[tag] += 1
                pool = pools[tag]
                if scores is None:
                    if len(pool) < cap:
                        pool.append(record)
                else:
                    ex_id = f"{record.id}{tag}"
                    try:
                        score = scores[ex_id]
                    except KeyError:
                        raise MissingScore(ex_id) from None
                    pool.append(record)
                    kept[tag].append(score)
                    if len(pool) > 2 * cap:
                        cut(pool, kept[tag], tag)

        policy = RetentionPolicy(p_reverse=spec.reverse_total_retention, seed=spec.seed)

        def emit(d: Direction, chosen: list[MultiWayRecord]) -> Iterator[PromptedExample]:
            """The prompts of one direction's pool. Its survivors and coins
            are locals here, released before the next direction's are made."""
            tag = d.id_tag
            if scores is not None:
                cut(chosen, kept.pop(tag), tag)
            rep = report.per_direction[str(d)] = DirectionMixReport(candidates=seen[tag], selected=len(chosen))
            if rep.selected < spec.per_direction_min:
                report.warnings.append(
                    f"direction {d}: {rep.selected} selected examples, "
                    f"below per_direction_min={spec.per_direction_min}"
                )
            survivors = [(f"{r.id}{tag}", r) for r in chosen]
            if d.is_reverse:
                survivors = [s for part in slices(survivors, SLICE)
                             for s in compress(part, retained_each(policy, [ex_id for ex_id, _ in part]))]
                pmp_share = spec.reverse_pmp_share_of_retained
            else:
                pmp_share = spec.forward_pmp_share
            rep.retained = len(survivors)
            survivors.sort(key=lambda s: s[0])
            aux = registry.auxiliary_for(d.src, d.tgt)
            # The format coin is flipped for each survivor with the aux
            # sentence, in output order, so these are its keys in that order,
            # hashed a slice at a time as the coins are asked for.
            fmt_keys = () if aux is None else (f"fmt:{ex_id}" for ex_id, r in survivors if r.sentences.get(aux))
            fmt_coins = (u for part in slices(fmt_keys, SLICE) for u in unit_uniforms(spec.seed, part))
            for ex_id, record in survivors:
                sentences = record.sentences
                src, tgt = sentences[d.src], sentences[d.tgt]
                aux_text = sentences.get(aux) if aux is not None else None
                if aux_text and next(fmt_coins) < pmp_share:
                    rep.pmp += 1
                    yield render_translation(PromptFormat.PMP, ex_id, d.src, d.tgt, src, tgt, registry, aux, aux_text)
                else:
                    rep.stp += 1
                    yield render_translation(PromptFormat.STP, ex_id, d.src, d.tgt, src, tgt, registry)

        for d in dirset.directions:
            yield from emit(d, pools.pop(d.id_tag))
        if report.warnings:
            warn(__name__, f"{len(report.warnings)} of {len(dirset.directions)} directions below "
                           f"per_direction_min={spec.per_direction_min}; first: {report.warnings[0]}")

    return run(), report


def build_sft_mixture(
    records: Iterable[MultiWayRecord],
    registry: Registry,
    dirset: DirectionSet,
    spec: MixtureSpec,
    scores: Mapping[str, float] | None = None,
) -> tuple[list[PromptedExample], MixtureReport]:
    """Assemble the SFT mixture. Returns (prompted examples, report)."""
    stream, report = stream_sft_mixture(records, registry, dirset, spec, scores)
    return list(stream), report
