"""Traced run: per-layer metrics from spans around calls into mmtkit.

Spans are recorded from the benchmark's own code only: around each call into
a layer's public function, around the iterators the benchmark passes into
generator stages (so upstream parsing can be subtracted as child time), and
in proxy backend and scorer objects handed to synth_* and score_stream. No
mmtkit internals are patched. Each span has a name, start, end and parent;
all spans of a run share its run id. They are kept in memory and written to
spans.jsonl once, at the end.

The `cli.*` metrics come from one untraced subprocess run of every
workload's chain; `_w2` marks the stages of pipeline-w2.
"""
from __future__ import annotations

import io
import json
import logging
import math
import statistics
import sys
import time
import uuid
from contextlib import contextmanager
from pathlib import Path

from checks import CENTERS, P_REVERSE, PROGRAM_SEED, RULES
from inputs import MIX_CAP
from stages import ROOT, WORKLOADS, backend_cmds, chain, input_files, run_chain

CLOCK = time.perf_counter


class Spans:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.records: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self._open: list[int] = [-1]

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        self.records.append((name, CLOCK(), 0.0, self._open[-1]))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            name, start, _, parent = self.records[index]
            self.records[index] = (name, start, CLOCK(), parent)

    def leaf(self, name: str, start: float, end: float) -> None:
        self.records.append((name, start, end, self._open[-1]))

    def timed(self, items, name: str):
        """Yield from items, recording each pull as a child of the open span."""
        it = iter(items)
        parent, record = self._open[-1], self.records.append
        while True:
            start = CLOCK()
            try:
                item = next(it)
            except StopIteration:
                return
            record((name, start, CLOCK(), parent))
            yield item

    def duration(self, index: int) -> float:
        _, start, end, _ = self.records[index]
        return end - start

    def self_time(self, index: int) -> float:
        """Duration minus the time covered by direct children."""
        children = sum(end - start for _, start, end, parent in self.records if parent == index)
        return self.duration(index) - children

    def leaf_durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.records if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.records):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": name, "start": start, "end": end,
                                    "parent": None if parent < 0 else parent}) + "\n")


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.readlines()


def _proxies(spans: Spans):
    """Backend and scorer proxies that time every request."""
    from mmtkit.backends import Backend, BackendItemError, SubprocessScorer

    class TracedBackend(Backend):
        def __init__(self, inner: Backend):
            self.inner = inner
            self.item_errors = 0

        def translate(self, item_id, src_lang, tgt_lang, text):
            start = CLOCK()
            try:
                return self.inner.translate(item_id, src_lang, tgt_lang, text)
            except BackendItemError:
                self.item_errors += 1
                raise
            finally:
                spans.leaf("backends.translate", start, CLOCK())

        def close(self):
            self.inner.close()

    class TracedScorer(SubprocessScorer):
        def score(self, item_id, src_lang, tgt_lang, src, tgt):
            start = CLOCK()
            try:
                return super().score(item_id, src_lang, tgt_lang, src, tgt)
            finally:
                spans.leaf("backends.score", start, CLOCK())

    return TracedBackend, TracedScorer


def layers(spans: Spans, inp, oracle, outputs: dict[str, Path]) -> tuple[dict, list[str]]:
    """Call each layer's public functions on this run's inputs and outputs."""
    from mmtkit import records as rec_mod
    from mmtkit.backends import SubprocessBackend
    from mmtkit.diagnostics import target_repetition_stats
    from mmtkit.directions import Direction, enumerate_directions, expand
    from mmtkit.downsampling import DownsampleStats, RetentionPolicy, SampleClass, classify, downsample, retained
    from mmtkit.filtering import apply_heuristics, default_rules
    from mmtkit.hashing import unit_uniform
    from mmtkit.mixture import MixtureSpec, build_sft_mixture
    from mmtkit.parallel import ordered_map
    from mmtkit.prompts import render_pmp, render_stp, write_prompted
    from mmtkit.registry import load_registry
    from mmtkit.synthesis import synth_direct, synth_pivot

    m: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    us = 1e6
    span = spans.span

    with span("load_registry"):
        registry = load_registry()
        dirset = enumerate_directions(registry)
    corpus_lines, exp_lines, ds_lines = (_lines(outputs[k]) for k in ("corpus", "expand", "downsample"))

    # records
    with span("json.loads") as i_json:
        for line in exp_lines:
            json.loads(line)
    with span("records.parse_json_lines") as i:
        n = sum(1 for _ in rec_mod.parse_json_lines(exp_lines))
    m["records.parse_json_lines.us_per_line"] = (spans.duration(i) * us / n, "us")
    with span("records.read_examples") as i_read:
        examples = list(rec_mod.read_examples(exp_lines))
    m["records.read_examples.us_per_rec"] = (spans.duration(i_read) * us / len(examples), "us")
    m["records.construct_share"] = (1 - spans.duration(i_json) / spans.duration(i_read), "share")
    with span("records.read_multiway") as i:
        records = list(rec_mod.read_multiway(corpus_lines, registry))
    m["records.read_multiway.us_per_rec"] = (spans.duration(i) * us / len(records), "us")
    dicts = [ex.to_json() for ex in examples]
    with span("records.json_line") as i:
        for d in dicts:
            rec_mod.json_line(d)
    m["records.json_line.us_per_rec"] = (spans.duration(i) * us / len(dicts), "us")

    # directions
    with span("directions.expand") as i:
        n = sum(len(expand(r, dirset)) for r in records)
    m["directions.expand.us_per_ex"] = (spans.duration(i) * us / n, "us")
    if n != oracle.coverage():
        problems.append(f"directions.expand: {n} examples, coverage gives {oracle.coverage()}")

    # downsampling, with upstream parsing timed as child spans and excluded
    policy = RetentionPolicy(p_reverse=P_REVERSE, seed=PROGRAM_SEED)
    stats = DownsampleStats()
    with span("downsampling.downsample") as i:
        kept = sum(1 for _ in downsample(spans.timed(rec_mod.read_examples(exp_lines), "records.read_examples"),
                                         policy, stats))
    m["downsampling.downsample.us_per_ex"] = (spans.self_time(i) * us / len(examples), "us")
    rev_kept, rev_seen = stats.retained[SampleClass.REVERSE], stats.retained[SampleClass.REVERSE] + stats.dropped[SampleClass.REVERSE]
    m["downsampling.reverse_retained_share"] = (rev_kept / rev_seen, "share")
    m["downsampling.reverse_seen"] = (rev_seen, "count")
    if kept != len(oracle.kept_lines):
        problems.append(f"downsampling.downsample kept {kept}, the FNV-1a oracle keeps {len(oracle.kept_lines)}")

    # hashing: the retention coin on reverse ids and the format coin on every id
    keys = [ex.id for ex in examples if ex.tgt_lang in CENTERS] + [f"fmt:{ex.id}" for ex in examples]
    with span("hashing.unit_uniform") as i:
        for key in keys:
            unit_uniform(PROGRAM_SEED, key)
    m["hashing.unit_uniform.us_per_call"] = (spans.duration(i) * us / len(keys), "us")
    m["hashing.calls"] = (len(keys), "count")

    # filtering: the whole pass, then each rule alone on the pairs that reach it
    pairs = list(rec_mod.read_examples(ds_lines, validate=False))
    with span("filtering.apply_heuristics"):
        stream, report = apply_heuristics(pairs, default_rules())
        filtered = list(stream)
    reach = pairs
    for rule in default_rules():
        with span(f"filtering.{rule.name}") as i:
            verdicts = [rule.passes(ex) for ex in reach]
        m[f"filtering.{rule.name}.us_per_call"] = (spans.duration(i) * us / len(reach), "us")
        m[f"filtering.rejected.{rule.name}"] = (verdicts.count(False), "count")
        reach = [ex for ex, ok in zip(reach, verdicts) if ok]
    m["filtering.kept_share"] = (report.kept / report.input_count, "share")
    rejected = {r: m[f"filtering.rejected.{r}"][0] for r in RULES}
    if rejected != report.rejected or len(reach) != report.kept:
        problems.append(f"filtering: per-rule cascade {rejected} differs from apply_heuristics {report.rejected}")

    # diagnostics
    with span("diagnostics.target_repetition_stats") as i:
        target_repetition_stats(filtered)
    m["diagnostics.target_repetition_stats.us_per_ex"] = (spans.duration(i) * us / len(filtered), "us")

    # parallel: the downsample decision through ordered_map at 1 and 2 workers
    def decide(ex):
        return ex, classify(ex) is SampleClass.FORWARD or retained(policy, ex.id)

    per_item = {}
    for workers in (1, 2):
        with span(f"parallel.ordered_map.w{workers}") as i:
            for _ in ordered_map(decide, examples, workers=workers):
                pass
        per_item[workers] = spans.duration(i) / len(examples)
        m[f"parallel.ordered_map.us_per_item.w{workers}"] = (per_item[workers] * us, "us")
    m["parallel.speedup"] = (per_item[1] / per_item[2], "ratio")

    # mixture
    spec = MixtureSpec(per_direction_min=0, per_direction_max=MIX_CAP, seed=PROGRAM_SEED)
    mixed = []
    for kind, scores in (("unscored", None), ("scored", inp.score_map)):
        with span(f"mixture.build_sft_mixture.{kind}") as i:
            prompted, mix_report = build_sft_mixture(records, registry, dirset, spec, scores=scores)
        candidates = sum(r.candidates for r in mix_report.per_direction.values())
        m[f"mixture.build_sft_mixture.us_per_candidate.{kind}"] = (spans.duration(i) * us / candidates, "us")
        if kind == "unscored":
            selected = sum(r.selected for r in mix_report.per_direction.values())
            m["mixture.selected_share"] = (selected / candidates, "share")
        if [p.id for p in prompted] != [ex["id"] for ex in oracle.mix_selection(scores is not None)]:
            problems.append(f"mixture.build_sft_mixture ({kind}): selection differs from the expected one")
        mixed.extend(prompted)

    # prompts
    with span("prompts.render_stp") as i:
        for ex in examples:
            render_stp(ex, registry)
    m["prompts.render_stp.us_per_call"] = (spans.duration(i) * us / len(examples), "us")
    sentences = {r.id: r.sentences for r in records}
    with_aux = []
    for ex in examples:
        aux = registry.auxiliary_for(ex.src_lang, ex.tgt_lang)
        text = sentences[ex.id.split("#")[0]].get(aux) if aux else None
        if text:
            with_aux.append((ex, text, aux))
    with span("prompts.render_pmp") as i:
        for ex, text, aux in with_aux:
            render_pmp(ex, text, aux, registry)
    m["prompts.render_pmp.us_per_call"] = (spans.duration(i) * us / len(with_aux), "us")
    with span("prompts.write_prompted") as i:
        write_prompted(mixed, io.StringIO())
    m["prompts.write_prompted.us_per_rec"] = (spans.duration(i) * us / len(mixed), "us")

    # backends and synthesis, through timing proxies
    TracedBackend, TracedScorer = _proxies(spans)
    scorer_cmd, backend_cmd = backend_cmds()
    score_pairs = list(rec_mod.read_examples(_lines(inp.score_in)))
    with TracedScorer(scorer_cmd) as scorer, span("backends.score_stream"):
        scored = [rec_mod.json_line({"id": i, "qe_score": s}) for i, s in scorer.score_stream(score_pairs)]
    if scored != oracle._score_lines():
        problems.append("backends.score_stream: scores differ from the toy scorer's formula")

    mono = [(o["id"], o["text"]) for o in inp.mono_items]
    pivot_pairs = list(rec_mod.read_examples(_lines(inp.pivot)))
    item_errors, failed = 0, 0
    for name, items, per_item_out, synth in (
        ("synth_direct", mono, 1, lambda b: synth_direct(mono, b, Direction("en", "fr"))),
        ("synth_pivot", pivot_pairs, 2, lambda b: synth_pivot(pivot_pairs, b)),
    ):
        with TracedBackend(SubprocessBackend(backend_cmd)) as backend:
            with span(f"synthesis.{name}") as i:
                written = sum(1 for _ in synth(backend))
            item_errors += backend.item_errors
        failed += len(items) - written // per_item_out
        m[f"synthesis.{name}.us_per_item"] = (spans.self_time(i) * us / len(items), "us")
    m["synthesis.items_failed"] = (failed, "count")
    if failed != item_errors:
        problems.append(f"synthesis: {failed} items failed but the backend reported {item_errors} errors")

    for kind in ("score", "translate"):
        lat = spans.leaf_durations(f"backends.{kind}")
        m[f"backends.{kind}.us_per_req.p50"] = (_quantile(lat, 0.5) * us, "us")
        m[f"backends.{kind}.us_per_req.p999"] = (_quantile(lat, 0.999) * us, "us")
        m[f"backends.{kind}.samples"] = (len(lat), "count")
    m["backends.requests"] = (m["backends.score.samples"][0] + m["backends.translate.samples"][0], "count")
    m["backends.item_errors"] = (item_errors, "count")
    return m, problems


def overhead(spans: Spans, workload: str, inp, outputs: dict[str, Path], reps: int = 7) -> float:
    """Traced against untraced time of the workload's in-process chain."""
    from mmtkit.backends import SubprocessBackend
    from mmtkit.directions import Direction, enumerate_directions
    from mmtkit.downsampling import RetentionPolicy, downsample
    from mmtkit.mixture import MixtureSpec, build_sft_mixture
    from mmtkit.records import read_examples, read_multiway
    from mmtkit.registry import load_registry
    from mmtkit.synthesis import synth_direct

    TracedBackend, _ = _proxies(spans)
    if workload in ("pipeline", "pipeline-w2"):
        lines = _lines(outputs["expand"])
        policy = RetentionPolicy(p_reverse=P_REVERSE, seed=PROGRAM_SEED)

        def run(traced):
            examples = read_examples(lines)
            for _ in downsample(spans.timed(examples, "records.read_examples") if traced else examples, policy):
                pass
    elif workload == "mix":
        lines = _lines(outputs["corpus"])
        registry = load_registry()
        dirset = enumerate_directions(registry)
        spec = MixtureSpec(per_direction_min=0, per_direction_max=MIX_CAP, seed=PROGRAM_SEED)

        def run(traced):
            records = read_multiway(lines, registry)
            build_sft_mixture(spans.timed(records, "records.read_multiway") if traced else records,
                              registry, dirset, spec)
    else:
        mono = [(o["id"], o["text"]) for o in inp.mono_items]
        _, backend_cmd = backend_cmds()

        def run(traced):
            with SubprocessBackend(backend_cmd) as raw:
                backend = TracedBackend(raw) if traced else raw
                for _ in synth_direct(mono, backend, Direction("en", "fr")):
                    pass

    times = {False: [], True: []}
    for rep in range(reps):
        for traced in (rep % 2 == 0, rep % 2 == 1):
            with spans.span(f"overhead.{'traced' if traced else 'untraced'}") as i:
                run(traced)
            times[traced].append(spans.duration(i))
    return statistics.median(times[True]) / statistics.median(times[False]) - 1


def traced_run(workload: str, inp, oracle, verifier, launcher, work: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    logging.getLogger("mmtkit").setLevel(logging.ERROR)  # per-item synthesis warnings

    metrics: dict[str, tuple[float, str]] = {}
    outputs: dict[str, Path] = {"corpus": inp.corpus}
    digests: dict[str, dict] = {}
    for wl in WORKLOADS:
        runs = run_chain(chain(wl, input_files(inp), work / wl), launcher)
        digests[wl] = verifier.outputs(runs, digests["pipeline"] if wl == "pipeline-w2" else None)
        suffix = "_w2" if wl == "pipeline-w2" else ""
        for r in runs:
            metrics[f"cli.{r.stage.name}{suffix}.s"] = (r.wall_s, "s")
            metrics[f"cli.{r.stage.name}{suffix}.cpu_s"] = (r.cpu_s, "s")
            metrics[f"cli.{r.stage.name}{suffix}.rss_mb"] = (r.rss_mb, "MB")
            if not suffix:
                outputs[r.stage.name] = r.stage.out

    spans = Spans()
    with spans.span("run"):
        with spans.span("layers") as i_layers:
            layer_metrics, problems = layers(spans, inp, oracle, outputs)
        share = overhead(spans, workload, inp, outputs)
    metrics.update(layer_metrics)
    metrics["trace.overhead_share"] = (share, "share")
    verifier.attempted += 1
    if problems:
        verifier.fail("traced layers: " + "; ".join(problems))
    spans.write(work / "spans.jsonl")

    facts = {"digests": digests, "spans": len(spans.records), "run_id": spans.run_id}
    timings = {"layers_s": spans.duration(i_layers)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, {"facts": facts, "timings": timings}
