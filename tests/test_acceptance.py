"""Acceptance suite: one test per release criterion, each with a time budget.

Every numeric expectation here is either recomputed in-test by an independent
oracle or frozen from one. The conftest reporter prints one PASS/FAIL line
per criterion at the end of the run.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time
import unicodedata
from pathlib import Path

import pytest

from mmtkit.directions import Direction, enumerate_directions, expand
from mmtkit.downsampling import RetentionPolicy, downsample, retained
from mmtkit.evaluation import aggregate, intersect_support, read_eval_records
from mmtkit.filtering import (
    FilterReport,
    apply_heuristics,
    attach_scores,
    count_thresholds,
    default_rules,
    threshold_filter,
)
from mmtkit.backends import DictionaryBackend
from mmtkit.diagnostics import target_repetition_stats
from mmtkit.mixture import MixtureSpec, build_sft_mixture
from mmtkit.parallel import ordered_map
from mmtkit.prompts import build_inference_prompt, render_pmp, render_stp
from mmtkit.records import DirectionalExample, MultiWayRecord, json_line
from mmtkit.registry import load_registry
from mmtkit.synthesis import synth_pivot


class Budget:
    """Asserts wall time stays under the criterion's limit."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, f"budget exceeded: {elapsed:.2f}s >= {self.limit}s"


def fnv_unit(seed: int, key: str) -> float:
    # Deliberate second implementation; keep independent of mmtkit.hashing.
    h = 14695981039346656037
    for byte in f"{seed}:{key}".encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) % (1 << 64)
    return h / float(1 << 64)


def test_criterion_01_direction_arithmetic(registry):
    budget = Budget(1.0)
    dirset = enumerate_directions(registry)
    assert len(registry) == 60
    assert dirset.direction_count == 234
    assert dirset.pair_count == 117
    assert len(dirset.directions) == 234
    assert len(set(dirset.directions)) == 234
    # Brute-force recount from the registry alone.
    codes = registry.codes()
    expected_pairs = {frozenset((a, b)) for a in codes for b in codes if a != b and ("en" in (a, b) or "zh" in (a, b))}
    assert len(expected_pairs) == 117
    assert {frozenset((d.src, d.tgt)) for d in dirset.directions} == expected_pairs
    budget.check()


# Means over the bundled per-direction fixture, frozen from an independent
# aggregation of the same records. Tolerance 0.005 on every cell.
TIER_CELLS = {
    "LMT-60-4B": {
        ("High", "En→X"): 89.10, ("High", "X→En"): 88.38, ("High", "Zh→X"): 86.85, ("High", "X→Zh"): 87.57,
        ("Medium", "En→X"): 89.86, ("Medium", "X→En"): 89.02, ("Medium", "Zh→X"): 87.04, ("Medium", "X→Zh"): 87.32,
        ("Low", "En→X"): 86.92, ("Low", "X→En"): 86.77, ("Low", "Zh→X"): 83.81, ("Low", "X→Zh"): 85.06,
    },
    "LMT-60-8B": {
        ("High", "En→X"): 89.41, ("High", "X→En"): 88.57, ("High", "Zh→X"): 87.14, ("High", "X→Zh"): 87.67,
        ("Medium", "En→X"): 90.13, ("Medium", "X→En"): 89.18, ("Medium", "Zh→X"): 87.42, ("Medium", "X→Zh"): 87.45,
        ("Low", "En→X"): 87.23, ("Low", "X→En"): 87.20, ("Low", "Zh→X"): 84.20, ("Low", "X→Zh"): 85.48,
    },
}


def test_criterion_02_tier_table_aggregation(registry, data_dir):
    budget = Budget(1.0)
    overlap, counts = intersect_support(registry.codes(), set(registry.codes()) - {"mn_cn"}, registry)
    assert counts == (13, 18, 28)
    with open(data_dir / "comet_bleu_records.jsonl", encoding="utf-8") as f:
        table = aggregate(
            read_eval_records(f, registry),
            registry,
            overlap=overlap,
            metric="COMET22",
            models=["LMT-60-4B", "LMT-60-8B"],
        )
    for model, cells in TIER_CELLS.items():
        for (tier, cls), want in cells.items():
            got = table.cell(model, tier, cls)
            assert got is not None, f"{model} {tier} {cls} missing"
            assert abs(got - want) <= 0.005, f"{model} {tier} {cls}: {got} != {want}"
    budget.check()


def test_criterion_03_repetition_counts(registry, dirset):
    budget = Budget(5.0)
    codes = registry.codes()
    full = MultiWayRecord(id="full", sentences={l: f"{l} sentence" for l in codes})
    stats = target_repetition_stats(expand(full, dirset))
    assert stats.max_repetition == 59
    en_key = ("en", hashlib.sha256(unicodedata.normalize("NFC", "en sentence").encode()).hexdigest()[:16])
    zh_key = ("zh", hashlib.sha256(unicodedata.normalize("NFC", "zh sentence").encode()).hexdigest()[:16])
    assert stats.per_target[en_key] == 59
    assert stats.per_target[zh_key] == 59

    # 100 random partial records against a brute-force recount.
    rng = random.Random(303)
    records = []
    for i in range(100):
        langs = set(rng.sample(codes, rng.randint(2, 12)))
        langs.add(rng.choice(("en", "zh")))
        records.append(MultiWayRecord(id=f"p{i:03d}", sentences={l: f"{l} s{rng.randint(0, 5)}" for l in langs}))
    examples = [ex for r in records for ex in expand(r, dirset)]
    expected: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for ex in examples:
        tgt_key = (ex.tgt_lang, hashlib.sha256(unicodedata.normalize("NFC", ex.tgt).encode()).hexdigest()[:16])
        src_key = (ex.src_lang, hashlib.sha256(unicodedata.normalize("NFC", ex.src).encode()).hexdigest()[:16])
        expected.setdefault(tgt_key, set()).add(src_key)
    stats = target_repetition_stats(examples)
    assert stats.per_target == {k: len(v) for k, v in expected.items()}
    assert stats.max_repetition == max(len(v) for v in expected.values())
    budget.check()


def test_criterion_04_downsampling_determinism():
    budget = Budget(5.0)
    policy = RetentionPolicy(p_reverse=0.05, seed=42)
    examples = [
        DirectionalExample(id=f"r{i:05d}#fr2en", src_lang="fr", tgt_lang="en", src=f"s{i}", tgt=f"t{i}")
        for i in range(10_000)
    ]
    kept = {ex.id for ex in downsample(examples, policy)}
    assert len(kept) == 504  # frozen from the oracle below on first derivation

    oracle = {ex.id for ex in examples if fnv_unit(42, ex.id) < 0.05}
    assert kept == oracle

    sigma = math.sqrt(10_000 * 0.05 * 0.95)
    assert abs(len(kept) - 500) <= 3 * sigma

    shuffled = examples[:]
    random.Random(1).shuffle(shuffled)
    assert {ex.id for ex in downsample(shuffled, policy)} == kept
    assert {ex.id for ex in downsample(reversed(examples), policy)} == kept
    size = -(-len(shuffled) // 4)
    shard_kept = [{ex.id for ex in downsample(shuffled[k * size:(k + 1) * size], policy)} for k in range(4)]
    assert set().union(*shard_kept) == kept
    assert sum(map(len, shard_kept)) == len(kept)
    workers = {
        ex_id
        for ex_id, keep in ordered_map(lambda ex: (ex.id, retained(policy, ex.id)), examples, workers=4)
        if keep
    }
    assert workers == kept
    budget.check()


# (selected, retained, stp, pmp) per direction, frozen from an independent
# reimplementation of the selection, retention, and format coins.
MIX_EXPECTED = {
    "en->zh": (2000, 109, 109, 0),
    "zh->en": (2000, 100, 100, 0),
    "en->bg": (2000, 2000, 1021, 979),
    "bg->en": (2000, 116, 62, 54),
    "en->ar": (2000, 2000, 2000, 0),
    "ar->en": (2000, 121, 121, 0),
    "en->ru": (2000, 2000, 2000, 0),
    "ru->en": (2000, 102, 102, 0),
    "zh->bg": (2000, 2000, 1000, 1000),
    "bg->zh": (2000, 121, 64, 57),
    "zh->ar": (2000, 2000, 1001, 999),
    "ar->zh": (2000, 121, 54, 67),
    "zh->ru": (2000, 2000, 1001, 999),
    "ru->zh": (2000, 98, 44, 54),
}
NO_AUX = {"en->zh", "zh->en", "en->ar", "ar->en", "en->ru", "ru->en"}


def test_criterion_05_mixture_format_shares(registry):
    budget = Budget(10.0)
    langs = ("en", "zh", "bg", "ar", "ru")
    records = [
        MultiWayRecord(id=f"m{i:05d}", sentences={l: f"{l} text {i}" for l in langs})
        for i in range(2000)
    ]
    dirset = enumerate_directions(registry)
    spec = MixtureSpec(per_direction_min=1000, per_direction_max=2000, seed=42)
    prompted, report = build_sft_mixture(records, registry, dirset, spec)

    got = {
        d: (r.selected, r.retained, r.stp, r.pmp)
        for d, r in report.per_direction.items()
        if r.candidates
    }
    assert got == MIX_EXPECTED

    for d, (sel, ret, stp, pmp) in MIX_EXPECTED.items():
        assert stp + pmp == ret
        if d in NO_AUX:
            assert pmp == 0 and stp == ret  # no auxiliary: STP only
        direction = Direction(*d.split("->"))
        if direction.is_reverse:
            # 5% total retention, split 2.5%/2.5% when PMP is possible.
            assert abs(ret - 0.05 * sel) <= 3 * math.sqrt(sel * 0.05 * 0.95)
            if d not in NO_AUX:
                for count in (stp, pmp):
                    assert abs(count - 0.025 * sel) <= 3 * math.sqrt(sel * 0.025 * 0.975)
        else:
            assert ret == sel
            if d not in NO_AUX:
                for count in (stp, pmp):
                    assert abs(count - 0.5 * sel) <= 3 * math.sqrt(sel * 0.25)
    assert len(prompted) == sum(v[1] for v in MIX_EXPECTED.values())
    budget.check()


AUX_TABLE = {
    "bg": "ru", "da": "de", "fa": "ar", "no": "de", "ro": "it", "sk": "cs",
    "sv": "de", "uk": "ru", "vi": "fr", "az": "tr", "hr": "pl", "is": "de",
    "kk": "ru", "ky": "ru", "ps": "ar", "tg": "ru", "tl": "es", "ur": "fa",
    "uz": "tr",
}


def test_criterion_06_auxiliary_lookups(registry):
    budget = Budget(1.0)
    for x, aux in AUX_TABLE.items():
        assert registry.auxiliary_for("en", x) == aux
        assert registry.auxiliary_for(x, "en") == aux
    for x in registry.codes():
        if x in ("en", "zh"):
            continue
        assert registry.auxiliary_for("zh", x) == "en"
        assert registry.auxiliary_for(x, "zh") == "en"
    assert registry.auxiliary_for("en", "zh") is None
    assert registry.auxiliary_for("zh", "en") is None
    assert registry.auxiliary_for("en", "fr") is None  # not in the table
    budget.check()


def test_criterion_07_filtering_invariants():
    budget = Budget(5.0)
    rng = random.Random(1117)
    pairs, scores = [], {}
    for i in range(10_000):
        ident = f"f{i:05d}#de2en"
        roll = rng.random()
        if roll < 0.02:
            src, tgt = "", "x"
        elif roll < 0.04:
            src = tgt = f"same {i}"
        elif roll < 0.05:
            src, tgt = pairs[-1].src, pairs[-1].tgt  # duplicate of the previous pair
        else:
            src = f"quell {i} " + " ".join(f"w{rng.randint(0, 99)}" for _ in range(rng.randint(1, 6)))
            tgt = f"spring {i} " + " ".join(f"v{rng.randint(0, 99)}" for _ in range(rng.randint(1, 6)))
        pairs.append(DirectionalExample(id=ident, src_lang="de", tgt_lang="en", src=src, tgt=tgt))
        scores[ident] = rng.choice((0.6, 0.7, 0.8)) if i % 97 == 0 else rng.random()

    kept_iter, report = apply_heuristics(pairs, default_rules())
    kept = list(kept_iter)
    assert report.consistent()
    assert report.input_count == 10_000
    assert report.kept == len(kept)

    again_iter, again = apply_heuristics(kept, default_rules())
    assert len(list(again_iter)) == len(kept)
    assert again.rejected == {}

    scored = list(attach_scores(kept, scores))
    hist_report = FilterReport()
    assert list(count_thresholds(scored, hist_report)) == scored
    hist = hist_report.histogram
    for tau, (count, prop) in hist.items():
        recount = sum(1 for s in scored if s.qe_score >= tau)
        assert count == recount
        assert prop == pytest.approx(recount / len(scored))

    kept_ids = {tau: {s.example.id for s in threshold_filter(scored, tau)} for tau in (0.6, 0.7, 0.8)}
    assert kept_ids[0.8] <= kept_ids[0.7] <= kept_ids[0.6]
    for tau in (0.6, 0.7, 0.8):
        boundary = {s.example.id for s in scored if s.qe_score == tau}
        assert boundary, "seeded corpus must include exact-boundary scores"
        assert boundary <= kept_ids[tau]
    budget.check()


ALPHABET = "abd efgéßü中輝水мир🙂ทон"


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 14))).strip() or "x"


def test_criterion_08_loss_span_bytes(registry):
    budget = Budget(5.0)
    rng = random.Random(88)
    stp_dirs = [("en", "fr"), ("fr", "en"), ("zh", "de"), ("de", "zh"), ("en", "zh")]
    pmp_dirs = [("en", "bg", "ru"), ("bg", "en", "ru"), ("zh", "fr", "en"), ("fr", "zh", "en")]

    def spans_target(p, target: str):
        enc = p.text.encode("utf-8")
        assert enc[p.loss_start : p.loss_end] == target.encode("utf-8")

    for i in range(1000):
        src, tgt, aux = _text(rng), _text(rng), _text(rng)
        s, t = stp_dirs[i % len(stp_dirs)]
        ex = DirectionalExample(id=f"a{i}#{s}2{t}", src_lang=s, tgt_lang=t, src=src, tgt=tgt)
        spans_target(render_stp(ex, registry), tgt)

        ps, pt, pa = pmp_dirs[i % len(pmp_dirs)]
        pex = DirectionalExample(id=f"b{i}#{ps}2{pt}", src_lang=ps, tgt_lang=pt, src=src, tgt=tgt)
        spans_target(render_pmp(pex, aux, pa, registry), tgt)

        (inf,) = build_inference_prompt("dt", s, t, src, registry, item_id=f"d{i}")
        assert inf.loss_start == inf.loss_end == len(inf.text.encode("utf-8"))
        assert render_stp(ex, registry).text == inf.text + tgt

        (pinf,) = build_inference_prompt("pmp-o", ps, pt, src, registry, aux_text=aux, item_id=f"e{i}")
        assert pinf.loss_start == pinf.loss_end == len(pinf.text.encode("utf-8"))
        assert render_pmp(pex, aux, pa, registry).text == pinf.text + tgt
    budget.check()


def test_criterion_09_pivot_equivalence(registry):
    budget = Budget(5.0)
    vocab = {f"w{i}": (f"z{i}", f"s{i}") for i in range(40)}
    en2zh = {w: z for w, (z, _) in vocab.items()}
    en2sw = {w: s for w, (_, s) in vocab.items()}
    backend = DictionaryBackend({("en", "zh"): en2zh})

    rng = random.Random(99)
    pairs = []
    for i in range(200):
        words = [f"w{rng.randint(0, 39)}" for _ in range(rng.randint(1, 8))]
        pairs.append(
            DirectionalExample(
                id=f"p{i:03d}#en2sw",
                src_lang="en",
                tgt_lang="sw",
                src=" ".join(words),
                tgt=" ".join(en2sw[w] for w in words),
            )
        )
    out = list(synth_pivot(pairs, backend))
    assert len(out) == 2 * len(pairs)
    sw2en = {v: k for k, v in en2sw.items()}
    for pair, (zh2x, x2zh) in zip(pairs, zip(out[0::2], out[1::2])):
        # Composed dictionary: sw -> en -> zh, word by word.
        want_zh = " ".join(en2zh[sw2en[w]] for w in pair.tgt.split())
        assert (zh2x.src_lang, zh2x.tgt_lang) == ("zh", "sw")
        assert zh2x.src == want_zh and zh2x.tgt == pair.tgt
        assert (x2zh.src_lang, x2zh.tgt_lang) == ("sw", "zh")
        assert x2zh.src == pair.tgt and x2zh.tgt == want_zh
        assert zh2x.id == f"{pair.id}#zh2sw" and x2zh.id == f"{pair.id}#sw2zh"
        assert zh2x.provenance.value == x2zh.provenance.value == "synth_pivot"

    pt_backend = DictionaryBackend(
        {("fr", "en"): {"eau": "water"}, ("bg", "en"): {"voda": "water"}, ("ja", "en"): {"mizu": "water"}}
    )
    for s, t, word in (("fr", "de", "eau"), ("bg", "ru", "voda"), ("ja", "ko", "mizu")):
        prompts = build_inference_prompt("pt", s, t, word, registry, backend=pt_backend)
        assert len(prompts) == 2
        assert prompts[0].tgt_lang == "en" and prompts[0].src_lang == s
        assert prompts[1].src_lang == "en" and prompts[1].tgt_lang == t
        assert "English: water\n" in prompts[1].text
    for s, t in (("en", "fr"), ("fr", "en")):
        with pytest.raises(ValueError):
            build_inference_prompt("pt", s, t, "x", registry, backend=pt_backend)
    budget.check()


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_10_pipeline_determinism(tmp_path):
    budget = Budget(10.0)
    corpus = tmp_path / "corpus.mwjsonl"
    with open(corpus, "w", encoding="utf-8") as f:
        for i in range(60):
            f.write(
                json_line({"id": f"c{i:04d}", "sentences": {l: f"{l} sentence {i}" for l in ("en", "zh", "fr")}})
                + "\n"
            )

    def run(step_args):
        proc = subprocess.run(
            [sys.executable, "-m", "mmtkit", *step_args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def pipeline(outdir: Path, workers: str) -> dict[str, str]:
        outdir.mkdir()
        expanded = outdir / "expanded.djsonl"
        kept = outdir / "kept.djsonl"
        mixed = outdir / "mixed.pjsonl"
        filtered = outdir / "filtered.djsonl"
        run(["expand", "--in", str(corpus), "--out", str(expanded), "--workers", workers])
        run(["downsample", "--in", str(expanded), "--out", str(kept), "--p", "0.05"])
        run([
            "mix", "--in", str(corpus), "--out", str(mixed),
            "--per-direction-min", "1", "--per-direction-max", "40",
        ])
        run(["filter", "--in", str(kept), "--out", str(filtered)])
        return {p.name: _sha(p) for p in (expanded, kept, mixed, filtered)}

    first = pipeline(tmp_path / "run1", "1")
    second = pipeline(tmp_path / "run2", "1")
    wide = pipeline(tmp_path / "run4", "4")
    assert first == second == wide
    assert len(first) == 4

    # 4 contiguous record shards, each expanded and then downsampled on its
    # own, concatenate to run 1's bytes.
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    expanded, kept = b"", b""
    for k in range(4):
        shard = tmp_path / f"shard{k}"
        shard.with_suffix(".mwjsonl").write_text("".join(lines[k * 15:(k + 1) * 15]), encoding="utf-8")
        run(["expand", "--in", str(shard.with_suffix(".mwjsonl")), "--out", str(shard.with_suffix(".djsonl"))])
        run(["downsample", "--in", str(shard.with_suffix(".djsonl")), "--out", str(shard.with_suffix(".kept")), "--p", "0.05"])
        expanded += shard.with_suffix(".djsonl").read_bytes()
        kept += shard.with_suffix(".kept").read_bytes()
    assert expanded == (tmp_path / "run1" / "expanded.djsonl").read_bytes()
    assert kept == (tmp_path / "run1" / "kept.djsonl").read_bytes()
    budget.check()
