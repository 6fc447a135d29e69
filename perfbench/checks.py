"""Independent checks of stage outputs.

Nothing here imports mmtkit. The retention coin is an FNV-1a oracle written
from its definition; directions and auxiliary languages are derived from the
registry's data files. Where an output can be predicted byte for byte
(expand, downsample, mix, score, synth) the check compares sha256 digests
with the prediction. Filter and diagnose are checked against facts computed
here: filter's kept lines must be an in-order subset of its input, and
diagnose's report must equal statistics recomputed from filter's output.
Each check returns a list of problems; an empty list means the stage's
output is correct.
"""
from __future__ import annotations

import hashlib
import json
import unicodedata
from pathlib import Path

from inputs import CENTERS, FAIL_EVERY, MIX_CAP, Inputs, expand, json_line

PROGRAM_SEED = 42  # mmtkit's default seed; the stages run without --seed
P_REVERSE = 0.05
PMP_SHARE = 0.5
RULES = ("NonEmpty", "SrcTgtDistinct", "MaxLengthRatio", "LengthBounds", "ControlCharFree", "ExactDedup")


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def unit(seed: int, key: str) -> float:
    return fnv1a64(f"{seed}:{key}".encode("utf-8")) / 2.0**64


def reverse_kept(example_id: str) -> bool:
    return unit(PROGRAM_SEED, example_id) < P_REVERSE


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


def _read(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def _summary(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


class Oracle:
    """Expected outputs and digests for one set of generated inputs."""

    def __init__(self, inp: Inputs, root: Path):
        self.inp = inp
        data = root / "src" / "mmtkit" / "data"
        with open(data / "auxiliaries.jsonl", encoding="utf-8") as f:
            self.aux_table = {o["lang"]: o["aux"] for o in map(json.loads, filter(str.strip, f))}
        with open(data / "languages.jsonl", encoding="utf-8") as f:
            self.names = {o["code"]: o["name"] for o in map(json.loads, filter(str.strip, f))}
        self.expanded = [ex for rec in inp.records for ex in expand(rec, inp.dirs)]
        self.expand_lines = [json_line(ex) for ex in self.expanded]
        self.kept_lines = [
            line for ex, line in zip(self.expanded, self.expand_lines)
            if ex["tgt_lang"] not in CENTERS or reverse_kept(ex["id"])
        ]
        reverse = sum(ex["tgt_lang"] in CENTERS for ex in self.expanded)
        reverse_retained = len(self.kept_lines) - (len(self.expanded) - reverse)
        n_mono, n_pivot = len(inp.mono_items), len(inp.pivot_items)
        mix = {scored: self._mix_lines(scored) for scored in (False, True)}
        lines = {
            "expand": self.expand_lines,
            "downsample": self.kept_lines,
            "score": self._score_lines(),
            "synth_direct": self._direct_lines(),
            "synth_pivot": self._pivot_lines(),
            "mix": mix[False],
            "mix_scored": mix[True],
        }
        self.digests = {stage: _sha(out) for stage, out in lines.items()}
        self.summaries = {
            "expand": {"records": len(inp.records), "examples": self.coverage()},
            "downsample": {"Forward": {"retained": len(self.expanded) - reverse, "dropped": 0},
                           "Reverse": {"retained": reverse_retained, "dropped": reverse - reverse_retained}},
            "score": {"scored": len(inp.score_items)},
            "synth_direct": {"written": n_mono - n_mono // FAIL_EVERY, "failed": n_mono // FAIL_EVERY},
            "synth_pivot": {"written": 2 * (n_pivot - n_pivot // FAIL_EVERY), "failed": n_pivot // FAIL_EVERY},
            "mix": {"emitted": len(mix[False]), "directions": len(inp.dirs), "warnings": 0},
            "mix_scored": {"emitted": len(mix[True]), "directions": len(inp.dirs), "warnings": 0},
        }

    def _score_lines(self) -> list[str]:
        out = []
        for ex in self.inp.score_items:
            key = f"{ex['src']}\x1f{ex['tgt']}".encode("utf-8")
            out.append(json_line({"id": ex["id"], "qe_score": fnv1a64(key) / 2.0**64}))
        return out

    def _direct_lines(self) -> list[str]:
        return [
            json_line({"id": f"{m['id']}#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": m["text"],
                       "tgt": f"[fr] {m['text']}", "provenance": "synth_direct"})
            for i, m in enumerate(self.inp.mono_items, start=1)
            if i % FAIL_EVERY
        ]

    def _pivot_lines(self) -> list[str]:
        out = []
        for i, p in enumerate(self.inp.pivot_items, start=1):
            if i % FAIL_EVERY == 0:
                continue
            if p["src_lang"] == "en":
                en, x, xt = p["src"], p["tgt_lang"], p["tgt"]
            else:
                en, x, xt = p["tgt"], p["src_lang"], p["src"]
            zh = f"[zh] {en}"
            out.append(json_line({"id": f"{p['id']}#zh2{x}", "src_lang": "zh", "tgt_lang": x, "src": zh,
                                  "tgt": xt, "provenance": "synth_pivot"}))
            out.append(json_line({"id": f"{p['id']}#{x}2zh", "src_lang": x, "tgt_lang": "zh", "src": xt,
                                  "tgt": zh, "provenance": "synth_pivot"}))
        return out

    def aux_for(self, src: str, tgt: str) -> str | None:
        if {src, tgt} <= set(CENTERS):
            return None
        x = tgt if src in CENTERS else src
        return self.aux_table.get(x) if "en" in (src, tgt) else "en"

    # -- stage checks -------------------------------------------------------

    def check(self, stage: str, path: Path, stdout: str, upstream: Path | None) -> list[str]:
        """Problems with one stage's output; upstream is the stage's input file."""
        summary = _summary(stdout)
        if stage in self.digests:
            problems = []
            if summary != self.summaries[stage]:
                problems.append(f"{stage}: summary {summary} differs from the expected {self.summaries[stage]}")
            if sha256_file(path) != self.digests[stage]:
                problems.append(f"{stage}: output digest differs from the oracle's")
            return problems
        if stage == "filter":
            return self._check_filter(path, summary, upstream)
        if stage == "diagnose":
            return self._check_diagnose(path, upstream)
        raise ValueError(f"no check for stage {stage!r}")

    def coverage(self) -> int:
        """Directional examples implied by the corpus's language coverage."""
        total = 0
        for rec in self.inp.records:
            langs = set(rec["sentences"])
            if "en" in langs:
                total += 2 * (len(langs) - 1)
            if "zh" in langs:
                total += 2 * len(langs - set(CENTERS))
        return total

    def _check_filter(self, path: Path, summary: dict, upstream: Path) -> list[str]:
        problems = []
        inputs, kept = _read(upstream), _read(path)
        it = iter(inputs)
        if not all(any(line == cand for cand in it) for line in kept):
            problems.append("filter: output is not an in-order subset of its input lines")
        rejected = summary.get("rejected", {})
        if summary.get("input_count") != len(inputs) or summary.get("written") != len(kept):
            problems.append(f"filter: summary counts {summary} do not match {len(inputs)} in, {len(kept)} out")
        if summary.get("kept", -1) + sum(rejected.values()) != len(inputs):
            problems.append("filter: kept plus rejections differ from the input count")
        missing = [rule for rule in RULES if rejected.get(rule, 0) < 1]
        if missing:
            problems.append(f"filter: rules that rejected nothing: {missing}")
        return problems

    def _check_diagnose(self, path: Path, upstream: Path) -> list[str]:
        sources: dict[tuple[str, str], set] = {}
        for obj in map(json.loads, _read(upstream)):
            if obj["tgt_lang"] in CENTERS and not reverse_kept(obj["id"]):
                continue
            key = (obj["tgt_lang"], unicodedata.normalize("NFC", obj["tgt"]))
            sources.setdefault(key, set()).add((obj["src_lang"], unicodedata.normalize("NFC", obj["src"])))
        histogram: dict[int, int] = {}
        by_class = {c: {"distinct_targets": 0, "total_pairs": 0, "max_repetition": 0} for c in ("Forward", "Reverse")}
        for (tgt_lang, _), srcs in sources.items():
            n = len(srcs)
            histogram[n] = histogram.get(n, 0) + 1
            stats = by_class["Reverse" if tgt_lang in CENTERS else "Forward"]
            stats["distinct_targets"] += 1
            stats["total_pairs"] += n
            stats["max_repetition"] = max(stats["max_repetition"], n)
        for stats in by_class.values():
            d = stats["distinct_targets"]
            stats["mean_repetition"] = stats["total_pairs"] / d if d else 0.0
        expected = {
            "distinct_targets": len(sources),
            "max_repetition": max(histogram, default=0),
            "histogram": {str(k): v for k, v in sorted(histogram.items())},
            "by_class": by_class,
        }
        with open(path, encoding="utf-8") as f:
            try:
                got = json.load(f)
            except json.JSONDecodeError:
                return ["diagnose: report is not valid JSON"]
        return [] if got == expected else ["diagnose: report differs from the independently computed statistics"]

    def mix_selection(self, scored: bool) -> list[dict]:
        """Expected mixture examples in output order: per direction, the
        first MIX_CAP candidates (best scores first when scored), reverse
        ones thinned by the retention coin, sorted by id."""
        per_dir: dict[tuple[str, str], list[dict]] = {d: [] for d in self.inp.dirs}
        for ex in self.expanded:
            per_dir[(ex["src_lang"], ex["tgt_lang"])].append(ex)
        order = []
        for d, cands in per_dir.items():
            if scored:
                cands = sorted(cands, key=lambda ex: (-self.inp.score_map[ex["id"]], ex["id"]))
            chosen = cands[:MIX_CAP]
            if d[1] in CENTERS:
                chosen = [ex for ex in chosen if reverse_kept(ex["id"])]
            order.extend(sorted(chosen, key=lambda ex: ex["id"]))
        return order

    def _mix_lines(self, scored: bool) -> list[str]:
        """Prompt lines: STP, or PMP when the format coin asks for it and the
        record has the direction's auxiliary sentence."""
        sentences = {rec["id"]: rec["sentences"] for rec in self.inp.records}
        out = []
        for ex in self.mix_selection(scored):
            src, tgt = ex["src_lang"], ex["tgt_lang"]
            sent = sentences[ex["id"].split("#")[0]]
            aux = self.aux_for(src, tgt)
            pmp = unit(PROGRAM_SEED, f"fmt:{ex['id']}") < PMP_SHARE and aux is not None and aux in sent
            prefix = f"Translate the following text from {self.names[src]} to {self.names[tgt]}.\n"
            prefix += f"{self.names[src]}: {ex['src']}\n"
            if pmp:
                prefix += f"{self.names[aux]}: {sent[aux]}\n"
            prefix += f"{self.names[tgt]}: "
            start = len(prefix.encode("utf-8"))
            out.append(json_line({
                "text": prefix + ex["tgt"], "loss_start": start, "loss_end": start + len(ex["tgt"].encode("utf-8")),
                "format": "PMP" if pmp else "STP", "src_lang": src, "tgt_lang": tgt, "aux_lang": aux if pmp else None,
                "id": ex["id"], "prompt_schema": "prompt_schema_v1",
            }))
        return out
