"""Whole-pipeline and paper-scale checks through the CLI, each corpus built once
in a module fixture. The recounts of diagnose's report, mix's prompts and
filter's scored join import nothing from mmtkit: they read the registry's data
files and the stages' JSONL with json alone."""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import unicodedata
from collections import Counter

import pytest

from conftest import ROOT, SCRIPTS, last_error, run_cli

REGISTRY_DATA = ROOT / "src" / "mmtkit" / "data"
CENTERS = ("en", "zh")


def rows(path):
    with open(path, encoding="utf-8") as f:
        yield from map(json.loads, f)


NAMES = {lang["code"]: lang["name"] for lang in rows(REGISTRY_DATA / "languages.jsonl")}
AUXILIARIES = {entry["lang"]: entry["aux"] for entry in rows(REGISTRY_DATA / "auxiliaries.jsonl")}


def run_python(*argv, env=None):
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def toy_corpus(path, records, *options):
    run_python(SCRIPTS / "make_toy_corpus.py", "--out", path, "--records", records, *options)
    return path


def demo(directory, hash_seed):
    """The demo's files, by name, as it writes them under PYTHONHASHSEED=hash_seed."""
    run_python(SCRIPTS / "run_pipeline_demo.py", directory, env={**os.environ, "PYTHONHASHSEED": hash_seed})
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("demo")
    demo(directory, "1")
    return directory


def test_every_demo_prompt_passes_read_prompted(demo_dir):
    from mmtkit.prompts import read_prompted

    for name in ("toy", "prompts.dt", "prompts.pt", "prompts.pmp-o", "prompts.pmp-s"):
        path = demo_dir / f"{name}.pjsonl"
        with open(path, encoding="utf-8") as f:
            assert sum(1 for _ in read_prompted(f, str(path))) > 0, path


def test_demo_files_do_not_depend_on_the_hash_seed(demo_dir, tmp_path):
    assert demo(tmp_path, "2") == {path.name: path.read_bytes() for path in demo_dir.iterdir()}


def test_demo_mix_through_the_registry_files_writes_the_builtin_bytes(demo_dir, tmp_path):
    out = tmp_path / "toy.files.pjsonl"
    run_cli(
        "mix", "--in", str(demo_dir / "toy.mwjsonl"), "--out", str(out),
        "--per-direction-min", "10", "--per-direction-max", "50",
        "--registry", str(REGISTRY_DATA / "languages.jsonl"), "--auxiliaries", str(REGISTRY_DATA / "auxiliaries.jsonl"),
    )
    assert out.read_bytes() == (demo_dir / "toy.pjsonl").read_bytes()


def test_expand_and_mix_write_the_same_bytes_under_python_S(tmp_path):
    # The built-in registry is found beside the package's modules, with no site hook.
    corpus = toy_corpus(tmp_path / "c.mwjsonl", 300)
    for stage, *options in (("expand",), ("mix", "--per-direction-min", "0")):
        with_site, no_site = tmp_path / f"{stage}.out", tmp_path / f"{stage}-S.out"
        run_cli(stage, "--in", str(corpus), "--out", str(with_site), *options)
        run_python("-S", "-m", "mmtkit", stage, "--in", corpus, "--out", no_site, *options)
        assert with_site.read_bytes() == no_site.read_bytes(), stage


@pytest.fixture(scope="module")
def large_expand(tmp_path_factory):
    pairs = tmp_path_factory.mktemp("large") / "c.djsonl"
    run_cli("expand", "--in", str(toy_corpus(pairs.with_suffix(".mwjsonl"), 2000)), "--out", str(pairs))
    return pairs


@pytest.fixture(scope="module")
def last_line_faults(large_expand):
    """Copies of the large expand output with one fault on the last line, each
    with the error it must raise and its message after the path: a repeat of
    the middle line, and a lone surrogate escape (json.dumps escapes it) at the
    end of the last source."""
    lines = large_expand.read_text(encoding="utf-8").splitlines(keepends=True)
    n, middle, last = len(lines), lines[len(lines) // 2 - 1], json.loads(lines[-1])
    repeated, surrogate = large_expand.with_name("dup.djsonl"), large_expand.with_name("surrogate.djsonl")
    repeated.write_text("".join(lines) + middle, encoding="utf-8")
    last["src"] += "\ud800"
    surrogate.write_text("".join(lines[:-1]) + json.dumps(last) + "\n", encoding="utf-8")
    return {
        "duplicate": (repeated, "DuplicateRecordId", f"line {n + 1}: duplicate example id {json.loads(middle)['id']!r}"),
        "surrogate": (surrogate, "RecordParseError", f"line {n}: text with no UTF-8 form (a lone surrogate escape)"),
    }


@pytest.mark.parametrize("fault", ["duplicate", "surrogate"])
@pytest.mark.parametrize("stage", ["downsample", "filter", "diagnose"])
def test_a_last_line_fault_of_a_large_expand_output_is_refused_at_its_line(last_line_faults, tmp_path, stage, fault):
    path, error, message = last_line_faults[fault]
    out = tmp_path / f"{stage}.out"
    proc = run_cli(stage, "--in", str(path), "--out", str(out), expect=1)
    assert last_error(proc) == {"error": error, "message": f"{path}:{message}"}
    assert not out.exists()


def test_scored_filter_equals_a_join_of_unscored_filter(large_expand, tmp_path):
    kept, unscored = tmp_path / "d.djsonl", tmp_path / "f.djsonl"
    run_cli("downsample", "--in", str(large_expand), "--out", str(kept), "--p", "0.05")
    run_cli("filter", "--in", str(kept), "--out", str(unscored))
    # A score for every expand id, so filter's lookups skip the lines of the
    # pairs downsample and the rules dropped; once in order, once shuffled.
    scores = {pair["id"]: random.Random(pair["id"]).randint(0, 10) / 10 for pair in rows(large_expand)}
    lines = [json.dumps({"id": pair_id, "qe_score": score}) + "\n" for pair_id, score in scores.items()]
    shuffled = lines.copy()
    random.Random(1).shuffle(shuffled)
    outputs = []
    for name, sidecar_lines in (("s", lines), ("s.shuffled", shuffled)):
        sidecar, out = tmp_path / f"{name}.jsonl", tmp_path / f"f.{name}.sjsonl"
        sidecar.write_text("".join(sidecar_lines), encoding="utf-8")
        run_cli("filter", "--in", str(kept), "--scores", str(sidecar), "--tau", "0.6", "--out", str(out))
        outputs.append(out.read_text(encoding="utf-8"))
    expected = []
    for pair in rows(unscored):
        pair["qe_score"] = scores[pair["id"]]
        if pair["qe_score"] >= 0.6:
            expected.append(json.dumps(pair, ensure_ascii=False, separators=(",", ":")) + "\n")
    assert outputs == ["".join(expected)] * 2
    assert 0 < len(expected) < len(scores)


@pytest.fixture(scope="module")
def paper_corpus(tmp_path_factory):
    """300 records over all 60 built-in languages."""
    return toy_corpus(tmp_path_factory.mktemp("paper") / "c.mwjsonl", 300, "--langs", ",".join(NAMES))


def test_diagnose_at_paper_scale_equals_a_recount(paper_corpus, tmp_path):
    # Records that repeat earlier records' sentences under new ids: two whole
    # copies, and record 1 with record 2's English sentence. Some (source,
    # target) pairs then come twice, and some targets gain a source.
    records = [record["sentences"] for record in rows(paper_corpus)]
    copies = [records[0], records[5], {**records[1], "en": records[2]["en"]}]
    corpus, pairs, report = tmp_path / "c.mwjsonl", tmp_path / "c.djsonl", tmp_path / "report.json"
    corpus.write_text(
        paper_corpus.read_text(encoding="utf-8")
        + "".join(json.dumps({"id": f"copy{i}", "sentences": s}) + "\n" for i, s in enumerate(copies)),
        encoding="utf-8",
    )
    run_cli("expand", "--in", str(corpus), "--out", str(pairs))
    run_cli("diagnose", "--in", str(pairs), "--out", str(report))
    sources, n = {}, 0
    for ex in rows(pairs):
        tgt = (ex["tgt_lang"], unicodedata.normalize("NFC", ex["tgt"]))
        sources.setdefault(tgt, set()).add((ex["src_lang"], unicodedata.normalize("NFC", ex["src"])))
        n += 1
    assert n == 70902
    assert sum(map(len, sources.values())) < n
    repetition = {tgt: len(srcs) for tgt, srcs in sources.items()}
    histogram = Counter(repetition.values())
    by_class = {}
    for name, reverse in (("Forward", False), ("Reverse", True)):
        ns = [k for (lang, _), k in repetition.items() if (lang in CENTERS) == reverse]
        by_class[name] = {"distinct_targets": len(ns), "total_pairs": sum(ns), "max_repetition": max(ns, default=0),
                          "mean_repetition": sum(ns) / len(ns) if ns else 0.0}
    assert json.loads(report.read_text(encoding="utf-8")) == {
        "distinct_targets": len(sources),
        "max_repetition": max(histogram, default=0),
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "by_class": by_class,
    }


def test_mix_at_paper_scale_writes_each_prompt_as_its_spelled_out_template(paper_corpus, tmp_path):
    out = tmp_path / "mix.pjsonl"
    run_cli("mix", "--in", str(paper_corpus), "--out", str(out), "--per-direction-min", "0")
    records = {record["id"]: record["sentences"] for record in rows(paper_corpus)}
    seen, formats = set(), {"STP": 0, "PMP": 0}
    for p in rows(out):
        src, tgt = p["src_lang"], p["tgt_lang"]
        record_id, tag = p["id"].rsplit("#", 1)
        assert tag == f"{src}2{tgt}", p["id"]
        sentences = records[record_id]
        prefix = f"Translate the following text from {NAMES[src]} to {NAMES[tgt]}.\n{NAMES[src]}: {sentences[src]}\n"
        if p["format"] == "PMP":
            # en-zh has none; en-X takes the table entry, if any; zh-X takes en.
            x = tgt if src in CENTERS else src
            aux = None if x in CENTERS else AUXILIARIES.get(x) if "en" in (src, tgt) else "en"
            assert aux is not None and p["aux_lang"] == aux, p["id"]
            prefix += f"{NAMES[aux]}: {sentences[aux]}\n"
        else:
            assert p["format"] == "STP" and p["aux_lang"] is None, p["id"]
        prefix += f"{NAMES[tgt]}: "
        assert p["text"] == prefix + sentences[tgt], p["id"]
        assert p["text"].encode("utf-8")[p["loss_start"]:p["loss_end"]] == sentences[tgt].encode("utf-8"), p["id"]
        seen.add((src, tgt))
        formats[p["format"]] += 1
    expected = {(a, b) for a in NAMES for b in NAMES if a != b and (a in CENTERS or b in CENTERS)}
    assert len(expected) == 234 and seen == expected
    assert formats["STP"] > 0 and formats["PMP"] > 0
