"""End-to-end CLI behavior through real subprocess invocations."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import last_error, run_cli
from mmtkit.records import json_line


def write_corpus(path, n=20, langs=("en", "zh", "fr")):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            f.write(
                json_line(
                    {"id": f"t{i:04d}", "sentences": {l: f"{l} sentence {i}" for l in langs}}
                )
                + "\n"
            )
    return path


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(l) for l in f if l.strip()]


def test_validate_builtin():
    proc = run_cli("validate", "--registry", "builtin")
    assert proc.stdout.strip() == "60 languages, 234 directions"


def test_version():
    proc = run_cli("--version")
    assert "mmtkit" in proc.stdout


def test_usage_errors_exit_2():
    run_cli("unknown-command", expect=2)
    run_cli("expand", expect=2)  # missing required flags


# Each subcommand's required arguments; IN and OUT stand for the input and --out paths.
_REQUIRED_ARGS = {
    "validate": (),
    "expand": ("--in", "IN", "--out", "OUT"),
    "downsample": ("--in", "IN", "--out", "OUT"),
    "mix": ("--in", "IN", "--out", "OUT"),
    "filter": ("--in", "IN", "--out", "OUT"),
    "score": ("--in", "IN", "--scorer-cmd", "true", "--out", "OUT"),
    "synth": ("--mode", "pivot", "--backend-cmd", "true", "--in", "IN", "--out", "OUT"),
    "infer-prompt": ("--strategy", "dt", "--in", "IN", "--out", "OUT"),
    "eval": ("--records", "IN", "--out", "OUT"),
    "diagnose": ("--in", "IN", "--out", "OUT"),
}


@pytest.mark.parametrize(
    "case",
    [
        "filter --seed 3",
        "filter --verbose",
        "expand --seed 3",
        "expand -v",
        "downsample --registry builtin",
        "downsample --auxiliaries aux.jsonl",
        "score --workers 2",
        "synth --seed 1",
        "mix --workers 2",
        "mix --spec spec.json",
        "eval --seed 1",
        "infer-prompt --workers 2",
        "diagnose --registry builtin",
        "validate --seed 1",
    ],
)
def test_option_a_subcommand_does_not_read_is_usage_error(tmp_path, case):
    command, *extra = case.split()
    src = tmp_path / "in.jsonl"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "o"
    required = [{"IN": str(src), "OUT": str(out)}.get(a, a) for a in _REQUIRED_ARGS[command]]
    proc = run_cli(command, *required, *extra, expect=2)
    assert f"unrecognized arguments: {' '.join(extra)}" in proc.stderr
    assert not out.exists()


def test_missing_file_is_data_error(tmp_path):
    proc = run_cli(
        "expand", "--in", str(tmp_path / "absent.mwjsonl"), "--out", str(tmp_path / "o"),
        expect=1,
    )
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "OSError"


def test_expand_and_downsample(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl")
    expanded = tmp_path / "c.djsonl"
    proc = run_cli("expand", "--in", str(corpus), "--out", str(expanded))
    summary = json.loads(proc.stdout)
    assert summary == {"records": 20, "examples": 120}
    rows = read_lines(expanded)
    assert len(rows) == 120
    assert rows[0]["provenance"] == "human"

    kept = tmp_path / "kept.djsonl"
    proc = run_cli("downsample", "--in", str(expanded), "--out", str(kept), "--p", "0.3")
    stats = json.loads(proc.stdout)
    assert set(stats) == {"Forward", "Reverse"}
    assert stats["Forward"]["dropped"] == 0
    assert stats["Forward"]["retained"] == 40  # en2fr and zh2fr
    reverse_total = stats["Reverse"]["retained"] + stats["Reverse"]["dropped"]
    assert reverse_total == 80  # fr2en, fr2zh, en2zh, zh2en
    assert len(read_lines(kept)) == 40 + stats["Reverse"]["retained"]


def test_expand_bad_record_exits_1(tmp_path):
    bad = tmp_path / "bad.mwjsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    proc = run_cli("expand", "--in", str(bad), "--out", str(tmp_path / "o"), expect=1)
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "RecordParseError"
    assert "sentences" in err["message"]
    assert not (tmp_path / "o").exists()


def test_expand_worker_equivalence(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=30)
    out1 = tmp_path / "w1.djsonl"
    out4 = tmp_path / "w4.djsonl"
    run_cli("expand", "--in", str(corpus), "--out", str(out1), "--workers", "1")
    run_cli("expand", "--in", str(corpus), "--out", str(out4), "--workers", "4")
    assert out1.read_bytes() == out4.read_bytes()


def test_expand_and_downsample_shards_concatenate_to_the_whole_run(tmp_path):
    """Split at record boundaries into 4 contiguous shards, expand and then
    downsample each: the shard outputs, concatenated in shard order, are the
    whole run's bytes."""
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=40, langs=("en", "zh", "fr", "de"))
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    shards = []
    for k in range(4):
        shard = tmp_path / f"s{k}.mwjsonl"
        shard.write_text("".join(lines[k * 10:(k + 1) * 10]), encoding="utf-8")
        shards.append(shard)
    for name in ["c", *(s.stem for s in shards)]:
        run_cli("expand", "--in", str(tmp_path / f"{name}.mwjsonl"), "--out", str(tmp_path / f"{name}.djsonl"))
        run_cli("downsample", "--p", "0.3", "--in", str(tmp_path / f"{name}.djsonl"), "--out", str(tmp_path / f"{name}.ds.djsonl"))
    for suffix in (".djsonl", ".ds.djsonl"):
        whole = (tmp_path / f"c{suffix}").read_bytes()
        assert whole
        assert b"".join((tmp_path / f"{s.stem}{suffix}").read_bytes() for s in shards) == whole


def test_mix_command(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=30, langs=("en", "zh", "bg", "ru"))
    out = tmp_path / "mix.pjsonl"
    proc = run_cli(
        "mix", "--in", str(corpus), "--out", str(out),
        "--per-direction-min", "1", "--per-direction-max", "10",
        "--reverse-retention", "0.5",
    )
    summary = json.loads(proc.stdout)
    assert summary["emitted"] == len(read_lines(out))
    rows = read_lines(out)
    assert all(r["prompt_schema"] == "prompt_schema_v1" for r in rows)
    for r in rows:
        enc = r["text"].encode("utf-8")
        assert 0 <= r["loss_start"] <= r["loss_end"] <= len(enc)


def test_mix_per_direction_max_flag_caps_each_direction(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=10, langs=("en", "fr"))
    out = tmp_path / "m.pjsonl"
    run_cli("mix", "--in", str(corpus), "--out", str(out), "--per-direction-min", "1", "--per-direction-max", "3")
    rows = read_lines(out)
    fwd = [r for r in rows if r["id"].endswith("#en2fr")]
    assert len(fwd) == 3


def _score_every_example(corpus, path, drop=()):
    """A sidecar with a seeded score, rounded so that scores tie, for every
    example the corpus expands to, except the ids in drop; returns the map."""
    from mmtkit.directions import enumerate_directions, expand
    from mmtkit.hashing import unit_uniform
    from mmtkit.records import read_multiway
    from mmtkit.registry import load_registry

    registry = load_registry()
    dirset = enumerate_directions(registry)
    with open(corpus, encoding="utf-8") as f:
        ids = [ex.id for r in read_multiway(f, registry) for ex in expand(r, dirset)]
    scores = {i: round(unit_uniform(5, i), 1) for i in ids if i not in drop}
    path.write_text("".join(json_line({"id": i, "qe_score": v}) + "\n" for i, v in scores.items()), encoding="utf-8")
    return ids, scores


@pytest.mark.parametrize("scored", [False, True], ids=["unscored", "scored"])
def test_mix_writes_the_bytes_of_the_built_mixture(tmp_path, scored):
    import io

    from mmtkit.directions import enumerate_directions
    from mmtkit.mixture import MixtureSpec, build_sft_mixture
    from mmtkit.records import read_multiway, write_jsonl
    from mmtkit.registry import load_registry

    # 40 records and a cap of 3 select past 2 x cap in every direction.
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=40, langs=("en", "zh", "fr", "bg", "ru"))
    sidecar = tmp_path / "s.jsonl"
    _, scores = _score_every_example(corpus, sidecar)
    out = tmp_path / "m.pjsonl"
    flags = {"--per-direction-min": "0", "--per-direction-max": "3", "--reverse-retention": "0.5", "--seed": "9"}
    proc = run_cli("mix", "--in", str(corpus), "--out", str(out), *(a for kv in flags.items() for a in kv),
                   *(["--scores", str(sidecar)] if scored else []))

    registry = load_registry()
    spec = MixtureSpec(per_direction_min=0, per_direction_max=3, reverse_total_retention=0.5, seed=9)
    with open(corpus, encoding="utf-8") as f:
        prompted, report = build_sft_mixture(read_multiway(f, registry), registry, enumerate_directions(registry),
                                             spec, scores=scores if scored else None)
    expected = io.StringIO()
    write_jsonl(prompted, expected)
    assert out.read_text(encoding="utf-8") == expected.getvalue()
    assert {r.selected for r in report.per_direction.values() if r.candidates} == {3}
    assert json.loads(proc.stdout) == {"emitted": report.emitted, "directions": 234, "warnings": 0}


def test_mix_missing_score_names_the_first_example_in_corpus_order(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=12, langs=("en", "zh", "fr", "ru"))
    sidecar = tmp_path / "s.jsonl"
    ids, _ = _score_every_example(corpus, sidecar, drop={"t0009#en2zh", "t0004#zh2ru", "t0005#en2zh"})
    # The check runs in corpus order, then direction order, so it names
    # t0004#zh2ru; a search direction by direction would name t0005#en2zh.
    assert ids.index("t0004#zh2ru") < ids.index("t0005#en2zh")
    out = tmp_path / "m.pjsonl"
    proc = run_cli("mix", "--in", str(corpus), "--scores", str(sidecar), "--out", str(out), expect=1)
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == {
        "error": "MissingScore", "message": "no score for id 't0004#zh2ru'",
    }
    assert not out.exists()


@pytest.mark.parametrize("stage", ["filter", "mix"])
def test_bad_sidecar_score_names_file_and_line(tmp_path, stage):
    """read_score_sidecar is the one check of a score, in both stages that read one."""
    corpus = tmp_path / "c.mwjsonl"
    corpus.write_text(json_line({"id": "r1", "sentences": {"en": "a b", "fr": "c d"}}) + "\n", encoding="utf-8")
    if stage == "filter":
        pairs = tmp_path / "c.djsonl"
        run_cli("expand", "--in", str(corpus), "--out", str(pairs))
        corpus = pairs
    sidecar = tmp_path / "s.jsonl"
    sidecar.write_text(
        json_line({"id": "r1#en2fr", "qe_score": 0.5}) + "\n" + json_line({"id": "r1#fr2en", "qe_score": 1.5}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    proc = run_cli(stage, "--in", str(corpus), "--scores", str(sidecar), "--out", str(out), expect=1)
    assert last_error(proc) == {
        "error": "InvalidScore", "message": f"{sidecar}:line 2: score for 'r1#fr2en' outside [0, 1]: 1.5",
    }
    assert not out.exists()


# Scored mix reads a regular sidecar file forward, in step with its
# candidates, and hands over to read_score_sidecar's map when a lookup reaches
# the end of the file; a FIFO goes to the map at once. Either way its exit
# code, output and error must be those of the map read before the corpus is
# opened.
_MIX_FLAGS = ("--per-direction-min", "0", "--per-direction-max", "2", "--reverse-retention", "0.5", "--seed", "4")
_MIX_LANGS = ("en", "zh", "fr", "ru")


def _mix_through_the_map(corpus, sidecar):
    """(exit code, output, error line) of a mix that reads the whole sidecar
    into read_score_sidecar's map before it opens the corpus."""
    from mmtkit.directions import enumerate_directions
    from mmtkit.errors import ToolkitError
    from mmtkit.mixture import MixtureSpec, build_sft_mixture
    from mmtkit.records import read_multiway, read_score_sidecar, write_jsonl
    from mmtkit.registry import load_registry

    registry = load_registry()
    spec = MixtureSpec(per_direction_min=0, per_direction_max=2, reverse_total_retention=0.5, seed=4)
    try:
        with open(sidecar, encoding="utf-8") as f:
            scores = read_score_sidecar(f, str(sidecar))
        with open(corpus, encoding="utf-8") as f:
            records = read_multiway(f, registry, str(corpus))
            prompted, _ = build_sft_mixture(records, registry, enumerate_directions(registry), spec, scores=scores)
    except (ToolkitError, OSError) as e:
        return 1, None, {"error": "OSError" if isinstance(e, OSError) else type(e).__name__, "message": str(e)}
    text = io.StringIO()
    write_jsonl(prompted, text)
    return 0, text.getvalue(), None


def _mix_in_process(corpus, sidecar, out):
    """(exit code, output, error line) of mix --scores run in this process."""
    from mmtkit import cli

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["mix", "--in", str(corpus), "--scores", str(sidecar), "--out", str(out), *_MIX_FLAGS])
    output = out.read_text(encoding="utf-8") if out.exists() else None
    error = json.loads(stderr.getvalue().splitlines()[-1]) if code else None
    return code, output, error


def _candidate_lines(corpus, sidecar):
    """One sidecar line per candidate, in the order expand writes examples."""
    _score_every_example(corpus, sidecar)
    return sidecar.read_text(encoding="utf-8").splitlines()


def _with(lines, index, line):
    return lines[:index] + [line] + lines[index:]


_BAD_CORPUS_LINE = '{"id": "t0002"}'
_BAD_SCORE = json_line({"id": "zz#en2fr", "qe_score": 1.5})
# name: (edit of the in-order sidecar lines, edit of the corpus lines, error name or None)
_SIDECAR_CASES = {
    "in order": (lambda s: s, None, None),
    "shuffled": (lambda s: s[1::2] + s[::2], None, None),
    "one id dropped": (lambda s: [l for l in s if '"t0004#zh2ru"' not in l], None, "MissingScore"),
    "last id dropped": (lambda s: s[:-1], None, "MissingScore"),
    "an extra id": (lambda s: _with(s, 7, json_line({"id": "zz#en2fr", "qe_score": 0.5})), None, None),
    "an extra id at the end": (lambda s: s + [json_line({"id": "zz#en2fr", "qe_score": 0.5})], None, None),
    "an id repeated, same score": (lambda s: _with(s, 8, s[7]), None, "RecordParseError"),
    "an id repeated at the end, other score": (lambda s: s + [s[3].replace('"qe_score":', '"qe_score":0.99,"x":')],
                                               None, "RecordParseError"),
    "a bad score after the prefix": (lambda s: _with(s, 20, _BAD_SCORE), None, "InvalidScore"),
    "a bad score at the end": (lambda s: s + [_BAD_SCORE], None, "InvalidScore"),
    "a non-JSON line at the end": (lambda s: s + ["{broken"], None, "RecordParseError"),
    "a bad corpus line": (lambda s: s, lambda c: _with(c, 2, _BAD_CORPUS_LINE), "RecordParseError"),
    "a missing corpus": (lambda s: s, lambda c: None, "OSError"),
    "a bad sidecar and a bad corpus line": (lambda s: s + [_BAD_SCORE], lambda c: _with(c, 2, _BAD_CORPUS_LINE),
                                            "InvalidScore"),
    "a bad sidecar and a missing corpus": (lambda s: s + ["{broken"], lambda c: None, "RecordParseError"),
}


def _check_mix_matches_the_map(tmp, corpus_lines, sidecar_lines):
    corpus, sidecar = tmp / "c.mwjsonl", tmp / "s.jsonl"
    corpus.unlink(missing_ok=True)
    if corpus_lines is not None:
        corpus.write_text("".join(l + "\n" for l in corpus_lines), encoding="utf-8")
    sidecar.write_text("".join(l + "\n" for l in sidecar_lines), encoding="utf-8")
    got = _mix_in_process(corpus, sidecar, tmp / "m.pjsonl")
    assert got == _mix_through_the_map(corpus, sidecar)
    return got


@pytest.mark.parametrize("case", list(_SIDECAR_CASES))
def test_scored_mix_reports_what_the_sidecar_map_does(tmp_path, case):
    edit_sidecar, edit_corpus, error = _SIDECAR_CASES[case]
    corpus_lines = write_corpus(tmp_path / "c.mwjsonl", n=12, langs=_MIX_LANGS).read_text(encoding="utf-8").splitlines()
    sidecar_lines = _candidate_lines(tmp_path / "c.mwjsonl", tmp_path / "s.jsonl")
    if edit_corpus is not None:
        corpus_lines = edit_corpus(corpus_lines)
    _, output, got_error = _check_mix_matches_the_map(tmp_path, corpus_lines, edit_sidecar(sidecar_lines))
    assert (got_error or {}).get("error") == error
    assert (output is not None) == (error is None)


@settings(max_examples=60)
@given(st.data())
def test_scored_mix_matches_the_sidecar_map(data):
    import pathlib
    import tempfile

    n = data.draw(st.integers(0, 6), label="records")
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        corpus_lines = write_corpus(tmp / "c.mwjsonl", n=n, langs=_MIX_LANGS).read_text(encoding="utf-8").splitlines()
        lines = _candidate_lines(tmp / "c.mwjsonl", tmp / "s.jsonl")
        if data.draw(st.booleans(), label="shuffle"):
            lines = data.draw(st.permutations(lines), label="order")
        index = st.integers(0, len(lines))
        extra = st.sampled_from([
            json_line({"id": "zz#en2fr", "qe_score": 0.5}), _BAD_SCORE, "{broken", "[]",
            json_line({"id": "", "qe_score": 0.5}), json_line({"id": "t0000#en2zh"}),
        ])
        for _ in range(data.draw(st.integers(0, 2), label="edits")):
            kind = data.draw(st.sampled_from(["drop", "repeat", "insert"]), label="edit")
            if kind == "drop" and lines:
                del lines[data.draw(st.integers(0, len(lines) - 1), label="dropped")]
            elif kind == "repeat" and lines:
                line = data.draw(st.sampled_from(lines), label="repeated")
                if data.draw(st.booleans(), label="other score"):
                    line = line.replace('"qe_score":', '"qe_score":0.99,"x":')
                lines.insert(data.draw(index, label="at"), line)
            elif kind == "insert":
                lines.insert(data.draw(index, label="at"), data.draw(extra, label="line"))
        if data.draw(st.booleans(), label="bad corpus"):
            corpus_lines.insert(data.draw(st.integers(0, n), label="bad corpus at"), _BAD_CORPUS_LINE)
        _check_mix_matches_the_map(tmp, corpus_lines, lines)


# Scored filter reads its sidecar as mix does, but looks up only the pairs its
# rules keep, so the lookups skip stretches of the sidecar. Its exit code,
# output and summary or error must be those of the map read after --in is
# opened and before any pair is read.
_BAD_PAIRS_LINE = '{"id": "t0001#en2zh"}'


def _filter_inputs(tmp, n):
    """(pairs lines, sidecar lines) for n records: expand's output, in which
    every fourth record from t0002 on repeats the texts of the record two
    before it, so ExactDedup rejects all its 10 pairs, and a sidecar scoring
    each pair in that order."""
    from mmtkit import cli

    corpus = tmp / "c.mwjsonl"
    corpus.write_text("".join(
        json_line({"id": f"t{i:04d}", "sentences": {l: f"{l} sentence {i - 2 * (i % 4 == 2)}" for l in _MIX_LANGS}})
        + "\n" for i in range(n)
    ), encoding="utf-8")
    pairs = tmp / "p.djsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["expand", "--in", str(corpus), "--out", str(pairs)]) == 0
    return pairs.read_text(encoding="utf-8").splitlines(), _candidate_lines(corpus, tmp / "s.jsonl")


def _filter_through_the_map(pairs, sidecar, tau):
    """(exit code, output, summary or error line) of a filter that opens
    --in, then reads the whole sidecar into read_score_sidecar's map, then
    reads the pairs."""
    from mmtkit.errors import ToolkitError
    from mmtkit.filtering import apply_heuristics, attach_scores, count_thresholds, default_rules, threshold_filter
    from mmtkit.records import read_examples, read_score_sidecar, write_jsonl

    text = io.StringIO()
    try:
        with open(pairs, encoding="utf-8") as fin:
            with open(sidecar, encoding="utf-8") as f:
                scores = read_score_sidecar(f, str(sidecar))
            kept, report = apply_heuristics(read_examples(fin, str(pairs), validate=False), default_rules())
            kept = count_thresholds(attach_scores(kept, scores), report)
            if tau is not None:
                kept = threshold_filter(kept, tau)
            written = write_jsonl(kept, text)
    except (ToolkitError, OSError) as e:
        return 1, None, {"error": "OSError" if isinstance(e, OSError) else type(e).__name__, "message": str(e)}
    return 0, text.getvalue(), json.loads(json.dumps({**report.as_dict(), "written": written}))


def _filter_in_process(pairs, sidecar, out, tau):
    """(exit code, output, summary or error line) of filter --scores run in this process."""
    from mmtkit import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["filter", "--in", str(pairs), "--scores", str(sidecar), "--out", str(out)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + (["--tau", str(tau)] if tau is not None else []))
    output = out.read_text(encoding="utf-8") if out.exists() else None
    return code, output, json.loads((stderr if code else stdout).getvalue().splitlines()[-1])


def _check_filter_matches_the_map(tmp, pairs_lines, sidecar_lines, tau):
    pairs, sidecar = tmp / "p.djsonl", tmp / "s.jsonl"
    pairs.unlink(missing_ok=True)
    if pairs_lines is not None:
        pairs.write_text("".join(l + "\n" for l in pairs_lines), encoding="utf-8")
    sidecar.write_text("".join(l + "\n" for l in sidecar_lines), encoding="utf-8")
    got = _filter_in_process(pairs, sidecar, tmp / "f.sjsonl", tau)
    assert got == _filter_through_the_map(pairs, sidecar, tau)
    return got


def _after(lines, pair_id, line, offset=1):
    """lines with line inserted offset lines after the line of pair_id."""
    return _with(lines, next(i for i, l in enumerate(lines) if f'"{pair_id}"' in l) + offset, line)


def _line_of(lines, pair_id):
    return next(l for l in lines if f'"{pair_id}"' in l)


# name: (edit of the in-order sidecar lines, edit of the pairs lines, error name or None).
# Of the 12 records, t0002, t0006 and t0010 are rejected; t0011 is kept.
_FILTER_SIDECAR_CASES = {
    "in order": (lambda s: s, None, None),
    "shuffled": (lambda s: s[1::2] + s[::2], None, None),
    "a rejected id dropped": (lambda s: [l for l in s if '"t0006#zh2ru"' not in l], None, None),
    "a rejected record dropped": (lambda s: [l for l in s if '"t0006#' not in l], None, None),
    "a kept id dropped": (lambda s: [l for l in s if '"t0004#zh2ru"' not in l], None, "MissingScore"),
    "last id dropped": (lambda s: s[:-1], None, "MissingScore"),
    "an extra id": (lambda s: _with(s, 7, json_line({"id": "zz#en2fr", "qe_score": 0.5})), None, None),
    "an extra id at the end": (lambda s: s + [json_line({"id": "zz#en2fr", "qe_score": 0.5})], None, None),
    "a skipped id repeated in its stretch": (lambda s: _after(s, "t0006#en2zh", _line_of(s, "t0006#en2zh"), 3),
                                             None, "RecordParseError"),
    "a skipped id repeated after a match": (lambda s: _after(s, "t0008#en2zh", _line_of(s, "t0006#en2ru")),
                                            None, "RecordParseError"),
    "a matched id repeated": (lambda s: _after(s, "t0005#en2zh", _line_of(s, "t0005#en2zh")), None, "RecordParseError"),
    "a matched id repeated at the end, other score": (
        lambda s: s + [_line_of(s, "t0001#zh2fr").replace('"qe_score":', '"qe_score":0.99,"x":')],
        None, "RecordParseError"),
    "a bad score in a skipped stretch": (lambda s: _after(s, "t0006#en2zh", _BAD_SCORE), None, "InvalidScore"),
    "a non-JSON line in a skipped stretch": (lambda s: _after(s, "t0010#en2ru", "{broken"), None, "RecordParseError"),
    "a bad score at the end": (lambda s: s + [_BAD_SCORE], None, "InvalidScore"),
    "a non-JSON line at the end": (lambda s: s + ["{broken"], None, "RecordParseError"),
    "a bad pairs line": (lambda s: s, lambda p: _with(p, 2, _BAD_PAIRS_LINE), "RecordParseError"),
    "a missing input": (lambda s: s, lambda p: None, "OSError"),
    "a bad sidecar and a bad pairs line": (lambda s: s + [_BAD_SCORE], lambda p: _with(p, 2, _BAD_PAIRS_LINE),
                                           "InvalidScore"),
    "a bad sidecar and a missing input": (lambda s: s + ["{broken"], lambda p: None, "OSError"),
}


@pytest.mark.parametrize("tau", [None, 0.6], ids=["no tau", "tau 0.6"])
@pytest.mark.parametrize("case", list(_FILTER_SIDECAR_CASES))
def test_scored_filter_reports_what_the_sidecar_map_does(tmp_path, case, tau):
    edit_sidecar, edit_pairs, error = _FILTER_SIDECAR_CASES[case]
    pairs_lines, sidecar_lines = _filter_inputs(tmp_path, 12)
    if edit_pairs is not None:
        pairs_lines = edit_pairs(pairs_lines)
    code, output, line = _check_filter_matches_the_map(tmp_path, pairs_lines, edit_sidecar(sidecar_lines), tau)
    assert (line["error"] if code else None) == error
    assert (output is not None) == (error is None)
    if error is None:
        assert line["rejected"]["ExactDedup"] == 3 * 10


@settings(max_examples=60)
@given(st.data())
def test_scored_filter_matches_the_sidecar_map(data):
    import pathlib
    import tempfile

    n = data.draw(st.integers(0, 8), label="records")
    tau = data.draw(st.sampled_from([None, 0.0, 0.6, 1.0]), label="tau")
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        pairs_lines, lines = _filter_inputs(tmp, n)
        if data.draw(st.booleans(), label="shuffle"):
            lines = data.draw(st.permutations(lines), label="order")
        index = st.integers(0, len(lines))
        extra = st.sampled_from([
            json_line({"id": "zz#en2fr", "qe_score": 0.5}), _BAD_SCORE, "{broken", "[]",
            json_line({"id": "", "qe_score": 0.5}), json_line({"id": "t0000#en2zh"}),
        ])
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            kind = data.draw(st.sampled_from(["drop", "repeat", "insert"]), label="edit")
            if kind == "drop" and lines:
                del lines[data.draw(st.integers(0, len(lines) - 1), label="dropped")]
            elif kind == "repeat" and lines:
                line = data.draw(st.sampled_from(lines), label="repeated")
                if data.draw(st.booleans(), label="other score"):
                    line = line.replace('"qe_score":', '"qe_score":0.99,"x":')
                lines.insert(data.draw(index, label="at"), line)
            elif kind == "insert":
                lines.insert(data.draw(index, label="at"), data.draw(extra, label="line"))
        if data.draw(st.booleans(), label="bad pairs"):
            pairs_lines.insert(data.draw(st.integers(0, len(pairs_lines)), label="bad pairs at"), _BAD_PAIRS_LINE)
        if data.draw(st.booleans(), label="missing input"):
            pairs_lines = None
        _check_filter_matches_the_map(tmp, pairs_lines, lines, tau)


def _traced_peak(*argv):
    """Peak traced allocation of one in-process CLI run."""
    from mmtkit import cli

    tracemalloc.start()
    try:
        assert cli.main(list(argv)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mix_holds_the_candidate_pool_not_the_output(tmp_path, capsys):
    # Every example is selected and emitted, so a mix that builds its output
    # before writing holds each prompt and example (about 3.2 KB per record
    # here); streaming holds the records and one direction's ids (about 1.6 KB).
    n = 3000
    corpus = tmp_path / "c.mwjsonl"
    corpus.write_text("".join(
        json_line({"id": f"r{i:05d}", "sentences": {l: f"{l} {i} " + "word " * 60 for l in ("en", "fr")}}) + "\n"
        for i in range(n)
    ), encoding="utf-8")
    out = tmp_path / "m.pjsonl"
    peak = _traced_peak("mix", "--in", str(corpus), "--out", str(out), "--per-direction-min", "0", "--reverse-retention", "1")
    assert json.loads(capsys.readouterr().out)["emitted"] == 2 * n
    assert peak < 2500 * n


def test_mix_hashes_its_coins_a_slice_at_a_time(tmp_path, capsys):
    # Short ids and sentences and a cap above the corpus: every record is a
    # candidate in all six directions, every reverse one flips a retention
    # coin, and zh<->fr flip a format coin (auxiliary en) too. Hashing a
    # whole direction's keys at once holds each key, its UTF-8 bytes, its
    # group index and its coin beside the pool, and the run peaks at about
    # 1000 B per record; a slice at a time, at about 800 B.
    n = 10000
    corpus = tmp_path / "c.mwjsonl"
    corpus.write_text("".join(
        json_line({"id": f"{i}", "sentences": {l: f"{i}" for l in ("en", "zh", "fr")}}) + "\n" for i in range(n)
    ), encoding="utf-8")
    peak = _traced_peak("mix", "--in", str(corpus), "--out", str(tmp_path / "m.pjsonl"), "--per-direction-min", "0",
                        "--per-direction-max", str(n), "--reverse-retention", "1")
    assert json.loads(capsys.readouterr().out)["emitted"] == 6 * n
    assert peak < 900 * n


@pytest.mark.parametrize("stage", ["downsample", "diagnose"])
def test_downsample_peak_does_not_grow_with_the_input(tmp_path, capsys, stage):
    # Every record has the same twelve sentences, so diagnose counts a few
    # dozen pairs whatever the length, and the readers' seen ids grow by one
    # entry per record, about 3 B per example. Holding the input, or a coin
    # per example, would grow the peak by tens to hundreds of bytes per example.
    from mmtkit import cli

    langs = ("en", "zh", "fr", "de", "ru", "ar", "ja", "es", "it", "pt", "ko", "bg")
    sizes = (200, 800)
    for n in sizes:
        corpus = tmp_path / f"c{n}.mwjsonl"
        corpus.write_text("".join(
            json_line({"id": f"t{i:04d}", "sentences": {l: f"{l} words" for l in langs}}) + "\n" for i in range(n)
        ), encoding="utf-8")
        assert cli.main(["expand", "--in", str(corpus), "--out", str(tmp_path / f"e{n}.djsonl")]) == 0
    examples = [json.loads(line)["examples"] for line in capsys.readouterr().out.splitlines()]
    assert examples == [42 * n for n in sizes]
    # A first run imports the stage's modules, which a traced run would count.
    assert cli.main([stage, "--p", "0.05", "--in", str(tmp_path / "e200.djsonl"), "--out", str(tmp_path / "o")]) == 0
    peaks = [_traced_peak(stage, "--p", "0.05", "--in", str(tmp_path / f"e{n}.djsonl"), "--out", str(tmp_path / "o"))
             for n in sizes]
    assert peaks[1] - peaks[0] < 10 * (examples[1] - examples[0])


@pytest.mark.parametrize("stage", ["downsample", "diagnose"])
def test_a_malformed_line_inside_a_slice_exits_1_at_its_line(tmp_path, stage):
    # The bad line sits in the middle of downsample's second slice, after the
    # first slice's kept examples have been written.
    from mmtkit.downsampling import SLICE

    inp, out = tmp_path / "p.djsonl", tmp_path / "o.out"
    bad = SLICE + SLICE // 2
    rows = []
    for i in range(1, 2 * SLICE + 1):
        a, b = ("fr", "en") if i % 2 else ("en", "fr")
        rows.append(json_line({"id": f"r{i}#{a}2{b}", "src_lang": a, "tgt_lang": b, "src": f"{a} {i}", "tgt": f"{b} {i}"}))
    rows[bad - 1] = '{"id": "r0#fr2en", "src_lang": "fr", "tgt_lang": "en", "src": "fr 0"}'
    inp.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    proc = run_cli(stage, "--p", "0.5", "--in", str(inp), "--out", str(out), expect=1)
    assert last_error(proc) == {"error": "RecordParseError", "message": f"{inp}:line {bad}: missing field 'tgt'"}
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["p.djsonl"]


def test_scored_mix_holds_no_map_of_an_in_order_sidecar(tmp_path, capsys):
    # 10 candidates per record, so read_score_sidecar's map of the sidecar
    # takes about 1.1 KB per record. Read in step, with a cap of 5 the pools
    # stay small, and the peak is about 0.2 KB per record.
    n = 3000
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=n, langs=("en", "zh", "fr", "de"))
    sidecar = tmp_path / "s.jsonl"
    ids, _ = _score_every_example(corpus, sidecar)
    out = tmp_path / "m.pjsonl"
    peak = _traced_peak("mix", "--in", str(corpus), "--scores", str(sidecar), "--out", str(out),
                        "--per-direction-min", "0", "--per-direction-max", "5")
    assert json.loads(capsys.readouterr().out)["directions"] == 234
    assert len(ids) == 10 * n
    assert peak < 800 * n


def test_scored_filter_holds_no_map_of_a_sidecar_with_gaps(tmp_path, capsys):
    # filter of a downsample output looks up about 43% of the expand ids the
    # sidecar scores. read_score_sidecar's map of the sidecar takes about
    # 170 B per sidecar line; read forward, the run peaks at about 65 B, of
    # which unscored filter's id set and digests are 55.
    from mmtkit import cli

    n = 3000
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=n, langs=("en", "zh", "fr", "de"))
    expanded, downsampled, sidecar = tmp_path / "e.djsonl", tmp_path / "d.djsonl", tmp_path / "s.jsonl"
    assert cli.main(["expand", "--in", str(corpus), "--out", str(expanded)]) == 0
    assert cli.main(["downsample", "--in", str(expanded), "--out", str(downsampled), "--p", "0.05"]) == 0
    ids, _ = _score_every_example(corpus, sidecar)
    capsys.readouterr()
    peak = _traced_peak("filter", "--in", str(downsampled), "--scores", str(sidecar), "--out", str(tmp_path / "f.sjsonl"))
    assert json.loads(capsys.readouterr().out)["written"] == 12978
    assert len(ids) == 10 * n
    assert peak < 100 * len(ids)


def _check_reads_a_sidecar_it_cannot_reread(tmp_path, stage, via):
    # The sidecar is out of order, so reading it in step would have to read
    # it again from the start, which a pipe cannot do.
    if stage == "mix":
        infile = write_corpus(tmp_path / "c.mwjsonl", n=12, langs=_MIX_LANGS)
        lines = _candidate_lines(infile, tmp_path / "s.jsonl")
        flags = _MIX_FLAGS
    else:
        _, lines = _filter_inputs(tmp_path, 12)
        infile = tmp_path / "p.djsonl"
        flags = ("--tau", "0.6")
    sidecar = tmp_path / "s.jsonl"
    data = "".join(l + "\n" for l in lines[1::2] + lines[::2])
    sidecar.write_text(data, encoding="utf-8")
    run_cli(stage, "--in", str(infile), "--scores", str(sidecar), "--out", str(tmp_path / "file.out"), *flags)
    args = [sys.executable, "-m", "mmtkit", stage, "--in", str(infile), "--out", str(tmp_path / "pipe.out"), *flags]
    if via == "stdin":
        proc = subprocess.run([*args, "--scores", "/dev/stdin"], input=data, capture_output=True, text=True)
    else:
        fifo = tmp_path / "s.fifo"
        os.mkfifo(fifo)
        # The writer's open waits for the stage to open the other end.
        copy = "import shutil, sys\nwith open(sys.argv[1], 'rb') as s, open(sys.argv[2], 'wb') as d: shutil.copyfileobj(s, d)"
        writer = subprocess.Popen([sys.executable, "-c", copy, str(sidecar), str(fifo)])
        try:
            proc = subprocess.run([*args, "--scores", str(fifo)], capture_output=True, text=True, timeout=60)
            assert writer.wait(timeout=10) == 0
        finally:
            writer.kill()
            writer.wait()
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pipe.out").read_bytes() == (tmp_path / "file.out").read_bytes()


@pytest.mark.parametrize("via", ["fifo", "stdin"])
def test_scored_mix_reads_a_sidecar_it_cannot_reread_into_the_map(tmp_path, via):
    _check_reads_a_sidecar_it_cannot_reread(tmp_path, "mix", via)


@pytest.mark.parametrize("via", ["fifo", "stdin"])
def test_scored_filter_reads_a_sidecar_it_cannot_reread_into_the_map(tmp_path, via):
    _check_reads_a_sidecar_it_cannot_reread(tmp_path, "filter", via)


def test_filter_scores_streams_its_histogram(tmp_path, capsys):
    # Without ExactDedup nothing else keeps a pair's text, so a filter that
    # lists the scored pairs to count them holds about 1.1 KB per pair here;
    # streaming, with the sidecar read forward, holds the id sets (about 0.3 KB).
    n = 3000
    pairs, sidecar, rules = tmp_path / "p.djsonl", tmp_path / "s.jsonl", tmp_path / "rules.json"
    pairs.write_text("".join(
        json_line({"id": f"p{i:05d}#en2fr", "src_lang": "en", "tgt_lang": "fr",
                   "src": f"en {i} " + "word " * 60, "tgt": f"fr {i} " + "mot " * 60}) + "\n"
        for i in range(n)
    ), encoding="utf-8")
    sidecar.write_text("".join(json_line({"id": f"p{i:05d}#en2fr", "qe_score": i % 10 / 10}) + "\n" for i in range(n)),
                       encoding="utf-8")
    rules.write_text(json.dumps([{"kind": "NonEmpty"}]), encoding="utf-8")
    peak = _traced_peak("filter", "--in", str(pairs), "--scores", str(sidecar), "--rules", str(rules),
                        "--out", str(tmp_path / "f.sjsonl"))
    assert json.loads(capsys.readouterr().out)["histogram"]["0.6"] == {"count": 1200, "proportion": 0.4}
    assert peak < 700 * n


def test_filter_dedup_holds_digests_not_texts(tmp_path, capsys):
    # Every pair passes the default rules, so ExactDedup remembers each one.
    # Keyed by its (src, tgt) texts, the run peaks at about 1 KB per pair
    # here; keyed by a 16-byte digest, at about 0.4 KB, which is mostly the
    # reader's example-id set.
    n = 5000
    pairs = tmp_path / "p.djsonl"
    pairs.write_text("".join(
        json_line({"id": f"p{i:05d}#en2fr", "src_lang": "en", "tgt_lang": "fr",
                   "src": f"en {i} " + "word " * 60, "tgt": f"fr {i} " + "mot " * 60}) + "\n"
        for i in range(n)
    ), encoding="utf-8")
    peak = _traced_peak("filter", "--in", str(pairs), "--out", str(tmp_path / "f.djsonl"))
    assert json.loads(capsys.readouterr().out)["kept"] == n
    assert peak < 600 * n


def test_diagnose_holds_fixed_size_keys(tmp_path, capsys):
    # One source per target, so every pair adds a target. With (lang, hex)
    # tuples and a set per target the run peaks at about 0.8 KB per pair
    # here; with packed int keys at about 0.4 KB, the example-id set included.
    n = 6000
    pairs = tmp_path / "p.djsonl"
    pairs.write_text("".join(
        json_line({"id": f"r{i:05d}#fr2en", "src_lang": "fr", "tgt_lang": "en",
                   "src": f"fr {i} " + "mot " * 60, "tgt": f"en {i} " + "word " * 60}) + "\n"
        for i in range(n)
    ), encoding="utf-8")
    peak = _traced_peak("diagnose", "--in", str(pairs))
    assert capsys.readouterr().out == f"     1 sources | {'#' * 50} {n}\n"
    assert peak < 600 * n


def test_score_filter_roundtrip(tmp_path, scripts_dir):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=10)
    expanded = tmp_path / "c.djsonl"
    run_cli("expand", "--in", str(corpus), "--out", str(expanded))
    sidecar = tmp_path / "scores.jsonl"
    proc = run_cli(
        "score", "--in", str(expanded),
        "--scorer-cmd", f"{sys.executable} {scripts_dir / 'toy_scorer.py'}",
        "--out", str(sidecar),
    )
    assert json.loads(proc.stdout) == {"scored": 60}

    # Recounted from the sidecar: every pair passes the heuristics, so the
    # histogram counts all 60 scores, before --tau applies.
    scores = [r["qe_score"] for r in read_lines(sidecar)]
    histogram = {}
    for tau in ("0.6", "0.7", "0.8"):
        count = sum(1 for s in scores if s >= float(tau))
        histogram[tau] = {"count": count, "proportion": count / 60}
    assert 0 < histogram["0.8"]["count"] < histogram["0.6"]["count"] < 60
    for tau in (None, "0.5"):
        filtered = tmp_path / f"f{tau}.sjsonl"
        proc = run_cli(
            "filter", "--in", str(expanded), "--scores", str(sidecar),
            *(["--tau", tau] if tau else []), "--out", str(filtered),
        )
        rows = read_lines(filtered)
        written = sum(1 for s in scores if tau is None or s >= float(tau))
        assert 0 < written == len(rows)
        assert all(tau is None or r["qe_score"] >= float(tau) for r in rows)
        assert json.loads(proc.stdout) == {
            "input_count": 60, "kept": 60, "rejected": {}, "histogram": histogram, "written": written,
        }


def test_filter_without_scores(tmp_path):
    dirty = tmp_path / "dirty.djsonl"
    rows = [
        {"id": "a#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "good text", "tgt": "bon texte"},
        {"id": "b#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "", "tgt": "x"},
        {"id": "c#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "same", "tgt": "same"},
    ]
    dirty.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "clean.djsonl"
    proc = run_cli("filter", "--in", str(dirty), "--out", str(out))
    report = json.loads(proc.stdout)
    assert report["input_count"] == 3
    assert report["kept"] == 1
    assert report["rejected"] == {"NonEmpty": 1, "SrcTgtDistinct": 1}
    assert [r["id"] for r in read_lines(out)] == ["a#en2fr"]


def test_filter_tau_requires_scores(tmp_path):
    dirty = tmp_path / "d.djsonl"
    dirty.write_text("", encoding="utf-8")
    run_cli("filter", "--in", str(dirty), "--out", str(tmp_path / "o"), "--tau", "0.5", expect=1)


def test_filter_custom_rules(tmp_path):
    pairs = tmp_path / "p.djsonl"
    rows = [
        {"id": "a#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "one two three", "tgt": "un"},
    ]
    pairs.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"kind": "LengthBounds", "min_len": 1, "max_len": 2}]), encoding="utf-8")
    proc = run_cli("filter", "--in", str(pairs), "--out", str(tmp_path / "o"), "--rules", str(rules))
    report = json.loads(proc.stdout)
    assert report["rejected"] == {"LengthBounds": 1}


@pytest.mark.parametrize(
    "bad,problem",
    [
        ({"id": "a#fr2de", "src_lang": "fr", "tgt_lang": "de"}, "fr->de does not involve a center language"),
        ({"id": "a#en2en", "src_lang": "en", "tgt_lang": "en"}, "identical sides"),
        ({"id": "", "src_lang": "en", "tgt_lang": "fr"}, "id must be non-empty"),
    ],
    ids=["off-center", "same-sides", "empty-id"],
)
def test_filter_refuses_pairs_other_readers_refuse(tmp_path, bad, problem):
    dirty = tmp_path / "dirty.djsonl"
    rows = [
        {**bad, "src": "bonjour", "tgt": "hallo"},
        {"id": "c#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "good text", "tgt": "bon texte"},
    ]
    dirty.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "clean.djsonl"
    proc = run_cli("filter", "--in", str(dirty), "--out", str(out), expect=1)
    err = last_error(proc)
    assert err["error"] == "RecordParseError"
    assert err["message"].startswith(f"{dirty}:line 1: ") and problem in err["message"]
    assert not out.exists()


def test_synth_direct_cli(tmp_path, scripts_dir):
    mono = tmp_path / "mono.jsonl"
    mono.write_text(
        "".join(json_line({"id": f"m{i}", "text": f"line {i}"}) + "\n" for i in range(5)),
        encoding="utf-8",
    )
    out = tmp_path / "synth.djsonl"
    proc = run_cli(
        "synth", "--mode", "direct", "--direction", "en2sw",
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}",
        "--in", str(mono), "--out", str(out),
    )
    assert json.loads(proc.stdout) == {"written": 5, "failed": 0}
    rows = read_lines(out)
    assert rows[0]["id"] == "m0#en2sw"
    assert rows[0]["tgt"] == "[sw] line 0"
    assert rows[0]["provenance"] == "synth_direct"


def test_synth_direct_requires_direction(tmp_path, scripts_dir):
    mono = tmp_path / "m.jsonl"
    mono.write_text("", encoding="utf-8")
    run_cli(
        "synth", "--mode", "direct",
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}",
        "--in", str(mono), "--out", str(tmp_path / "o"),
        expect=1,
    )


def test_synth_pivot_cli(tmp_path, scripts_dir):
    pairs = tmp_path / "enx.djsonl"
    rows = [
        {"id": f"p{i}", "src_lang": "en", "tgt_lang": "sw", "src": f"en {i}", "tgt": f"sw {i}"}
        for i in range(4)
    ]
    pairs.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "zhx.djsonl"
    proc = run_cli(
        "synth", "--mode", "pivot",
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}",
        "--in", str(pairs), "--out", str(out),
    )
    assert json.loads(proc.stdout) == {"written": 8, "failed": 0}
    rows = read_lines(out)
    assert rows[0]["id"] == "p0#zh2sw"
    assert rows[0]["src"] == "[zh] en 0"
    assert rows[1]["id"] == "p0#sw2zh"


def test_synth_budget_abort_cli(tmp_path, scripts_dir):
    mono = tmp_path / "mono.jsonl"
    mono.write_text(
        "".join(json_line({"id": f"m{i}", "text": f"line {i}"}) + "\n" for i in range(5)),
        encoding="utf-8",
    )
    proc = run_cli(
        "synth", "--mode", "direct", "--direction", "en2sw",
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'} --fail-every 2",
        "--in", str(mono), "--out", str(tmp_path / "o"),
        expect=1,
    )
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "BackendError"


@pytest.mark.parametrize("mode", ["direct", "pivot"])
def test_synth_summary_counts_skipped_items(tmp_path, scripts_dir, mode):
    # 20 items, 2 failures (the budget's edge): the toy backend fails every
    # 10th request, and direct mode skips an empty text without a request.
    inp = tmp_path / "in.jsonl"
    if mode == "direct":
        rows = [{"id": f"m{i}", "text": "" if i == 3 else f"line {i}"} for i in range(20)]
        failed_ids, per_item, extra = ["m3", "m10"], 1, ("--direction", "en2sw")
    else:
        rows = [{"id": f"p{i}", "src_lang": "en", "tgt_lang": "sw", "src": f"en {i}", "tgt": f"sw {i}"}
                for i in range(20)]
        failed_ids, per_item, extra = ["p9", "p19"], 2, ()
    inp.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "out.djsonl"
    proc = run_cli(
        "synth", "--mode", mode, *extra,
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'} --fail-every 10",
        "--in", str(inp), "--out", str(out),
    )
    assert json.loads(proc.stdout) == {"written": 18 * per_item, "failed": 2}
    warnings = [line for line in proc.stderr.splitlines() if "skipping item" in line]
    assert [w.split("skipping item ")[1].split(":")[0] for w in warnings] == failed_ids
    if mode == "direct":
        assert warnings[0] == "WARNING mmtkit.synthesis: synth_direct en->sw: skipping item m3: empty source text"
    assert len(read_lines(out)) == 18 * per_item


def test_infer_prompt_dt_and_pmp(tmp_path):
    reqs = tmp_path / "reqs.jsonl"
    rows = [
        {"id": "q1", "src_lang": "fr", "tgt_lang": "de", "src": "eau"},
        {"id": "q2", "src_lang": "en", "tgt_lang": "bg", "src": "water"},
    ]
    reqs.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "prompts.pjsonl"
    proc = run_cli("infer-prompt", "--strategy", "dt", "--in", str(reqs), "--out", str(out))
    assert json.loads(proc.stdout) == {"requests": 2, "prompts": 2}
    rows_out = read_lines(out)
    assert all(r["loss_start"] == r["loss_end"] for r in rows_out)

    pmp_reqs = tmp_path / "pmp.jsonl"
    pmp_reqs.write_text(
        json_line({"id": "q3", "src_lang": "en", "tgt_lang": "bg", "src": "water", "aux": "voda-ru"}) + "\n",
        encoding="utf-8",
    )
    out2 = tmp_path / "pmp.pjsonl"
    proc = run_cli("infer-prompt", "--strategy", "pmp-o", "--in", str(pmp_reqs), "--out", str(out2))
    (row,) = read_lines(out2)
    assert row["aux_lang"] == "ru"
    assert row["format"] == "PMP"


def test_infer_prompt_pt_cli(tmp_path, scripts_dir):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(
        json_line({"id": "q1", "src_lang": "fr", "tgt_lang": "de", "src": "eau"}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "pt.pjsonl"
    proc = run_cli(
        "infer-prompt", "--strategy", "pt", "--in", str(reqs), "--out", str(out),
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}",
    )
    assert json.loads(proc.stdout) == {"requests": 1, "prompts": 2}
    rows = read_lines(out)
    assert (rows[0]["src_lang"], rows[0]["tgt_lang"]) == ("fr", "en")
    assert (rows[1]["src_lang"], rows[1]["tgt_lang"]) == ("en", "de")


@pytest.mark.parametrize("metric, first_cell", [("COMET22", "89.10"), ("SacreBLEU", "34.79")],
                         ids=["COMET22", "SacreBLEU"])
def test_eval_cli(tmp_path, data_dir, metric, first_cell):
    # The tier table of each metric over the 59-language overlap (the
    # built-in registry without mn_cn): both models have a row, no cell is empty.
    proc = run_cli(
        "eval", "--records", str(data_dir / "comet_bleu_records.jsonl"),
        "--langs", ",".join(sorted(set(_registry_codes()) - {"mn_cn"})),
        "--models", "LMT-60-4B,LMT-60-8B", "--metric", metric,
    )
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("| Model |")
    assert lines[2].startswith(f"| LMT-60-4B | {first_cell} |")
    assert lines[3].startswith("| LMT-60-8B |") and len(lines) == 4
    assert " - |" not in proc.stdout
    out = tmp_path / "table.csv"
    proc = run_cli(
        "eval", "--records", str(data_dir / "comet_bleu_records.jsonl"),
        "--format", "csv", "--metric", metric, "--out", str(out),
    )
    summary = json.loads(proc.stdout)
    assert summary["models"] == 2
    assert out.read_text(encoding="utf-8").startswith("Model,")


def test_eval_unknown_language_error_does_not_depend_on_the_hash_seed(data_dir):
    # The --langs codes are checked in the order given, not in a set's order.
    def refusal(hash_seed):
        proc = subprocess.run(
            [sys.executable, "-m", "mmtkit", "eval", "--records", str(data_dir / "comet_bleu_records.jsonl"),
             "--langs", "xx,yy,zz"],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        return proc.returncode, proc.stderr

    expected = json.dumps({"error": "UnknownLanguage", "message": "unknown language code: 'xx'"}) + "\n"
    assert refusal("1") == refusal("3") == (1, expected)


_REFUSALS_SCRIPT = """
import contextlib, io, json, sys
from mmtkit.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def test_refusals_do_not_depend_on_the_hash_seed(tmp_path, data_dir):
    # Refusals pinned elsewhere in this file, each run in-process through
    # cli.main, in one interpreter per hash seed: the same exit codes and
    # the same stderr, byte for byte.
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=4, langs=("en", "zh", "fr", "bg"))
    pairs = tmp_path / "c.djsonl"
    run_cli("expand", "--in", str(corpus), "--out", str(pairs))
    files = {
        "broken": '{"id": "broken"}\n',
        "dup": '{"id": "a", "sentences": {"en": "x", "fr": "y"}}\n' * 2,
        "surrogate": '{"id": "a", "sentences": {"en": "x\\ud800", "fr": "y"}}\n',
        "unknown": '{"id": "a", "sentences": {"en": "x", "xx": "y"}}\n',
        "langs": "".join(json.dumps({"code": c, "name": c, "script": "L", "family": "F", "tier": "High"}) + "\n"
                         for c in ("en", "zh", "fr-ca")),
        "rules": '[\n  {"kind": "NonEmpty"},\n  bad\n]\n',
        "rules_object": '{"kind": "NonEmpty"}',
        "rules_kind": '[{"kind": "Nope"}]',
        "sidecar": json.dumps({"id": "t0000#en2zh", "qe_score": 0.5}) + "\n",
        "sidecar_bad": json.dumps({"id": "t0000#en2zh", "qe_score": 1.5}) + "\n",
        "mono": json.dumps({"id": "m0", "text": "eau"}) + "\n",
        "reqs": json.dumps({"id": "q1", "src_lang": "en", "tgt_lang": "bg", "src": "eau"}) + "\n",
        "reqs_xx": json.dumps({"id": "q1", "src_lang": "en", "tgt_lang": "xx", "src": "eau"}) + "\n",
        "reqs_dup": (json.dumps({"id": "q1", "src_lang": "fr", "tgt_lang": "en", "src": "eau"}) + "\n") * 2,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    f = {name: str(tmp_path / name) for name in files}
    out, c, p, ev = str(tmp_path / "o"), str(corpus), str(pairs), str(data_dir / "comet_bleu_records.jsonl")
    usage_errors = [
        ["unknown-command"],
        ["expand"],
        ["filter", "--in", p, "--out", out, "--seed", "3"],
        ["downsample", "--in", p, "--out", out, "--p", "2"],
        ["diagnose", "--in", p, "--p", "-0.1"],
        ["mix", "--in", c, "--out", out, "--forward-pmp-share", "1.01"],
        ["expand", "--in", c, "--out", out, "--workers", "0"],
        ["eval", "--records", ev, "--langs", ","],
        ["eval", "--records", ev, "--metric", "chrF"],
        ["infer-prompt", "--strategy", "xx", "--in", f["reqs"], "--out", out],
    ]
    data_errors = [
        ["expand", "--in", str(tmp_path / "absent"), "--out", out],
        ["expand", "--in", f["broken"], "--out", out],
        ["expand", "--in", f["dup"], "--out", out],
        ["expand", "--in", f["unknown"], "--out", out],
        ["expand", "--registry", f["langs"], "--in", c, "--out", out],
        ["mix", "--in", c, "--out", out, "--per-direction-min", "5", "--per-direction-max", "2"],
        ["mix", "--in", f["surrogate"], "--out", out, "--per-direction-min", "0"],
        ["mix", "--in", c, "--scores", f["sidecar"], "--out", out],
        ["mix", "--in", c, "--scores", f["sidecar_bad"], "--out", out],
        ["filter", "--in", p, "--out", out, "--tau", "0.5"],
        ["filter", "--in", p, "--rules", f["rules"], "--out", out],
        ["filter", "--in", p, "--rules", f["rules_object"], "--out", out],
        ["filter", "--in", p, "--rules", f["rules_kind"], "--out", out],
        ["downsample", "--in", p, "--out", p],
        ["eval", "--records", ev, "--langs", "xx,yy,zz"],
        ["eval", "--records", ev, "--langs", "en,zz", "--models", "nope"],
        ["synth", "--mode", "direct", "--backend-cmd", "true", "--in", f["mono"], "--out", out],
        ["synth", "--mode", "direct", "--direction", "fr2de", "--backend-cmd", "true", "--in", f["mono"], "--out", out],
        ["infer-prompt", "--strategy", "pmp-o", "--in", f["reqs"], "--out", out],
        ["infer-prompt", "--strategy", "dt", "--in", f["reqs_xx"], "--out", out],
        ["infer-prompt", "--strategy", "dt", "--in", f["reqs_dup"], "--out", out],
        ["infer-prompt", "--strategy", "dt", "--backend-cmd", "true", "--in", f["reqs"], "--out", out],
    ]
    cases = usage_errors + data_errors

    def refusals(hash_seed):
        proc = subprocess.run(
            [sys.executable, "-c", _REFUSALS_SCRIPT, json.dumps(cases)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    first = refusals("1")
    assert [code for code, _ in first] == [2] * len(usage_errors) + [1] * len(data_errors)
    for (code, err), argv in zip(first, cases):
        assert err.endswith("\n") and "Traceback" not in err, (argv, err)
        if code == 1:
            assert set(json.loads(err.splitlines()[-1])) == {"error", "message"}, (argv, err)
    assert refusals("2") == first
    assert not os.path.exists(out)


def test_eval_repeated_model_gives_one_row(data_dir):
    proc = run_cli(
        "eval", "--records", str(data_dir / "comet_bleu_records.jsonl"),
        "--models", "LMT-60-4B,LMT-60-8B,LMT-60-4B", "--format", "csv",
    )
    assert [row.split(",")[0] for row in proc.stdout.splitlines()] == ["Model", "LMT-60-4B", "LMT-60-8B"]


@pytest.mark.parametrize("option", ["--langs", "--models"])
@pytest.mark.parametrize("value", [",", ""])
def test_eval_filter_naming_nothing_is_usage_error(data_dir, tmp_path, option, value):
    # Unrefused, "," would skip every record and "" would filter nothing.
    out = tmp_path / "t.md"
    proc = run_cli("eval", "--records", str(data_dir / "comet_bleu_records.jsonl"), option, value,
                   "--out", str(out), expect=2)
    assert f"argument {option}: must name at least one, got {value!r}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_eval_cells_do_not_depend_on_record_order(tmp_path):
    # Six High-tier X->En values whose float sum rounds differently when the
    # last three are added in reverse order.
    values = {"ar": 58.9, "es": 3.45, "de": 24.27, "fr": 79.74, "it": 41.43, "ja": 17.3}
    rows = [{"model": "m", "src": src, "tgt": "en", "metric": "COMET22", "value": v} for src, v in values.items()]
    tables = []
    for name, order in (("a", (0, 1, 2, 3, 4, 5)), ("b", (0, 1, 2, 5, 4, 3))):
        records = tmp_path / f"{name}.jsonl"
        records.write_text("".join(json_line(rows[i]) + "\n" for i in order), encoding="utf-8")
        tables.append(run_cli("eval", "--records", str(records), "--format", "csv").stdout)
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[1].split(",")[1:6] == ["-", "37.52", "-", "-", "-"]


_EVAL_ROW = {"model": "m", "src": "en", "tgt": "fr", "metric": "SacreBLEU", "value": 30.0}


@pytest.mark.parametrize(
    "row, error, problem",
    [
        ({**_EVAL_ROW, "tgt": "xx"}, "UnknownLanguage", "unknown language code: 'xx'"),
        (_EVAL_ROW, "DuplicateRecord", "duplicate record for model 'm', direction en->fr, metric 'SacreBLEU'"),
        ({**_EVAL_ROW, "value": 150}, "RecordParseError", "SacreBLEU value outside [0, 100]: 150.0"),
        (
            {**_EVAL_ROW, "metric": "BLEURT"},
            "RecordParseError",
            "unknown metric 'BLEURT'; expected one of ('COMET22', 'SacreBLEU')",
        ),
        ({**_EVAL_ROW, "model": ""}, "RecordParseError", "model name must be non-empty"),
        (
            {**_EVAL_ROW, "src": "fr", "tgt": "de"},
            "RecordParseError",
            "direction fr->de does not involve a center language",
        ),
    ],
    ids=["unknown-code", "repeated-row", "value-out-of-range", "unknown-metric", "empty-model", "no-center"],
)
def test_eval_record_error_names_file_and_line(tmp_path, row, error, problem):
    """Refused while reading, with --metric selecting another metric: a
    repeated row is an error whatever the table shows."""
    records = tmp_path / "r.jsonl"
    records.write_text(json_line(_EVAL_ROW) + "\n" + json_line(row) + "\n", encoding="utf-8")
    out = tmp_path / "t.md"
    proc = run_cli("eval", "--records", str(records), "--metric", "COMET22", "--out", str(out), expect=1)
    assert last_error(proc) == {"error": error, "message": f"{records}:line 2: {problem}"}
    assert not out.exists()


def _registry_codes():
    from mmtkit.registry import load_registry

    return load_registry().codes()


def test_diagnose_cli(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=10)
    expanded = tmp_path / "c.djsonl"
    run_cli("expand", "--in", str(corpus), "--out", str(expanded))
    report_path = tmp_path / "rep.json"
    proc = run_cli("diagnose", "--in", str(expanded), "--out", str(report_path))
    assert "sources |" in proc.stdout
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["max_repetition"] == 2  # three languages: two sources per target
    proc2 = run_cli("diagnose", "--in", str(expanded), "--p", "0.0")
    assert "sources |" in proc2.stdout
    # With --out /dev/stdout the report goes to the pipe alone, and the
    # histogram goes to stderr, where main sends a summary.
    piped = run_cli("diagnose", "--in", str(expanded), "--out", "/dev/stdout")
    assert (piped.stdout, piped.stderr) == (report_path.read_text(encoding="utf-8"), proc.stdout)


def test_custom_registry_cli(tmp_path):
    langs = tmp_path / "langs.jsonl"
    rows = [
        {"code": c, "name": c.upper(), "script": "L", "family": "F", "tier": "High"}
        for c in ("en", "zh", "aa")
    ]
    langs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    proc = run_cli("validate", "--registry", str(langs))
    assert proc.stdout.strip() == "3 languages, 6 directions"


@pytest.mark.parametrize("code", ["zh2zh", "f2", "fr-ca", "é"])
def test_registry_code_outside_id_grammar_refused(tmp_path, code):
    """A code is lowercase a-z and '_', so the '2' of an example id
    {id}#{src}2{tgt} splits it one way: with the code zh2zh, expand would
    write two lines with the id r#zh2zh2zh."""
    langs = tmp_path / "langs.jsonl"
    rows = [
        {"code": c, "name": c.upper(), "script": "L", "family": "F", "tier": "High"}
        for c in ("en", "zh", code)
    ]
    langs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    corpus = tmp_path / "c.mwjsonl"
    corpus.write_text(json_line({"id": "r", "sentences": {"zh": "a", code: "b"}}) + "\n", encoding="utf-8")
    out = tmp_path / "o.djsonl"
    proc = run_cli("expand", "--registry", str(langs), "--in", str(corpus), "--out", str(out), expect=1)
    assert last_error(proc) == {
        "error": "RecordParseError",
        "message": f"{langs}:line 3: language code must be lowercase ASCII letters and underscores: {code!r}",
    }
    assert not out.exists()


def test_synth_direct_non_string_item_exits_1(tmp_path, scripts_dir):
    mono = tmp_path / "mono.jsonl"
    mono.write_text(json_line({"id": 7, "text": 5}) + "\n", encoding="utf-8")
    out = tmp_path / "o.djsonl"
    proc = run_cli(
        "synth", "--mode", "direct", "--direction", "en2sw",
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}",
        "--in", str(mono), "--out", str(out),
        expect=1,
    )
    assert last_error(proc)["error"] == "RecordParseError"
    assert f"{mono}:line 1" in last_error(proc)["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "ids, error, message",
    [
        (["m0", "m1", "m0"], "DuplicateRecordId", "line 3: duplicate item id 'm0'"),
        (["m0", ""], "RecordParseError", "line 2: item id must be non-empty"),
    ],
    ids=["duplicate", "empty"],
)
def test_synth_direct_refuses_ids_it_cannot_make_unique(tmp_path, scripts_dir, ids, error, message):
    # A repeated item id would write a repeated example id; an empty one, "#en2sw".
    mono = tmp_path / "mono.jsonl"
    mono.write_text("".join(json_line({"id": i, "text": f"text {n}"}) + "\n" for n, i in enumerate(ids)), encoding="utf-8")
    out = tmp_path / "o.djsonl"
    proc = run_cli(
        "synth", "--mode", "direct", "--direction", "en2sw",
        "--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}",
        "--in", str(mono), "--out", str(out),
        expect=1,
    )
    assert proc.stderr.count("\n") == 1
    assert last_error(proc) == {"error": error, "message": f"{mono}:{message}"}
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["", "   ", "'x"], ids=["empty", "blank", "unclosed_quote"])
@pytest.mark.parametrize("stage", ["synth", "score"])
def test_unstartable_backend_command_exits_1(tmp_path, stage, cmd):
    inp = tmp_path / "in.jsonl"
    inp.write_text(json_line({"id": "m0", "text": "x"}) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    if stage == "synth":
        args = ("synth", "--mode", "direct", "--direction", "en2sw", "--backend-cmd", cmd)
    else:
        args = ("score", "--scorer-cmd", cmd)
    proc = run_cli(*args, "--in", str(inp), "--out", str(out), expect=1)
    assert "Traceback" not in proc.stderr
    err = last_error(proc)
    assert err["error"] == "BackendError"
    assert err["message"].startswith(f"cannot start backend {cmd!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("direction", ["fr2de", "en2fr2de", "en2", "enfr"])
def test_synth_direct_unsupported_direction_exits_1(tmp_path, direction):
    # The direction is refused before the backend starts, so the backend never creates its marker.
    mono = tmp_path / "mono.jsonl"
    mono.write_text(json_line({"id": "m0", "text": "x"}) + "\n", encoding="utf-8")
    marker = tmp_path / "started"
    proc = run_cli(
        "synth", "--mode", "direct", "--direction", direction,
        "--backend-cmd", f"touch {marker}",
        "--in", str(mono), "--out", str(tmp_path / "o"),
        expect=1,
    )
    assert last_error(proc)["error"] == "RecordParseError"
    assert not (tmp_path / "o").exists()
    assert not marker.exists()


def test_synth_direct_non_center_source_refused_before_backend_starts(tmp_path):
    # fr2en is a supported direction, but direct synthesis needs a center source.
    mono = tmp_path / "mono.jsonl"
    mono.write_text(json_line({"id": "m0", "text": "eau"}) + "\n", encoding="utf-8")
    marker = tmp_path / "started"
    proc = run_cli(
        "synth", "--mode", "direct", "--direction", "fr2en",
        "--backend-cmd", f"touch {marker}",
        "--in", str(mono), "--out", str(tmp_path / "o"),
        expect=1,
    )
    assert last_error(proc) == {"error": "InvalidInput", "message": "direct synthesis needs a center source, got fr->en"}
    assert not (tmp_path / "o").exists()
    assert not marker.exists()


def test_infer_prompt_non_string_src_exits_1(tmp_path):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(json_line({"id": "q1", "src_lang": "en", "tgt_lang": "fr", "src": 123}) + "\n", encoding="utf-8")
    out = tmp_path / "p.pjsonl"
    proc = run_cli("infer-prompt", "--strategy", "dt", "--in", str(reqs), "--out", str(out), expect=1)
    assert last_error(proc)["error"] == "RecordParseError"
    assert not out.exists()


@pytest.mark.parametrize("same_as", ["--in", "--scores"])
def test_out_same_as_input_refused(tmp_path, same_as):
    pairs = tmp_path / "d.djsonl"
    pairs.write_text(
        json_line({"id": "a#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "hi", "tgt": "salut"}) + "\n",
        encoding="utf-8",
    )
    scores = tmp_path / "s.jsonl"
    scores.write_text(json_line({"id": "a#en2fr", "qe_score": 0.5}) + "\n", encoding="utf-8")
    if same_as == "--in":
        args, victim = ("downsample", "--in", str(pairs), "--out", str(pairs)), pairs
    else:
        args, victim = ("filter", "--in", str(pairs), "--scores", str(scores), "--out", str(scores)), scores
    before = victim.read_bytes()
    proc = run_cli(*args, expect=1)
    assert last_error(proc)["error"] == "RecordParseError"
    assert victim.read_bytes() == before


_BUILTIN_DATA = resources.files("mmtkit") / "data"
_AUX, _LANGS = _BUILTIN_DATA / "auxiliaries.jsonl", _BUILTIN_DATA / "languages.jsonl"

# Config and registry files a stage reads besides its data input: (stage
# arguments, contents of the file F that --out also names); IN is an empty file.
_READ_FILE_CASES = {
    "filter --rules": (("filter", "--in", "IN", "--rules", "F"), '[{"kind": "NonEmpty"}]\n'),
    "expand --auxiliaries": (("expand", "--in", "IN", "--auxiliaries", "F"), _AUX),
    "expand --registry": (("expand", "--in", "IN", "--registry", "F"), _LANGS),
    "mix --auxiliaries": (("mix", "--in", "IN", "--auxiliaries", "F"), _AUX),
    "infer-prompt --registry": (("infer-prompt", "--strategy", "dt", "--in", "IN", "--registry", "F"), _LANGS),
    "eval --auxiliaries": (("eval", "--records", "IN", "--auxiliaries", "F"), _AUX),
}


@pytest.mark.parametrize("case", sorted(_READ_FILE_CASES))
def test_out_same_as_a_read_file_refused(tmp_path, case):
    args, text = _READ_FILE_CASES[case]
    if not isinstance(text, str):
        text = text.read_text(encoding="utf-8")
    src = tmp_path / "in.jsonl"
    src.write_text("", encoding="utf-8")
    victim = tmp_path / "f"
    victim.write_text(text, encoding="utf-8")
    args = [{"IN": str(src), "F": str(victim)}.get(a, a) for a in args]
    proc = run_cli(*args, "--out", str(victim), expect=1)
    assert last_error(proc)["error"] == "RecordParseError"
    assert "is the same file as input" in last_error(proc)["message"]
    assert victim.read_text(encoding="utf-8") == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "in.jsonl"]


@pytest.mark.parametrize(
    "args",
    [
        ("expand", "--in", "IN", "--registry", "X"),
        ("mix", "--in", "IN", "--scores", "X"),
        ("filter", "--in", "IN", "--rules", "X"),
        ("eval", "--records", "X"),
        ("diagnose", "--in", "X"),
        ("infer-prompt", "--strategy", "dt", "--in", "IN", "--registry", "X"),
    ],
    ids=lambda args: args[0],
)
def test_out_same_as_input_refused_before_any_input_is_read(tmp_path, args):
    """Neither file is JSON, so a stage that read one first would report its
    parse error instead of the refusal."""
    src, victim = tmp_path / "in.jsonl", tmp_path / "x"
    for path in (src, victim):
        path.write_bytes(b"{broken\n")
    args = [{"IN": str(src), "X": str(victim)}.get(a, a) for a in args]
    proc = run_cli(*args, "--out", str(victim), expect=1)
    message = f"--out {str(victim)!r} is the same file as input {str(victim)!r}"
    assert last_error(proc) == {"error": "RecordParseError", "message": message}
    assert victim.read_bytes() == b"{broken\n"


def test_failed_run_keeps_existing_out(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=3)
    with open(corpus, "a", encoding="utf-8") as f:
        f.write('{"id": "broken"}\n')
    out = tmp_path / "o.djsonl"
    out.write_bytes(b"previous run\n")
    run_cli("expand", "--in", str(corpus), "--out", str(out), expect=1)
    assert out.read_bytes() == b"previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.mwjsonl", "o.djsonl"]


def test_sigterm_leaves_no_temporary_file_and_no_target(tmp_path):
    # The stage blocks reading a FIFO that this test holds open and never
    # finishes writing, so it is stopped with its temporary file open.
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    out = tmp_path / "o.djsonl"
    fd = os.open(fifo, os.O_RDWR)  # a writer, so the stage's open and reads block instead of seeing EOF
    proc = subprocess.Popen([sys.executable, "-m", "mmtkit", "downsample", "--in", str(fifo), "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        os.write(fd, b'{"id": "r0#en2fr", "src_lang": "en"')
        deadline = time.monotonic() + 30
        while not any(p.name.endswith(".tmp") for p in tmp_path.iterdir()):
            assert proc.poll() is None and time.monotonic() < deadline, "no temporary file appeared"
            time.sleep(0.01)
        proc.terminate()
        _, stderr = proc.communicate(timeout=30)
    finally:
        os.close(fd)
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 143, stderr
    assert b"Traceback" not in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.fifo"]


def test_sigterm_while_closing_a_backend_kills_it(tmp_path):
    # The backend ignores the EOF that closing sends, so the stage waits on
    # it; a SIGTERM then must not leave it running. It shares the stage's
    # stderr, so that pipe reaches EOF only once both have exited.
    mono = tmp_path / "m.jsonl"
    mono.write_text("", encoding="utf-8")
    backend = "sh -c 'echo $$ >&2; exec sleep 1000'"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mmtkit", "synth", "--mode", "direct", "--direction", "en2fr",
         "--backend-cmd", backend, "--in", str(mono), "--out", str(tmp_path / "o.djsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    backend_pid = int(proc.stderr.readline())
    time.sleep(0.5)  # the stage has read its empty input and waits in close
    proc.terminate()
    try:
        _, stderr = proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        # The backend was left running, orphaned and so not yet reaped.
        os.kill(backend_pid, signal.SIGKILL)
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 143, stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]


def _stage_args(tmp, scripts_dir, stage):
    """The arguments, without --out, of one stage that writes JSONL to --out."""
    corpus = write_corpus(tmp / "c.mwjsonl", n=30, langs=("en", "zh", "fr", "bg", "ru"))
    pairs = tmp / "c.djsonl"
    if stage in ("downsample", "filter", "score"):
        run_cli("expand", "--in", str(corpus), "--out", str(pairs))
    inp = tmp / "in.jsonl"
    backend = f"{sys.executable} {scripts_dir / 'toy_backend.py'}"
    if stage == "synth direct":
        inp.write_text("".join(json_line({"id": f"m{i}", "text": f"line {i}"}) + "\n" for i in range(5)), encoding="utf-8")
    elif stage == "synth pivot":
        rows = [{"id": f"p{i}", "src_lang": "en", "tgt_lang": "sw", "src": f"en {i}", "tgt": f"sw {i}"} for i in range(4)]
        inp.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    elif stage == "infer-prompt":
        rows = [{"id": "q1", "src_lang": "fr", "tgt_lang": "de", "src": "eau"},
                {"id": "q2", "src_lang": "en", "tgt_lang": "bg", "src": "water"}]
        inp.write_text("".join(json_line(r) + "\n" for r in rows), encoding="utf-8")
    return {
        "expand": ("expand", "--in", str(corpus)),
        "downsample": ("downsample", "--in", str(pairs), "--p", "0.3"),
        "mix": ("mix", "--in", str(corpus), "--per-direction-min", "0"),
        "filter": ("filter", "--in", str(pairs)),
        "score": ("score", "--in", str(pairs), "--scorer-cmd", f"{sys.executable} {scripts_dir / 'toy_scorer.py'}"),
        "synth direct": ("synth", "--mode", "direct", "--direction", "en2sw", "--backend-cmd", backend, "--in", str(inp)),
        "synth pivot": ("synth", "--mode", "pivot", "--backend-cmd", backend, "--in", str(inp)),
        "infer-prompt": ("infer-prompt", "--strategy", "dt", "--in", str(inp)),
    }[stage]


@pytest.mark.parametrize(
    "stage", ["expand", "downsample", "mix", "filter", "score", "synth direct", "synth pivot", "infer-prompt"]
)
def test_summary_never_enters_a_piped_stream(tmp_path, scripts_dir, stage):
    # With --out /dev/stdout the records go to the pipe alone, and the
    # summary a file output prints to stdout goes to stderr.
    args = _stage_args(tmp_path, scripts_dir, stage)
    out = tmp_path / "out.jsonl"
    summary = run_cli(*args, "--out", str(out)).stdout
    assert json.loads(summary)
    piped = subprocess.run([sys.executable, "-m", "mmtkit", *args, "--out", "/dev/stdout"], capture_output=True)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == out.read_bytes() != b""
    assert piped.stderr.decode("utf-8").splitlines()[-1] + "\n" == summary


def test_piped_expand_into_downsample_writes_the_file_chains_bytes(tmp_path):
    # 7,800 examples: a summary written into the pipe would be read as one more.
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=300, langs=("en", "zh", "fr", "de"))
    expanded, kept = tmp_path / "e.djsonl", tmp_path / "k.djsonl"
    expand_summary = run_cli("expand", "--in", str(corpus), "--out", str(expanded)).stdout
    downsample_summary = run_cli("downsample", "--in", str(expanded), "--out", str(kept), "--p", "0.3").stdout

    piped = tmp_path / "piped.djsonl"
    with open(tmp_path / "expand.err", "w+b") as expand_err:
        expand = subprocess.Popen(
            [sys.executable, "-m", "mmtkit", "expand", "--in", str(corpus), "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=expand_err,
        )
        downsample = subprocess.run(
            [sys.executable, "-m", "mmtkit", "downsample", "--in", "/dev/stdin", "--out", str(piped), "--p", "0.3"],
            stdin=expand.stdout, capture_output=True, text=True,
        )
        expand.stdout.close()
        assert expand.wait() == 0
        expand_err.seek(0)
        assert expand_err.read().decode("utf-8") == expand_summary
    assert downsample.returncode == 0, downsample.stderr
    assert downsample.stdout == downsample_summary
    assert piped.read_bytes() == kept.read_bytes()


def test_a_stage_failing_mid_pipe_fails_the_stage_behind_it(tmp_path):
    # 300 good pairs and a bad last line: downsample fails after streaming
    # some of its output, and ends its stream with a line no reader takes.
    pairs = tmp_path / "p.djsonl"
    rows = [{"id": f"r{i}#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": f"en {i}", "tgt": f"fr {i}",
             "provenance": "human"} for i in range(300)]
    pairs.write_text("".join(json_line(r) + "\n" for r in rows) + '{"id": 5}\n', encoding="utf-8")
    upstream = [sys.executable, "-m", "mmtkit", "downsample", "--in", str(pairs), "--out", "/dev/stdout"]

    alone = subprocess.run(upstream, capture_output=True, text=True)
    assert alone.returncode == 1
    error = alone.stderr.splitlines()[-1]
    assert json.loads(error)["error"] == "RecordParseError"
    streamed = alone.stdout.splitlines()
    assert streamed[-1] == f"#mmtkit error: {error}"
    assert [json.loads(line) for line in streamed[:-1]] == rows[: len(streamed) - 1]

    out = tmp_path / "f.djsonl"
    with open(tmp_path / "downsample.err", "w+b") as upstream_err:
        downsample = subprocess.Popen(upstream, stdout=subprocess.PIPE, stderr=upstream_err)
        filtered = subprocess.run(
            [sys.executable, "-m", "mmtkit", "filter", "--in", "/dev/stdin", "--out", str(out)],
            stdin=downsample.stdout, capture_output=True, text=True,
        )
        downsample.stdout.close()
        assert downsample.wait() == 1
    assert filtered.returncode == 1, filtered.stdout
    assert filtered.stdout == ""
    assert json.loads(filtered.stderr.splitlines()[-1]) == {
        "error": "RecordParseError", "message": f"/dev/stdin:line {len(streamed)}: invalid JSON (Expecting value)",
    }
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["downsample.err", "p.djsonl"]


def test_out_fifo_receives_output(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=2, langs=("en", "fr"))
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # A reader opened first lets the writer open without blocking; the pipe
    # buffer holds the few output lines until they are read below.
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        run_cli("expand", "--in", str(corpus), "--out", str(fifo))
        data = b""
        while chunk := os.read(fd, 65536):
            data += chunk
    finally:
        os.close(fd)
    assert [json.loads(l)["id"] for l in data.decode("utf-8").splitlines()] == [
        "t0000#en2fr", "t0000#fr2en", "t0001#en2fr", "t0001#fr2en",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.mwjsonl", "out.fifo"]


@pytest.mark.parametrize(
    "args",
    [
        ("downsample", "--p", "2"),
        ("diagnose", "--p", "-0.1"),
        ("filter", "--tau", "1.5"),
        ("mix", "--forward-pmp-share", "1.01"),
        ("mix", "--reverse-retention", "nan"),
        ("mix", "--reverse-pmp-share", "-1"),
        ("downsample", "--p", "abc"),
    ],
)
def test_out_of_range_probability_is_usage_error(tmp_path, args):
    src = tmp_path / "in.jsonl"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "o"
    proc = run_cli(*args, "--in", str(src), "--out", str(out), expect=2)
    assert "must be in [0, 1]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["expand", "diagnose"])
@pytest.mark.parametrize("workers", ["0", "-3", "abc"])
def test_workers_below_one_is_usage_error(tmp_path, command, workers):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=1)
    out = tmp_path / "o"
    proc = run_cli(command, "--in", str(corpus), "--out", str(out), "--workers", workers, expect=2)
    assert "must be at least 1" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, problem",
    [
        (("--per-direction-min", "5", "--per-direction-max", "2"), "got 5..2"),
        (("--per-direction-min", "-1"), "got -1..20000"),
    ],
    ids=["min_over_max", "negative_min"],
)
def test_bad_mixture_spec_exits_1(tmp_path, flags, problem):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=2, langs=("en", "fr"))
    out = tmp_path / "m.pjsonl"
    proc = run_cli("mix", "--in", str(corpus), "--out", str(out), *flags, expect=1)
    assert last_error(proc) == {
        "error": "RecordParseError",
        "message": f"mixture spec: need 0 <= per_direction_min <= per_direction_max, {problem}",
    }
    assert "Traceback" not in proc.stderr
    assert not out.exists()


_PIVOT_ROW = {"id": "p0", "src_lang": "en", "tgt_lang": "sw", "src": "en 0", "tgt": "sw 0"}
_REQUEST = {"id": "q1", "src_lang": "fr", "tgt_lang": "de", "src": "eau"}
# case -> (arguments after the subcommand, whether a backend is passed, the one input line)
INVALID_INPUT_CASES = {
    "synth-direct-non-center-source": (
        ("synth", "--mode", "direct", "--direction", "fr2en"), True, {"id": "m0", "text": "eau"},
    ),
    "synth-pivot-zh-x": (("synth", "--mode", "pivot"), True, {**_PIVOT_ROW, "src_lang": "zh"}),
    "synth-pivot-en-zh": (("synth", "--mode", "pivot"), True, {**_PIVOT_ROW, "tgt_lang": "zh"}),
    "pt-en-endpoint": (("infer-prompt", "--strategy", "pt"), True, {**_REQUEST, "tgt_lang": "en"}),
    "pmp-o-no-aux": (("infer-prompt", "--strategy", "pmp-o"), False, {**_REQUEST, "src_lang": "en", "tgt_lang": "bg"}),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUT_CASES))
def test_invalid_input_is_data_error(tmp_path, scripts_dir, case):
    args, with_backend, row = INVALID_INPUT_CASES[case]
    src = tmp_path / "in.jsonl"
    src.write_text(json_line(row) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    backend = ("--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}") if with_backend else ()
    proc = run_cli(*args, *backend, "--in", str(src), "--out", str(out), expect=1)
    assert last_error(proc)["error"] == "InvalidInput"
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("aux", [5, ["x"], None])
def test_infer_prompt_non_string_aux_exits_1(tmp_path, aux):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(
        json_line({"id": "q", "src_lang": "en", "tgt_lang": "bg", "src": "water", "aux": aux}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "p.pjsonl"
    proc = run_cli("infer-prompt", "--strategy", "pmp-o", "--in", str(reqs), "--out", str(out), expect=1)
    assert last_error(proc) == {
        "error": "RecordParseError",
        "message": f"{reqs}:line 1: field 'aux' must be a string",
    }
    assert not out.exists()


def _rules_case(tmp_path, text):
    """Arguments for a filter run whose --rules file holds text."""
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    pairs = tmp_path / "p.djsonl"
    pairs.write_text(json_line(_PIVOT_ROW) + "\n", encoding="utf-8")
    return config, ("filter", "--in", str(pairs), "--rules", str(config))


@pytest.mark.parametrize("text", ['[\n  {"kind": "NonEmpty"},\n  bad\n]\n'], ids=["rules"])
def test_invalid_config_json_names_file_and_line(tmp_path, text):
    config, args = _rules_case(tmp_path, text)
    out = tmp_path / "o"
    proc = run_cli(*args, "--out", str(out), expect=1)
    err = last_error(proc)
    assert err["error"] == "RecordParseError"
    assert err["message"].startswith(f"{config}:line 3: invalid JSON")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("text", ["5", '{"kind": "NonEmpty"}'], ids=["rules-number", "rules-object"])
def test_bad_config_value_exits_1(tmp_path, text):
    config, args = _rules_case(tmp_path, text)
    out = tmp_path / "o"
    proc = run_cli(*args, "--out", str(out), expect=1)
    assert last_error(proc) == {"error": "RecordParseError", "message": f"{config}: expected a JSON array"}
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        '[{"kind": "MaxLengthRatio", "ratio": NaN}]',
        '[{"kind": "MaxLengthRatio", "ratio": true}]',
        '[{"kind": "LengthBounds", "min_len": true}]',
        '[{"kind": "LengthBounds", "min_len": 1.5, "max_len": 2.5}]',
    ],
    ids=["ratio-nan", "ratio-bool", "min-len-bool", "lengths-float"],
)
def test_rule_parameters_are_type_checked(tmp_path, text):
    _, args = _rules_case(tmp_path, text)
    out = tmp_path / "o"
    proc = run_cli(*args, "--out", str(out), expect=1)
    err = last_error(proc)
    kind = json.loads(text)[0]["kind"]
    assert err["error"] == "RecordParseError"
    assert err["message"].startswith(f"rule 0 ({kind}): ")
    assert not out.exists()


def test_mix_seed_flag_changes_bytes(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=30, langs=("en", "zh", "bg", "ru"))

    def mix(name, *extra):
        out = tmp_path / name
        run_cli("mix", "--in", str(corpus), "--out", str(out), "--per-direction-min", "0", *extra)
        return out.read_bytes()

    seed9 = mix("seed9", "--seed", "9")
    assert seed9 != mix("seed3", "--seed", "3")
    assert mix("default") == mix("seed42", "--seed", "42")


@pytest.mark.parametrize(
    "flag,base",
    [
        ("--reverse-retention", ()),
        ("--reverse-pmp-share", ("--reverse-retention", "1")),
    ],
    ids=["reverse-retention", "reverse-pmp-share"],
)
def test_mix_reverse_flags_change_bytes(tmp_path, flag, base):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=30, langs=("en", "zh", "bg", "ru"))

    def mix(name, value):
        out = tmp_path / f"{name}.pjsonl"
        run_cli("mix", "--in", str(corpus), "--out", str(out), "--per-direction-min", "0", *base, flag, value)
        return out.read_bytes()

    assert mix("low", "0") != mix("high", "1")


@pytest.mark.parametrize("command", ["expand", "filter-rules"])
def test_non_utf8_input_exits_1(tmp_path, command):
    out = tmp_path / "o"
    if command == "expand":
        corpus = tmp_path / "c.mwjsonl"
        corpus.write_bytes(b'{"id": "a", "sentences": {"en": "hi \xff\xfe there", "zh": "ni hao"}}\n')
        args = ("expand", "--in", str(corpus))
    else:
        config, args = _rules_case(tmp_path, "")
        config.write_bytes(b"\xff")
    proc = run_cli(*args, "--out", str(out), expect=1)
    # a JSONL reader locates the bad line; the --rules reader does not
    assert last_error(proc)["error"] == ("RecordParseError" if command == "expand" else "UnicodeDecodeError")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_non_utf8_line_past_the_first_read_chunk_names_file_and_line(tmp_path):
    corpus = write_corpus(tmp_path / "c.mwjsonl", n=300, langs=("en", "fr"))
    with open(corpus, "ab") as f:
        f.write(b'{"id": "bad", "sentences": {"en": "hi \xff\xfe there", "fr": "salut"}}\n')
    assert corpus.stat().st_size > 8192
    out = tmp_path / "o"
    proc = run_cli("expand", "--in", str(corpus), "--out", str(out), expect=1)
    assert last_error(proc) == {"error": "RecordParseError", "message": f"{corpus}:line 301: invalid UTF-8"}
    assert not out.exists()


def _jsonl_with(path, rows):
    """Write rows with json.dumps's default ensure_ascii=True, so a lone
    surrogate in a row becomes a \\u escape, the one way one enters a file."""
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def _pair(i, src=None):
    return {"id": f"r{i:04d}#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": src or f"source words {i}",
            "tgt": f"mots cibles {i}"}


def _lone_surrogate_case(tmp, scripts_dir, data_dir, case):
    """(argv without --out, path, line) of one stage run whose input file at
    path holds a lone surrogate escape at that line."""
    bad = "hi \ud800 there"
    backend = f"{sys.executable} {scripts_dir / 'toy_backend.py'}"
    records = [{"id": f"r{i:04d}", "sentences": {"en": f"en sentence {i}", "fr": f"fr phrase {i}"}} for i in range(300)]
    corpus = _jsonl_with(tmp / "c.mwjsonl", records)
    pairs = _jsonl_with(tmp / "p.djsonl", [_pair(i) for i in range(40)])

    def with_bad(name, rows, line, bad_row):
        rows = list(rows)
        rows.insert(line - 1, bad_row)
        return _jsonl_with(tmp / name, rows)

    def bad_record(line):
        return with_bad("bad.mwjsonl", records, line, {"id": "rx", "sentences": {"en": bad, "fr": "salut"}})

    def bad_pairs(line, src=bad, tgt="mots"):
        return with_bad("bad.djsonl", [_pair(i) for i in range(40)], line, {**_pair(99, src), "tgt": tgt})

    def bad_sidecar(ids, line):
        rows = [{"id": i, "qe_score": 0.5} for i in ids]
        return with_bad("bad.sjsonl", rows, line, {"id": "r0999#en2fr", "qe_score": 0.5, "note": bad})

    pair_ids = [_pair(i)["id"] for i in range(40)]
    mix_ids = [f"r{i:04d}#{d}" for i in range(300) for d in ("en2fr", "fr2en")]
    langs = [{"code": c, "name": n, "script": "Latn", "family": "f", "tier": "High"}
             for c, n in (("en", "English"), ("zh", "Chinese"), ("fr", "French"))]
    if case == "expand":
        path = bad_record(301)  # past the first 8 KB read chunk
        return ("expand", "--in", path), path, 301
    if case == "downsample":
        path = bad_pairs(7)
        return ("downsample", "--in", path), path, 7
    if case == "filter":
        path = bad_pairs(41)
        return ("filter", "--in", path), path, 41
    if case == "filter-rejected":
        # SrcTgtDistinct rejects this pair, so no stage would ever write it.
        path = bad_pairs(3, src=bad, tgt=bad)
        return ("filter", "--in", path), path, 3
    if case == "filter-scores":
        path = bad_sidecar(pair_ids, 41)
        return ("filter", "--in", pairs, "--scores", path), path, 41
    if case == "diagnose":
        path = bad_pairs(1)
        return ("diagnose", "--in", path), path, 1
    if case == "mix":
        path = bad_record(150)
        return ("mix", "--in", path, "--per-direction-min", "0"), path, 150
    if case == "mix-capped":
        # Every candidate is capped out, so no prompt would ever hold the text.
        path = bad_record(2)
        return ("mix", "--in", path, "--per-direction-min", "0", "--per-direction-max", "0"), path, 2
    if case == "mix-scores":
        path = bad_sidecar(mix_ids, 601)
        return ("mix", "--in", corpus, "--scores", path, "--per-direction-min", "0"), path, 601
    if case == "score":
        path = bad_pairs(20)
        return ("score", "--in", path, "--scorer-cmd", f"{sys.executable} {scripts_dir / 'toy_scorer.py'}"), path, 20
    if case == "synth":
        path = with_bad("mono.jsonl", [{"id": f"m{i}", "text": f"line {i}"} for i in range(5)], 4, {"id": "mx", "text": bad})
        return ("synth", "--mode", "direct", "--direction", "en2fr", "--backend-cmd", backend, "--in", path), path, 4
    if case == "synth-pivot":
        path = bad_pairs(2)
        return ("synth", "--mode", "pivot", "--backend-cmd", backend, "--in", path), path, 2
    if case == "infer-prompt":
        reqs = [{"id": f"q{i}", "src_lang": "en", "tgt_lang": "bg", "src": "water", "aux": "вода"} for i in range(3)]
        path = with_bad("reqs.jsonl", reqs, 3, {**reqs[0], "id": "qx", "aux": "в\ud800ода"})
        return ("infer-prompt", "--strategy", "pmp-o", "--in", path), path, 3
    if case == "eval":
        with open(data_dir / "comet_bleu_records.jsonl", encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        path = with_bad("eval.jsonl", rows, 500, {**rows[0], "model": "LMT\udc00"})
        return ("eval", "--records", path), path, 500
    if case == "registry":
        path = with_bad("langs.jsonl", langs[:2], 3, {**langs[2], "name": "Fr\ud800ench"})
        return ("expand", "--registry", path, "--in", corpus), path, 3
    if case == "auxiliaries":
        registry = _jsonl_with(tmp / "langs.jsonl", langs)
        path = _jsonl_with(tmp / "aux.jsonl", [{"lang": "fr\ud800", "aux": "en"}])
        return ("expand", "--registry", registry, "--auxiliaries", path, "--in", corpus), path, 1
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    ["expand", "downsample", "filter", "filter-rejected", "filter-scores", "diagnose", "mix", "mix-capped",
     "mix-scores", "score", "synth", "synth-pivot", "infer-prompt", "eval", "registry", "auxiliaries"],
)
def test_lone_surrogate_exits_1(tmp_path, scripts_dir, data_dir, case):
    # "\ud800" is valid JSON with no UTF-8 form. Every reader refuses the
    # line at path:line N, before any output, whether or not a stage would
    # ever have written or hashed the text.
    args, path, line = _lone_surrogate_case(tmp_path, scripts_dir, data_dir, case)
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "o"
    proc = run_cli(*args, "--out", str(out), expect=1)
    message = f"{path}:line {line}: text with no UTF-8 form (a lone surrogate escape)"
    assert proc.stderr.splitlines() == [json.dumps({"error": "RecordParseError", "message": message})]
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == before


def _surrogate_error(path, line):
    message = f"{path}:line {line}: text with no UTF-8 form (a lone surrogate escape)"
    return json.dumps({"error": "RecordParseError", "message": message})


def test_mix_lone_surrogate_id_fails_at_its_retention_coin(tmp_path):
    # fr->en would flip a retention coin keyed "r0003\ud800#fr2en"; the
    # reader refuses the record's line before any coin is flipped.
    corpus = tmp_path / "c.mwjsonl"
    with open(corpus, "w", encoding="utf-8") as f:
        for i in range(20):
            rec_id = f"r{i:04d}" + ("\ud800" if i == 3 else "")
            f.write(json.dumps({"id": rec_id, "sentences": {l: f"{l} s{i}" for l in ("en", "fr")}}) + "\n")
    out = tmp_path / "m.pjsonl"
    proc = run_cli("mix", "--in", str(corpus), "--out", str(out), "--per-direction-min", "0", expect=1)
    assert proc.stderr.splitlines() == [_surrogate_error(corpus, 4)]
    assert not out.exists()


@pytest.mark.parametrize("lang, position", [("en", 68), ("bg", 95), ("ru", 91)])
def test_mix_lone_surrogate_sentence_names_its_position_in_the_prompt(tmp_path, lang, position):
    # The record at line `position` holds a lone surrogate in its lang
    # sentence. No prompt is rendered: the error names the record's line.
    corpus = tmp_path / "c.mwjsonl"
    with open(corpus, "w", encoding="utf-8") as f:
        for i in range(1, position + 5):
            sentences = {l: f"{l} sentence {i}" for l in ("en", "bg", "ru")}
            if i == position:
                sentences[lang] = f"{lang} se\ud800ntence"
            f.write(json.dumps({"id": f"r{i}", "sentences": sentences}) + "\n")
    out = tmp_path / "m.pjsonl"
    proc = run_cli("mix", "--in", str(corpus), "--out", str(out), "--per-direction-min", "0", expect=1)
    assert proc.stderr.splitlines() == [_surrogate_error(corpus, position)]
    assert not out.exists()


@pytest.mark.parametrize("field, position", [("src", 67), ("aux", 82)])
def test_infer_prompt_lone_surrogate_names_its_position_in_the_prompt(tmp_path, field, position):
    # The request at line `position` holds a lone surrogate in field. No
    # prompt is rendered: the error names the request's line.
    requests = [{"id": f"q{i}", "src_lang": "en", "tgt_lang": "bg", "src": "water", "aux": "вода"}
                for i in range(1, position + 5)]
    bad = requests[position - 1]
    bad[field] = bad[field][:2] + "\ud800" + bad[field][2:]
    reqs = _jsonl_with(tmp_path / "reqs.jsonl", requests)
    out = tmp_path / "p.pjsonl"
    proc = run_cli("infer-prompt", "--strategy", "pmp-o", "--in", reqs, "--out", str(out), expect=1)
    assert proc.stderr.splitlines() == [_surrogate_error(reqs, position)]
    assert not out.exists()


def test_escaped_text_with_a_utf8_form_writes_the_bytes_of_its_literal_spelling(tmp_path):
    # A surrogate pair, Hangul and an escaped backslash before "ud800", each
    # spelled with ASCII escapes (ensure_ascii=True) or literally: expand,
    # filter and mix read the same text either way and write the same bytes.
    text = "hi \U0001f600 \ud55c \\ud800"
    records = [{"id": f"r{i}", "sentences": {"en": f"{text} {i}", "fr": f"fr {i}", "bg": f"{text} bg {i}"}}
               for i in range(6)]
    outputs = {}
    for ascii_only in (True, False):
        tag = "a" if ascii_only else "u"
        corpus = tmp_path / f"c{tag}.mwjsonl"
        corpus.write_text("".join(json.dumps(r, ensure_ascii=ascii_only) + "\n" for r in records), encoding="utf-8")
        pairs = tmp_path / f"p{tag}.djsonl"
        pairs.write_text("".join(json.dumps(_pair(i, f"{text} {i}"), ensure_ascii=ascii_only) + "\n" for i in range(6)),
                         encoding="utf-8")
        runs = {
            "expand": ("expand", "--in", str(corpus)),
            "filter": ("filter", "--in", str(pairs)),
            "mix": ("mix", "--in", str(corpus), "--per-direction-min", "0", "--reverse-retention", "1"),
        }
        for stage, args in runs.items():
            out = tmp_path / f"{stage}.{tag}"
            proc = run_cli(*args, "--out", str(out))
            outputs.setdefault(stage, []).append((out.read_bytes(), proc.stdout, proc.stderr))
    for stage, (escaped, literal) in outputs.items():
        assert escaped == literal, stage
    assert outputs["expand"][0][0].decode("utf-8").splitlines()[0] == json_line(
        {"id": "r0#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": f"{text} 0", "tgt": "fr 0", "provenance": "human"}
    )
    kept = [json.loads(line)["src"] for line in outputs["filter"][0][0].decode("utf-8").splitlines()]
    assert kept == [f"{text} {i}" for i in range(6)]
    assert any(text in json.loads(line)["text"] for line in outputs["mix"][0][0].decode("utf-8").splitlines())


def test_synth_backend_answering_a_lone_surrogate_escape_exits_1(tmp_path):
    # The backend answers every request with a \ud800 escape in its text,
    # which the client refuses as it would in a file.
    backend = tmp_path / "backend.py"
    backend.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'id': json.loads(line)['id'], 'text': 'x\\ud800'}), flush=True)\n",
        encoding="utf-8",
    )
    mono = _jsonl_with(tmp_path / "mono.jsonl", [{"id": f"m{i}", "text": f"line {i}"} for i in range(3)])
    out = tmp_path / "o"
    cmd = f"{sys.executable} {backend}"
    proc = run_cli("synth", "--mode", "direct", "--direction", "en2fr", "--backend-cmd", cmd, "--in", mono,
                   "--out", str(out), expect=1)
    message = f"backend {cmd!r} wrote a lone surrogate escape: " + repr(b'{"id": "m0", "text": "x\\ud800"}')
    assert proc.stderr.splitlines() == [json.dumps({"error": "BackendError", "message": message})]
    assert not out.exists()


def test_synth_silent_backend_exits_1_after_the_deadline(tmp_path, monkeypatch, capsys):
    from mmtkit import backends, cli

    monkeypatch.setattr(backends, "RESPONSE_TIMEOUT_S", 0.5)
    mono = tmp_path / "mono.jsonl"
    mono.write_text(json_line({"id": "m0", "text": "line 0"}) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    args = ["synth", "--mode", "direct", "--direction", "en2fr", "--backend-cmd", "sleep 1000"]
    assert cli.main([*args, "--in", str(mono), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BackendError" and "sleep 1000" in err["message"]
    assert not out.exists()
    assert os.listdir(tmp_path) == ["mono.jsonl"]


def test_infer_prompt_unknown_language_names_file_and_line(tmp_path):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(json_line({**_REQUEST, "src_lang": "xx"}) + "\n", encoding="utf-8")
    out = tmp_path / "p.pjsonl"
    proc = run_cli("infer-prompt", "--strategy", "dt", "--in", str(reqs), "--out", str(out), expect=1)
    assert last_error(proc) == {
        "error": "UnknownLanguage",
        "message": f"{reqs}:line 1: unknown language code: 'xx'",
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "strategy, second, error, message",
    [
        ("dt", {"id": ""}, "RecordParseError", "request id must be non-empty"),
        ("dt", {}, "DuplicateRecordId", "duplicate prompt id 'q1#fr2de'"),
        ("pt", {"id": ""}, "RecordParseError", "request id must be non-empty"),
        ("pt", {"tgt_lang": "ja"}, "DuplicateRecordId", "duplicate prompt id 'q1#fr2en'"),
        ("pt", {"src_lang": "ja"}, "DuplicateRecordId", "duplicate prompt id 'q1#en2de'"),
    ],
    ids=["dt-empty-id", "dt-duplicate-id", "pt-empty-id", "pt-shared-source", "pt-shared-target"],
)
def test_infer_prompt_refuses_empty_and_repeated_prompt_ids(tmp_path, scripts_dir, strategy, second, error, message):
    # Each prompt id is the request id and a direction, and pt's two prompts
    # pass through en, so these second requests would write an empty or
    # repeated prompt id.
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(json_line(_REQUEST) + "\n" + json_line({**_REQUEST, **second}) + "\n", encoding="utf-8")
    out = tmp_path / "p.pjsonl"
    backend = ("--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}") if strategy == "pt" else ()
    proc = run_cli("infer-prompt", "--strategy", strategy, *backend, "--in", str(reqs), "--out", str(out), expect=1)
    assert proc.stderr.strip().splitlines() == [json.dumps({"error": error, "message": f"{reqs}:line 2: {message}"})]
    assert not out.exists()


def test_infer_prompt_takes_one_request_id_in_several_directions(tmp_path):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(json_line(_REQUEST) + "\n" + json_line({**_REQUEST, "tgt_lang": "ja"}) + "\n", encoding="utf-8")
    out = tmp_path / "p.pjsonl"
    proc = run_cli("infer-prompt", "--strategy", "dt", "--in", str(reqs), "--out", str(out))
    assert json.loads(proc.stdout) == {"requests": 2, "prompts": 2}
    assert [json.loads(line)["id"] for line in out.read_text(encoding="utf-8").splitlines()] == ["q1#fr2de", "q1#fr2ja"]


@pytest.mark.parametrize(
    "strategy, src_lang, tgt_lang, problem, error, src",
    [
        ("dt", "fr", "fr", "direction with identical sides: 'fr'", "InvalidInput", "eau"),
        ("pt", "fr", "fr", "direction with identical sides: 'fr'", "InvalidInput", "eau"),
        ("pmp-o", "fr", "de", "direction fr->de does not involve a center language", "InvalidInput", "eau"),
        ("pmp-s", "fr", "de", "direction fr->de does not involve a center language", "InvalidInput", "eau"),
        ("pt", "en", "fr", "pivot strategy is undefined for en->fr", "InvalidInput", "eau"),
        ("pmp-o", "en", "bg", "item 'q1': strategy pmp-o needs a gold auxiliary sentence", "InvalidInput", "eau"),
        ("pmp-o", "en", "fr", "direction en->fr has no auxiliary language", "NoAuxiliaryDefined", "eau"),
        ("dt", "fr", "de", "item 'q1#fr2de' has an empty source", "EmptySource", ""),
    ],
)
def test_infer_prompt_unsupported_direction_names_file_and_line(
    tmp_path, scripts_dir, strategy, src_lang, tgt_lang, problem, error, src
):
    """Every refusal of a request names the file and line, and keeps its class
    and message."""
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(json_line({**_REQUEST, "src_lang": src_lang, "tgt_lang": tgt_lang, "src": src}) + "\n", encoding="utf-8")
    out = tmp_path / "p.pjsonl"
    backend = ("--backend-cmd", f"{sys.executable} {scripts_dir / 'toy_backend.py'}") if strategy in ("pt", "pmp-s") else ()
    proc = run_cli("infer-prompt", "--strategy", strategy, *backend, "--in", str(reqs), "--out", str(out), expect=1)
    assert last_error(proc) == {"error": error, "message": f"{reqs}:line 1: {problem}"}
    assert not out.exists()


def test_eval_unknown_metric_is_usage_error(data_dir):
    records = data_dir / "comet_bleu_records.jsonl"
    proc = run_cli("eval", "--records", str(records), "--metric", "chrF", expect=2)
    assert "invalid choice: 'chrF'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_metric_choices_are_the_evaluation_metrics():
    from mmtkit.cli import EVAL_METRICS
    from mmtkit.evaluation import METRICS

    assert EVAL_METRICS == METRICS


_BACKEND = ("--backend-cmd", "touch MARKER")


@pytest.mark.parametrize(
    "args, message",
    [
        (("synth", "--mode", "pivot", "--direction", "en2de", *_BACKEND), "--direction is only for direct synthesis"),
        (("infer-prompt", "--strategy", "dt", *_BACKEND), "--backend-cmd is only for strategies pt and pmp-s"),
        (("infer-prompt", "--strategy", "pmp-o", *_BACKEND), "--backend-cmd is only for strategies pt and pmp-s"),
        (("infer-prompt", "--strategy", "pt"), "strategy pt requires --backend-cmd"),
        (("infer-prompt", "--strategy", "pmp-s"), "strategy pmp-s requires --backend-cmd"),
    ],
    ids=["synth-pivot-direction", "dt-backend-cmd", "pmp-o-backend-cmd", "pt-no-backend", "pmp-s-no-backend"],
)
def test_option_with_no_effect_is_refused_before_reading(tmp_path, args, message):
    """An option with no effect, or a backend a strategy needs and lacks, is
    refused before the input is read (it is not JSON) and before any backend
    starts (it would create the marker file)."""
    src = tmp_path / "in.jsonl"
    src.write_text("{broken\n", encoding="utf-8")
    marker = tmp_path / "started"
    out = tmp_path / "o"
    args = [a.replace("MARKER", str(marker)) for a in args]
    proc = run_cli(*args, "--in", str(src), "--out", str(out), expect=1)
    assert last_error(proc) == {"error": "RecordParseError", "message": message}
    assert not marker.exists()
    assert not out.exists()


def test_strategy_choices_are_the_inference_strategies():
    from mmtkit.cli import INFERENCE_STRATEGIES
    from mmtkit.prompts import InferenceStrategy

    assert list(INFERENCE_STRATEGIES) == [s.value for s in InferenceStrategy]


def _imported(*args):
    """Names of the modules `python -S -X importtime *args` imports that a bare
    interpreter does not. -S, on both sides, keeps site-packages hooks from
    importing a module at start-up, which would hide that the stage imports it."""
    def names(*argv):
        proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}

    return names(*args) - names("-c", "pass")


_STAGE_ONLY = {"expand": {"directions"}, "downsample": {"downsampling"}, "filter": {"filtering"},
               "diagnose": {"diagnostics", "downsampling"}}


@pytest.mark.parametrize("command", sorted(_STAGE_ONLY))
def test_stage_imports_only_the_modules_it_runs(tmp_path, command):
    src = tmp_path / "in.jsonl"
    src.write_text("", encoding="utf-8")
    loaded = _imported("-m", "mmtkit", command, "--in", str(src), "--out", str(tmp_path / "o"))
    ours = {name.removeprefix("mmtkit.") for name in loaded if name.startswith("mmtkit.")}
    assert ours == {"cli", "errors", "hashing", "records", "registry"} | _STAGE_ONLY[command]
    assert "subprocess" not in loaded
    # expand reads the built-in registry through importlib.resources; the others read no registry.
    assert ("importlib.resources" in loaded) == (command == "expand")


@pytest.mark.parametrize(
    "args",
    [
        ("validate",),
        ("expand", "--in", "IN", "--out", "OUT"),
        ("downsample", "--in", "IN", "--out", "OUT"),
        ("filter", "--in", "IN", "--out", "OUT"),
        ("diagnose", "--in", "IN", "--out", "OUT"),
        ("mix", "--in", "IN", "--out", "OUT"),
        ("score", "--scorer-cmd", "SCORER", "--in", "IN", "--out", "OUT"),
        ("synth", "--mode", "direct", "--direction", "en2fr", "--backend-cmd", "BACKEND", "--in", "IN", "--out", "OUT"),
        ("synth", "--mode", "pivot", "--backend-cmd", "BACKEND", "--in", "IN", "--out", "OUT"),
        ("infer-prompt", "--strategy", "pmp-s", "--backend-cmd", "BACKEND", "--in", "IN", "--out", "OUT"),
        ("eval", "--records", "IN"),
    ],
    ids=lambda args: "-".join(args[:3:2]) if args[0] == "synth" else args[0],
)
def test_no_stage_imports_dataclasses_or_inspect(tmp_path, scripts_dir, args):
    """The record, value and report classes are plain slots classes, so no
    stage pays for dataclasses and the inspect, ast and tokenize it imports."""
    src = tmp_path / "in.jsonl"
    src.write_text("", encoding="utf-8")
    swap = {"IN": str(src), "OUT": str(tmp_path / "o"),
            "SCORER": f"{sys.executable} {scripts_dir / 'toy_scorer.py'}",
            "BACKEND": f"{sys.executable} {scripts_dir / 'toy_backend.py'}"}
    loaded = _imported("-m", "mmtkit", *(swap.get(a, a) for a in args))
    assert loaded & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize(
    "args, absent",
    [
        (("synth", "--mode", "direct", "--direction", "en2fr", "--backend-cmd", "TOY"), {"mmtkit.prompts"}),
        (("infer-prompt", "--strategy", "dt"), {"mmtkit.synthesis", "mmtkit.backends", "subprocess"}),
        (("infer-prompt", "--strategy", "pmp-o"), {"mmtkit.synthesis", "mmtkit.backends", "subprocess"}),
        (("mix",), {"mmtkit.backends", "subprocess"}),
    ],
    ids=["synth", "infer-prompt-dt", "infer-prompt-pmp-o", "mix"],
)
def test_stage_skips_the_modules_it_does_not_run(tmp_path, scripts_dir, args, absent):
    src = tmp_path / "in.jsonl"
    src.write_text("", encoding="utf-8")
    toy = f"{sys.executable} {scripts_dir / 'toy_backend.py'}"
    args = [toy if a == "TOY" else a for a in args]
    loaded = _imported("-m", "mmtkit", *args, "--in", str(src), "--out", str(tmp_path / "o"))
    assert loaded & absent == set()


def test_help_imports_no_stage_module():
    loaded = _imported("-m", "mmtkit", "--help")
    ours = {name for name in loaded if name.startswith("mmtkit")}
    assert ours == {"mmtkit", "mmtkit.cli", "mmtkit.errors", "mmtkit.hashing"}


def test_mix_help_states_each_mixture_default():
    from mmtkit.cli import build_parser
    from mmtkit.mixture import MixtureSpec

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    stated = {}
    for action in sub.choices["mix"]._actions:
        if action.dest in MixtureSpec.__match_args__:
            meaning, default = re.fullmatch(r"(.+) \(default ([^)]+)\)", action.help).groups()
            assert len(meaning.split()) >= 3
            stated[action.dest] = float(default)
    defaults = MixtureSpec()
    assert stated == {name: getattr(defaults, name) for name in MixtureSpec.__match_args__}


def test_readme_names_every_subcommand_option_and_no_other(scripts_dir):
    from mmtkit.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings if o.startswith("--")}
    readme = (scripts_dir.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
    # --version belongs to the top-level parser, --no-build-isolation to pip.
    assert named - {"--version", "--no-build-isolation"} == options - {"--help"}


def test_readme_module_table_names_every_module_and_no_other(scripts_dir):
    package = scripts_dir.parent / "src" / "mmtkit"
    modules = {f"mmtkit.{path.stem}" for path in package.glob("*.py")} - {"mmtkit.__init__", "mmtkit.__main__"}
    readme = (scripts_dir.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(mmtkit\.\w+)` \|", readme, re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == modules


def test_filter_and_diagnose_load_no_openssl(tmp_path):
    # hashlib imports OpenSSL's _hashlib, a few MB of RSS per process; the
    # stages take their digests from CPython's built-in modules instead.
    corpus, djsonl = write_corpus(tmp_path / "c.mwjsonl"), tmp_path / "c.djsonl"
    run_cli("expand", "--in", str(corpus), "--out", str(djsonl))
    script = (
        "import sys\n"
        "from mmtkit.cli import main\n"
        "args, out = sys.argv[1], sys.argv[2]\n"
        "assert main(['filter', '--in', args, '--out', out + '.f']) == 0\n"
        "assert main(['diagnose', '--in', out + '.f', '--out', out + '.json']) == 0\n"
        "assert main(['diagnose', '--p', '0.5', '--in', args]) == 0\n"
        "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(djsonl), str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"
    assert json.loads((tmp_path / "o.json").read_text(encoding="utf-8"))["distinct_targets"] > 0


def test_mix_and_synth_warn_without_logging(tmp_path, scripts_dir):
    # logging costs each of these stages about 10 ms of start-up; their
    # warnings are plain stderr lines. Both runs below warn.
    corpus, mono = write_corpus(tmp_path / "c.mwjsonl"), tmp_path / "mono.jsonl"
    mono.write_text("".join(json_line({"id": f"m{i}", "text": f"line {i}" if i else ""}) + "\n" for i in range(20)),
                    encoding="utf-8")
    script = (
        "import sys\n"
        "from mmtkit.cli import main\n"
        "corpus, mono, backend, out = sys.argv[1:]\n"
        "assert main(['mix', '--in', corpus, '--out', out + '.mix']) == 0\n"
        "assert main(['synth', '--mode', 'direct', '--direction', 'en2sw', '--backend-cmd', backend,\n"
        "             '--in', mono, '--out', out + '.syn']) == 0\n"
        "print('logging' in sys.modules)\n"
    )
    backend = f"{sys.executable} {scripts_dir / 'toy_backend.py'}"
    proc = subprocess.run([sys.executable, "-c", script, str(corpus), str(mono), backend, str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    warnings = proc.stderr.splitlines()
    assert [w.split(":")[0] for w in warnings] == ["WARNING mmtkit.mixture", "WARNING mmtkit.synthesis"]
    assert warnings[1] == "WARNING mmtkit.synthesis: synth_direct en->sw: skipping item m0: empty source text"


def test_filter_lone_surrogate_in_a_later_batch_exits_1(tmp_path):
    # Line 70 falls in write_jsonl's second batch, after the first was written.
    inp, out = tmp_path / "p.djsonl", tmp_path / "o.djsonl"
    lines = []
    for i in range(1, 101):
        src = "hi \\ud800 there" if i == 70 else f"source words {i}"
        lines.append(f'{{"id": "r{i}#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "{src}", "tgt": "mots {i}"}}\n')
    inp.write_text("".join(lines), encoding="utf-8")
    proc = run_cli("filter", "--in", str(inp), "--out", str(out), expect=1)
    assert last_error(proc) == {"error": "RecordParseError",
                                "message": f"{inp}:line 70: text with no UTF-8 form (a lone surrogate escape)"}
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    assert os.listdir(tmp_path) == ["p.djsonl"]
