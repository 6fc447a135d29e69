#!/usr/bin/env python3
"""End-to-end pipeline demo against the toy corpus and toy subprocess tools.

Runs: corpus generation, expansion, downsampling, scoring, filtering,
mixture building, diagnostics, and inference prompts under each strategy,
all through the CLI, inside one directory. Prints each command and its
one-line summary.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def run(cmd: list[str]) -> None:
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, text=True, capture_output=True)
    if proc.stdout:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)


def main() -> int:
    workdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
    workdir.mkdir(parents=True, exist_ok=True)
    py = sys.executable
    corpus = workdir / "toy.mwjsonl"
    expanded = workdir / "toy.djsonl"
    kept = workdir / "toy.kept.djsonl"
    sidecar = workdir / "toy.scores.jsonl"
    filtered = workdir / "toy.filtered.sjsonl"
    mixture = workdir / "toy.pjsonl"
    report = workdir / "toy.repetition.json"
    en_bg = workdir / "requests.en2bg.jsonl"
    fr_de = workdir / "requests.fr2de.jsonl"

    run([py, str(HERE / "make_toy_corpus.py"), "--out", str(corpus), "--records", "200"])
    run([py, "-m", "mmtkit", "expand", "--in", str(corpus), "--out", str(expanded)])
    run([py, "-m", "mmtkit", "downsample", "--in", str(expanded), "--out", str(kept), "--p", "0.05"])
    run([py, "-m", "mmtkit", "score", "--in", str(kept), "--scorer-cmd", f"{py} {HERE / 'toy_scorer.py'}", "--out", str(sidecar)])
    run([py, "-m", "mmtkit", "filter", "--in", str(kept), "--scores", str(sidecar), "--tau", "0.3", "--out", str(filtered)])
    run([py, "-m", "mmtkit", "mix", "--in", str(corpus), "--out", str(mixture), "--per-direction-min", "10", "--per-direction-max", "50"])
    run([py, "-m", "mmtkit", "diagnose", "--in", str(expanded), "--p", "0.05", "--out", str(report)])

    # Requests from the first 5 records: en->bg with its gold auxiliary (ru),
    # and fr->de, which pivots through en.
    with open(corpus, encoding="utf-8") as f:
        records = [json.loads(line) for _, line in zip(range(5), f)]
    for path, src, tgt, aux in ((en_bg, "en", "bg", "ru"), (fr_de, "fr", "de", None)):
        with open(path, "w", encoding="utf-8") as f:
            for rec in records:
                req = {"id": rec["id"], "src_lang": src, "tgt_lang": tgt, "src": rec["sentences"][src]}
                if aux:
                    req["aux"] = rec["sentences"][aux]
                f.write(json.dumps(req, ensure_ascii=False) + "\n")
    toy_backend = ["--backend-cmd", f"{py} {HERE / 'toy_backend.py'}"]
    for strategy, requests, extra in (
        ("dt", en_bg, []),
        ("pmp-o", en_bg, []),
        ("pmp-s", en_bg, toy_backend),
        ("pt", fr_de, toy_backend),
    ):
        out = workdir / f"prompts.{strategy}.pjsonl"
        run([py, "-m", "mmtkit", "infer-prompt", "--strategy", strategy, "--in", str(requests), "--out", str(out), *extra])
    print(f"artifacts in {workdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
