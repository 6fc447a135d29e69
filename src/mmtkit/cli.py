"""Command-line front end.

Subcommands wire the library into file-to-file pipeline stages. Data flows
through files (or stdout for tables); logs go to stderr; each mutating
command prints a one-line JSON summary to stdout. Exit codes: 0 success,
1 data error (with a JSON error line on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys

from . import __version__
from .backends import SubprocessBackend, SubprocessScorer
from .diagnostics import render_histogram, repetition_after_policy, target_repetition_stats
from .directions import Direction, enumerate_directions, expand
from .downsampling import DownsampleStats, RetentionPolicy, downsample
from .errors import RecordParseError, ToolkitError
from .evaluation import aggregate, read_eval_records, render_table
from .filtering import (
    apply_heuristics,
    attach_scores,
    default_rules,
    rules_from_config,
    score_histogram,
    threshold_filter,
)
from .mixture import MixtureSpec, build_sft_mixture
from .prompts import write_prompted
from .records import (
    read_examples,
    read_multiway,
    read_score_sidecar,
    write_examples,
    write_score_sidecar,
    write_scored,
)
from .registry import load_registry, parse_json_lines
from .synthesis import InferenceStrategy, build_inference_prompt, synth_direct, synth_pivot

log = logging.getLogger("mmtkit")

DEFAULT_SEED = 42


def _load_registry(args) -> "Registry":
    lang_path = None if args.registry == "builtin" else args.registry
    return load_registry(lang_path, args.auxiliaries)


def _seed(args, config: dict | None = None) -> int:
    if args.seed is not None:
        return args.seed
    if config and "seed" in config:
        return int(config["seed"])
    return DEFAULT_SEED


def _summary(obj: dict) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def _parse_direction(text: str) -> Direction:
    src, sep, tgt = text.partition("2")
    if not sep or not src or not tgt:
        raise RecordParseError(f"direction must look like 'en2fr', got {text!r}")
    return Direction(src, tgt)


def cmd_validate(args) -> int:
    registry = _load_registry(args)
    dirset = enumerate_directions(registry)
    print(f"{len(registry)} languages, {dirset.direction_count} directions")
    return 0


def cmd_expand(args) -> int:
    registry = _load_registry(args)
    dirset = enumerate_directions(registry)
    n_records = n_examples = 0
    with open(args.infile, encoding="utf-8") as fin, open(args.out, "w", encoding="utf-8") as fout:
        for record in read_multiway(fin, registry, path=args.infile):
            n_records += 1
            n_examples += write_examples(expand(record, dirset), fout)
    _summary({"records": n_records, "examples": n_examples})
    return 0


def cmd_downsample(args) -> int:
    policy = RetentionPolicy(p_reverse=args.p, seed=_seed(args))
    stats = DownsampleStats()
    with open(args.infile, encoding="utf-8") as fin, open(args.out, "w", encoding="utf-8") as fout:
        write_examples(downsample(read_examples(fin, path=args.infile), policy, stats), fout)
    _summary(stats.as_dict())
    return 0


def cmd_mix(args) -> int:
    registry = _load_registry(args)
    dirset = enumerate_directions(registry)
    config = {}
    if args.spec:
        with open(args.spec, encoding="utf-8") as f:
            config = json.load(f)
    overrides = {
        "per_direction_min": args.per_direction_min,
        "per_direction_max": args.per_direction_max,
        "forward_pmp_share": args.forward_pmp_share,
        "reverse_total_retention": args.reverse_retention,
        "reverse_pmp_share_of_retained": args.reverse_pmp_share,
    }
    for key, val in overrides.items():
        if val is not None:
            config[key] = val
    config["seed"] = _seed(args, config)
    spec = MixtureSpec.from_json(config)

    scores = None
    if args.scores:
        with open(args.scores, encoding="utf-8") as f:
            scores = read_score_sidecar(f, path=args.scores)

    with open(args.infile, encoding="utf-8") as fin:
        records = read_multiway(fin, registry, path=args.infile)
        prompted, report = build_sft_mixture(records, registry, dirset, spec, scores=scores)
    with open(args.out, "w", encoding="utf-8") as fout:
        write_prompted(prompted, fout)
    _summary({"emitted": report.emitted, "directions": len(report.per_direction), "warnings": len(report.warnings)})
    return 0


def cmd_filter(args) -> int:
    if args.tau is not None and not args.scores:
        raise RecordParseError("--tau requires --scores")
    rules = default_rules()
    if args.rules:
        with open(args.rules, encoding="utf-8") as f:
            rules = rules_from_config(json.load(f))

    with open(args.infile, encoding="utf-8") as fin, open(args.out, "w", encoding="utf-8") as fout:
        pairs = read_examples(fin, path=args.infile, validate=False)
        kept, report = apply_heuristics(pairs, rules)
        if args.scores:
            with open(args.scores, encoding="utf-8") as f:
                sidecar = read_score_sidecar(f, path=args.scores)
            scored = list(attach_scores(kept, sidecar))
            report.histogram = score_histogram(scored)
            if args.tau is not None:
                scored = list(threshold_filter(scored, args.tau))
            write_scored(scored, fout)
            out_obj = report.as_dict()
            out_obj["written"] = len(scored)
        else:
            written = write_examples(kept, fout)
            out_obj = report.as_dict()
            out_obj["written"] = written
    _summary(out_obj)
    return 0


def cmd_score(args) -> int:
    with open(args.infile, encoding="utf-8") as fin, open(args.out, "w", encoding="utf-8") as fout:
        pairs = read_examples(fin, path=args.infile)
        with SubprocessScorer(args.scorer_cmd) as scorer:
            n = write_score_sidecar(scorer.score_stream(pairs), fout)
    _summary({"scored": n})
    return 0


def cmd_synth(args) -> int:
    if args.mode == "direct" and not args.direction:
        raise RecordParseError("--direction is required for direct synthesis")
    written = n_in = 0
    with open(args.infile, encoding="utf-8") as fin, open(args.out, "w", encoding="utf-8") as fout:
        with SubprocessBackend(args.backend_cmd) as backend:
            if args.mode == "direct":
                direction = _parse_direction(args.direction)

                def mono():
                    nonlocal n_in
                    for line_no, obj in parse_json_lines(fin, args.infile):
                        if "id" not in obj or "text" not in obj:
                            raise RecordParseError("need fields 'id' and 'text'", line_no, args.infile)
                        if obj.get("lang") not in (None, direction.src):
                            raise RecordParseError(
                                f"item language {obj['lang']!r} does not match direction source "
                                f"{direction.src!r}",
                                line_no,
                                args.infile,
                            )
                        n_in += 1
                        yield obj["id"], obj["text"]

                written = write_examples(synth_direct(mono(), backend, direction), fout)
            else:
                def pairs():
                    nonlocal n_in
                    for ex in read_examples(fin, path=args.infile):
                        n_in += 1
                        yield ex

                written = write_examples(synth_pivot(pairs(), backend), fout)
    per_item = 2 if args.mode == "pivot" else 1
    _summary({"written": written, "failed": n_in - written // per_item})
    return 0


def cmd_infer_prompt(args) -> int:
    registry = _load_registry(args)
    strategy = InferenceStrategy(args.strategy)
    backend = SubprocessBackend(args.backend_cmd) if args.backend_cmd else None
    n_req = n_prompts = 0
    try:
        with open(args.infile, encoding="utf-8") as fin, open(args.out, "w", encoding="utf-8") as fout:
            for line_no, obj in parse_json_lines(fin, args.infile):
                for f in ("id", "src_lang", "tgt_lang", "src"):
                    if f not in obj:
                        raise RecordParseError(f"missing field {f!r}", line_no, args.infile)
                prompts = build_inference_prompt(
                    strategy,
                    obj["src_lang"],
                    obj["tgt_lang"],
                    obj["src"],
                    registry,
                    backend=backend,
                    aux_text=obj.get("aux"),
                    item_id=obj["id"],
                )
                n_req += 1
                n_prompts += write_prompted(prompts, fout)
    finally:
        if backend is not None:
            backend.close()
    _summary({"requests": n_req, "prompts": n_prompts})
    return 0


def cmd_eval(args) -> int:
    registry = _load_registry(args)
    overlap = None
    if args.langs:
        overlap = {code.strip() for code in args.langs.split(",") if code.strip()}
    models = None
    if args.models:
        models = [m.strip() for m in args.models.split(",") if m.strip()]
    with open(args.records, encoding="utf-8") as f:
        table = aggregate(
            read_eval_records(f, path=args.records),
            registry,
            overlap=overlap,
            metric=args.metric,
            include_center_pairs=not args.exclude_center_pairs,
            models=models,
        )
    text = render_table(table, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        _summary({"models": len(table.models), "skipped": table.skipped, "out": args.out})
    else:
        sys.stdout.write(text)
    return 0


def cmd_diagnose(args) -> int:
    with open(args.infile, encoding="utf-8") as fin:
        examples = read_examples(fin, path=args.infile)
        if args.p is not None:
            policy = RetentionPolicy(p_reverse=args.p, seed=_seed(args))
            stats = repetition_after_policy(examples, policy)
        else:
            stats = target_repetition_stats(examples)
    report = stats.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, ensure_ascii=False, indent=2)
            f.write("\n")
    sys.stdout.write(render_histogram(stats))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtkit",
        description="Corpus-engineering toolkit for bi-centric multilingual MT data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--registry", default="builtin", help="language registry: 'builtin' or a JSONL path")
    common.add_argument("--auxiliaries", default=None, help="auxiliary map JSONL path (default: builtin with builtin registry, none otherwise)")
    common.add_argument("--seed", type=int, default=None, help="seed for all hash-based decisions (default 42)")
    common.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect (every stage runs in one thread)")
    common.add_argument("-v", "--verbose", action="count", default=0, help="-v for info logs, -vv for debug")

    p = sub.add_parser("validate", parents=[common], help="load a registry and print its direction arithmetic")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("expand", parents=[common], help="expand multi-way records into directional examples")
    p.add_argument("--in", dest="infile", required=True, help="input .mwjsonl")
    p.add_argument("--out", required=True, help="output .djsonl")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("downsample", parents=[common], help="strategic downsampling of reverse examples")
    p.add_argument("--p", type=float, default=0.05, help="reverse retention probability (default 0.05)")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--out", required=True, help="output .djsonl")
    p.set_defaults(func=cmd_downsample)

    p = sub.add_parser("mix", parents=[common], help="build the SFT mixture from multi-way records")
    p.add_argument("--in", dest="infile", required=True, help="input .mwjsonl")
    p.add_argument("--out", required=True, help="output .pjsonl")
    p.add_argument("--spec", default=None, help="JSON file with mixture spec fields")
    p.add_argument("--scores", default=None, help="score sidecar for quality-descending selection")
    p.add_argument("--per-direction-min", type=int, default=None)
    p.add_argument("--per-direction-max", type=int, default=None)
    p.add_argument("--forward-pmp-share", type=float, default=None)
    p.add_argument("--reverse-retention", type=float, default=None)
    p.add_argument("--reverse-pmp-share", type=float, default=None)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("filter", parents=[common], help="heuristic cleaning and QE thresholding")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--out", required=True, help="output .djsonl (or .sjsonl with --scores)")
    p.add_argument("--rules", default=None, help="JSON rule list (default: built-in rule set)")
    p.add_argument("--scores", default=None, help="score sidecar keyed by example id")
    p.add_argument("--tau", type=float, default=None, help="keep pairs with qe_score >= tau")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("score", parents=[common], help="produce a score sidecar via an external scorer")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--scorer-cmd", required=True, help="scorer command speaking the line protocol")
    p.add_argument("--out", required=True, help="output score sidecar")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", parents=[common], help="pseudo-parallel synthesis through a backend")
    p.add_argument("--mode", choices=["direct", "pivot"], required=True)
    p.add_argument("--backend-cmd", required=True, help="translator command speaking the line protocol")
    p.add_argument("--in", dest="infile", required=True, help="monolingual jsonl (direct) or .djsonl (pivot)")
    p.add_argument("--out", required=True, help="output .djsonl")
    p.add_argument("--direction", default=None, help="direct mode: direction like en2fr")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("infer-prompt", parents=[common], help="build inference prompts with empty loss spans")
    p.add_argument("--strategy", choices=[s.value for s in InferenceStrategy], required=True)
    p.add_argument("--in", dest="infile", required=True, help="requests jsonl: id, src_lang, tgt_lang, src[, aux]")
    p.add_argument("--out", required=True, help="output .pjsonl")
    p.add_argument("--backend-cmd", default=None, help="translator command (pt and pmp-s)")
    p.set_defaults(func=cmd_infer_prompt)

    p = sub.add_parser("eval", parents=[common], help="aggregate per-direction metrics into a tier table")
    p.add_argument("--records", required=True, help="eval records jsonl")
    p.add_argument("--metric", default="COMET22", help="metric to aggregate (default COMET22)")
    p.add_argument("--models", default=None, help="comma-separated model filter and row order")
    p.add_argument("--langs", default=None, help="comma-separated overlap languages (default: whole registry)")
    p.add_argument("--exclude-center-pairs", action="store_true", help="drop en-zh records from X classes")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--out", default=None, help="write the table here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", parents=[common], help="target-repetition statistics")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--p", type=float, default=None, help="apply a retention policy before measuring")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ToolkitError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1
    except OSError as e:
        print(json.dumps({"error": "OSError", "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
