"""Command-line front end.

Subcommands wire the library into file-to-file pipeline stages. Data flows
through files (or stdout for tables); warnings go to stderr. Each stage returns
its one-line JSON summary, which main prints to stdout, or to stderr when
--out is stdout itself (None when the stage wrote a table or histogram
itself). Exit codes: 0 success, 1 data error (with a JSON error line on
stderr, also for an unreadable file, one that is not UTF-8, or a line with
a lone surrogate escape, refused at path:line N), 2 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys

from . import __version__
from .errors import DuplicateRecordId, InvalidInput, RecordParseError, ToolkitError
from .hashing import DEFAULT_SEED

# Each cmd_* imports the library modules it runs, so a stage loads only those
# and --help none. The parser spells out prompts.InferenceStrategy's values
# and evaluation.METRICS.
INFERENCE_STRATEGIES = ("dt", "pt", "pmp-o", "pmp-s")
EVAL_METRICS = ("COMET22", "SacreBLEU")


def _load_registry(args) -> "Registry":
    from .registry import load_registry

    return load_registry(None if args.registry == "builtin" else args.registry, args.auxiliaries)


def _read_rules(path: str) -> list:
    """The JSON array of a --rules file; a parse error names the file and line."""
    with open(path, encoding="utf-8") as f:
        try:
            value = json.load(f)
        except json.JSONDecodeError as e:
            raise RecordParseError(f"invalid JSON ({e.msg})", e.lineno, path) from None
    if not isinstance(value, list):
        raise RecordParseError("expected a JSON array", path=path)
    return value


def _parse_direction(text: str) -> "Direction":
    from .directions import Direction

    sides = text.split("2")
    if len(sides) != 2 or not all(sides):
        raise RecordParseError(f"direction must look like 'en2fr', got {text!r}")
    try:
        return Direction(*sides)
    except ValueError as e:
        raise RecordParseError(f"--direction: {e}") from None


# argparse names the type function in the message of a ValueError, so a value
# that does not parse is refused with the range rule instead.
def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _names(text: str) -> list[str]:
    """The comma-separated names in text, which must name at least one."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"must name at least one, got {text!r}")
    return names


# The options that name a file a stage reads; --registry builtin names none.
_INPUT_OPTIONS = ("infile", "records", "scores", "rules", "registry", "auxiliaries")


def _error_line(e: BaseException) -> str:
    """The JSON line that names e, as main prints it on stderr."""
    name = "OSError" if isinstance(e, OSError) else type(e).__name__
    return json.dumps({"error": name, "message": str(e)})


@contextlib.contextmanager
def _open_out(args):
    """Open args.out, refusing a file that one of the stage's input options
    names; a stage enters it before it reads any input. A regular file is
    replaced only if the block succeeds. Anything else (such as a FIFO or
    /dev/stdout) is written in place, and if the block fails, its last line
    is "#mmtkit error: " and the error line: no JSONL reader takes it, so a
    stage reading the stream fails at it instead of taking a clean-looking
    truncated stream."""
    path = args.out
    for name in _INPUT_OPTIONS:
        inp = getattr(args, name, None)
        if inp is None or (name == "registry" and inp == "builtin"):
            continue
        if os.path.exists(path) and os.path.samefile(path, inp):
            raise RecordParseError(f"--out {path!r} is the same file as input {inp!r}")
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as f:
            try:
                yield f
            except BaseException as e:
                # The reader may be gone; the stage's own error still wins.
                with contextlib.suppress(OSError):
                    f.write(f"#mmtkit error: {_error_line(e)}\n")
                with contextlib.suppress(OSError):
                    f.close()
                raise
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cmd_validate(args) -> None:
    from .directions import enumerate_directions

    registry = _load_registry(args)
    dirset = enumerate_directions(registry)
    print(f"{len(registry)} languages, {dirset.direction_count} directions")


def cmd_expand(args) -> dict:
    from .directions import enumerate_directions, expand_lines
    from .records import read_multiway, write_lines

    n_records = 0
    with _open_out(args) as fout:
        registry = _load_registry(args)
        dirset = enumerate_directions(registry)
        with open(args.infile, encoding="utf-8") as fin:

            def expanded():
                nonlocal n_records
                for record in read_multiway(fin, registry, path=args.infile):
                    n_records += 1
                    yield from expand_lines(record, dirset)

            n_examples = write_lines(expanded(), fout)
    return {"records": n_records, "examples": n_examples}


def cmd_downsample(args) -> dict:
    from .downsampling import DownsampleStats, RetentionPolicy, downsample
    from .records import read_examples, write_jsonl

    policy = RetentionPolicy(p_reverse=args.p, seed=args.seed)
    stats = DownsampleStats()
    with _open_out(args) as fout, open(args.infile, encoding="utf-8") as fin:
        write_jsonl(downsample(read_examples(fin, path=args.infile), policy, stats), fout)
    return stats.as_dict()


def cmd_mix(args) -> dict:
    from .directions import enumerate_directions
    from .mixture import MixtureSpec, stream_sft_mixture
    from .records import open_score_sidecar, read_multiway, write_jsonl

    # A mixture flag left out keeps MixtureSpec's default.
    given = {name: getattr(args, name) for name in MixtureSpec.__match_args__ if getattr(args, name) is not None}
    try:
        spec = MixtureSpec(**given)
    except ValueError as e:
        raise RecordParseError(f"mixture spec: {e}") from None

    with _open_out(args) as fout:
        registry = _load_registry(args)
        dirset = enumerate_directions(registry)
        with (
            open_score_sidecar(args.scores) if args.scores else contextlib.nullcontext() as scores,
            open(args.infile, encoding="utf-8") as fin,
        ):
            records = read_multiway(fin, registry, path=args.infile)
            prompted, report = stream_sft_mixture(records, registry, dirset, spec, scores=scores)
            write_jsonl(prompted, fout)
    return {"emitted": report.emitted, "directions": len(report.per_direction), "warnings": len(report.warnings)}


def cmd_filter(args) -> dict:
    from .filtering import apply_heuristics, attach_scores, count_thresholds, default_rules, rules_from_config, threshold_filter
    from .records import open_score_sidecar, read_examples, write_jsonl

    if args.tau is not None and not args.scores:
        raise RecordParseError("--tau requires --scores")
    with _open_out(args) as fout:
        rules = rules_from_config(_read_rules(args.rules)) if args.rules else default_rules()
        with (
            open(args.infile, encoding="utf-8") as fin,
            open_score_sidecar(args.scores) if args.scores else contextlib.nullcontext() as scores,
        ):
            kept, report = apply_heuristics(read_examples(fin, path=args.infile, validate=False), rules)
            if scores is not None:
                kept = count_thresholds(attach_scores(kept, scores), report)
                if args.tau is not None:
                    kept = threshold_filter(kept, args.tau)
            written = write_jsonl(kept, fout)
    return {**report.as_dict(), "written": written}


def cmd_score(args) -> dict:
    from .backends import SubprocessScorer
    from .records import read_examples, write_score_sidecar

    with (
        _open_out(args) as fout,
        open(args.infile, encoding="utf-8") as fin,
        SubprocessScorer(args.scorer_cmd) as scorer,
    ):
        n = write_score_sidecar(scorer.score_stream(read_examples(fin, path=args.infile)), fout)
    return {"scored": n}


def _read_mono(stream, path: str, lang: str):
    """(id, text) of each monolingual item. Ids are non-empty and unique, as
    the example ids made from them must be; an item's "lang", if given, must
    be lang."""
    from .records import SeenIds
    from .registry import parse_json_lines, required_fields

    seen = SeenIds()

    def item(obj: dict) -> tuple[str, str]:
        item_id, text = required_fields(obj, ("id", "text"))
        if not item_id:
            raise RecordParseError("item id must be non-empty")
        if obj.get("lang") not in (None, lang):
            raise RecordParseError(f"item language {obj['lang']!r} does not match direction source {lang!r}")
        if not seen.add(item_id):
            raise DuplicateRecordId(f"duplicate item id {item_id!r}")
        return item_id, text

    return parse_json_lines(stream, path, item)


def cmd_synth(args) -> dict:
    from .backends import SubprocessBackend
    from .records import read_examples, write_jsonl
    from .registry import CENTERS
    from .synthesis import SynthStats, synth_direct, synth_pivot

    if args.mode == "direct" and not args.direction:
        raise RecordParseError("--direction is required for direct synthesis")
    if args.mode == "pivot" and args.direction:
        raise RecordParseError("--direction is only for direct synthesis")
    direction = _parse_direction(args.direction) if args.mode == "direct" else None
    if direction is not None and direction.src not in CENTERS:
        raise InvalidInput(f"direct synthesis needs a center source, got {direction}")
    stats = SynthStats()
    with (
        _open_out(args) as fout,
        open(args.infile, encoding="utf-8") as fin,
        SubprocessBackend(args.backend_cmd) as backend,
    ):
        if direction is not None:
            synth = synth_direct(_read_mono(fin, args.infile, direction.src), backend, direction, stats)
        else:
            synth = synth_pivot(read_examples(fin, path=args.infile), backend, stats)
        written = write_jsonl(synth, fout)
    return {"written": written, "failed": stats.failed}


def cmd_infer_prompt(args) -> dict:
    from .prompts import InferenceStrategy, build_inference_prompt
    from .records import SeenIds, write_jsonl
    from .registry import parse_json_lines, required_fields

    strategy = InferenceStrategy(args.strategy)
    needs_backend = strategy in (InferenceStrategy.PT, InferenceStrategy.PMP_S)
    if args.backend_cmd and not needs_backend:
        raise RecordParseError("--backend-cmd is only for strategies pt and pmp-s")
    if needs_backend and not args.backend_cmd:
        raise RecordParseError(f"strategy {strategy.value} requires --backend-cmd")
    if args.backend_cmd:
        from .backends import SubprocessBackend

    n_req = n_prompts = 0
    with _open_out(args) as fout:
        registry = _load_registry(args)
        with (
            open(args.infile, encoding="utf-8") as fin,
            SubprocessBackend(args.backend_cmd) if args.backend_cmd else contextlib.nullcontext() as backend,
        ):
            seen = SeenIds()

            def prompts_for(obj: dict) -> list:
                item_id, src_lang, tgt_lang, src = required_fields(obj, ("id", "src_lang", "tgt_lang", "src"))
                (aux,) = required_fields(obj, ("aux",)) if "aux" in obj else (None,)
                if not item_id:
                    raise RecordParseError("request id must be non-empty")
                # A prompt id is the request id and a direction. pt's two
                # prompts pass through en, so a shared source or target repeats one.
                hops = ((src_lang, "en"), ("en", tgt_lang)) if strategy is InferenceStrategy.PT else ((src_lang, tgt_lang),)
                for a, b in hops:
                    if not seen.add(prompt_id := f"{item_id}#{a}2{b}"):
                        raise DuplicateRecordId(f"duplicate prompt id {prompt_id!r}")
                return build_inference_prompt(
                    strategy, src_lang, tgt_lang, src, registry, backend=backend, aux_text=aux, item_id=item_id
                )

            for prompts in parse_json_lines(fin, args.infile, prompts_for):
                n_req += 1
                n_prompts += write_jsonl(prompts, fout)
    return {"requests": n_req, "prompts": n_prompts}


def cmd_eval(args) -> dict | None:
    from .evaluation import aggregate, read_eval_records, render_table

    with _open_out(args) if args.out else contextlib.nullcontext(sys.stdout) as out:
        registry = _load_registry(args)
        with open(args.records, encoding="utf-8") as f:
            table = aggregate(
                read_eval_records(f, registry, path=args.records),
                registry,
                overlap=args.langs,
                metric=args.metric,
                include_center_pairs=not args.exclude_center_pairs,
                models=args.models,
            )
        out.write(render_table(table, fmt=args.format))
    if args.out:
        return {"models": len(table.models), "skipped": table.skipped, "out": args.out}
    return None


def cmd_diagnose(args) -> None:
    from .diagnostics import render_histogram, target_repetition_stats
    from .downsampling import RetentionPolicy, downsample
    from .records import read_examples

    # The histogram goes where main sends a summary: to stderr when the
    # report streams to stdout, so that it never enters the report's stream.
    histogram_file = sys.stderr if _out_is_stdout(args) else sys.stdout
    with _open_out(args) if args.out else contextlib.nullcontext() as out:
        with open(args.infile, encoding="utf-8") as fin:
            examples = read_examples(fin, path=args.infile)
            if args.p is not None:
                examples = downsample(examples, RetentionPolicy(p_reverse=args.p, seed=args.seed))
            stats = target_repetition_stats(examples)
        if out is not None:
            json.dump(stats.as_dict(), out, ensure_ascii=False, indent=2)
            out.write("\n")
    histogram_file.write(render_histogram(stats))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtkit",
        description="Corpus-engineering toolkit for bi-centric multilingual MT data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # Each subcommand takes only the parents whose options it reads.
    registry = argparse.ArgumentParser(add_help=False)
    registry.add_argument("--registry", default="builtin", help="language registry: 'builtin' or a JSONL path")
    registry.add_argument("--auxiliaries", default=None, help="auxiliary map JSONL path (default: builtin with builtin registry, none otherwise)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"seed for all hash-based decisions (default {DEFAULT_SEED})")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=_positive_int, default=1, help="accepted for compatibility; has no effect (every stage runs in one thread)")

    p = sub.add_parser("validate", parents=[registry], help="load a registry and print its direction arithmetic")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("expand", parents=[registry, workers], help="expand multi-way records into directional examples")
    p.add_argument("--in", dest="infile", required=True, help="input .mwjsonl")
    p.add_argument("--out", required=True, help="output .djsonl")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("downsample", parents=[seed, workers], help="strategic downsampling of reverse examples")
    p.add_argument("--p", type=_probability, default=0.05, help="reverse retention probability (default 0.05)")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--out", required=True, help="output .djsonl")
    p.set_defaults(func=cmd_downsample)

    p = sub.add_parser("mix", parents=[registry, seed], help="build the SFT mixture from multi-way records")
    p.add_argument("--in", dest="infile", required=True, help="input .mwjsonl")
    p.add_argument("--out", required=True, help="output .pjsonl")
    p.add_argument("--scores", default=None, help="score sidecar for quality-descending selection")
    # The defaults are MixtureSpec's, written out so that --help imports no stage module.
    p.add_argument("--per-direction-min", type=int, default=None, help="warn about a direction with fewer selected examples (default 3000)")
    p.add_argument("--per-direction-max", type=int, default=None, help="most examples selected per direction (default 20000)")
    p.add_argument("--forward-pmp-share", type=_probability, default=None, help="share of forward examples rendered with an auxiliary sentence, PMP (default 0.5)")
    p.add_argument("--reverse-retention", dest="reverse_total_retention", type=_probability, default=None,
                   help="share of selected reverse examples kept by strategic downsampling (default 0.05)")
    p.add_argument("--reverse-pmp-share", dest="reverse_pmp_share_of_retained", type=_probability, default=None,
                   help="PMP share of the kept reverse examples (default 0.5)")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("filter", parents=[workers], help="heuristic cleaning and QE thresholding")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--out", required=True, help="output .djsonl (or .sjsonl with --scores)")
    p.add_argument("--rules", default=None, help="JSON rule list (default: built-in rule set)")
    p.add_argument("--scores", default=None, help="score sidecar keyed by example id")
    p.add_argument("--tau", type=_probability, default=None, help="keep pairs with qe_score >= tau")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("score", help="produce a score sidecar via an external scorer")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--scorer-cmd", required=True, help="scorer command speaking the line protocol")
    p.add_argument("--out", required=True, help="output score sidecar")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="pseudo-parallel synthesis through a backend")
    p.add_argument("--mode", choices=["direct", "pivot"], required=True)
    p.add_argument("--backend-cmd", required=True, help="translator command speaking the line protocol")
    p.add_argument("--in", dest="infile", required=True, help="monolingual jsonl (direct) or .djsonl (pivot)")
    p.add_argument("--out", required=True, help="output .djsonl")
    p.add_argument("--direction", default=None, help="direct mode: direction like en2fr")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("infer-prompt", parents=[registry], help="build inference prompts with empty loss spans")
    p.add_argument("--strategy", choices=INFERENCE_STRATEGIES, required=True)
    p.add_argument("--in", dest="infile", required=True, help="requests jsonl: id, src_lang, tgt_lang, src[, aux]")
    p.add_argument("--out", required=True, help="output .pjsonl")
    p.add_argument("--backend-cmd", default=None, help="translator command (pt and pmp-s)")
    p.set_defaults(func=cmd_infer_prompt)

    p = sub.add_parser("eval", parents=[registry], help="aggregate per-direction metrics into a tier table")
    p.add_argument("--records", required=True, help="eval records jsonl")
    p.add_argument("--metric", choices=EVAL_METRICS, default="COMET22", help="metric to aggregate (default COMET22)")
    p.add_argument("--models", type=_names, default=None, help="comma-separated model filter and row order")
    p.add_argument("--langs", type=_names, default=None, help="comma-separated overlap languages (default: whole registry)")
    p.add_argument("--exclude-center-pairs", action="store_true", help="drop en-zh records from X classes")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--out", default=None, help="write the table here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", parents=[seed, workers], help="target-repetition statistics")
    p.add_argument("--in", dest="infile", required=True, help="input .djsonl")
    p.add_argument("--p", type=_probability, default=None, help="apply a retention policy before measuring")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_diagnose)

    return parser


def _out_is_stdout(args) -> bool:
    """Whether --out names the file stdout is, such as /dev/stdout in a pipe."""
    out = getattr(args, "out", None)
    if out is None or sys.stdout is None:
        return False
    try:
        return os.path.samestat(os.stat(out), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):
        # No such file yet, or a stdout without a file descriptor.
        return False


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The summary goes to stderr when the records stream to stdout, so that
    # it never enters the stream a next stage reads.
    summary_file = sys.stderr if _out_is_stdout(args) else sys.stdout
    # A SIGTERM becomes SystemExit(143), which unwinds the stage, so that
    # _open_out removes its temporary file and leaves no target behind.
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # only the main thread may set a handler
        previous = None
    try:
        summary = args.func(args)
    except (ToolkitError, OSError, UnicodeError) as e:
        print(_error_line(e), file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    if summary is not None:
        print(json.dumps(summary, ensure_ascii=False), file=summary_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
