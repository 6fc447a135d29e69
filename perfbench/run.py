#!/usr/bin/env python3
"""mmtkit benchmark: seeded inputs, whole CLI stage chains, checked outputs.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; mmtkit is run from ./src, with no
install step. With --trace 0 the script builds the workload's inputs from
--seed, times set-up on empty inputs, then repeats the workload's chain of
`python -m mmtkit` stages for --seconds and reports the end-to-end metrics
as medians over the repetitions, with times scaled to a reference host
speed measured by calibrate.py during the run (see perfbench/README.md). With --trace 1 it runs every workload's
chain once and then calls each layer's public functions in-process on the
same inputs, recording spans, and reports the per-layer metrics
(see perfbench/README.md). Every stage output is checked; a stage that exits
non-zero or writes a wrong output counts as failed. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads:
  pipeline     expand -> downsample --p 0.05 -> filter -> diagnose --p 0.05, --workers 1
  pipeline-w2  the same chain at --workers 2; outputs must match pipeline's bytes
  mix          mix, then mix --scores with a sidecar, cap below every direction's count
  backend      score via scripts/toy_scorer.py, synth direct and pivot via
               scripts/toy_backend.py --fail-every 20

Files go to .perfbench_out/ under the checkout root: generated inputs, stage
outputs and logs, results.json (deterministic facts apart from timings, with
machine info) and, for traced runs, spans.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Oracle, sha256_file
from inputs import count_lines, generate
from stages import HERE, ROOT, WORKLOADS, Launcher, StageRun, chain, input_files, run_chain

DEFAULT_SEED = 1
MIN_REPS = 3
# Summed wall time of CALIBRATION_RUNS runs of calibrate.py on the reference
# host (2-vCPU VM, CPython 3.11). Each repetition's times are scaled by this
# over the calibration sample taken just before them, so a slow spell of the
# host does not read as a slower program.
CALIBRATION_RUNS = 3  # calibrate.py runs per sample, like a short chain of stages
CALIBRATION_REF_S = 0.26


class Verifier:
    """Counts stage invocations and failures, checking every output.

    Outputs with a byte oracle are compared with it on every run. The others
    get the full check on their first run; later runs must then reproduce
    the first run's sha256. For the default seed, digests must also equal
    the ones committed in perfbench/digests.json."""

    def __init__(self, oracle, seed: int):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, tuple[str, bool]] = {}
        committed = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.committed = committed["outputs"] if committed["seed"] == seed else {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def setup(self, runs: list[StageRun]) -> None:
        for r in runs:
            self.attempted += 1
            if r.rc != 0:
                self.fail(f"{r.stage.name} (empty input): exit code {r.rc}")

    def outputs(self, runs: list[StageRun], reference: dict[str, str] | None = None) -> dict[str, str]:
        """Check one chain run; reference holds digests the outputs must equal."""
        digests = {}
        for r in runs:
            name = r.stage.name
            self.attempted += 1
            if r.rc != 0:
                self.fail(f"{name}: exit code {r.rc}")
                continue
            digest = digests[name] = sha256_file(r.stage.out)
            if name in self.oracle.digests or name not in self.first:
                try:
                    problems = self.oracle.check(name, r.stage.out, r.stdout, r.stage.src)
                except (ValueError, KeyError, TypeError) as e:  # malformed output, e.g. a line that is not JSON
                    problems = [f"{name}: output could not be checked: {e!r}"]
                self.first.setdefault(name, (digest, not problems))
            else:
                ref_digest, ref_ok = self.first[name]
                if not ref_ok:
                    problems = [f"{name}: same output as its first run, which failed its check"]
                else:
                    problems = [] if digest == ref_digest else [f"{name}: output differs from its first run"]
            if name in self.committed and digest != self.committed[name]:
                problems.append(f"{name}: digest differs from the committed one for this seed")
            if reference is not None and digest != reference.get(name):
                problems.append(f"{name}: output differs from the --workers 1 output")
            if problems:
                self.fail("; ".join(problems))
        return digests


def machine_info() -> dict:
    info = {"cores": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform(),
            "commit": None}
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, cwd=ROOT)
        if proc.returncode == 0:
            info["commit"] = proc.stdout.strip()
    return info


def measure(workload: str, inp, verifier: Verifier, launcher: Launcher, work: Path, seconds: float) -> tuple[dict, dict]:
    """Untraced run: chain repetitions for `seconds`, each preceded by one
    calibration sample and one set-up sample (the chain on empty inputs).
    Interleaving spreads the three series over the whole run."""
    setup_stages = chain(workload, input_files(inp, empty=True), work / "setup")
    stages = chain(workload, input_files(inp), work / "out")
    reference = None
    if workload == "pipeline-w2":
        reference = verifier.outputs(run_chain(chain("pipeline", input_files(inp), work / "reference"), launcher))
    # Warm-up, checked but not timed: bytecode compile, page cache.
    launcher.calibrate(work / "calibrate.log")
    verifier.setup(run_chain(setup_stages, launcher))
    verifier.outputs(run_chain(stages, launcher), reference)

    setup, walls, peaks, cpus, cals = [], [], [], [], []
    digests: dict = {}
    began = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - began < seconds:
        cals.append(sum(launcher.calibrate(work / "calibrate.log") for _ in range(CALIBRATION_RUNS)))
        runs = run_chain(setup_stages, launcher)
        verifier.setup(runs)
        setup.append(sum(r.wall_s for r in runs))
        runs = run_chain(stages, launcher)
        walls.append(runs[-1].end - runs[0].start)
        peaks.append(max(r.rss_mb for r in runs))
        cpus.append(sum(r.cpu_s for r in runs))
        digests = verifier.outputs(runs, reference)
    items = sum(count_lines(s.src) for s in stages)
    speed = [CALIBRATION_REF_S / c for c in cals]  # per repetition: its own calibration sample
    wall = statistics.median(w * f for w, f in zip(walls, speed))
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(s * f for s, f in zip(setup, speed)), "s"),
    }
    facts = {"digests": digests, "items": items, "reps": len(walls)}
    timings = {"raw_wall_s": walls, "peak_rss_mb": peaks, "cpu_s": cpus, "raw_setup_s": setup,
               "calibration_s": cals, "speed_factor": speed}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, {"facts": facts, "timings": timings}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/mmtkit/__main__.py", "scripts/toy_scorer.py", "scripts/toy_backend.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a mmtkit source checkout, missing {missing}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    with Launcher() as launcher:  # started before the inputs make this process large
        t0 = time.perf_counter()
        inp = generate(ROOT, work / "inputs", args.seed)
        oracle = Oracle(inp, ROOT)
        print(f"inputs for seed {args.seed}: {len(inp.records)} records, {len(oracle.expanded)} examples, "
              f"dirty rows {inp.dirty} ({time.perf_counter() - t0:.1f} s)")
        verifier = Verifier(oracle, args.seed)
        if args.trace:
            from traced import traced_run

            metrics, details = traced_run(args.workload, inp, oracle, verifier, launcher, work)
        else:
            metrics, details = measure(args.workload, inp, verifier, launcher, work, args.seconds)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        print(f"perfbench: metrics {sorted(set(metrics) ^ declared)} differ from BENCHMARK.json", file=sys.stderr)
        return 3

    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_info(),
               "attempted": verifier.attempted, "failed": verifier.failed, "problems": verifier.problems, **details,
               "metrics": metrics}
    (work / "results.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    for problem in verifier.problems:
        print(f"FAILED {problem}")
    print(f"failed_share {verifier.failed / max(1, verifier.attempted):.4f} share "
          f"({verifier.failed} of {verifier.attempted} stage runs)")
    if not args.trace:
        t = details["timings"]
        print(f"host speed factor {statistics.median(t['speed_factor']):.4f}; unscaled medians: wall_s "
              f"{statistics.median(t['raw_wall_s']):.6g} s, setup_s {statistics.median(t['raw_setup_s']):.6g} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": verifier.failed == 0, "attempted": verifier.attempted, "failed": verifier.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
