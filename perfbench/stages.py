"""Workload stage chains and the stage launcher client.

A stage is one `python -m mmtkit` invocation. Every stage runs in a process
forked by launcher.py, which reports its wall time, CPU time and peak RSS.
"""
from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from inputs import FAIL_EVERY, MIX_CAP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "pipeline-w2", "mix", "backend")


@dataclass
class Stage:
    name: str
    args: list
    out: Path
    src: Path  # the input file the stage reads


@dataclass
class StageRun:
    stage: Stage
    rc: int
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    stdout: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def backend_cmds() -> tuple[str, str]:
    py = shlex.quote(sys.executable)
    scorer = f"{py} {shlex.quote(str(ROOT / 'scripts' / 'toy_scorer.py'))}"
    backend = f"{py} {shlex.quote(str(ROOT / 'scripts' / 'toy_backend.py'))} --fail-every {FAIL_EVERY}"
    return scorer, backend


def chain(workload: str, files: dict, out: Path) -> list[Stage]:
    """The workload's stages, reading `files` and writing under `out`."""
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("pipeline", "pipeline-w2"):
        workers = ["--workers", "2" if workload == "pipeline-w2" else "1"]
        exp, ds, flt, diag = (out / n for n in ("expand.djsonl", "downsample.djsonl", "filter.djsonl", "diagnose.json"))
        return [
            Stage("expand", ["expand", "--in", files["corpus"], "--out", exp, *workers], exp, files["corpus"]),
            Stage("downsample", ["downsample", "--p", "0.05", "--in", exp, "--out", ds, *workers], ds, exp),
            Stage("filter", ["filter", "--in", ds, "--out", flt, *workers], flt, ds),
            Stage("diagnose", ["diagnose", "--p", "0.05", "--in", flt, "--out", diag, *workers], diag, flt),
        ]
    if workload == "mix":
        cap = ["--per-direction-min", "0", "--per-direction-max", str(MIX_CAP)]
        mix, mixs = out / "mix.pjsonl", out / "mix_scored.pjsonl"
        return [
            Stage("mix", ["mix", "--in", files["corpus"], "--out", mix, *cap], mix, files["corpus"]),
            Stage("mix_scored", ["mix", "--in", files["corpus"], "--scores", files["scores"], "--out", mixs, *cap],
                  mixs, files["corpus"]),
        ]
    if workload == "backend":
        scorer, backend = backend_cmds()
        sc, sd, sp = out / "scores.jsonl", out / "synth_direct.djsonl", out / "synth_pivot.djsonl"
        return [
            Stage("score", ["score", "--in", files["score_in"], "--scorer-cmd", scorer, "--out", sc], sc, files["score_in"]),
            Stage("synth_direct", ["synth", "--mode", "direct", "--direction", "en2fr", "--backend-cmd", backend,
                                   "--in", files["mono"], "--out", sd], sd, files["mono"]),
            Stage("synth_pivot", ["synth", "--mode", "pivot", "--backend-cmd", backend, "--in", files["pivot"],
                                  "--out", sp], sp, files["pivot"]),
        ]
    raise ValueError(workload)


class Launcher:
    """Client of launcher.py, the small process that runs every stage."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"  # one string-hash layout for every stage process: less run-to-run spread
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def _request(self, cmd: list[str], stdout: Path, stderr: Path) -> dict:
        req = {"cmd": cmd, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"stage launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, stage: Stage) -> StageRun:
        stdout = stage.out.with_name(stage.out.name + ".stdout")
        resp = self._request([sys.executable, "-m", "mmtkit", *map(str, stage.args)], stdout,
                             stage.out.with_name(stage.out.name + ".stderr"))
        return StageRun(stage, resp["rc"], resp["start"], resp["end"], resp["cpu_s"], resp["rss_mb"],
                        stdout.read_text(encoding="utf-8", errors="replace"))

    def calibrate(self, log: Path) -> float:
        """Wall time of one run of calibrate.py's fixed work."""
        resp = self._request([sys.executable, str(HERE / "calibrate.py")], log, log)
        if resp["rc"] != 0:
            raise RuntimeError(f"calibrate.py exited with code {resp['rc']}; see {log}")
        return resp["end"] - resp["start"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_chain(stages: list[Stage], launcher: Launcher) -> list[StageRun]:
    return [launcher.run(s) for s in stages]


def input_files(inp, empty: bool = False) -> dict:
    names = ("corpus", "scores", "score_in", "mono", "pivot")
    return {name: inp.empty if empty else getattr(inp, name) for name in names}
