"""Shared fixtures and the acceptance-line reporter.

The oracle_unit fixture is an independent reimplementation of the hash rule,
written from its definition, so hash-derived expectations in tests never
depend on the code under test. any_text is the one strategy the line-codec
property tests draw strings from.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from mmtkit.records import DirectionalExample, Provenance

settings.register_profile(
    "det",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
DATA = pathlib.Path(__file__).resolve().parent / "data"

# Every code point, with the ones a JSON string escaper treats specially drawn
# often: quote, backslash, C0 controls, DEL, U+2028/2029, lone surrogates and
# non-BMP characters; and a combining mark.
ESCAPE_CASES = '"\\\x00\x08\x1f\x7f\u2028\u2029\ud800\udfff\U0001f600\u0301'
any_text = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(ESCAPE_CASES)), max_size=20)

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211


def independent_unit(seed: int, key: str) -> float:
    """Hash coordinate in [0, 1), implemented apart from the library."""
    acc = _FNV_OFFSET
    payload = (str(seed) + ":" + key).encode("utf-8")
    for byte in payload:
        acc = ((acc ^ byte) * _FNV_PRIME) % (1 << 64)
    return acc / float(1 << 64)


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "mmtkit", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


def last_error(proc):
    return json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def registry():
    from mmtkit.registry import load_registry

    return load_registry()


@pytest.fixture(scope="session")
def dirset(registry):
    from mmtkit.directions import enumerate_directions

    return enumerate_directions(registry)


@pytest.fixture(scope="session")
def oracle_unit():
    return independent_unit


@pytest.fixture(scope="session")
def scripts_dir():
    return SCRIPTS


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def python_exe():
    return sys.executable


def make_example(
    ex_id: str = "r0#en2fr",
    src_lang: str = "en",
    tgt_lang: str = "fr",
    src: str = "source text",
    tgt: str = "texte cible",
    provenance: Provenance = Provenance.HUMAN,
) -> DirectionalExample:
    return DirectionalExample(
        id=ex_id, src_lang=src_lang, tgt_lang=tgt_lang, src=src, tgt=tgt, provenance=provenance
    )


@pytest.fixture(scope="session")
def mk_example():
    return make_example


# ---- acceptance reporter: one visible line per criterion at session end

_ACCEPTANCE: dict[str, tuple[int, str, str]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::", 1)[1]
    # test_criterion_04_downsampler_statistics -> (4, "downsampler statistics")
    parts = name.removeprefix("test_criterion_").split("_", 1)
    number = int(parts[0])
    label = parts[1].replace("_", " ") if len(parts) > 1 else name
    current = _ACCEPTANCE.get(name)
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        _ACCEPTANCE[name] = (number, label, status)
    elif report.when == "setup":
        if report.skipped:
            _ACCEPTANCE[name] = (number, label, "SKIP")
        elif report.failed:
            _ACCEPTANCE[name] = (number, label, "FAIL")
        elif current is None:
            _ACCEPTANCE[name] = (number, label, "FAIL")
    elif report.when == "teardown" and report.failed and current is not None:
        _ACCEPTANCE[name] = (number, label, "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number, label, status in sorted(_ACCEPTANCE.values()):
        terminalreporter.write_line(f"  criterion {number:2d} ({label}): {status}")
