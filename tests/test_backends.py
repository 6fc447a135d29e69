"""Backend contracts: in-process mocks and the line-protocol subprocess."""
from __future__ import annotations

import json
import signal
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import any_text
from mmtkit import backends
from mmtkit.backends import (
    WINDOW,
    Backend,
    BackendItemError,
    DictionaryBackend,
    IdentityBackend,
    SubprocessBackend,
    SubprocessScorer,
)
from mmtkit.directions import Direction
from mmtkit.errors import BackendError
from mmtkit.synthesis import synth_direct, synth_pivot


def backend_cmd(scripts_dir, *extra):
    return " ".join([sys.executable, str(scripts_dir / "toy_backend.py"), *extra])


def scorer_cmd(scripts_dir, *extra):
    return " ".join([sys.executable, str(scripts_dir / "toy_scorer.py"), *extra])


def test_identity_backend():
    with IdentityBackend() as b:
        assert b.translate("i", "en", "fr", "unchanged") == "unchanged"


def test_dictionary_backend():
    b = DictionaryBackend({("en", "zh"): {"water": "水", "good": "好"}})
    assert b.translate("i", "en", "zh", "good water") == "好 水"
    with pytest.raises(BackendItemError):
        b.translate("i", "en", "zh", "unknown")
    with pytest.raises(BackendItemError):
        b.translate("i", "en", "fr", "water")


def test_subprocess_backend_translates(scripts_dir):
    with SubprocessBackend(backend_cmd(scripts_dir)) as b:
        assert b.translate("a", "en", "fr", "hello") == "[fr] hello"
        assert b.translate("b", "en", "zh", "héllo 你好") == "[zh] héllo 你好"


def test_subprocess_backend_item_error(scripts_dir):
    with SubprocessBackend(backend_cmd(scripts_dir, "--fail-substring", "BAD")) as b:
        assert b.translate("a", "en", "fr", "fine") == "[fr] fine"
        with pytest.raises(BackendItemError):
            b.translate("b", "en", "fr", "this is BAD text")
        # stream still healthy after an item error
        assert b.translate("c", "en", "fr", "fine again") == "[fr] fine again"


def test_subprocess_backend_crash_is_transport_error(scripts_dir):
    with SubprocessBackend(backend_cmd(scripts_dir, "--crash-after", "1")) as b:
        assert b.translate("a", "en", "fr", "one") == "[fr] one"
        with pytest.raises(BackendError):
            b.translate("b", "en", "fr", "two")


def test_subprocess_backend_spawn_failure():
    with pytest.raises(BackendError):
        SubprocessBackend("definitely-not-a-command-xyz")


def test_subprocess_backend_id_mismatch(tmp_path):
    bad = tmp_path / "bad_backend.py"
    bad.write_text(
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'id': 'wrong', 'text': 'x'}), flush=True)\n",
        encoding="utf-8",
    )
    with SubprocessBackend(f"{sys.executable} {bad}") as b:
        with pytest.raises(BackendError) as exc:
            b.translate("a", "en", "fr", "t")
        assert "mismatch" in str(exc.value)


def test_subprocess_backend_invalid_json(tmp_path):
    bad = tmp_path / "garbled.py"
    bad.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    print('not json', flush=True)\n",
        encoding="utf-8",
    )
    with SubprocessBackend(f"{sys.executable} {bad}") as b:
        with pytest.raises(BackendError):
            b.translate("a", "en", "fr", "t")


def test_subprocess_scorer(scripts_dir):
    from mmtkit.hashing import fnv1a64

    with SubprocessScorer(scorer_cmd(scripts_dir)) as s:
        v1 = s.score("a", "en", "fr", "hello", "bonjour")
        v2 = s.score("b", "en", "fr", "hello", "bonjour")
    assert v1 == v2
    assert 0.0 <= v1 <= 1.0
    # the toy scorer hashes "src\x1ftgt" into [0, 1)
    assert v1 == fnv1a64("hello\x1fbonjour".encode("utf-8")) / 2.0**64


def test_subprocess_scorer_stream(scripts_dir, mk_example):
    pairs = [mk_example(f"p{i}", src=f"s{i}", tgt=f"t{i}") for i in range(5)]
    with SubprocessScorer(scorer_cmd(scripts_dir)) as s:
        out = list(s.score_stream(pairs))
    assert [i for i, _ in out] == [f"p{i}" for i in range(5)]
    assert all(0.0 <= v <= 1.0 for _, v in out)


def test_subprocess_scorer_item_error_is_hard(scripts_dir):
    with SubprocessScorer(scorer_cmd(scripts_dir, "--fail-substring", "BAD")) as s:
        with pytest.raises(BackendError):
            s.score("a", "en", "fr", "BAD src", "tgt")


def test_close_terminates_process(scripts_dir):
    b = SubprocessBackend(backend_cmd(scripts_dir))
    proc = b.client.proc
    b.close()
    assert proc.poll() is not None


class Lockstep(Backend):
    """A wrapper without send_ahead: every translate is one round trip."""

    def __init__(self, inner):
        self.inner = inner

    def translate(self, item_id, src_lang, tgt_lang, text):
        return self.inner.translate(item_id, src_lang, tgt_lang, text)

    def close(self):
        self.inner.close()


def consume(stream):
    """Outputs of a synthesis stream and the error that ended it, if any."""
    out = []
    try:
        for ex in stream:
            out.append(ex)
    except BackendError as e:
        return out, str(e)
    return out, None


def write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("import json, sys\n" + body, encoding="utf-8")
    return f"{sys.executable} {path}"


def test_pipelined_synthesis_matches_lockstep(scripts_dir, mk_example):
    cmd = backend_cmd(scripts_dir, "--fail-every", "7")
    n = 3 * WINDOW + 5
    # every 10th text is empty: a failure that sends no request
    mono = [(f"m{i}", "" if i % 10 == 9 else f"text {i}") for i in range(n)]
    pairs = [
        mk_example(f"p{i}", "en", "fr", f"en {i}", f"fr {i}")
        if i % 2
        else mk_example(f"p{i}", "de", "en", f"de {i}", f"en {i}")
        for i in range(n)
    ]
    for synth in (
        lambda b: synth_direct(mono, b, Direction("en", "fr")),
        lambda b: synth_pivot(pairs, b),
    ):
        with SubprocessBackend(cmd) as b:
            pipelined = consume(synth(b))
        with Lockstep(SubprocessBackend(cmd)) as b:
            lockstep = consume(synth(b))
        assert pipelined == lockstep
        outputs, error = pipelined
        assert len(outputs) > WINDOW
        # 1 in 7 backend failures (plus the empty texts) is over the 10% budget
        assert error is not None and "items failed" in error


def test_pipelined_scores_match_lockstep(scripts_dir, mk_example, monkeypatch):
    pairs = [mk_example(f"p{i}", src=f"s{i}", tgt=f"t{i}") for i in range(2 * WINDOW + 3)]
    built = []
    build = backends._score_request
    monkeypatch.setattr(backends, "_score_request", lambda *args: built.append(args[0]) or build(*args))
    with SubprocessScorer(scorer_cmd(scripts_dir)) as s:
        pipelined = list(s.score_stream(pairs))
    # Each request is built once, when it is sent ahead.
    assert built == [ex.id for ex in pairs]
    with SubprocessScorer(scorer_cmd(scripts_dir)) as s:
        lockstep = [(ex.id, s.score(ex.id, ex.src_lang, ex.tgt_lang, ex.src, ex.tgt)) for ex in pairs]
    assert pipelined == lockstep


def test_each_translation_request_is_built_once(scripts_dir, monkeypatch):
    # every 20th text is empty: skipped without a request
    mono = [(f"m{i}", "" if i % 20 == 3 else f"text {i}") for i in range(2 * WINDOW + 3)]
    built = []
    build = backends._translation_request
    monkeypatch.setattr(backends, "_translation_request", lambda *args: built.append(args[0]) or build(*args))
    with SubprocessBackend(backend_cmd(scripts_dir)) as b:
        out = list(synth_direct(mono, b, Direction("en", "fr")))
        # Each request is built once, when it is sent ahead.
        assert built == [item_id for item_id, text in mono if text]
        assert len(out) == len(built)
        built.clear()
        # A lockstep call builds its request when it reads the response.
        assert b.translate("lone", "en", "fr", "hello") == "[fr] hello"
    assert built == ["lone"]


def test_crash_inside_window_is_transport_error(scripts_dir):
    items = [(f"m{i}", f"text {i}") for i in range(2 * WINDOW)]
    done = []
    with SubprocessBackend(backend_cmd(scripts_dir, "--crash-after", "70")) as b:
        with pytest.raises(BackendError) as exc:
            for item_id, text in b.send_ahead(items, lambda it: (it[0], "en", "fr", it[1])):
                done.append(b.translate(item_id, "en", "fr", text))
    assert len(done) == 70
    assert "m70" in str(exc.value)


def test_wrong_id_inside_window_is_mismatch(tmp_path):
    cmd = write_script(
        tmp_path,
        "wrong40.py",
        "for n, line in enumerate(sys.stdin, 1):\n"
        "    req = json.loads(line)\n"
        "    rid = 'wrong' if n == 40 else req['id']\n"
        "    print(json.dumps({'id': rid, 'text': req['text']}), flush=True)\n",
    )
    items = [(f"m{i}", f"text {i}") for i in range(WINDOW + 10)]
    done = []
    with SubprocessBackend(cmd) as b:
        with pytest.raises(BackendError) as exc:
            for item_id, text in b.send_ahead(items, lambda it: (it[0], "en", "fr", it[1])):
                done.append(b.translate(item_id, "en", "fr", text))
    assert len(done) == 39
    assert "mismatch" in str(exc.value) and "'m39'" in str(exc.value)


def test_large_texts_do_not_deadlock_the_pipes(scripts_dir, monkeypatch):
    monkeypatch.setattr(backends, "RESPONSE_TIMEOUT_S", 10.0)
    # 64 requests of 20 KB in flight are far more than both pipe buffers hold
    items = [(f"m{i}", f"{i} " + "x" * 20_000) for i in range(200)]
    start = time.monotonic()
    with SubprocessBackend(backend_cmd(scripts_dir)) as b:
        out = [
            b.translate(item_id, "en", "fr", text)
            for item_id, text in b.send_ahead(items, lambda it: (it[0], "en", "fr", it[1]))
        ]
    assert out == [f"[fr] {text}" for _, text in items]
    assert time.monotonic() - start < 10.0


def test_silent_backend_is_killed_after_the_deadline(monkeypatch):
    monkeypatch.setattr(backends, "RESPONSE_TIMEOUT_S", 0.5)
    b = SubprocessBackend("sleep 1000")
    start = time.monotonic()
    with pytest.raises(BackendError) as exc:
        b.translate("a", "en", "fr", "t")
    assert 0.5 <= time.monotonic() - start < 5.0
    assert "sleep 1000" in str(exc.value)
    assert b.client.proc.poll() is not None
    b.close()


def test_invalid_utf8_response_names_the_command(tmp_path):
    cmd = write_script(
        tmp_path,
        "latin1.py",
        "for line in sys.stdin:\n"
        "    sys.stdout.buffer.write(b'{\"id\": \"a\", \"text\": \"\\xff\"}\\n')\n"
        "    sys.stdout.flush()\n",
    )
    with SubprocessBackend(cmd) as b:
        with pytest.raises(BackendError) as exc:
            b.translate("a", "en", "fr", "t")
    assert "latin1.py" in str(exc.value) and "UTF-8" in str(exc.value)


def test_close_after_abort_does_not_wait_for_a_blocked_backend(tmp_path):
    cmd = write_script(
        tmp_path,
        "verbose.py",
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'id': req['id'], 'text': 'x' * 200_000}), flush=True)\n",
    )
    items = [(f"m{i}", "t") for i in range(WINDOW)]
    b = SubprocessBackend(cmd)
    stream = b.send_ahead(items, lambda it: (it[0], "en", "fr", it[1]))
    item_id, text = next(stream)
    b.translate(item_id, "en", "fr", text)
    time.sleep(0.5)  # the backend blocks writing its next unread response
    assert b.client.proc.poll() is None
    start = time.monotonic()
    b.close()
    assert time.monotonic() - start < 5.0
    assert b.client.proc.poll() is not None


def test_close_reaps_the_backend_when_it_exits(scripts_dir, monkeypatch):
    # Popen.wait(timeout) polls between sleeps; close must wait on the exit itself.
    b = SubprocessBackend(backend_cmd(scripts_dir))
    assert b.translate("a", "en", "fr", "t") == "[fr] t"

    def no_sleep(seconds):
        raise AssertionError(f"close slept {seconds} s instead of waiting on the exit")

    monkeypatch.setattr(time, "sleep", no_sleep)
    b.close()
    assert b.client.proc.returncode == 0


def test_backend_that_ignores_eof_is_killed_at_the_close_deadline(monkeypatch):
    monkeypatch.setattr(backends, "CLOSE_TIMEOUT_S", 0.5)
    b = SubprocessBackend("sleep 1000")
    start = time.monotonic()
    b.close()
    assert 0.5 <= time.monotonic() - start < 5.0
    assert b.client.proc.returncode == -signal.SIGKILL


# Reference builders: each request as a dict through the JSON encoder.
def reference_translation_request(item_id, src_lang, tgt_lang, text):
    obj = {"id": item_id, "src_lang": src_lang, "tgt_lang": tgt_lang, "text": text}
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


def reference_score_request(item_id, src_lang, tgt_lang, src, tgt):
    obj = {"id": item_id, "src_lang": src_lang, "tgt_lang": tgt_lang, "src": src, "tgt": tgt}
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


@given(any_text, any_text, any_text, any_text, any_text)
def test_request_lines_equal_the_reference(item_id, src_lang, tgt_lang, src, tgt):
    line = backends._translation_request(item_id, src_lang, tgt_lang, src)
    assert line == reference_translation_request(item_id, src_lang, tgt_lang, src)
    line = backends._score_request(item_id, src_lang, tgt_lang, src, tgt)
    assert line == reference_score_request(item_id, src_lang, tgt_lang, src, tgt)


@pytest.mark.parametrize("text", ["\ud800", "café \U0001f600 \"q\" \udfff tail"])
def test_lone_surrogate_request_fails_at_its_position_in_the_reference_line(scripts_dir, text):
    with pytest.raises(UnicodeEncodeError) as reference:
        reference_translation_request("a", "en", "fr", text).encode("utf-8")
    with SubprocessBackend(backend_cmd(scripts_dir)) as b:
        with pytest.raises(UnicodeEncodeError) as exc:
            b.translate("a", "en", "fr", text)
        # Nothing was queued: the client still answers the next request.
        assert b.translate("b", "en", "fr", "ok") == "[fr] ok"
    assert (str(exc.value), exc.value.start) == (str(reference.value), reference.value.start)
