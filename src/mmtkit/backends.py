"""Translation and scoring backends.

Neural components stay out of process. A backend is any command speaking the
line protocol: one JSON request per stdin line, one JSON response per stdout
line, same order, flushed per line, with matching "id" fields. Up to WINDOW
requests may be in flight, so a backend must answer what it has read without
waiting for more input.

  translator request  {"id", "src_lang", "tgt_lang", "text"}
  translator response {"id", "text"}  or  {"id", "error": "..."}
  scorer request      {"id", "src_lang", "tgt_lang", "src", "tgt"}
  scorer response     {"id", "qe_score"}

A client is built with its request builder, which returns the request's JSON
line (fields quoted by json_line's escaper), and every response is read by
one call, _LineProtocolClient.response(item_id, *args). It sends the request
build(item_id, *args) first only when nothing is in flight (a lockstep call);
a request sent ahead was built once, when sent.

An "error" response marks a per-item failure (the caller may skip the item);
transport problems (a command that cannot start, early exit, unparseable
output, a \\u escape of a lone surrogate, which registry.parse_json_lines
also refuses in a file, id mismatch, no output for RESPONSE_TIMEOUT_S) raise
BackendError and abort the run. Closing a client closes both pipes and
returns as soon as the backend exits, reaped by a thread blocked in wait();
a backend still running CLOSE_TIMEOUT_S after its stdin closed is killed.
In-process mock backends cover tests and offline pipelines.
"""
from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
import time
from collections import deque
from itertools import islice
# The escaper json_line uses under ensure_ascii=False: a request line quotes
# each field with it, so the line equals json_line of the request's dict.
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import BackendError
from .records import check_score
from .registry import has_lone_surrogate_escape

T = TypeVar("T")

# Most requests a client keeps in flight. 16, 64 and 256 ran the benchmark's
# backend workload equally fast; 64 keeps the look-ahead into the input short.
WINDOW = 64
# A backend that sends nothing for this long while a response is awaited is
# killed. It is generous because a model may load before its first answer.
RESPONSE_TIMEOUT_S = 300.0
# A backend still running this long after its stdin closed is killed.
CLOSE_TIMEOUT_S = 10.0
_READ_SIZE = 1 << 16


class BackendItemError(BackendError):
    """A single item failed; the stream itself is still healthy."""


class Backend:
    """Translate one text. Implementations must be deterministic to keep
    synthesis runs reproducible."""

    def translate(self, item_id: str, src_lang: str, tgt_lang: str, text: str) -> str:
        raise NotImplementedError

    def send_ahead(
        self, items: Iterable[T], to_args: Callable[[T], tuple[str, str, str, str] | None]
    ) -> Iterator[T]:
        """Yield items in order. to_args(item) gives the translate() arguments
        the caller passes for that item, or None if it makes no call; a
        pipelining backend sends those requests ahead. Here items pass through
        and every call runs in lockstep."""
        return iter(items)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class IdentityBackend(Backend):
    def translate(self, item_id: str, src_lang: str, tgt_lang: str, text: str) -> str:
        return text


class DictionaryBackend(Backend):
    """Word-by-word mapping backend for oracle tests.

    tables maps (src_lang, tgt_lang) to a word dictionary. Unknown direction
    or word raises BackendItemError, which callers count as an item failure.
    """

    def __init__(self, tables: dict[tuple[str, str], dict[str, str]]):
        self.tables = tables

    def translate(self, item_id: str, src_lang: str, tgt_lang: str, text: str) -> str:
        table = self.tables.get((src_lang, tgt_lang))
        if table is None:
            raise BackendItemError(f"no table for {src_lang}->{tgt_lang}")
        words = []
        for w in text.split():
            if w not in table:
                raise BackendItemError(f"item {item_id!r}: no {src_lang}->{tgt_lang} entry for {w!r}")
            words.append(table[w])
        return " ".join(words)


class _LineProtocolClient:
    """Pipelined line-protocol subprocess wrapper.

    Requests are queued and written in batches; responses are read in request
    order, and each id is checked against the oldest request in flight. All
    I/O runs on the raw pipe fds through one poll loop: writes never block and
    stdout is drained while writing, so large texts cannot deadlock the two
    pipes.
    """

    def __init__(self, cmd: str, build: Callable[..., str]):
        self.cmd = cmd
        self._build = build  # (item_id, *args) -> request line, newline included
        try:
            argv = shlex.split(cmd)
            if not argv:
                raise ValueError("empty command")
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        except (OSError, ValueError) as e:  # shlex raises ValueError for an unclosed quote
            raise BackendError(f"cannot start backend {cmd!r}: {e}") from None
        self._stdin = self.proc.stdin.fileno()
        self._stdout = self.proc.stdout.fileno()
        os.set_blocking(self._stdin, False)
        self._poll = select.poll()
        self._poll.register(self._stdout, select.POLLIN)
        self._polling_stdin = False
        self._unsent = bytearray()  # request bytes not yet written
        self._received = bytearray()  # response bytes not yet parsed
        self._in_flight: deque[str] = deque()  # ids sent or queued, not yet answered

    def send_ahead(self, items: Iterable[T], to_args: Callable[[T], tuple | None]) -> Iterator[T]:
        """Yield items in order, with the requests of up to WINDOW later items
        already sent. For each item whose to_args(item) is not None, the
        request build(*to_args(item)) is sent, and the caller must read its
        response by response() before the next item."""
        items = iter(items)
        ahead: deque = deque()
        while True:
            if len(ahead) <= WINDOW // 2:
                for item in islice(items, WINDOW - len(ahead)):
                    args = to_args(item)
                    if args is not None:
                        self._queue(args[0], self._build(*args))
                    ahead.append(item)
                self._write()
            if not ahead:
                return
            yield ahead.popleft()

    def response(self, item_id: str, *args) -> dict:
        """The response to the oldest request in flight, whose id must be
        item_id. With none in flight, build(item_id, *args) is sent first; a
        request sent ahead was built when it was sent."""
        if not self._in_flight:
            self._queue(item_id, self._build(item_id, *args))
            self._write()
        sent = self._in_flight.popleft()
        if sent != item_id:
            raise BackendError(f"request {item_id!r} is out of order: {sent!r} is next in flight")
        line = self._read_line(sent)
        try:
            text = line.decode("utf-8")
            resp = json.loads(text)
        except UnicodeDecodeError:
            raise BackendError(f"backend {self.cmd!r} wrote invalid UTF-8: {line[:80]!r}") from None
        except json.JSONDecodeError:
            raise BackendError(f"backend {self.cmd!r} wrote invalid JSON: {line[:80]!r}") from None
        if b"\\" in line and has_lone_surrogate_escape(text):
            raise BackendError(f"backend {self.cmd!r} wrote a lone surrogate escape: {line[:80]!r}")
        if not isinstance(resp, dict) or resp.get("id") != sent:
            raise BackendError(f"backend {self.cmd!r} response id mismatch: sent {sent!r}, got {resp!r}")
        return resp

    def _queue(self, item_id: str, line: str) -> None:
        self._unsent += line.encode("utf-8")
        self._in_flight.append(item_id)

    def _write(self) -> None:
        """Write as much of the queued requests as the pipe takes without
        blocking; poll stdin for more room while some are left."""
        while self._unsent:
            try:
                del self._unsent[: os.write(self._stdin, self._unsent)]
            except BlockingIOError:
                break
            except OSError:  # the backend closed its stdin; its missing responses will tell
                self._unsent.clear()
        if bool(self._unsent) != self._polling_stdin:
            self._polling_stdin = not self._polling_stdin
            if self._polling_stdin:
                self._poll.register(self._stdin, select.POLLOUT)
            else:
                self._poll.unregister(self._stdin)

    def _read_line(self, item_id: str) -> bytes:
        """The next response line; meanwhile, keep writing queued requests.
        Kills the backend if it sends nothing for RESPONSE_TIMEOUT_S."""
        end = self._received.find(b"\n")
        deadline = time.monotonic() + RESPONSE_TIMEOUT_S
        while end < 0:
            wait = deadline - time.monotonic()
            events = self._poll.poll(wait * 1000) if wait > 0 else []
            if not events and time.monotonic() >= deadline:
                self.proc.kill()
                self.close()
                raise BackendError(
                    f"backend {self.cmd!r} sent nothing for {RESPONSE_TIMEOUT_S:g} s "
                    f"while {item_id!r} awaited a response; killed it"
                )
            for fd, _ in events:
                if fd == self._stdin:
                    self._write()
                    continue
                chunk = os.read(self._stdout, _READ_SIZE)
                if not chunk:
                    raise BackendError(f"backend {self.cmd!r} closed its stdout before responding to {item_id!r}")
                start = len(self._received)
                self._received += chunk
                end = self._received.find(b"\n", start)
                deadline = time.monotonic() + RESPONSE_TIMEOUT_S
        line = bytes(self._received[:end])
        del self._received[: end + 1]
        return line

    def close(self) -> None:
        """Close both pipes, so a backend blocked writing unread responses gets
        EPIPE, then return as soon as it exits, killing it after
        CLOSE_TIMEOUT_S or when the wait is interrupted (a SIGTERM raises
        SystemExit in join). A thread blocked in wait() reaps it the moment
        it exits, where wait(timeout) would poll between sleeps of up to
        50 ms; the thread is a daemon, so it never holds up the
        interpreter's exit. Whether the backend was reaped is read from its
        returncode: a join cut short by an exception can mark the thread
        stopped while it still waits."""
        proc = self.proc
        proc.stdin.close()
        proc.stdout.close()
        reaper = threading.Thread(target=proc.wait, daemon=True)
        reaper.start()
        try:
            reaper.join(CLOSE_TIMEOUT_S)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()


def _translation_request(item_id: str, src_lang: str, tgt_lang: str, text: str) -> str:
    """json_line({"id", "src_lang", "tgt_lang", "text"}) and a newline."""
    q = encode_basestring
    return f'{{"id":{q(item_id)},"src_lang":{q(src_lang)},"tgt_lang":{q(tgt_lang)},"text":{q(text)}}}\n'


def _score_request(item_id: str, src_lang: str, tgt_lang: str, src: str, tgt: str) -> str:
    """json_line({"id", "src_lang", "tgt_lang", "src", "tgt"}) and a newline."""
    q = encode_basestring
    return (
        f'{{"id":{q(item_id)},"src_lang":{q(src_lang)},"tgt_lang":{q(tgt_lang)},'
        f'"src":{q(src)},"tgt":{q(tgt)}}}\n'
    )


class SubprocessBackend(Backend):
    def __init__(self, cmd: str):
        self.client = _LineProtocolClient(cmd, _translation_request)

    def translate(self, item_id: str, src_lang: str, tgt_lang: str, text: str) -> str:
        resp = self.client.response(item_id, src_lang, tgt_lang, text)
        if "error" in resp:
            raise BackendItemError(f"item {item_id!r}: {resp['error']}")
        out = resp.get("text")
        if not isinstance(out, str):
            raise BackendError(f"backend response for {item_id!r} lacks a 'text' string")
        return out

    def send_ahead(
        self, items: Iterable[T], to_args: Callable[[T], tuple[str, str, str, str] | None]
    ) -> Iterator[T]:
        return self.client.send_ahead(items, to_args)

    def close(self) -> None:
        self.client.close()


class SubprocessScorer:
    def __init__(self, cmd: str):
        self.client = _LineProtocolClient(cmd, _score_request)

    def score(self, item_id: str, src_lang: str, tgt_lang: str, src: str, tgt: str) -> float:
        """The checked score of one pair. Inside score_stream the pair's request
        is already in flight, so only its response is read."""
        resp = self.client.response(item_id, src_lang, tgt_lang, src, tgt)
        if "error" in resp:
            raise BackendError(f"scorer failed on item {item_id!r}: {resp['error']}")
        if "qe_score" not in resp:
            raise BackendError(f"scorer response for {item_id!r} lacks 'qe_score'")
        return check_score(resp["qe_score"], item_id)

    def score_stream(self, pairs: Iterable) -> Iterator[tuple[str, float]]:
        for ex in self.client.send_ahead(pairs, lambda ex: (ex.id, ex.src_lang, ex.tgt_lang, ex.src, ex.tgt)):
            yield ex.id, self.score(ex.id, ex.src_lang, ex.tgt_lang, ex.src, ex.tgt)

    def close(self) -> None:
        self.client.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
