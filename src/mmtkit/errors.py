"""Error taxonomy shared across the toolkit.

Every data-level failure raises a ToolkitError subclass so the CLI can map
them to a single machine-readable error line and exit code 1. Programming
errors (bad arguments to library functions) raise plain ValueError/TypeError.

Library code raises RecordParseError without a location. The one reading
loop, registry.parse_json_lines, sets the path and line on any
RecordParseError raised while it reads a line, by the parse or by the
line's converter, so it reads "path:line N: message"; only the CLI's
--rules reader passes json's lineno. The loop also refuses a \\u escape of
a lone surrogate (text with no UTF-8 form), so no stage fails later where
such text is first encoded. A path without a line reads "path: message".
The request refusals InvalidInput, NoAuxiliaryDefined
and EmptySource are RecordParseErrors, so an infer-prompt request, judged
in the converter, is refused at its line. Raised outside the reading loop,
as synth raises them, they carry no location.

A failure a stage survives, such as a skipped synthesis item, is a warning:
one `WARNING <module>: <message>` line on stderr.
"""
from __future__ import annotations

import sys


def warn(module: str, message: str) -> None:
    """Write one warning line to stderr. logging would cost mix and synth about
    10 ms of start-up for these lines."""
    print(f"WARNING {module}: {message}", file=sys.stderr)


class ToolkitError(Exception):
    """Base class for all recoverable toolkit errors."""


class RecordParseError(ToolkitError):
    """A line of an input file failed to parse or validate."""

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        super().__init__(message)
        self.line_no = line_no
        self.path = path

    def __str__(self) -> str:
        message = super().__str__()
        where = "" if self.path is None else f"{self.path}:"
        if self.line_no is not None:
            where += f"line {self.line_no}:"
        return f"{where} {message}" if where else message


class DuplicateLanguage(RecordParseError):
    """Registry file declared the same language code twice."""


class MissingCenter(ToolkitError):
    """Registry lacks en or zh; the direction space is undefined without both."""


class UnknownLanguage(RecordParseError):
    """A language code that is not present in the active registry."""

    def __init__(self, code: str):
        self.code = code
        super().__init__(f"unknown language code: {code!r}")


class DuplicateRecordId(RecordParseError):
    """Two records in one corpus share an id."""


class MissingScore(ToolkitError):
    """A pair id has no entry in the score sidecar."""

    def __init__(self, pair_id: str):
        self.pair_id = pair_id
        super().__init__(f"no score for id {pair_id!r}")


class InvalidScore(RecordParseError):
    """A quality score is not a number in [0, 1]."""


class DuplicateRecord(RecordParseError):
    """Two evaluation records cover the same (model, direction, metric)."""


class NoAuxiliaryDefined(RecordParseError):
    """PMP was requested for a direction that has no auxiliary language."""


class EmptySource(RecordParseError):
    """A prompt render was asked to work with an empty source text."""


class InvalidInput(RecordParseError, ValueError):
    """A request the inputs cannot satisfy, such as a direction a synthesis
    mode does not support or a strategy without the input it needs. It is
    also a ValueError, so library callers catching ValueError still catch it."""


class BackendError(ToolkitError):
    """An external subprocess backend misbehaved or failed too often."""
