"""The standard HTTP analyzer — Bro's manually written parser.

A hand-written, imperative HTTP parser (the stand-in for Bro's manual C++
implementation that §6.4 benchmarks BinPAC++ against): explicit state
machine per direction, index arithmetic over byte buffers, manual
buffering.  Behaviourally it matches the BinPAC++ grammar except for known
semantic differences mirroring the paper's findings — most notably it
declines to analyze "206 Partial Content" bodies, where "the BinPAC++
version often manages to extract more information".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..files import FileInfo

__all__ = ["HttpStdAnalyzer"]

_LINE = 0
_HEADERS = 1
_BODY = 2


class _Direction:
    __slots__ = ("buffer", "state", "method", "uri", "version", "code",
                 "reason", "content_length", "content_type", "body",
                 "skip_file_analysis")

    def __init__(self):
        self.buffer = bytearray()
        self.state = _LINE
        self.method = None
        self.uri = None
        self.version = None
        self.code = None
        self.reason = None
        self.content_length = None  # None until the first header
        self.content_type = None
        self.body = bytearray()
        self.skip_file_analysis = False


class HttpStdAnalyzer:
    """One HTTP connection, both directions."""

    name = "http-std"

    def __init__(self, conn, core):
        self.conn = conn
        self.core = core
        self.orig = _Direction()
        self.resp = _Direction()
        self.messages = 0

    def data(self, is_orig: bool, payload: bytes) -> None:
        direction = self.orig if is_orig else self.resp
        direction.buffer.extend(payload)
        self._parse(is_orig, direction)

    def end(self) -> None:
        # Leftover body bytes at connection close: deliver what we have.
        for is_orig, direction in ((True, self.orig), (False, self.resp)):
            if direction.state == _BODY and direction.body:
                self._finish_message(is_orig, direction, truncated=True)

    # -- parsing ------------------------------------------------------------

    def _parse(self, is_orig: bool, direction: _Direction) -> None:
        while True:
            if direction.state == _LINE:
                line = self._take_line(direction)
                if line is None:
                    return
                if not line.strip():
                    continue  # tolerate stray blank lines between messages
                if is_orig:
                    if not self._parse_request_line(direction, line):
                        return  # unparseable: stop analyzing this direction
                else:
                    if not self._parse_status_line(direction, line):
                        return
                direction.state = _HEADERS
            elif direction.state == _HEADERS:
                line = self._take_line(direction)
                if line is None:
                    return
                if not line.strip():
                    self._headers_done(is_orig, direction)
                    continue
                self._parse_header(is_orig, direction, line)
            else:  # _BODY
                needed = direction.content_length - len(direction.body)
                if needed > 0:
                    take = min(needed, len(direction.buffer))
                    if take == 0:
                        return
                    direction.body.extend(direction.buffer[:take])
                    del direction.buffer[:take]
                if direction.content_length - len(direction.body) > 0:
                    return
                self._finish_message(is_orig, direction)

    @staticmethod
    def _take_line(direction: _Direction) -> Optional[bytes]:
        index = direction.buffer.find(b"\n")
        if index < 0:
            return None
        line = bytes(direction.buffer[:index])
        del direction.buffer[:index + 1]
        if line.endswith(b"\r"):
            line = line[:-1]
        return line

    def _parse_request_line(self, direction: _Direction,
                            line: bytes) -> bool:
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
            return False
        direction.method = parts[0].decode("latin-1")
        direction.uri = parts[1].decode("latin-1")
        direction.version = parts[2][len(b"HTTP/"):].decode("latin-1")
        self.core.queue_event("http_request", [
            self.conn, direction.method, direction.uri, direction.version,
        ])
        return True

    def _parse_status_line(self, direction: _Direction,
                           line: bytes) -> bool:
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            return False
        if not parts[1].isdigit():
            return False
        direction.version = parts[0][len(b"HTTP/"):].decode("latin-1")
        direction.code = int(parts[1])
        direction.reason = (
            parts[2].decode("latin-1") if len(parts) > 2 else ""
        )
        self.core.queue_event("http_reply", [
            self.conn, direction.version, direction.code, direction.reason,
        ])
        return True

    def _parse_header(self, is_orig: bool, direction: _Direction,
                      line: bytes) -> None:
        name, sep, value = line.partition(b":")
        if not sep:
            return  # malformed header line: ignored (real-world crud)
        name_text = name.strip().decode("latin-1")
        value_text = value.strip().decode("latin-1")
        lowered = name_text.lower()
        if lowered == "content-length":
            # The first one wins, as in the BinPAC++ runtime's
            # ``bp_http_header_value``.
            if direction.content_length is None:
                try:
                    direction.content_length = int(value_text)
                except ValueError:
                    direction.content_length = 0
        elif lowered == "content-type":
            direction.content_type = value_text.split(";")[0].strip()
        self.core.queue_event("http_header", [
            self.conn, is_orig, name_text, value_text,
        ])

    def _headers_done(self, is_orig: bool, direction: _Direction) -> None:
        # The standard parser skips file analysis of partial content —
        # the §6.4 semantic difference against BinPAC++.
        direction.skip_file_analysis = (
            not is_orig and direction.code == 206
        )
        if (direction.content_length or 0) > 0:
            direction.state = _BODY
            self._parse_noop()
        else:
            self._finish_message(is_orig, direction)

    def _parse_noop(self) -> None:
        pass

    def _finish_message(self, is_orig: bool, direction: _Direction,
                        truncated: bool = False) -> None:
        body = bytes(direction.body)
        if direction.skip_file_analysis:
            info = None
        else:
            info = FileInfo(body, direction.content_type)
        self.messages += 1
        self.core.queue_event("http_message_done", [
            self.conn,
            is_orig,
            len(body),
            (info.mime or "") if info else "",
            (info.sha1 or "") if info else "",
        ])
        # Reset for the next message on this persistent connection.
        direction.state = _LINE
        direction.content_length = None
        direction.content_type = None
        direction.body = bytearray()
        direction.skip_file_analysis = False
        direction.code = None
