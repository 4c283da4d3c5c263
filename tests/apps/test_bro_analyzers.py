"""Protocol analyzers: standard vs BinPAC++-backed event streams."""

import io

import pytest

from repro.apps.bro.analyzers.dns_std import DnsStdAnalyzer
from repro.apps.bro.analyzers.http_std import HttpStdAnalyzer
from repro.apps.bro.analyzers.pac import (
    DnsPacAnalyzer,
    HttpPacAnalyzer,
    PacParsers,
)
from repro.apps.bro.core import BroCore
from repro.apps.bro.files import FileInfo, sniff_mime
from repro.core.values import Addr


@pytest.fixture(scope="module")
def pac_parsers():
    return PacParsers()


def _conn(core):
    return core.make_connection_val(
        "C1", Addr("10.0.0.1"), None, Addr("10.0.0.2"), None,
        core.network_time(), "tcp",
    )


def _events(core):
    out = []
    while core._event_queue:
        out.append(core._event_queue.popleft())
    return out


_REQUEST = (b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
            b"Content-Length: 0\r\n\r\n")
_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
          b"Content-Length: 5\r\n\r\nhello")


class TestHttpStd:
    def test_request_events(self):
        core = BroCore()
        analyzer = HttpStdAnalyzer(_conn(core), core)
        analyzer.data(True, _REQUEST)
        names = [n for n, __ in _events(core)]
        assert names[0] == "http_request"
        assert "http_header" in names
        assert names[-1] == "http_message_done"

    def test_reply_with_body(self):
        core = BroCore()
        analyzer = HttpStdAnalyzer(_conn(core), core)
        analyzer.data(False, _REPLY)
        events = dict()
        for name, args in _events(core):
            events.setdefault(name, args)
        assert events["http_reply"][2] == 200
        done = events["http_message_done"]
        assert done[2] == 5            # body length
        assert done[3] == "text/plain"  # mime

    def test_split_across_chunks(self):
        core = BroCore()
        analyzer = HttpStdAnalyzer(_conn(core), core)
        for i in range(0, len(_REQUEST), 7):
            analyzer.data(True, _REQUEST[i:i + 7])
        names = [n for n, __ in _events(core)]
        assert names.count("http_request") == 1
        assert names.count("http_message_done") == 1

    def test_206_skips_file_analysis(self):
        core = BroCore()
        analyzer = HttpStdAnalyzer(_conn(core), core)
        partial = (b"HTTP/1.1 206 Partial Content\r\n"
                   b"Content-Length: 3\r\n\r\nabc")
        analyzer.data(False, partial)
        done = [a for n, a in _events(core) if n == "http_message_done"][0]
        assert done[3] == ""  # no mime: file analysis skipped
        assert done[4] == ""  # no hash


class TestHttpPacMatchesStd:
    def _run(self, analyzer_cls, core, *chunks, pac=None):
        conn = _conn(core)
        if pac is not None:
            analyzer = analyzer_cls(conn, core, pac)
        else:
            analyzer = analyzer_cls(conn, core)
        for is_orig, data in chunks:
            analyzer.data(is_orig, data)
        analyzer.end()
        return [
            (n, a[1:]) for n, a in _events(core)
        ]  # drop the conn arg for comparison

    def test_same_events_for_clean_session(self, pac_parsers):
        chunks = [(True, _REQUEST), (False, _REPLY)]
        std = self._run(HttpStdAnalyzer, BroCore(), *chunks)
        pac = self._run(HttpPacAnalyzer, BroCore(), *chunks,
                        pac=pac_parsers)
        assert std == pac

    def test_divergence_on_partial_content(self, pac_parsers):
        partial = [(False, b"HTTP/1.1 206 Partial Content\r\n"
                           b"Content-Length: 3\r\n\r\nabc")]
        std = self._run(HttpStdAnalyzer, BroCore(), *partial)
        pac = self._run(HttpPacAnalyzer, BroCore(), *partial,
                        pac=pac_parsers)
        std_done = [a for n, a in std if n == "http_message_done"][0]
        pac_done = [a for n, a in pac if n == "http_message_done"][0]
        assert std_done[2] == ""      # std: no mime
        assert pac_done[2] != ""      # pac extracts more information

    def test_duplicate_content_length_first_wins(self, pac_parsers):
        """Both analyzers size the body by the first Content-Length: 5
        bytes of ``hello``, then a clean ``GET /b``."""
        stream = [(True, b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n"
                         b"Content-Length: 3\r\n\r\nhello"
                         b"GET /b HTTP/1.1\r\n\r\n")]
        keep = ("http_request", "http_message_done")
        std = [event for event in self._run(
            HttpStdAnalyzer, BroCore(), *stream) if event[0] in keep]
        pac = [event for event in self._run(
            HttpPacAnalyzer, BroCore(), *stream, pac=pac_parsers)
            if event[0] in keep]
        assert std == pac
        assert [args[0] for name, args in std
                if name == "http_request"] == ["POST", "GET"]
        assert [args[1] for name, args in std
                if name == "http_message_done"] == [5, 0]


def _dns_query():
    import struct

    q = b"\x03www\x07example\x03com\x00" + struct.pack(">HH", 1, 1)
    return struct.pack(">HHHHHH", 7, 0x0100, 1, 0, 0, 0) + q


def _dns_response():
    import struct

    q = b"\x03www\x07example\x03com\x00" + struct.pack(">HH", 1, 1)
    rr = b"\xc0\x0c" + struct.pack(">HHIH", 1, 1, 60, 4) + bytes([9, 8, 7, 6])
    return struct.pack(">HHHHHH", 7, 0x8180, 1, 1, 0, 0) + q + rr


class TestDns:
    def test_std_request(self):
        core = BroCore()
        analyzer = DnsStdAnalyzer(_conn(core), core)
        analyzer.data(True, _dns_query())
        name, args = _events(core)[0]
        assert name == "dns_request"
        assert args[2] == "www.example.com"

    def test_std_response_answers(self):
        core = BroCore()
        analyzer = DnsStdAnalyzer(_conn(core), core)
        analyzer.data(False, _dns_response())
        name, args = _events(core)[0]
        assert name == "dns_response"
        assert list(args[6]) == ["9.8.7.6"]

    def test_std_malformed_aborts(self):
        core = BroCore()
        analyzer = DnsStdAnalyzer(_conn(core), core)
        analyzer.data(True, b"\x01\x02\x03")
        assert analyzer.malformed == 1
        assert _events(core) == []

    def test_pac_matches_std(self, pac_parsers):
        core_std, core_pac = BroCore(), BroCore()
        std = DnsStdAnalyzer(_conn(core_std), core_std)
        pac = DnsPacAnalyzer(_conn(core_pac), core_pac, pac_parsers)
        for data in (_dns_query(), _dns_response()):
            std.data(True, data)
            pac.data(True, data)
        std_events = [(n, a[1:]) for n, a in _events(core_std)]
        pac_events = [(n, a[1:]) for n, a in _events(core_pac)]
        # HiltiVector instances compare by identity; list them to compare.
        def norm(events):
            return [
                (n, [list(x) if hasattr(x, "__iter__")
                     and not isinstance(x, str) else x for x in a])
                for n, a in events
            ]
        assert norm(std_events) == norm(pac_events)


class TestFilesFramework:
    def test_magic_signatures(self):
        assert sniff_mime(b"\x89PNG\r\n\x1a\nxxxx") == "image/png"
        assert sniff_mime(b"\xff\xd8\xffrest") == "image/jpeg"
        assert sniff_mime(b"%PDF-1.4") == "application/pdf"

    def test_html_heuristic(self):
        assert sniff_mime(b"<!DOCTYPE html><html>") == "text/html"
        assert sniff_mime(b"  <html><body>") == "text/html"

    def test_declared_fallback(self):
        assert sniff_mime(b"\x00\x01\x02" * 30, "application/x-foo") == \
            "application/x-foo"

    def test_binary_heuristic(self):
        assert sniff_mime(bytes(range(64))) == "application/octet-stream"

    def test_empty_body(self):
        assert sniff_mime(b"") is None
        info = FileInfo(b"")
        assert info.sha1 is None and info.size == 0

    def test_hash_stability(self):
        import hashlib

        body = b"hello world"
        assert FileInfo(body).sha1 == hashlib.sha1(body).hexdigest()
