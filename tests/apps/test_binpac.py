"""BinPAC++: grammar language, generated parsers, incremental parsing."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.binpac import ParseError, Parser, parse_evt, parse_grammar
from repro.apps.binpac.ast import (
    BytesField,
    Call,
    ComputeField,
    Const,
    Grammar,
    GrammarError,
    ListField,
    PatternField,
    SelfField,
    SubUnitField,
    UIntField,
    Unit,
)
from repro.apps.binpac.evt import build_glue_module
from repro.apps.binpac.grammars import (
    SSH_EVT,
    SSH_PAC2,
    dns_grammar,
    http_grammar,
    ssh_grammar,
)
from repro.runtime.bytes_buffer import Bytes
from repro.runtime.exceptions import HiltiError


class TestPac2Parser:
    def test_figure6_request_line(self):
        g = parse_grammar(r"""
module HTTP;

const Token = /[^ \t\r\n]+/;
const WhiteSpace = /[ \t]+/;
const NewLine = /\r?\n/;

type Version = unit {
    : /HTTP\//;
    number: /[0-9]+\.[0-9]+/;
};

type RequestLine = unit {
    method: Token;
    : WhiteSpace;
    uri: Token;
    : WhiteSpace;
    version: Version;
    : NewLine;
};
""")
        parser = Parser(g)
        obj = parser.parse("RequestLine", b"GET /index.html HTTP/1.1\r\n")
        assert obj.get("method") == b"GET"
        assert obj.get("uri") == b"/index.html"
        assert obj.get("version").get("number") == b"1.1"

    def test_figure7_ssh_banner(self):
        parser = Parser(ssh_grammar())
        obj = parser.parse("Banner", b"SSH-1.99-OpenSSH_3.9p1\r\n")
        assert obj.get("version") == b"1.99"
        assert obj.get("software") == b"OpenSSH_3.9p1"

    def test_uint_and_count(self):
        g = parse_grammar("""
module Bin;

type Item = unit {
    value: uint16;
};

type Msg = unit {
    n: uint8;
    items: Item[] &count=self.n;
};
""")
        parser = Parser(g)
        obj = parser.parse("Msg", bytes([2, 0, 5, 1, 0]))
        items = list(obj.get("items"))
        assert [i.get("value") for i in items] == [5, 256]

    def test_bytes_length_attr(self):
        g = parse_grammar("""
module Bin;

type Msg = unit {
    n: uint8;
    body: bytes &length=self.n;
};
""")
        parser = Parser(g)
        obj = parser.parse("Msg", b"\x03abcdef")
        assert obj.get("body") == b"abc"

    def test_conditional_field(self):
        g = parse_grammar("""
module Bin;

type Msg = unit {
    flag: uint8;
    extra: uint8 if (self.flag == 1);
};
""")
        parser = Parser(g)
        assert parser.parse("Msg", b"\x01\x42").get("extra") == 0x42
        obj = parser.parse("Msg", b"\x00\x42")
        with pytest.raises(HiltiError):
            obj.get("extra")

    def test_parse_error_on_mismatch(self):
        parser = Parser(ssh_grammar())
        with pytest.raises(HiltiError) as exc:
            parser.parse("Banner", b"HTTP/1.1 200 OK\r\n")
        assert "ParseError" in exc.value.except_type.type_name

    def test_grammar_errors(self):
        with pytest.raises(GrammarError):
            parse_grammar("type X = unit { };")  # missing module
        with pytest.raises(GrammarError):
            Unit("U", [PatternField("a", "x"), PatternField("a", "y")])


class TestIncremental:
    def test_byte_at_a_time(self):
        parser = Parser(ssh_grammar())
        session = parser.start("Banner")
        data = b"SSH-2.0-OpenSSH_6.1\r\n"
        for i, byte in enumerate(data):
            done = session.feed(bytes([byte]))
            if done:
                break
        obj = session.done()
        assert obj.get("software") == b"OpenSSH_6.1"

    def test_suspends_until_input(self):
        parser = Parser(http_grammar())
        session = parser.start("Request")
        assert not session.feed(b"GET /x HT")
        assert not session.feed(b"TP/1.1\r\nHost: h\r\n")
        assert session.feed(b"Content-Length: 2\r\n\r\nab")
        obj = session.done()
        assert obj.get("body") == b"ab"

    def test_done_without_input_raises_or_empty(self):
        parser = Parser(http_grammar())
        session = parser.start("Requests")
        obj = session.done()  # zero transactions before EOF
        assert len(obj.get("transactions")) == 0


class TestHttpGrammar:
    def test_pipelined_requests(self):
        parser = Parser(http_grammar())
        data = (
            b"GET /a HTTP/1.1\r\nHost: one\r\nContent-Length: 0\r\n\r\n"
            b"POST /b HTTP/1.1\r\nHost: two\r\nContent-Length: 4\r\n\r\nwxyz"
        )
        obj = parser.parse("Requests", data)
        txs = list(obj.get("transactions"))
        assert len(txs) == 2
        assert txs[0].get("request_line").get("method") == b"GET"
        assert txs[1].get("body") == b"wxyz"
        assert txs[1].get("content_length") == 4

    def test_headers_list(self):
        parser = Parser(http_grammar())
        data = b"GET / HTTP/1.0\r\nA: 1\r\nB: 2\r\n\r\n"
        obj = parser.parse("Request", data)
        headers = list(obj.get("headers"))
        assert [h.get("name") for h in headers] == [b"A", b"B"]

    def test_reply_with_body(self):
        parser = Parser(http_grammar())
        data = (b"HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\n"
                b"Content-Length: 9\r\n\r\nnot found")
        obj = parser.parse("Reply", data)
        assert obj.get("status_line").get("status") == b"404"
        assert obj.get("body") == b"not found"

    def test_interpreted_tier_parses_one_shot_only(self):
        parser = Parser(http_grammar(), tier="interpreted")
        obj = parser.parse("Request", b"GET / HTTP/1.0\r\nA: 1\r\n\r\n")
        assert obj.get("request_line").get("version").get("number") == \
            b"1.0"
        assert [h.get("value") for h in obj.get("headers")] == [b"1"]
        with pytest.raises(GrammarError):
            parser.start("Requests")


def _dns_query(txid=0x1234, qname=b"\x03www\x07example\x03com\x00",
               qtype=1, flags=0x0100, answers=b"", ancount=0):
    return struct.pack(">HHHHHH", txid, flags, 1, ancount, 0, 0) + \
        qname + struct.pack(">HH", qtype, 1) + answers


class TestDnsGrammar:
    def test_query(self):
        parser = Parser(dns_grammar())
        obj = parser.parse("Message", _dns_query())
        assert obj.get("txid") == 0x1234
        assert not obj.get("is_response")
        q = list(obj.get("questions"))[0]
        assert q.get("qname") == "www.example.com"
        assert q.get("qtype") == 1

    def test_compressed_answer(self):
        a_record = b"\xc0\x0c" + struct.pack(">HHIH", 1, 1, 300, 4) + \
            bytes([1, 2, 3, 4])
        parser = Parser(dns_grammar())
        obj = parser.parse(
            "Message",
            _dns_query(flags=0x8180, answers=a_record, ancount=1),
        )
        rr = list(obj.get("answers"))[0]
        assert rr.get("rname") == "www.example.com"
        assert str(rr.get("addr")) == "1.2.3.4"
        assert rr.get("ttl") == 300

    def test_unknown_rtype_skipped_via_seek(self):
        weird = b"\xc0\x0c" + struct.pack(">HHIH", 99, 1, 60, 5) + b"?????"
        a_record = b"\xc0\x0c" + struct.pack(">HHIH", 1, 1, 60, 4) + \
            bytes([9, 9, 9, 9])
        parser = Parser(dns_grammar())
        obj = parser.parse(
            "Message",
            _dns_query(flags=0x8180, answers=weird + a_record, ancount=2),
        )
        rrs = list(obj.get("answers"))
        assert rrs[0].get("rtype") == 99
        assert str(rrs[1].get("addr")) == "9.9.9.9"

    def test_compression_loop_fails_safely(self):
        # A name whose pointer points at itself.
        evil = struct.pack(">HHHHHH", 1, 0x0100, 1, 0, 0, 0) + b"\xc0\x0c"
        parser = Parser(dns_grammar())
        with pytest.raises(HiltiError):
            parser.parse("Message", evil + struct.pack(">HH", 1, 1))

    def test_datagram_parse_functions_are_plain_calls(self):
        parser = Parser(dns_grammar())
        for unit in ("Message", "Question", "RR"):
            assert not parser.program.function(
                f"DNS::{unit}::parse").can_suspend
        with pytest.raises(GrammarError):
            parser.start("Message")

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview, Bytes])
    def test_parse_accepts_any_bytes_like_input(self, kind):
        data = _dns_query()
        payload = _frozen(data) if kind is Bytes else kind(data)
        obj = Parser(dns_grammar()).parse("Message", payload)
        assert obj.get("txid") == 0x1234
        if kind is bytearray:
            payload[0] = 0  # the parse copied its input
            assert obj.get("txid") == 0x1234


def _frozen(raw: bytes) -> Bytes:
    value = Bytes(raw)
    value.freeze()
    return value


def _name_outcome(decode, data: Bytes, offset: int):
    try:
        name, end = decode(None, data, data.at(offset))
        return ("ok", name, end.offset)
    except HiltiError as error:
        return ("raise", error.except_type.type_name, str(error))


def _pointer_chain(hops: int) -> bytes:
    """*hops* compression pointers, each to the next, then the root."""
    return b"".join(bytes([0xC0, 2 * (i + 1)]) for i in range(hops)) \
        + b"\x00"


# A wire name as tokens: a label, a compression pointer, a root byte, an
# out-of-range label length, or a raw byte.
_NAME_TOKENS = st.one_of(
    st.binary(max_size=70).map(lambda raw: bytes([len(raw)]) + raw),
    st.integers(0, 0x3FFF).map(lambda p: bytes([0xC0 | p >> 8, p & 0xFF])),
    st.just(b"\x00"),
    st.integers(64, 191).map(lambda n: bytes([n])),
    st.binary(min_size=1, max_size=1),
)


class TestDnsNameFastPath:
    """``bp_dns_name`` scans the buffer in place; it must equal the
    reference loop: the same name and end offset, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_NAME_TOKENS, max_size=12), st.integers(0, 40),
           st.integers(0, 12), st.integers(0, 3), st.booleans())
    def test_equals_reference(self, tokens, cut, start, trimmed, frozen):
        from repro.apps.binpac.runtime import bp_dns_name, dns_name_reference

        wire = b"".join(tokens)
        wire = wire[:max(0, len(wire) - cut)] if cut < 20 else wire
        data = Bytes(bytes(trimmed) + wire)
        # A trimmed buffer: pointers stay relative to the message start.
        data.trim(data.at(trimmed))
        if frozen:
            data.freeze()
        offset = trimmed + start % (len(wire) + 1)
        assert _name_outcome(bp_dns_name, data, offset) == \
            _name_outcome(dns_name_reference, data, offset)

    @pytest.mark.parametrize("wire, start", [
        (b"\x03www\x07example\x03com\x00", 0),      # plain labels
        (b"\x03foo\x00\x03bar\xc0\x00", 5),          # label then pointer
        (b"\xc0\x00", 0),                            # pointer loop
        (b"\x05ab", 0),                              # label past the end
        (b"\x3f" + b"a" * 63 + b"\x00", 0),         # longest label
        (b"\x40" + b"a" * 64 + b"\x00", 0),         # label length 64
        (b"\x40abc", 0),                             # ... and short
        (b"\x01a" * 128 + b"\x00", 0),               # most labels
        (b"\x01a" * 129 + b"\x00", 0),               # too many labels
        (_pointer_chain(64), 0),                     # most pointer hops
        (_pointer_chain(65), 0),                     # one hop too many
        (b"\xc0", 0),                                # half a pointer
    ])
    def test_edge_cases(self, wire, start):
        from repro.apps.binpac.runtime import bp_dns_name, dns_name_reference

        data = _frozen(wire)
        assert _name_outcome(bp_dns_name, data, start) == \
            _name_outcome(dns_name_reference, data, start)


class TestEvt:
    def test_parse_evt_file(self):
        evt = parse_evt(SSH_EVT)
        assert evt.grammar_file == "ssh.pac2"
        analyzer = evt.analyzers[0]
        assert analyzer.name == "SSH"
        assert analyzer.transport == "tcp"
        assert analyzer.top_unit == "SSH::Banner"
        assert analyzer.ports[0].number == 22
        event = evt.events[0]
        assert event.event == "ssh_banner"
        assert event.args == ["version", "software"]

    def test_events_fire(self):
        evt = parse_evt(SSH_EVT)
        glue = build_glue_module(evt, "SSH")
        events = []
        parser = Parser(ssh_grammar(), extra_modules=[glue],
                        on_event=lambda n, a: events.append((n, a)))
        parser.parse("Banner", b"SSH-1.99-OpenSSH_3.9p1\r\n")
        assert len(events) == 1
        name, args = events[0]
        assert name == "ssh_banner"
        assert args[0] == b"1.99"
        assert args[1] == b"OpenSSH_3.9p1"

    def test_figure7_output_both_sides(self):
        """The paper's Figure 7(d): one SSH session, both directions."""
        evt = parse_evt(SSH_EVT)
        glue = build_glue_module(evt, "SSH")
        out = []
        parser = Parser(ssh_grammar(), extra_modules=[glue],
                        on_event=lambda n, a: out.append(
                            f"{a[1].to_bytes().decode()}, "
                            f"{a[0].to_bytes().decode()}"))
        parser.parse("Banner", b"SSH-1.99-OpenSSH_3.9p1\r\n")
        parser.parse("Banner", b"SSH-2.0-OpenSSH_3.8.1p1\r\n")
        assert out == ["OpenSSH_3.9p1, 1.99", "OpenSSH_3.8.1p1, 2.0"]


class TestUntilFields:
    def test_until_excludes_delimiter(self):
        g = parse_grammar(r"""
module KV;

export type Pair = unit {
    key: bytes &until=/=/;
    value: bytes &until=/;/;
};
""")
        parser = Parser(g)
        obj = parser.parse("Pair", b"name=value;trailing")
        assert obj.get("key") == b"name"
        assert obj.get("value") == b"value"

    def test_until_incremental(self):
        g = parse_grammar(r"""
module KV;

export type Pair = unit {
    key: bytes &until=/=/;
    value: bytes &until=/;/;
};
""")
        parser = Parser(g)
        session = parser.start("Pair")
        for chunk in (b"na", b"me=", b"val", b"ue;"):
            session.feed(chunk)
        obj = session.done()
        assert obj.get("key") == b"name"
        assert obj.get("value") == b"value"

    def test_until_missing_delimiter_fails(self):
        g = parse_grammar(r"""
module KV;

export type Pair = unit {
    key: bytes &until=/=/;
};
""")
        parser = Parser(g)
        with pytest.raises(HiltiError):
            parser.parse("Pair", b"no delimiter here")

    _LINES = r"""
module Lines;

export type Two = unit {
    first: bytes &until=/\r\n/;
    second: bytes &until=/\r\n/;
};
"""

    @pytest.mark.parametrize("split", [
        [b"ab\r", b"\ncd\r", b"\n"],              # delimiter split in two
        [bytes([b]) for b in b"ab\r\ncd\r\n"],  # one byte at a time
        [b"ab\r\ncd\r\n"],
    ])
    def test_until_delimiter_across_chunks(self, split):
        session = Parser(parse_grammar(self._LINES)).start("Two")
        for chunk in split:
            session.feed(chunk)
        obj = session.done()
        assert (obj.get("first"), obj.get("second")) == (b"ab", b"cd")

    def test_until_frozen_without_delimiter_is_parse_error(self):
        session = Parser(parse_grammar(self._LINES)).start("Two")
        session.feed(b"ab\r\ncd\r")
        with pytest.raises(HiltiError) as exc:
            session.done()
        assert "ParseError" in exc.value.except_type.type_name

    def test_find_delim_scans_in_place_and_releases(self):
        from repro.apps.binpac.runtime import bp_find_delim
        from repro.runtime.bytes_buffer import Bytes
        from repro.runtime.regexp import RegExp

        delim = RegExp(r"\r\n")
        data = Bytes(b"xyz\r")
        status, __, __ = bp_find_delim(None, data, data.at(1), delim)
        assert status == -1
        data.append(b"\nrest")  # no export left alive on the buffer
        status, begin, end = bp_find_delim(None, data, data.at(1), delim)
        assert (status, begin.offset, end.offset) == (1, 3, 5)
        data.freeze()
        status, __, __ = bp_find_delim(None, data, data.at(5), delim)
        assert status == 0

    def test_until_regex_delimiter(self):
        from repro.apps.binpac.ast import BytesField, Grammar, Unit

        g = Grammar("Line")
        g.unit(Unit("Row", [
            BytesField("text", until=r"\r?\n"),
        ], exported=True))
        parser = Parser(g)
        assert parser.parse("Row", b"hello\r\nrest").get("text") == b"hello"
        assert parser.parse("Row", b"hello\nrest").get("text") == b"hello"


HTTP_PAC2_TEXT = r"""
module HTTP;

const Token = /[^ \t\r\n]+/;
const WhiteSpace = /[ \t]+/;
const NewLine = /\r?\n/;

type Version = unit {
    : /HTTP\//;
    number: /[0-9]+\.[0-9]+/;
};

type RequestLine = unit {
    method: Token;
    : WhiteSpace;
    uri: Token;
    : WhiteSpace;
    version: Version;
    : NewLine;
};

type Header = unit {
    name: /[^:\r\n]+/;
    : /:[ \t]*/;
    value: /[^\r\n]*/;
    : NewLine;
};

export type Request = unit {
    request_line: RequestLine;
    headers: Header[] &until_input=/\r?\n/;
    let content_length = http_content_length(self.headers);
    let has_body = self.content_length > 0;
    body: bytes &length=self.content_length if (self.has_body);
};
"""


class TestTextualHttpGrammar:
    """The full HTTP request grammar expressed in .pac2 text, agreeing
    with the AST-built grammar the evaluation uses."""

    def test_parses_request_with_body(self):
        parser = Parser(parse_grammar(HTTP_PAC2_TEXT))
        data = (b"POST /api HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 5\r\n\r\nhello")
        obj = parser.parse("Request", data)
        assert obj.get("request_line").get("method") == b"POST"
        assert obj.get("content_length") == 5
        assert obj.get("body") == b"hello"

    def test_agrees_with_ast_grammar(self):
        text_parser = Parser(parse_grammar(HTTP_PAC2_TEXT))
        ast_parser = Parser(http_grammar())
        samples = [
            b"GET / HTTP/1.0\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n",
            b"PUT /y HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
        ]
        for data in samples:
            a = text_parser.parse("Request", data)
            b = ast_parser.parse("Request", data)
            assert a.get("request_line").get("method") == \
                b.get("request_line").get("method")
            assert a.get("content_length") == b.get("content_length")

    def test_incremental(self):
        parser = Parser(parse_grammar(HTTP_PAC2_TEXT))
        session = parser.start("Request")
        data = b"GET /z HTTP/1.1\r\nA: 1\r\n\r\n"
        for i in range(0, len(data), 5):
            session.feed(data[i:i + 5])
        obj = session.done()
        assert obj.get("request_line").get("uri") == b"/z"
