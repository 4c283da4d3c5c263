"""The TFTP grammar: opcode-switched binary parsing."""

import struct

import pytest

from repro.apps.binpac import Parser
from repro.apps.binpac.grammars import tftp_grammar
from repro.apps.binpac.grammars.tftp import (
    OP_ACK,
    OP_DATA,
    OP_ERROR,
    OP_RRQ,
    OP_WRQ,
)


@pytest.fixture(scope="module")
def parser():
    return Parser(tftp_grammar())


class TestTftp:
    def test_read_request(self, parser):
        packet = struct.pack(">H", OP_RRQ) + b"boot.img\x00NETASCII\x00"
        obj = parser.parse("Packet", packet)
        assert obj.get("opcode") == OP_RRQ
        assert obj.get("filename") == b"boot.img"
        assert obj.get("mode") == b"netascii"

    def test_write_request(self, parser):
        packet = struct.pack(">H", OP_WRQ) + b"up.bin\x00octet\x00"
        obj = parser.parse("Packet", packet)
        assert obj.get("filename") == b"up.bin"
        assert obj.get("mode") == b"octet"

    def test_data_block(self, parser):
        payload = bytes(range(100))
        packet = struct.pack(">HH", OP_DATA, 7) + payload
        obj = parser.parse("Packet", packet)
        assert obj.get("block") == 7
        assert obj.get("data") == payload

    def test_ack(self, parser):
        obj = parser.parse("Packet", struct.pack(">HH", OP_ACK, 42))
        assert obj.get("block") == 42

    def test_error(self, parser):
        packet = struct.pack(">HH", OP_ERROR, 1) + b"File not found\x00"
        obj = parser.parse("Packet", packet)
        assert obj.get("error_code") == 1
        assert obj.get("error_msg") == b"File not found"

    def test_unknown_opcode_leaves_fields_unset(self, parser):
        obj = parser.parse("Packet", struct.pack(">H", 99))
        assert obj.get("opcode") == 99
        from repro.runtime.exceptions import HiltiError

        with pytest.raises(HiltiError):
            obj.get("filename")

    def test_incremental_data_transfer(self):
        # The shipped grammar is a datagram grammar; the same units
        # without the declaration parse incrementally.
        grammar = tftp_grammar()
        grammar.datagram = False
        session = Parser(grammar).start("Packet")
        session.feed(struct.pack(">H", OP_DATA))
        session.feed(struct.pack(">H", 1))
        session.feed(b"chunk-one-")
        session.feed(b"chunk-two")
        obj = session.done()  # eod data needs the freeze
        assert obj.get("data") == b"chunk-one-chunk-two"

    def test_datagram_grammar_has_no_incremental_session(self, parser):
        from repro.apps.binpac.ast import GrammarError

        with pytest.raises(GrammarError):
            parser.start("Packet")
        function = parser.program.function("TFTP::Packet::parse")
        assert not function.can_suspend
