"""The unified flow ledger: records, schema, table, export.

Unit-level coverage for the flow-record layer (docs/FLOWS.md): the
``repro-flowrecords/1`` serialization round-trip, the hand-rolled
validator's error taxonomy, FiveTuple canonicalization symmetry, the
shared :class:`~repro.host.flowtable.FlowTable` (uid naming,
bidirectional accounting, TTL/cap eviction with the counted-eviction
contract, bare-key recency mode), and the ``flowexport`` tool
end-to-end.
"""

import gc
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.values import Addr
from repro.host.flowtable import FlowTable
from repro.net.flowrecord import (
    CLOSE_REASONS,
    FLOWRECORDS_SCHEMA,
    FlowRecord,
    flowrecords_header_line,
    format_record_uid,
    format_uid,
    uid_ordinal,
    write_flowrecords_jsonl,
)
from repro.net.flows import FiveTuple
from repro.net.packet import ACK, FIN, PROTO_TCP, PROTO_UDP, SYN
from repro.tools.validate import validate


def _tuple(sport=1234, dport=80, proto=PROTO_TCP):
    return FiveTuple(Addr("10.0.0.1"), Addr("10.0.0.2"),
                     sport, dport, proto)


def _record(**overrides):
    fields = dict(
        src="10.0.0.1", dst="10.0.0.2", src_port=1234, dst_port=80,
        protocol=PROTO_TCP, uid="S00000001", first_ts=1.0, last_ts=2.5,
        orig_pkts=3, orig_bytes=120, resp_pkts=2, resp_bytes=900,
        tcp_flags=SYN | ACK | FIN, close_reason="finished",
    )
    fields.update(overrides)
    return FlowRecord(**fields)


def _file_lines(records, app="test"):
    lines = sorted(r.to_line() for r in records)
    return [flowrecords_header_line(app, len(lines))] + lines


class TestFlowRecordSerialization:
    def test_line_round_trip(self):
        record = _record()
        again = FlowRecord.from_dict(json.loads(record.to_line()))
        assert again == record

    def test_lines_are_compact_and_key_sorted(self):
        line = _record().to_line()
        assert ": " not in line and ", " not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_timestamps_round_to_microseconds(self):
        doc = _record(first_ts=1.123456789, last_ts=2.0).to_dict()
        assert doc["first_ts"] == 1.123457

    def test_record_uid_format(self):
        assert format_record_uid(1) == "S00000001"
        assert format_record_uid(125) == "S00000021"
        assert format_uid("C", 62 ** 8 - 1) == "Czzzzzzzz"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 62 ** 8 - 1), st.integers(0, 62 ** 8 - 1))
    def test_uid_order_is_ordinal_order(self, a, b):
        """The alphabet is in ASCII order, so comparing two uids as
        strings compares their ordinals."""
        uid_a, uid_b = format_uid("C", a), format_uid("C", b)
        assert (uid_a < uid_b) == (a < b)
        assert uid_ordinal(uid_a) == a

    def test_header_carries_no_topology(self):
        header = json.loads(flowrecords_header_line("bpf", 7))
        assert header == {
            "schema": FLOWRECORDS_SCHEMA, "app": "bpf", "records": 7,
        }


class TestValidator:
    def test_valid_stream_passes(self):
        lines = _file_lines([_record(), _record(src_port=9999,
                                                uid="S00000002")])
        assert validate(FLOWRECORDS_SCHEMA, lines) == []

    def test_written_file_passes(self, tmp_path):
        path = write_flowrecords_jsonl(
            str(tmp_path / "flow_records.jsonl"), "test",
            sorted(r.to_line() for r in [_record()]))
        with open(path) as stream:
            assert validate(FLOWRECORDS_SCHEMA, stream.readlines()) == []

    def test_empty_input(self):
        assert validate(FLOWRECORDS_SCHEMA, []) == ["no header line"]

    def test_bad_schema_tag(self):
        lines = _file_lines([_record()])
        lines[0] = json.dumps({"schema": "nope/9", "app": "x",
                               "records": 1})
        assert any("schema" in e for e in
                   validate(FLOWRECORDS_SCHEMA, lines))

    def test_count_mismatch(self):
        lines = _file_lines([_record()])
        lines[0] = flowrecords_header_line("test", 5)
        assert any("declares 5 records" in e
                   for e in validate(FLOWRECORDS_SCHEMA, lines))

    def test_unsorted_body_rejected(self):
        records = [_record(uid="S00000002"), _record(uid="S00000001",
                                                   src_port=9)]
        lines = [flowrecords_header_line("test", 2)] + \
            sorted((r.to_line() for r in records), reverse=True)
        assert any("not sorted" in e
                   for e in validate(FLOWRECORDS_SCHEMA, lines))

    def test_missing_and_unknown_fields(self):
        doc = _record().to_dict()
        del doc["uid"]
        doc["bogus"] = 1
        lines = [flowrecords_header_line("test", 1),
                 json.dumps(doc, sort_keys=True)]
        errors = validate(FLOWRECORDS_SCHEMA, lines)
        assert any("missing fields ['uid']" in e for e in errors)
        assert any("unknown fields ['bogus']" in e for e in errors)

    @pytest.mark.parametrize("field,value,fragment", [
        ("src_port", 70000, "out of range"),
        ("src_port", True, "out of range"),
        ("protocol", 300, "protocol out of range"),
        ("uid", "", "uid must be null"),
        ("orig_pkts", -1, "non-negative"),
        ("tcp_flags", 0x1FF, "tcp_flags out of range"),
        ("close_reason", "vanished", "close_reason"),
        ("first_ts", "soon", "must be a number"),
    ])
    def test_field_violations(self, field, value, fragment):
        doc = _record().to_dict()
        doc[field] = value
        lines = [flowrecords_header_line("test", 1),
                 json.dumps(doc, sort_keys=True)]
        assert any(fragment in e
                   for e in validate(FLOWRECORDS_SCHEMA, lines))

    def test_reversed_timestamps_rejected(self):
        lines = _file_lines([_record(first_ts=9.0, last_ts=1.0)])
        assert any("first_ts > last_ts" in e
                   for e in validate(FLOWRECORDS_SCHEMA, lines))

    def test_bool_record_count_rejected(self):
        lines = _file_lines([_record()])
        lines[0] = json.dumps({"schema": FLOWRECORDS_SCHEMA, "app": "x",
                               "records": True})
        assert any("records must be a non-negative int" in e
                   for e in validate(FLOWRECORDS_SCHEMA, lines))

    def test_null_uid_allowed(self):
        lines = _file_lines([_record(uid=None)])
        assert validate(FLOWRECORDS_SCHEMA, lines) == []


class TestFiveTupleIdentity:
    def test_canonical_symmetry(self):
        forward = _tuple()
        assert forward.canonical() == forward.reversed().canonical()
        assert hash(forward.canonical()) == \
            hash(forward.reversed().canonical())

    def test_canonical_with_origin(self):
        low_first = FiveTuple(Addr("1.1.1.1"), Addr("2.2.2.2"),
                              10, 20, PROTO_TCP)
        canon, src_first = low_first.canonical_with_origin()
        assert src_first and canon == low_first
        canon2, src_first2 = low_first.reversed().canonical_with_origin()
        assert not src_first2 and canon2 == canon

    def test_port_breaks_address_tie(self):
        a = FiveTuple(Addr("1.1.1.1"), Addr("1.1.1.1"), 9, 5, PROTO_UDP)
        canon = a.canonical()
        assert (canon.src_port, canon.dst_port) == (5, 9)

    def test_eq_hash_respect_all_fields(self):
        assert _tuple() == _tuple()
        assert _tuple() != _tuple(proto=PROTO_UDP)
        assert _tuple() != _tuple(sport=4321)
        assert _tuple() != "10.0.0.1:1234"
        assert len({_tuple(), _tuple(), _tuple(sport=4321)}) == 2

    def test_repr_names_protocol(self):
        assert "/tcp" in repr(_tuple())
        assert "/udp" in repr(_tuple(proto=PROTO_UDP))
        assert "10.0.0.1:1234" in repr(_tuple())


class TestFlowTable:
    def test_bidirectional_accounting(self):
        table = FlowTable(uid_format=format_record_uid)
        flow = _tuple()
        table.account(flow, 1.0, payload_len=100, tcp_flags=SYN, ordinal=1)
        table.account(flow.reversed(), 2.0, payload_len=40,
                      tcp_flags=SYN | ACK, ordinal=2)
        table.account(flow, 3.5, payload_len=60, tcp_flags=FIN, ordinal=3)
        assert len(table) == 1
        table.finish()
        (record,) = table.records()
        assert (record.src, record.src_port) == ("10.0.0.1", 1234)
        assert (record.orig_pkts, record.orig_bytes) == (2, 160)
        assert (record.resp_pkts, record.resp_bytes) == (1, 40)
        assert record.tcp_flags == SYN | ACK | FIN
        assert (record.first_ts, record.last_ts) == (1.0, 3.5)
        assert record.uid == "S00000001"
        assert record.close_reason == "finished"

    def test_uid_names_opening_ordinal(self):
        flow = _tuple()
        table = FlowTable(uid_format=format_record_uid)
        assert table.open(flow, 0.0, 63).uid == "S00000011"
        assert table.open(flow, 0.0).uid is None
        assert FlowTable().open(flow, 0.0, 63).uid is None

    def test_serial_counts_every_first_sight(self):
        table = FlowTable(uid_format=format_record_uid)
        table.account(_tuple(sport=1), 0.0, ordinal=0)
        table.account(_tuple(sport=2), 0.0, ordinal=1)
        table.account(_tuple(sport=1), 1.0, ordinal=2)  # repeat
        assert table.serial == 2
        assert table.get(_tuple(sport=2).canonical()).uid == "S00000001"

    def test_ttl_expiry_vs_capacity_eviction(self):
        table = FlowTable(session_ttl=10.0, max_sessions=2)
        table.account(_tuple(sport=1), 0.0)
        table.run_eviction(20.0)
        assert (table.sessions_expired, table.sessions_evicted) == (1, 0)
        for sport in (2, 3, 4):
            table.account(_tuple(sport=sport), 21.0)
            table.run_eviction(21.0)
        assert table.sessions_evicted == 1
        assert len(table) == 2
        reasons = sorted(r.close_reason for r in table.records())
        assert reasons == ["evicted", "expired"]

    def test_on_evict_counted_contract(self):
        seen = []

        def on_evict(key, reason):
            seen.append((key, reason))
            return len(seen) % 2 == 1  # count every other victim

        table = FlowTable(max_sessions=1, on_evict=on_evict)
        for sport in (1, 2, 3):
            table.account(_tuple(sport=sport), float(sport))
            table.run_eviction(None)
        assert [reason for _, reason in seen] == ["evicted", "evicted"]
        assert table.sessions_evicted == 1  # uncounted victim skipped
        # ...but both victims still sealed into the ledger.
        assert len(table.records()) == 2

    def test_record_lines_sorted(self):
        table = FlowTable(uid_format=format_record_uid)
        for sport in (9, 2, 7):
            table.account(_tuple(sport=sport), 0.0)
        table.finish()
        lines = table.record_lines()
        assert lines == sorted(lines) and len(lines) == 3
        header = flowrecords_header_line("test", len(lines))
        assert validate(FLOWRECORDS_SCHEMA, [header] + lines) == []

    def test_bare_key_recency_mode(self):
        dropped = []
        table = FlowTable(
            max_sessions=2,
            on_evict=lambda key, reason: dropped.append(key) or True)
        for tick, key in enumerate(["a", "b", "c"]):
            table.touch(key, float(tick))
            table.run_eviction(None)
        assert dropped == ["a"]
        assert table.sessions_evicted == 1
        assert table.records() == []  # no ledger entries for bare keys
        table.close("b")  # recency-only close: nothing to seal
        assert table.records() == []

    def test_close_reason_domain(self):
        assert set(CLOSE_REASONS) == {"finished", "expired", "evicted"}

    @pytest.mark.parametrize("evicting", [False, True])
    def test_closed_entry_released(self, evicting, monkeypatch):
        """A sealed flow is its line: neither ``close()`` nor
        ``finish()`` keeps the entry alive."""
        from repro.host import flowtable

        class Entry(flowtable.FlowEntry):
            __slots__ = ("__weakref__",)

        monkeypatch.setattr(flowtable, "FlowEntry", Entry)
        table = FlowTable(uid_format=format_record_uid,
                          max_sessions=100 if evicting else None)
        closed = weakref.ref(table.account(_tuple(sport=1), 1.0))
        finished = weakref.ref(table.account(_tuple(sport=2), 2.0))
        table.close(_tuple(sport=1).canonical())
        gc.collect()
        assert closed() is None and finished() is not None
        table.finish()
        gc.collect()
        assert finished() is None
        assert len(table.record_lines()) == 2

    def test_records_round_trip_lines(self):
        table = FlowTable(uid_format=format_record_uid, max_sessions=2)
        for sport in (9, 2, 7, 5):
            table.account(_tuple(sport=sport), float(sport),
                          payload_len=sport * 10, tcp_flags=SYN)
            table.run_eviction(None)
        table.close(_tuple(sport=5).canonical(), "expired")
        table.finish()
        records = table.records()
        assert [r.close_reason for r in records] == \
            ["evicted", "evicted", "expired", "finished"]
        assert sorted(r.to_line() for r in records) == table.record_lines()

    @pytest.mark.parametrize("evicting", [False, True])
    def test_finish_seals_in_arrival_order(self, evicting):
        table = FlowTable(uid_format=format_record_uid,
                          max_sessions=100 if evicting else None)
        for ordinal, sport in enumerate((9, 2, 7, 5)):
            table.account(_tuple(sport=sport), float(sport),
                          ordinal=ordinal)
        table.close(_tuple(sport=2).canonical())
        table.finish()
        assert len(table) == 0
        assert [r.uid for r in table.records()] == \
            ["S00000001", "S00000000", "S00000002", "S00000003"]


# -- record_lines(): the precompiled format against FlowRecord.to_line ------

_V4 = st.integers(0, 2 ** 32 - 1).map(lambda v: (0xFFFF << 32) | v)
_V6 = st.one_of(
    st.integers(0, 2 ** 128 - 1),
    # Runs of zero groups: the "::" compression cases.
    st.lists(st.sampled_from([0, 0, 0, 1, 0xABCD, 0xFFFF]),
             min_size=8, max_size=8).map(
        lambda groups: sum(g << (16 * (7 - i))
                           for i, g in enumerate(groups))),
    st.sampled_from(["::", "::1", "1::", "2001:db8::1", "1:0:0:2::3",
                     "::ffff:0:1"]).map(lambda text: Addr(text).value),
)
_ADDRS = st.one_of(_V4, _V6)
_TIMES = st.one_of(
    st.floats(0, 2e9, allow_nan=False, allow_infinity=False),
    # Tiny, huge and negative values take record_lines' reference path.
    st.floats(allow_nan=False, allow_infinity=False),
    # Exact half-microsecond ties, where rounding has to agree.
    st.integers(0, 4 * 10 ** 15).map(lambda us: us / 1e6 + 5e-7),
    st.integers(0, 2 ** 31),
    st.sampled_from([1.1234565, 0.1 + 0.2, 1e-7, 1700000000.1234567]))
_UIDS = st.one_of(st.none(), st.text(min_size=1, max_size=8),
                  st.sampled_from(['"q"', "a\\b", "é☃", "\x00\n"]))
_STEPS = st.tuples(
    st.integers(0, 7),                            # which endpoint pair
    st.booleans(),                                # direction
    _TIMES,
    st.integers(0, 1500),                         # payload length
    st.integers(0, 255),                          # TCP flags
    _UIDS,
    st.sampled_from(["account"] * 4 + list(CLOSE_REASONS)))


class _SealWatch(FlowTable):
    """Captures, per seal, the line kept and the reference line
    ``entry.to_record().to_line()`` of the entry as it was sealed."""

    def __init__(self, **options):
        super().__init__(**options)
        self.seals = []

    def _seal(self, entry, reason, texts):
        super()._seal(entry, reason, texts)
        self.seals.append((self._sealed[-1], entry.to_record().to_line()))


class TestRecordLineOracle:
    """``FlowTable`` formats each entry into its line as it seals it;
    ``FlowRecord.to_line`` (``json.dumps``) of the entry's record at
    that moment is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(
               st.tuples(_ADDRS, st.integers(0, 65535), _ADDRS,
                         st.integers(0, 65535), st.sampled_from([6, 17])),
               min_size=8, max_size=8),
           steps=st.lists(_STEPS, max_size=40),
           ttl=st.one_of(st.none(), st.floats(0, 1e9)),
           cap=st.one_of(st.none(), st.integers(1, 4)),
           numbered=st.booleans(), finish=st.booleans())
    def test_record_lines_equal_to_line(self, pairs, steps, ttl, cap,
                                        numbered, finish):
        # Each step's drawn uid text is what its ordinal renders to.
        uids = [step[5] for step in steps]
        table = _SealWatch(uid_format=uids.__getitem__ if numbered else None,
                           session_ttl=ttl, max_sessions=cap)
        for ordinal, (index, forward, ts, length, flags, uid,
                      action) in enumerate(steps):
            src, sport, dst, dport, proto = pairs[index]
            flow = FiveTuple(Addr(src), Addr(dst), sport, dport, proto)
            if not forward:
                flow = flow.reversed()
            if action == "account":
                table.account(flow, ts, payload_len=length,
                              tcp_flags=flags,
                              ordinal=None if uid is None else ordinal)
                table.run_eviction(ts)
            else:
                table.close(flow.key, action)
        if finish:
            table.finish()
        for line, reference in table.seals:
            assert line == reference
        lines = sorted(line for line, __ in table.seals)
        assert table.record_lines() == lines
        # records() parses every line back.
        assert sorted(r.to_line() for r in table.records()) == lines

    @settings(max_examples=500, deadline=None)
    @given(_TIMES)
    def test_timestamp_text_is_json_dumps(self, ts):
        from repro.host.flowtable import _ts_json

        assert _ts_json(ts) == json.dumps(round(ts, 6))


class TestGoldenExport:
    """The CI flow-export job's stream, pinned byte for byte: ``tracegen
    mixed --seed 42`` through ``flowexport`` (records.jsonl)."""

    SHA256 = "9ffff88e7cccd4fc872bf94632708cda2549fd750b7c55e8d58cf71012865eb6"

    def test_fixed_seed_mixed_trace_digest(self, tmp_path):
        import hashlib

        from repro.tools import flowexport, tracegen

        trace = str(tmp_path / "mixed.pcap")
        assert tracegen.main(["mixed", "--seed", "42", "-o", trace]) == 0
        logdir = str(tmp_path / "flows")
        assert flowexport.main(["-r", trace, "--logdir", logdir]) == 0
        with open(f"{logdir}/records.jsonl", "rb") as stream:
            digest = hashlib.sha256(stream.read()).hexdigest()
        assert digest == self.SHA256


class TestFlowExport:
    @pytest.fixture(scope="class")
    def trace_pcap(self, tmp_path_factory):
        from repro.net.pcap import write_pcap
        from repro.net.tracegen import (
            DnsTraceConfig,
            HttpTraceConfig,
            generate_mixed_trace,
        )

        trace = generate_mixed_trace(
            HttpTraceConfig(sessions=5, seed=3),
            DnsTraceConfig(queries=8, seed=3))
        path = str(tmp_path_factory.mktemp("trace") / "mixed.pcap")
        write_pcap(path, trace)
        return path

    def test_export_flows_deterministic(self, trace_pcap):
        from repro.tools.flowexport import export_flows

        first = export_flows(trace_pcap)
        second = export_flows(trace_pcap)
        assert first.record_lines() == second.record_lines()
        assert len(first.records()) == first.serial > 0

    def test_cli_end_to_end(self, trace_pcap, tmp_path, capsys):
        from repro.tools.flowexport import main

        logdir = str(tmp_path / "logs")
        rc = main(["-r", trace_pcap, "--logdir", logdir, "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exported" in out and "records.jsonl: ok" in out

        with open(f"{logdir}/records.jsonl") as stream:
            lines = stream.readlines()
        assert validate(FLOWRECORDS_SCHEMA, lines) == []
        assert json.loads(lines[0])["records"] == len(lines) - 1 > 0
