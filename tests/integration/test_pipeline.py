"""End-to-end: the paper's evaluation pipeline on small traces.

Covers the four configurations of §6.4/§6.5 — {std, pac} parsers ×
{interp, hilti} script engines — and the normalization-based log
agreement methodology of Tables 2 and 3.
"""

import io

import pytest

from repro.apps.bro import Bro, normalize_log
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    generate_dns_trace,
    generate_http_trace,
)


@pytest.fixture(scope="module")
def http_trace():
    return generate_http_trace(HttpTraceConfig(sessions=25, seed=11))


@pytest.fixture(scope="module")
def dns_trace():
    return generate_dns_trace(DnsTraceConfig(queries=150, seed=12))


def _run(trace, parsers="std", engine="interp", pac=None):
    bro = Bro(parsers=parsers, scripts_engine=engine,
              print_stream=io.StringIO(), pac_parsers=pac)
    bro.run(trace)
    return bro


class TestHttpLogs:
    def test_std_interp_produces_logs(self, http_trace):
        bro = _run(http_trace)
        assert len(bro.log_lines("http")) > 0
        assert len(bro.log_lines("files")) > 0
        line = bro.log_lines("http")[0]
        fields = line.split("\t")
        assert len(fields) == 15  # all http.log columns

    def test_table2_http_agreement_high(self, http_trace):
        std = _run(http_trace, parsers="std")
        pac = _run(http_trace, parsers="pac")
        a = normalize_log(std.log_lines("http"), drop_columns=(0,))
        b = normalize_log(pac.log_lines("http"), drop_columns=(0,))
        same = len(set(a) & set(b))
        # Paper: 98.91% identical; tolerate a small band on tiny traces.
        assert same / len(a) > 0.9

    def test_table3_script_tiers_identical(self, http_trace):
        interp = _run(http_trace, engine="interp")
        hilti = _run(http_trace, engine="hilti")
        assert normalize_log(interp.log_lines("http")) == \
            normalize_log(hilti.log_lines("http"))
        assert normalize_log(interp.log_lines("files")) == \
            normalize_log(hilti.log_lines("files"))

    def test_stats_report_components(self, http_trace):
        bro = _run(http_trace, engine="hilti")
        stats = bro.stats
        assert stats["parsing_ns"] > 0
        assert stats["script_ns"] >= 0
        assert stats["glue_ns"] > 0
        assert stats["total_ns"] >= (
            stats["parsing_ns"] + stats["script_ns"] + stats["glue_ns"]
        ) * 0.5


class TestDnsLogs:
    def test_dns_log_written(self, dns_trace):
        bro = _run(dns_trace)
        assert len(bro.log_lines("dns")) > 0

    def test_table2_dns_agreement_very_high(self, dns_trace):
        std = _run(dns_trace, parsers="std")
        pac = _run(dns_trace, parsers="pac")
        a = normalize_log(std.log_lines("dns"), drop_columns=(0,))
        b = normalize_log(pac.log_lines("dns"), drop_columns=(0,))
        same = len(set(a) & set(b))
        assert same / len(a) > 0.99

    def test_table3_dns_identical(self, dns_trace):
        interp = _run(dns_trace, engine="interp")
        hilti = _run(dns_trace, engine="hilti")
        assert normalize_log(interp.log_lines("dns")) == \
            normalize_log(hilti.log_lines("dns"))

    def test_nxdomain_logged(self, dns_trace):
        bro = _run(dns_trace)
        rcodes = {line.split("\t")[11] for line in bro.log_lines("dns")}
        assert "NOERROR" in rcodes
        assert "NXDOMAIN" in rcodes


class TestAllFourConfigurations:
    def test_same_http_log_all_tiers(self, http_trace):
        """pac parsers with both engines; std with both engines — the
        script tier must never change the log, the parser tier only in
        the known semantic corners."""
        results = {}
        from repro.apps.bro.analyzers.pac import PacParsers

        pac = PacParsers()
        for parsers in ("std", "pac"):
            for engine in ("interp", "hilti"):
                bro = _run(http_trace, parsers=parsers, engine=engine,
                           pac=pac if parsers == "pac" else None)
                results[(parsers, engine)] = normalize_log(
                    bro.log_lines("http")
                )
        assert results[("std", "interp")] == results[("std", "hilti")]
        assert results[("pac", "interp")] == results[("pac", "hilti")]


class TestPcapDriver:
    def test_run_pcap(self, tmp_path, http_trace):
        from repro.net.pcap import write_pcap

        path = str(tmp_path / "trace.pcap")
        write_pcap(path, http_trace)
        bro = Bro(print_stream=io.StringIO())
        stats = bro.run_pcap(path)
        assert stats["packets"] == len(http_trace)
        assert len(bro.log_lines("http")) > 0


class TestFinishReleasesFlows:
    def test_closed_udp_flow_released_before_finish_returns(
            self, dns_trace, monkeypatch):
        """End of run closes flows one at a time; each closed flow (its
        analyzer, conn record and span) is released before the next
        closes, not held until the whole table is done."""
        import gc
        import weakref

        from repro.apps.bro import conn

        closed = []

        class Watched(conn.Connection):
            __slots__ = ("__weakref__",)

            def end(self):
                gc.collect()
                assert [ref for ref in closed if ref() is not None] == []
                closed.append(weakref.ref(self))
                super().end()

        monkeypatch.setattr(conn, "Connection", Watched)
        bro = Bro(parsers="std", scripts_engine="interp",
                  print_stream=io.StringIO())
        bro.run(dns_trace[:40])
        assert len(closed) > 1
        assert len(bro.log_lines("conn")) == len(closed)
        gc.collect()
        assert [ref for ref in closed if ref() is not None] == []
