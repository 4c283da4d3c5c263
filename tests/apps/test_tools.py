"""The command-line tools (hiltic / hilti-build / bro / trace-gen)."""

import json
import os

import pytest

from repro.tools import bro as bro_cli
from repro.tools import hilti_build as build_cli
from repro.tools import hiltic as hiltic_cli
from repro.tools import tracegen as tracegen_cli
from repro.tools import validate as validate_cli

_HELLO = """module Main

import Hilti

void run() {
    call Hilti::print("Hello, World!")
}
"""


@pytest.fixture()
def hello_file(tmp_path):
    path = tmp_path / "hello.hlt"
    path.write_text(_HELLO)
    return str(path)


class TestHiltic:
    def test_compile_only(self, hello_file, capsys):
        assert hiltic_cli.main([hello_file]) == 0
        assert "compiled 1 functions" in capsys.readouterr().out

    def test_run(self, hello_file, capsys):
        assert hiltic_cli.main([hello_file, "--run"]) == 0
        assert "Hello, World!" in capsys.readouterr().out

    def test_print_ir(self, hello_file, capsys):
        hiltic_cli.main([hello_file, "--print-ir"])
        out = capsys.readouterr().out
        assert "Main::run" in out

    def test_interpreted_tier(self, hello_file, capsys):
        assert hiltic_cli.main([hello_file, "--tier", "interpreted",
                                "--run"]) == 0
        assert "Hello, World!" in capsys.readouterr().out

    def test_profile(self, hello_file, capsys):
        hiltic_cli.main([hello_file, "--run", "--profile"])
        out = capsys.readouterr().out
        assert "#profile func/Main::run" in out


class TestHiltiBuild:
    def test_figure3(self, hello_file, capsys):
        assert build_cli.main([hello_file]) == 0
        assert capsys.readouterr().out == "Hello, World!\n"


class TestTraceGenAndBro:
    def test_end_to_end(self, tmp_path, capsys):
        pcap = str(tmp_path / "dns.pcap")
        assert tracegen_cli.main(["dns", "--queries", "50",
                                  "-o", pcap]) == 0
        logdir = str(tmp_path / "logs")
        assert bro_cli.main(["-r", pcap, "--logdir", logdir]) == 0
        out = capsys.readouterr().out
        assert "processed" in out
        assert os.path.exists(os.path.join(logdir, "dns.log"))
        with open(os.path.join(logdir, "dns.log")) as stream:
            header = stream.readline()
        assert header.startswith("#fields\tts\tuid")

    def test_compiled_scripts_flag(self, tmp_path, capsys):
        pcap = str(tmp_path / "http.pcap")
        tracegen_cli.main(["http", "--sessions", "5", "-o", pcap])
        logdir = str(tmp_path / "logs")
        assert bro_cli.main(["-r", pcap, "--compile-scripts",
                             "--stats", "--logdir", logdir]) == 0
        out = capsys.readouterr().out
        assert "glue" in out

    def test_bundled_track_script(self, tmp_path, capsys):
        pcap = str(tmp_path / "http.pcap")
        tracegen_cli.main(["http", "--sessions", "4", "-o", pcap])
        logdir = str(tmp_path / "logs")
        assert bro_cli.main(["-r", pcap, "track.bro",
                             "--logdir", logdir]) == 0


class TestBroOptLevel:
    def test_opt_level_cli_run(self, tmp_path, capsys):
        pcap = str(tmp_path / "http.pcap")
        tracegen_cli.main(["http", "--sessions", "4", "-o", pcap])
        logdir = str(tmp_path / "logs")
        assert bro_cli.main(["-r", pcap, "--compile-scripts", "-O", "0",
                             "--logdir", logdir]) == 0
        assert "processed" in capsys.readouterr().out

    def test_opt_level_rides_in_serve_spec(self):
        # The --serve pool transport rebuilds Bro instances from the
        # picklable lane spec in worker processes; -O must travel in it
        # (it used to be hardcoded to None).
        class _Namespace:
            parsers = "std"
            compile_scripts = True
            watchdog = 7
            opt_level = 0
            metrics = False
            trace_flows = False

        spec = bro_cli._make_spec(_Namespace(), scripts=None)
        assert spec.config["opt_level"] == 0
        assert spec.config["scripts_engine"] == "hilti"
        assert spec.config["watchdog_budget"] == 7

    def test_opt_level_flag_parses_from_registry(self, tmp_path):
        # The argparse choices come straight from OPT_LEVELS, so an
        # out-of-range level is rejected before any work happens.
        from repro.core.optimize import OPT_LEVELS

        pcap = str(tmp_path / "missing.pcap")
        with pytest.raises(SystemExit):
            bro_cli.main(["-r", pcap, "-O", str(max(OPT_LEVELS) + 1)])


class TestBroPacParsers:
    def test_pac_parser_tier_cli(self, tmp_path, capsys):
        pcap = str(tmp_path / "dns.pcap")
        tracegen_cli.main(["dns", "--queries", "30", "-o", pcap])
        logdir = str(tmp_path / "logs")
        assert bro_cli.main(["-r", pcap, "--parsers", "pac",
                             "--logdir", logdir]) == 0
        assert os.path.exists(os.path.join(logdir, "dns.log"))


class TestBroHostCli:
    """bro is a ``run_host_app`` client: the shared flags, the shared
    fingerprint lines, and no silently ignored knob."""

    @staticmethod
    def _fingerprints(out):
        return [line.strip() for line in out.splitlines()
                if "fingerprint: sha256:" in line]

    def test_parallel_fingerprints_match_sequential(self, tmp_path, capsys):
        pcap = str(tmp_path / "http.pcap")
        tracegen_cli.main(["http", "--sessions", "6", "-o", pcap])
        capsys.readouterr()
        assert bro_cli.main(["-r", pcap,
                             "--logdir", str(tmp_path / "seq")]) == 0
        sequential = self._fingerprints(capsys.readouterr().out)
        assert bro_cli.main(["-r", pcap, "--parallel", "--workers", "2",
                             "--backend", "vthread",
                             "--logdir", str(tmp_path / "par")]) == 0
        out = capsys.readouterr().out
        assert "parallel: " in out and "vthread workers" in out
        assert len(sequential) == 2
        assert self._fingerprints(out) == sequential
        for name in ("conn", "http", "files"):
            par = (tmp_path / "par" / f"{name}.log").read_text()
            seq = (tmp_path / "seq" / f"{name}.log").read_text()
            assert sorted(par.splitlines()) == sorted(seq.splitlines())

    def test_memory_budget_evicts_with_conn_log_lines(self, tmp_path,
                                                       capsys):
        """Bro runs the flow layer's memory-budget walk: a connection
        holding out-of-order bytes past the budget is evicted, sealed
        as ``evicted``, and still gets its conn.log line."""
        from repro.core.values import Addr, Time
        from repro.net.packet import ACK, SYN, build_tcp_packet
        from repro.net.pcap import write_pcap

        client, server = Addr("10.0.0.1"), Addr("10.0.0.2")
        frames = [
            build_tcp_packet(client, server, 4000, 80, 100, 0, SYN),
            build_tcp_packet(server, client, 80, 4000, 500, 101,
                             SYN | ACK),
            build_tcp_packet(client, server, 4000, 80, 101, 501, ACK),
            # A segment past a hole: its bytes wait in the reassembler.
            build_tcp_packet(client, server, 4000, 80, 201, 501, ACK,
                             payload=b"x" * 100),
        ]
        # Other traffic until the walk's 64-packet check comes round.
        frames += [build_tcp_packet(Addr(f"10.0.1.{i}"), server,
                                    5000 + i, 80, 0, 0, SYN)
                   for i in range(70)]
        pcap = str(tmp_path / "gap.pcap")
        write_pcap(pcap, [(Time.from_nanos((i + 1) * 1_000_000), frame)
                          for i, frame in enumerate(frames)])
        logdir = tmp_path / "logs"
        assert bro_cli.main(["-r", pcap, "--memory-budget", "50",
                             "--logdir", str(logdir)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (logdir / "flow_records.jsonl").read_text()
                   .splitlines()[1:]]
        evicted = [r["uid"] for r in records
                   if r["close_reason"] == "evicted"]
        assert evicted
        assert {r["src_port"] for r in records
                if r["close_reason"] == "evicted"} >= {4000}
        conn_uids = {line.split("\t")[1] for line in
                     (logdir / "conn.log").read_text().splitlines()
                     if not line.startswith("#")}
        assert set(evicted) <= conn_uids
        assert len(conn_uids) == len(records) == 71


class TestSessionBounds:
    """bpf and the firewall run on the flow layer, so ``--max-sessions``
    and ``--session-ttl`` bound their flows as they bound Bro's: a
    bounded run seals flows as ``expired``/``evicted`` and counts them
    in the ``sessions_*`` series."""

    @pytest.fixture(scope="class")
    def pcap(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("bounds") / "mixed.pcap")
        tracegen_cli.main(["mixed", "--seed", "42", "-o", path])
        return path

    @pytest.mark.parametrize("app", ["bpf", "firewall"])
    def test_bounded_run_expires_and_evicts(self, pcap, app, tmp_path,
                                            capsys):
        from repro.tools import bpf_filter as bpf_cli
        from repro.tools import firewall as firewall_cli

        if app == "bpf":
            main, args = bpf_cli.main, ["udp"]
        else:
            rules = tmp_path / "rules.txt"
            rules.write_text("10.0.0.0/8 * allow\n* * deny\n")
            main, args = firewall_cli.main, ["--rules", str(rules)]
        logdir = tmp_path / "logs"
        assert main(args + ["-r", pcap, "--max-sessions", "2",
                            "--session-ttl", "0.001", "--metrics",
                            "--logdir", str(logdir)]) == 0
        capsys.readouterr()
        reasons = {json.loads(line)["close_reason"] for line in
                   (logdir / "flow_records.jsonl").read_text()
                   .splitlines()[1:]}
        assert {"expired", "evicted"} <= reasons
        series = {entry["name"]: entry["value"] for entry in
                  (json.loads(line) for line in
                   (logdir / "metrics.jsonl").read_text().splitlines()[1:])}
        assert series[f"{app}.sessions_expired"] > 0
        assert series[f"{app}.sessions_evicted"] > 0


class TestValidateCli:
    """``python -m repro.tools.validate``: one command for every report
    format, told which schema by the file itself."""

    @pytest.fixture(scope="class")
    def logdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("validate")
        pcap = str(root / "http.pcap")
        tracegen_cli.main(["http", "--sessions", "4", "-o", pcap])
        logdir = root / "logs"
        assert bro_cli.main(["-r", pcap, "--metrics", "--cpu-breakdown",
                             "--logdir", str(logdir)]) == 0
        return logdir

    @pytest.mark.parametrize("name", [
        "cpu_breakdown.json", "metrics.jsonl", "flow_records.jsonl"])
    def test_run_reports_validate(self, logdir, name, capsys):
        assert validate_cli.main([str(logdir / name)]) == 0
        assert capsys.readouterr().out.endswith(": ok\n")

    def test_min_counts_body_records(self, logdir):
        path = str(logdir / "flow_records.jsonl")
        assert validate_cli.main([path, "--min", "4"]) == 0
        assert validate_cli.main([path, "--min", "5"]) == 1

    def test_require_nonzero_needs_a_breakdown(self, logdir, capsys):
        assert validate_cli.main(
            [str(logdir / "metrics.jsonl"), "--require-nonzero"]) == 1
        assert "no nonzero rule" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["null", "[]", "1", '"x"', "true"])
    @pytest.mark.parametrize("schema", sorted(
        tag for tag, entry in validate_cli.SCHEMAS.items() if entry.record))
    def test_non_object_lines_rejected(self, schema, line):
        """JSON that is not an object — ``null`` included — is a
        rejection wherever a JSON-lines format wants a header or a
        record."""
        header = json.dumps({"schema": schema, "app": "x", "records": 1})
        assert validate_cli.validate(schema, [header, line]) == [
            "line 2 is not an object"]
        assert validate_cli.validate(schema, [line]) == [
            "header is not an object"]

    def test_document_with_trailing_line_rejected(self, logdir, tmp_path):
        """A one-line document tags the file by its first line; the
        line after it still makes the file not JSON."""
        doc = json.loads((logdir / "cpu_breakdown.json").read_text())
        path = tmp_path / "cpu_breakdown.json"
        path.write_text(json.dumps(doc) + "\nnull\n")
        assert any("not JSON" in error
                   for error in validate_cli.validate_file(str(path)))

    @pytest.mark.parametrize("tag", ['"nope/1"', '["nope/1"]'])
    def test_unknown_schema_rejected(self, tmp_path, capsys, tag):
        path = tmp_path / "other.jsonl"
        path.write_text('{"schema": %s}\n{"x": 1}\n' % tag)
        assert validate_cli.main([str(path)]) == 1
        assert "no known schema tag" in capsys.readouterr().out

    def test_not_imported_on_the_run_path(self):
        import subprocess
        import sys

        code = ("import sys, repro.tools.bro, repro.tools.bpf_filter, "
                "repro.tools.firewall, repro.tools.pac_driver, "
                "repro.host.service; "
                "assert 'repro.tools.validate' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True)


def _service_doc(**changes):
    doc = {"schema": "repro-service/1", "pid": 4242, "state": "running",
           "started_ts": 1700000000.5,
           "http": {"host": "127.0.0.1", "port": 8080},
           "config": {"lanes": 2}}
    doc.update(changes)
    return doc


_DRAINED = dict(
    state="drained", exit_code=0, stop_reason="source exhausted",
    totals={"packets_ingested": 10, "packets_processed": 7,
            "packets_shed": 1, "packets_lost": 1, "packets_dropped": 1,
            "packets_dropped_on_stop": 1, "packets_dropped_failed": 0,
            "lane_crashes": 0, "lane_restarts": 0},
    sessions={"open": 0, "evicted": 3, "expired": 0},
    artifacts=["logs/results.log"])


class TestServiceSchema:
    """``repro-service/1``: the live ``service.json`` and the drained
    ``service-final.json`` are one document entry of the table."""

    @pytest.mark.parametrize("doc", [
        _service_doc(), _service_doc(http=None), _service_doc(**_DRAINED)])
    def test_documents_validate(self, doc, tmp_path):
        assert validate_cli.validate("repro-service/1", doc) == []
        path = tmp_path / "service.json"
        path.write_text(json.dumps(doc, indent=2))
        assert validate_cli.main([str(path)]) == 0

    @pytest.mark.parametrize("doc,fragment", [
        (_service_doc(state="stopped"), "state must be"),
        (_service_doc(pid=0), "pid must be a positive int"),
        (_service_doc(http={"host": "h"}), "http must be null or"),
        (_service_doc(extra=1), "unknown fields ['extra']"),
        (_service_doc(state="drained"), "a drained service lacks"),
        (_service_doc(**dict(_DRAINED, totals=dict(
            _DRAINED["totals"], packets_ingested=11))),
         "totals ingested 11 packets, accounted for 10"),
    ])
    def test_violations_rejected(self, doc, fragment):
        errors = validate_cli.validate("repro-service/1", doc)
        assert any(fragment in error for error in errors), errors
