"""The command-line tools (hiltic / hilti-build / bro / trace-gen)."""

import os

import pytest

from repro.tools import bro as bro_cli
from repro.tools import hilti_build as build_cli
from repro.tools import hiltic as hiltic_cli
from repro.tools import tracegen as tracegen_cli

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

    def test_memory_budget_refused(self, tmp_path, capsys):
        pcap = str(tmp_path / "http.pcap")
        tracegen_cli.main(["http", "--sessions", "2", "-o", pcap])
        with pytest.raises(SystemExit) as excinfo:
            bro_cli.main(["-r", pcap, "--memory-budget", "4096",
                          "--logdir", str(tmp_path / "logs")])
        assert excinfo.value.code != 0
        assert "--memory-budget" in capsys.readouterr().err
        assert not (tmp_path / "logs").exists()
