"""Self-test of the benchmark harness, on 2 %-size traces.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only): it
tests the harness, not the program.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

SMALL = ["--scale", "0.02", "--seed", "202"]


def _load(path):
    with open(path) as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """All seven workloads, two rounds each, checks on."""
    out = tmp_path_factory.mktemp("suite")
    code = run.main(SMALL + ["--rounds", "2", "--out", str(out)])
    return code, _load(out / "results.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The traced run of one sequential and the streaming workload."""
    out = tmp_path_factory.mktemp("traced")
    code = run.main(SMALL + ["--rounds", "1", "--trace", "--workloads",
                             "bro-http,svc-bro", "--out", str(out)])
    return code, _load(out / "results.json"), out


def test_every_end_to_end_metric_is_named_with_a_unit(suite):
    code, results = suite
    assert code == 0, results["failures"]
    assert results["claim"] is None
    assert list(results["workloads"]) == run.PUBLIC and len(run.PUBLIC) == 7
    for name, workload in results["workloads"].items():
        for metric, unit, _ in run.END_TO_END:
            row = workload["summary"][metric]
            assert row["unit"] == unit and row["n"] == 2, (name, metric)
            assert row["q1"] <= row["median"] <= row["q3"]
        assert workload["summary"]["fail_frac"]["median"] == 0.0
    for key in ("nproc", "usable_cpus", "python", "commit", "loadavg"):
        assert key in results["host"]
    assert all(len(t["sha256"]) == 64 for t in results["traces"].values())


def test_same_trace_workloads_leave_the_same_bytes(suite):
    _, results = suite
    w = results["workloads"]
    for other in ("bro-http-telem", "bro-pool2"):
        for key in ("fingerprint", "flow_fingerprint"):
            assert w[other][key] == w["bro-http"][key], (other, key)
    assert w["bro-std-http"]["fingerprint"] != w["bro-http"]["fingerprint"]


def test_traced_run_emits_every_layer_metric(traced):
    code, results, out = traced
    assert code == 0, results["failures"]
    names = [name for name, _, _ in run.PER_LAYER]
    for workload in ("bro-http", "svc-bro"):
        layers = results["workloads"][workload]["layers"]
        assert sorted(layers) == sorted(names)
        assert os.path.exists(out / f"trace-{workload}.json")
    http = results["workloads"]["bro-http"]["layers"]
    assert http["engine.instr_per_pkt"] > 0
    assert http["harness.trace_coverage_frac"] >= 0.9
    assert results["workloads"]["svc-bro"]["layers"]["service.overhead"] > 0


def test_spans_nest_and_self_times_fit_the_wall(traced):
    _, _, out = traced
    trace = _load(out / "trace-bro-http.json")
    spans = trace["spans"]
    assert {s[0] for s in spans} >= {"run", "pcap.read", "app.on_packet",
                                     "app.on_end", "logs.save"}
    for name, start, end, parent, run_id, count, busy in spans:
        assert end >= start and busy <= end - start
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    packets = sum(s[5] for s in spans if s[0] == "app.on_packet")
    assert packets == sum(s[5] for s in spans if s[0] == "pcap.read") > 0
    own = child.self_times(spans)
    assert own == trace["self_ns"]
    assert all(ns >= 0 for ns in own.values())
    assert sum(own.values()) <= trace["wall_ns"]


def test_a_child_that_raises_fails_the_run(tmp_path, monkeypatch, capsys):
    def garbage_trace(name, seed, scale, out):
        path = os.path.join(out, "garbage.pcap")
        os.makedirs(out, exist_ok=True)
        with open(path, "wb") as stream:
            stream.write(b"this is not a pcap file")
        return {"name": name, "path": path, "packets": 100,
                "sha256": "0" * 64, "gen_s": 0.0}

    monkeypatch.setattr(run, "make_trace", garbage_trace)
    code = run.main(["--workload", "bpf-mixed", "--seconds", "1",
                     "--trace", "0", "--out", str(tmp_path)])
    assert code != 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 100
    results = _load(tmp_path / "result-bpf-mixed-seed101-trace0.json")
    assert results["workloads"]["bpf-mixed"]["rounds"][0]["fail_frac"] == 1.0


def test_contract_line(tmp_path, capsys):
    code = run.main(SMALL + ["--workload", "bpf-mixed", "--seed", "7",
                             "--seconds", "0.2", "--trace", "0",
                             "--out", str(tmp_path)])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    benchmark = _load(os.path.join(run.ROOT, "BENCHMARK.json"))
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in benchmark["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_a_tampered_fingerprint_trips_the_determinism_check():
    rounds = [{"fingerprint": "a", "flow_fingerprint": "f"},
              {"fingerprint": "a", "flow_fingerprint": "f"}]
    assert run.check_determinism("w", rounds) == []
    rounds[1]["fingerprint"] = "b"
    assert run.check_determinism("w", rounds)


def test_the_seed_decides_the_pcap(tmp_path):
    def sha(seed, out):
        return run.make_trace("dns", seed, 0.02, str(tmp_path / out))["sha256"]

    assert sha(101, "a") == sha(101, "b")
    assert sha(101, "a") != sha(202, "c")


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, base, "higher", 0.07)[0] == "unchanged"
    assert compare.verdict(base, [v * 0.8 for v in base],
                           "higher", 0.07)[0] == "regressed"
    assert compare.verdict(base, [v * 1.2 for v in base],
                           "higher", 0.07)[0] == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base],
                           "lower", 0.07)[0] == "regressed"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, [v * 1.03 for v in noisy],
                           "higher", 0.07)[0] == "unresolved"
    assert compare.verdict([0.0, 0.0], [0.0, 1.0], "lower", 0.0)[0] \
        == "regressed"


def test_benchmark_json_names_what_run_py_measures():
    benchmark = _load(os.path.join(run.ROOT, "BENCHMARK.json"))
    assert benchmark["paths"] == ["benchmarks/e2e"]
    # svc-bro is measured by the suite but not gated by the driver: its
    # ten-seed spread on the recording host is too close to the 0.25 cap.
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (name, child.WORKLOADS[name]["why"]) for name in run.PUBLIC
        if name != "svc-bro"]
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["end_to_end"]] == run.END_TO_END[:4]
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["per_layer"]] == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
