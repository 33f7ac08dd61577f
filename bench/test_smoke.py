"""Smoke test of the benchmark itself (``pytest bench/test_smoke.py``).

Outside tier-1's ``testpaths``: it forks real processes and takes ~40 s.
Runs every workload at ``--quick`` scale, untraced and traced, and checks
the result line against the contract and the declarations in ``spec``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import bench
from bench import compare, spec

BENCHMARK_JSON = os.path.join(bench.ROOT, "BENCHMARK.json")


def run_bench(*args, cwd=bench.ROOT):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_is_within_the_contract_limits():
    declared = spec.DECLARED
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)) and len(declared["per_layer"]) <= 128
    assert all(m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert "setup_s" in spec.END_TO_END_NAMES


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One quick run of every workload in both modes: {(name, trace): ...}."""
    out = {}
    for name in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            path = tmp_path_factory.mktemp("records") / f"{name}-{trace}.json"
            done = run_bench("--workload", name, "--seed", "11", "--seconds",
                             "1", "--trace", str(trace), "--quick",
                             "--record", str(path))
            assert done.returncode == 0, done.stderr[-2000:]
            line = json.loads(done.stdout.strip().splitlines()[-1])
            with open(path) as handle:
                out[name, trace] = (line, json.load(handle))
    return out


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_meets_the_contract(records, name, trace):
    line, record = records[name, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    expected = spec.PER_LAYER_NAMES if trace else spec.END_TO_END_NAMES
    assert list(line["metrics"]) == expected
    for metric, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == spec.UNITS[metric]
        assert math.isfinite(entry["value"]), metric
        if not trace:
            assert entry["value"] > 0, metric
    assert record["failures"] == []


def test_traced_runs_report_coverage_and_write_the_trace(records):
    for name in spec.WORKLOAD_NAMES:
        metrics = records[name, 1][0]["metrics"]
        assert metrics["trace.coverage"]["value"] > 0.5, name
        assert metrics["trace.spans"]["value"] > 0, name
    assert records["feed_inproc", 1][0]["metrics"][
        "trace.coverage"]["value"] >= 0.9
    with open(os.path.join(bench.ROOT, "bench", "out", "trace.json")) as handle:
        trace = json.load(handle)
    assert trace["columns"] == ["name", "start_us", "end_us", "parent",
                                "trace_id"]
    assert trace["spans"] and len(trace["spans"][0]) == 5


def test_layers_bypassed_by_a_workload_read_zero(records):
    xrl_call = records["xrl_call", 1][0]["metrics"]
    for layer in ("bgp", "rib", "fea", "trie"):
        assert xrl_call[f"{layer}.self_us_per_op"]["value"] == 0.0
    assert xrl_call["xrl.self_us_per_op"]["value"] > 0.0
    feed = records["feed_inproc", 1][0]["metrics"]
    for layer in ("bgp", "xrl", "rib", "fea", "trie"):
        assert feed[f"{layer}.self_us_per_op"]["value"] > 0.0


def test_both_feed_workloads_consume_the_same_bytes(records):
    inproc = records["feed_inproc", 0][1]["notes"]
    multiproc = records["feed_multiproc", 0][1]["notes"]
    assert inproc["feed_sha256"] == multiproc["feed_sha256"]
    assert inproc["round_updates"] == multiproc["round_updates"]


def test_tracer_restores_every_wrapped_attribute():
    from repro.bgp.session import session_pair
    from repro.eventloop import EventLoop, SystemClock
    from repro.eventloop.eventloop import EventLoop as LoopClass
    from repro.xrl import XrlRouter

    from bench.trace import _SCHEDULERS, BOUNDARIES, Tracer

    owners = {cls for __, cls, __ in BOUNDARIES} | {LoopClass, XrlRouter}
    before = {owner: dict(vars(owner)) for owner in owners}
    session, __ = session_pair(EventLoop(SystemClock()))
    session.on_data = original = lambda data: None
    tracer = Tracer()
    tracer.arm()
    tracer.trace_session(session)
    assert vars(XrlRouter)["send"] is not before[XrlRouter]["send"]
    assert session.on_data is not original
    assert all(vars(LoopClass)[name] is not before[LoopClass][name]
               for name, __ in _SCHEDULERS)
    tracer.disarm()
    for owner in owners:
        assert dict(vars(owner)) == before[owner], owner
    assert session.on_data is original


def test_a_failed_read_back_is_a_failed_operation_not_a_crash(monkeypatch):
    from repro.net import IPNet, IPv4

    from bench import deploy
    from bench.harness import Result
    from bench.oracle import Oracle, check_fib

    def refuse(*args, **kwargs):
        raise deploy.XrlFailed("no reply")

    monkeypatch.setattr(deploy, "call", refuse)
    router = deploy.MultiprocRouter.__new__(deploy.MultiprocRouter)
    router.poll_xrls, router.probe = 0, None  # no children: every XRL fails
    assert router.fib_count() == -1
    assert router.xrl_lookup(IPv4("10.1.2.3")) is deploy.LOST
    assert not router.wait_exact(IPNet(IPv4("10.1.2.0"), 24), None, 0.05)
    assert router.counters() is None
    result = Result("feed_multiproc", 1, False)
    check_fib(router, Oracle([(deploy.STATIC_NET, deploy.STATIC_NEXTHOP)]),
              [IPv4("10.1.2.3")], result)
    assert result.failed == 2 and result.attempted == 2 and not result.correct


def _document(records, scale=1.0):
    """Three identical runs per workload, ``ops_per_s`` scaled by *scale*."""
    runs = []
    for (name, trace), (__, record) in records.items():
        if not trace:
            record = json.loads(json.dumps(record))
            record["metrics"]["ops_per_s"]["value"] *= scale
            runs += [record] * 3
    return {"runs": runs}


def test_compare_tells_ok_from_worse(records, tmp_path, capsys):
    base, same, slow = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    base.write_text(json.dumps(_document(records)))
    same.write_text(json.dumps(_document(records)))
    slow.write_text(json.dumps(_document(records, scale=0.7)))
    assert compare.main([str(base), str(same)]) == 0
    assert " worse " not in capsys.readouterr().out
    assert compare.main([str(base), str(slow)]) == 1
    assert "ops_per_s" in capsys.readouterr().out


def test_without_the_router_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(bench.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "xrl_call", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
