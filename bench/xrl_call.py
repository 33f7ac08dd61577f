"""``xrl_call``: the IPC plane alone, between two OS processes.

The benchmark's ``SpawnManager`` router is the client and one
``bench.echo_child`` the server.  Both are pinned to the same CPU: the
numbers are then what the two processes cost, comparable with
``xrl.tcp_sameloop_*`` (the same work in one process on one CPU) and free
of the cross-CPU wake-ups that, on this kind of VM, cost ~50 µs each and
swing 2x from minute to minute; a traced run reports the two-CPU figures
beside them.  A run is cycles of: one paper §8.1 transaction — window 100,
ten ``u32`` arguments — for the throughput, then blocks of stop-and-wait
``send_sync`` calls for the round-trip latency, so that both span the
whole run and a slow spell of the host spoils a few of each.  A few
``sum`` calls at the end check that arguments arrive.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter, process_time
from typing import Dict, List, Optional

from repro.experiments.synth import synthetic_prefixes
from repro.xrl import XrlArgs
from repro.xrl.xrl import Xrl

from bench import replay
from bench.deploy import kill_children, spawn_manager, track_children
from bench.echo_child import CLASS_NAME
from bench.harness import (Result, Scale, proc_cpu_seconds, proc_status,
                           repeated_setup, report_latency, rng_for)
from bench.layers import report_trace
from bench.trace import Tracer

ARGS = 10
#: blocks of stop-and-wait round trips after each transaction
RTT_BLOCKS = 5
SUM_CHECKS = 100
#: round trips in a set-up: both interpreters warm, and long enough (~0.2 s)
#: that the ~25 ms by which a child's start differs from one run to the
#: next — it is 60 or 85 ms for a whole run — is a tenth of ``setup_s``
WARMUP_CALLS = 2_000


def _xrl(method: str, args: XrlArgs) -> Xrl:
    return Xrl(CLASS_NAME, "bench", "1.0", method, args)


class _Pair:
    """Client router here, echo child there, pinned onto one CPU."""

    def __init__(self) -> None:
        self.manager = spawn_manager()
        try:
            shell = self.manager.spawn_module(
                "echo", module="bench.echo_child", class_name=CLASS_NAME,
                supervise=False)
            track_children(self.manager)
            self.child_pid = shell.pid
            self._affinity = os.sched_getaffinity(0)
            self.pin(split=False)
            self.loop = self.manager.loop
            self.client = self.manager.xrl
            # Resolve, connect and negotiate the codec before any timing.
            replay.round_trips(self.client, _xrl("noargs", replay.ten_args()),
                               WARMUP_CALLS)
        except BaseException:
            self.close()
            raise

    def pin(self, *, split: bool) -> None:
        """Both processes on the highest allowed CPU; with *split* the
        client moves to the lowest."""
        cpus = sorted(self._affinity)
        os.sched_setaffinity(self.child_pid, {cpus[-1]})
        os.sched_setaffinity(0, {cpus[0] if split else cpus[-1]})

    def cpu(self) -> Dict[str, float]:
        return {"client": process_time(),
                "server": proc_cpu_seconds(self.child_pid)}

    def rss_kb(self) -> int:
        return (proc_status(os.getpid())["rss_kb"]
                + proc_status(self.child_pid)["rss_kb"])

    def close(self) -> None:
        os.sched_setaffinity(0, getattr(self, "_affinity",
                                        os.sched_getaffinity(0)))
        kill_children(self.manager)
        self.manager.shutdown()


def _transactions(pair: _Pair, xrl: Xrl, size: int, count: int,
                  result: Result, **shape) -> List[float]:
    rates = []
    for __ in range(count):
        outcome = replay.transaction(pair.loop, pair.client, xrl, size,
                                     **shape)
        result.attempt(size)
        if outcome["errors"]:
            result.fail("XRL replies with an error", int(outcome["errors"]))
        rates.append(outcome["per_s"])
    return rates


def _check_sums(pair: _Pair, seed: int, result: Result) -> None:
    """``sum`` calls of seeded arguments: do arguments survive the trip?"""
    rng = rng_for(seed, "xrl-sums")
    for __ in range(SUM_CHECKS):
        values = [rng.getrandbits(32) for __ in range(ARGS)]
        args = XrlArgs()
        for index, value in enumerate(values):
            args.add_u32(f"a{index}", value)
        result.attempt()
        error, reply = pair.client.send_sync(_xrl("sum", args), deadline=10.0)
        if (not error.is_okay
                or reply.get_u32("sum") != sum(values) & 0xFFFFFFFF):
            result.fail(f"sum of {values} came back {error} {reply}")


def run(seed: int, seconds: float, trace: bool, scale: Scale) -> Result:
    result = Result("xrl_call", seed, trace)
    size = scale.xrl_transaction
    tracer: Optional[Tracer] = Tracer() if trace else None
    setups, pair = repeated_setup(scale.setups, lambda index: _Pair(),
                                  lambda built: built.close(),
                                  tracer.arm if trace else None)
    result.set_summary("setup_s", setups)

    try:
        noargs = _xrl("noargs", replay.ten_args(ARGS))
        rates: List[float] = []
        cpus: List[Dict[str, float]] = []
        rtts: List[float] = []
        # A traced run needs a transaction for reference and one recorded.
        cycles = max(scale.min_transactions, 2 if trace else 1)
        started = perf_counter()
        while len(rates) < cycles or perf_counter() - started < seconds:
            recording = trace and bool(rates)
            if recording:
                tracer.start()
            before = pair.cpu()
            rates += _transactions(pair, noargs, size, 1, result)
            cpus.append({name: after - before[name]
                         for name, after in pair.cpu().items()})
            if recording:
                tracer.stop()
            rtts += replay.round_trips(pair.client, noargs,
                                       RTT_BLOCKS * scale.block)
        result.set_summary("ops_per_s", rates)
        result.set_summary("cpu_s_per_kop", [
            sum(cpu.values()) / (size / 1000.0) for cpu in cpus])
        result.attempt(len(rtts))
        late = sum(1 for rtt in rtts if rtt == float("inf"))
        if late:
            result.fail("round trips with an error or past 10 s", late)
        report_latency(result, [rtt for rtt in rtts if rtt != float("inf")],
                       scale.block)
        _check_sums(pair, seed, result)
        result.set("rss_mb", pair.rss_kb() / 1024.0)
        result.notes.update(transactions=len(rates), round_trips=len(rtts))

        if trace:
            for side in ("client", "server"):
                result.set(f"xrl.{side}_cpu_us_per_call", statistics.median(
                    cpu[side] for cpu in cpus) * 1e6 / size)
            report_trace(result, tracer, size * (len(rates) - 1),
                         size / rates[0] if rates[0] else 0.0, size)
            variants = {}
            for name, count, shape in (("args0", 0, {}), ("args25", 25, {}),
                                       ("batch16", ARGS, {"group": 16})):
                variants[name] = statistics.median(_transactions(
                    pair, _xrl("noargs", replay.ten_args(count)), size,
                    scale.min_transactions, result, **shape))
                result.set(f"xrl.per_s_{name}", variants[name])
            result.set("xrl.us_per_arg", (1e6 / variants["args25"]
                                          - 1e6 / variants["args0"]) / 25)
            pair.pin(split=True)
            result.set("xrl.per_s_split_cpus", statistics.median(
                _transactions(pair, noargs, size, scale.min_transactions,
                              result)))
            result.set("xrl.rtt_split_cpus_us", statistics.median(
                replay.round_trips(pair.client, noargs,
                                   2 * scale.block)) * 1e6)
    finally:
        if tracer is not None:
            tracer.disarm()
        pair.close()
    if trace:
        # This workload has no feed; the marshalling replays need prefixes.
        result.metrics.update(replay.xrl_plane(
            scale, synthetic_prefixes(scale.replay_routes, seed)))
    return result
