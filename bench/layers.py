"""The per-layer numbers a ``--trace 1`` run adds to a workload: counts and
queue depths read off the running router's metrics registry, per-process
busy time, and the tracer's self times.

Only the ``metrics/1.0`` surface is used for the counts, so the same code
samples the in-process router and the three OS processes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.xrl import XrlArgs
from repro.xrl.xrl import Xrl

from bench.trace import LAYERS, Tracer

TARGETS = ("bgp", "rib", "fea")


def parse_report(report: str) -> Dict[str, float]:
    """``name kind value`` lines -> counters and gauges by name."""
    values = {}
    for line in report.splitlines():
        name, kind, value = line.split(" ", 2)
        if kind != "histogram":
            values[name] = float(value)
    return values


class Sampler:
    """Every 50 ms asks each process for its report and keeps the maxima.

    The requests are asynchronous XRLs from the benchmark's probe router,
    so sampling never blocks the loop it shares with an in-process router;
    :attr:`xrls` counts them so the probe load can be discounted.
    """

    INTERVAL = 0.05

    def __init__(self, router):
        self._router = router
        self._timer = None
        self.maxima: Dict[str, float] = {}
        self.xrls = 0

    def start(self) -> None:
        self._timer = self._router.loop.call_periodic(
            self.INTERVAL, self._tick, name="bench-sampler")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        for target in TARGETS:
            self.xrls += 1
            self._router.probe.send(
                Xrl(target, "metrics", "1.0", "get_metrics", XrlArgs()),
                self._on_report)

    def _on_report(self, error, args) -> None:
        if not error.is_okay:
            return
        maxima = self.maxima
        for name, value in parse_report(args.get_txt("report")).items():
            if value > maxima.get(name, float("-inf")):
                maxima[name] = value


def report_counts(result, router, sampler: Sampler,
                  before: Optional[Dict[str, float]], ops: int, rounds: int,
                  updates_per_round: int) -> None:
    """XRLs per route-op, batches, retries and queue high-water marks over
    *ops* route operations in *rounds* rounds since the *before* scrape."""
    after = router.counters()
    result.attempt()
    if before is None or after is None:
        result.fail("a metrics/1.0 scrape failed: no counts")
        return
    per_round = 1.0 / rounds

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def xrl_total(counter: str) -> float:
        return sum(delta(f"{p}.xrl.{p}.{counter}") for p in TARGETS)

    result.set("bgp.updates_in", updates_per_round)
    result.set("xrl.calls_per_route",
               (delta("bgp.txq.sent") + delta("rib.txq.sent")) / ops)
    result.set("xrl.batches_sent", per_round * xrl_total("batches_sent"))
    result.set("xrl.retries", xrl_total("retries"))
    result.set("xrl.late_replies", xrl_total("late_replies"))
    result.set("rib.flow_shed", delta("rib.flow.shed"))
    result.set("fea.backend_acks", per_round * delta("fea.backend.acks"))
    result.set("fea.backend_nacks", delta("fea.backend.nacks"))
    for metric, gauge in (("bgp.fanout_depth_max", "bgp.fanout.depth"),
                          ("bgp.txq_depth_max", "bgp.txq.depth"),
                          ("rib.txq_depth_max", "rib.txq.depth"),
                          ("rib.flow_queue_max", "rib.flow.queue"),
                          ("fea.backend_pending_max",
                           "fea.backend.peak_pending")):
        result.set(metric, sampler.maxima.get(gauge, 0.0))
    result.set("bench.poll_xrls", router.poll_xrls + sampler.xrls)


def report_trace(result, tracer: Tracer, ops: int,
                 reference_seconds: float, reference_ops: int) -> None:
    """Self time per layer per operation over the *ops* recorded ones,
    coverage of the recorded wall time, and its cost per operation over
    that of the *reference_ops* run through idle wrappers."""
    result.attempt()
    if not (ops and reference_ops and reference_seconds
            and tracer.recorded_seconds):
        result.fail(f"nothing to trace: {ops} operations recorded, "
                    f"{reference_ops} in {reference_seconds} s for reference")
        return
    seconds = dict(tracer.self_seconds)
    for layer in LAYERS:
        result.set(f"{layer}.self_us_per_op",
                   seconds.pop(layer, 0.0) * 1e6 / ops)
    result.set("other.self_us_per_op", sum(seconds.values()) * 1e6 / ops)
    result.set("trace.coverage", sum(tracer.self_seconds.values())
               / tracer.recorded_seconds)
    result.set("trace.overhead_ratio", (tracer.recorded_seconds / ops)
               / (reference_seconds / reference_ops))
    result.set("trace.spans", tracer.span_count)
    result.tracer = tracer
