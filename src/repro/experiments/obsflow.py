"""The observability scenario: trace routes BGP → RIB → FEA and scrape
every process over ``metrics/1.0``.

A full XORP-style stack (BGP + RIB + FEA over XRLs, built from
:data:`CONFIG` by the Router Manager) runs on a simulated clock with the
:class:`~repro.obs.Observability` layer armed.  A handful of prefixes are
registered with the tracer, originated into BGP by an external collector
process over BGP's public XRL interface, and followed to the FEA FIB; the
collector then scrapes each process's metrics and pulls the span trees
over the ``trace/1.0`` interface — the same XRL surface any third-party
monitoring process would use.

The run is audited into :class:`~repro.analysis.core.Finding`s:

* ``OBS001`` — a traced route never produced a ``fib`` span (it vanished
  somewhere in the pipeline);
* ``OBS002`` — a metric the scenario must move (FIB size, transmit-queue
  sent counts) is missing or zero in the scraped report;
* ``OBS003`` — a span's timestamp precedes its parent's (causality ran
  backwards).

Everything is simulated-clock deterministic: two identical runs render
byte-identical reports, which the CLI's ``--json`` contract relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.core import Finding
from repro.core.process import Host, XorpProcess
from repro.eventloop import EventLoop, SimulatedClock
from repro.interfaces import TRACE_IDL
from repro.net import IPNet, IPv4
from repro.obs import Observability
from repro.rtrmgr import RouterManager
from repro.xrl import Xrl, XrlArgs

#: The router under test: BGP with no peers, and the interface the
#: traced routes' nexthop resolves through.
CONFIG = """
interfaces { interface eth0 { address: 10.0.0.2 } }
protocols { bgp { local-as: 65002 bgp-id: 2.2.2.2 } }
"""

#: the metrics this scenario must visibly move; zero means broken plumbing
EXPECTED_NONZERO = (
    "fea.fib4.routes",
    "fea.backend.acks",
    "rib.txq.sent",
    "bgp.txq.sent",
)


class ObsFlowReport:
    """Everything one run produced: spans, scrapes, hops, findings."""

    def __init__(self) -> None:
        self.route_count = 0
        #: trace_id -> rendered span lines (the trace/1.0 wire form)
        self.spans: Dict[int, List[str]] = {}
        #: trace_id -> ordered route-visible hop sites
        self.hop_sequences: Dict[int, List[str]] = {}
        #: target -> metrics/1.0 report text
        self.scrapes: Dict[str, str] = {}
        self.findings: List[Finding] = []

    def to_dict(self) -> dict:
        """The byte-stable form: everything but the collector's ``gc.*``
        gauges, which read real time whatever clock the loop runs on, and
        ``xrl.tcp.*``, whose frames per write depend on socket timing."""
        return {
            "route_count": self.route_count,
            "spans": {str(k): v for k, v in sorted(self.spans.items())},
            "hop_sequences": {str(k): v for k, v
                              in sorted(self.hop_sequences.items())},
            "scrapes": {
                target: "".join(line for line in text.splitlines(True)
                                if not _timing_dependent(line))
                for target, text in sorted(self.scrapes.items())},
            "findings": [f.__dict__ for f in self.findings],
        }


def _timing_dependent(line: str) -> bool:
    name = line.split(" ", 1)[0]
    return ".gc." in name or ".xrl.tcp." in name


def _audit_spans(obs: Observability, report: ObsFlowReport) -> None:
    for trace_id in sorted(obs.tracer._traces):
        ctx = obs.tracer.by_id(trace_id)
        report.spans[trace_id] = [s.to_text() for s in ctx.spans]
        report.hop_sequences[trace_id] = obs.tracer.hop_sequence(trace_id)
        if not any(s.kind == "fib" for s in ctx.spans):
            report.findings.append(Finding(
                path="obsflow", line=0, rule="OBS001",
                message=f"traced route {ctx.net} never reached the FEA FIB "
                        f"({len(ctx.spans)} span(s) recorded)"))
        by_id = {s.span_id: s for s in ctx.spans}
        for span in ctx.spans:
            parent = by_id.get(span.parent_id)
            if parent is not None and span.ts < parent.ts:
                report.findings.append(Finding(
                    path="obsflow", line=0, rule="OBS003",
                    message=f"trace {trace_id} span {span.span_id} "
                            f"({span.site}/{span.op}) at t={span.ts} precedes "
                            f"its parent {parent.span_id} at t={parent.ts}"))


def _audit_scrapes(report: ObsFlowReport) -> None:
    values: Dict[str, str] = {}
    for text in report.scrapes.values():
        for line in text.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3:
                values[parts[0]] = parts[2]
    for name in EXPECTED_NONZERO:
        value = values.get(name)
        if value is None:
            report.findings.append(Finding(
                path="obsflow", line=0, rule="OBS002",
                message=f"expected metric {name} missing from the scrape"))
        elif value == "0":
            report.findings.append(Finding(
                path="obsflow", line=0, rule="OBS002",
                message=f"expected metric {name} is zero after the traced "
                        "route flow"))


def run_obs_flow(route_count: int = 6, *,
                 loop: Optional[EventLoop] = None) -> ObsFlowReport:
    """Run the traced route flow + scrape scenario; audit into findings."""
    loop = loop if loop is not None else EventLoop(SimulatedClock())
    host = Host(loop=loop)
    manager = RouterManager(host)
    manager.load(CONFIG)
    manager.commit()
    bgp, fea = manager.modules["bgp"], manager.modules["fea"]
    collector = XorpProcess(host, "collector")
    scraper = collector.create_router("collector")

    report = ObsFlowReport()
    report.route_count = route_count
    obs = Observability(clock=loop.clock.now)
    # Expose the span trees over XRLs so the collector (or any external
    # process) can pull them the same way it scrapes metrics.
    bgp.xrl.bind(TRACE_IDL, obs.tracer)

    prefixes = [IPNet(IPv4(0xC6330000 + (index << 8)), 24)  # 198.51.x.0/24
                for index in range(route_count)]
    with obs:
        for prefix in prefixes:
            obs.trace(prefix)
        for prefix in prefixes:
            args = (XrlArgs().add_ipv4net("net", prefix)
                    .add_ipv4("next_hop", "10.0.0.1").add_bool("unicast", True))
            error, __ = scraper.send_sync(
                Xrl("bgp", "bgp", "1.0", "originate_route4", args),
                deadline=10)
            if not error.is_okay:
                raise RuntimeError(str(error))
        loop.run_until(
            lambda: all(fea.fib4.exact(p) is not None for p in prefixes),
            timeout=60.0)

        # The external scrape: one metrics/1.0 call per process, plus the
        # span trees over trace/1.0.
        for target in ("bgp", "rib", "fea"):
            error, returns = scraper.send_sync(
                Xrl(target, "metrics", "1.0", "get_metrics"), deadline=10)
            report.scrapes[target] = (returns.get_txt("report")
                                      if error.is_okay else f"error: {error}")
        for trace_id in sorted(obs.tracer._traces):
            error, returns = scraper.send_sync(
                Xrl("bgp", "trace", "1.0", "get_spans",
                    XrlArgs().add_u32("trace_id", trace_id)), deadline=10)
            if not error.is_okay:
                report.findings.append(Finding(
                    path="obsflow", line=0, rule="OBS002",
                    message=f"trace/1.0 get_spans({trace_id}) failed: "
                            f"{error}"))

    _audit_spans(obs, report)
    _audit_scrapes(report)
    host.shutdown()
    return report
