"""Figure 13: BGP route latency induced by a router.

    "We introduced 255 routes from one BGP peer at one second intervals
    and recorded the time that the route appeared at another BGP peer.
    The experiment was performed on XORP, Cisco-4500, Quagga-0.96.5, and
    MRTD-2.2.2a routers. ... This experiment clearly shows the consistent
    behavior achieved by XORP, where the delay never exceeds one second."

Topology: source peer -> router under test -> sink peer.  The router
under test is either our full XORP-style stack (BGP + RIB + FEA processes
over XRLs, built from :data:`CONFIG` by the Router Manager) or one of
the behavioural baselines (event-driven monolithic "MRTD", 30-second
route scanner "Cisco"/"Quagga").  Time is simulated, so a 500-second
experiment runs in well under a second of wall time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bgp import BgpState
from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.messages import UpdateMessage
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4
from repro.rtrmgr import RouterManager
from repro.simnet.baselines import (
    EventDrivenRouterModel,
    ScannerRouterModel,
    Speaker,
    _BaselineRouter,
    wire,
)

SOURCE_AS = 65001
DUT_AS = 65002
SINK_AS = 65003

ROUTER_KINDS = ("xorp", "mrtd", "cisco", "quagga")

#: The XORP router under test: a peering towards the source and one
#: towards the sink, each on the interface its nexthop resolves through.
CONFIG = """
interfaces { interface eth0 { address: 10.0.0.2 } interface eth1 { address: 10.0.1.2 } }
protocols { bgp {
    local-as: 65002 bgp-id: 2.2.2.2
    peer 10.0.0.1 { as: 65001 local-ip: 10.0.0.2 enabled: true }
    peer 10.0.1.1 { as: 65003 local-ip: 10.0.1.2 enabled: true }
} }
"""


class RouteFlowResult:
    """Propagation delays per router kind."""

    def __init__(self) -> None:
        #: kind -> list of (inject_time, delay_seconds)
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    def record(self, kind: str, series: List[Tuple[float, float]]) -> None:
        self.series[kind] = series

    def max_delay(self, kind: str) -> float:
        return max(d for __, d in self.series[kind])

    def mean_delay(self, kind: str) -> float:
        delays = [d for __, d in self.series[kind]]
        return sum(delays) / len(delays)

    def table(self, granularity: float = 1.0) -> str:
        """Summary table plus a coarse sawtooth rendering."""
        lines = ["BGP route latency induced by a router",
                 f"{'router':>8} {'mean(s)':>9} {'max(s)':>8} "
                 f"{'>1s':>6} {'routes':>7}"]
        for kind in self.series:
            delays = [d for __, d in self.series[kind]]
            over = sum(1 for d in delays if d > granularity)
            lines.append(
                f"{kind:>8} {self.mean_delay(kind):>9.2f} "
                f"{self.max_delay(kind):>8.2f} {over:>6} {len(delays):>7}")
        return "\n".join(lines)

    def ascii_plot(self, kind: str, width: int = 64) -> str:
        """A rough Figure 13-style scatter (delay vs injection time)."""
        series = self.series[kind]
        if not series:
            return "(empty)"
        max_delay = max(max(d for __, d in series), 1.0)
        t_max = max(t for t, __ in series)
        rows = 12
        grid = [[" "] * width for __ in range(rows)]
        for t, d in series:
            x = min(width - 1, int(t / max(t_max, 1) * (width - 1)))
            y = min(rows - 1, int(d / max_delay * (rows - 1)))
            grid[rows - 1 - y][x] = "*"
        out = [f"{kind}: delay 0..{max_delay:.1f}s over 0..{t_max:.0f}s"]
        out.extend("".join(row) for row in grid)
        return "\n".join(out)


def run_route_flow(kinds: Optional[List[str]] = None, *,
                   route_count: int = 255,
                   interval: float = 1.0,
                   scan_interval: float = 30.0,
                   session_latency: float = 0.005,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> RouteFlowResult:
    """Run the Figure 13 experiment for each router kind."""
    if kinds is None:
        kinds = list(ROUTER_KINDS)
    result = RouteFlowResult()
    for kind in kinds:
        loop = EventLoop(SimulatedClock())
        source = Speaker(loop, "source", SOURCE_AS, "1.1.1.1")
        sink = Speaker(loop, "sink", SINK_AS, "3.3.3.3")
        source_peer = source.add_peer("dut", DUT_AS)
        sink_peer = sink.add_peer("dut", DUT_AS)
        to_watch = [source_peer.fsm, sink_peer.fsm]

        if kind == "xorp":
            manager = RouterManager(Host(loop=loop))
            manager.load(CONFIG)
            manager.commit()
            dut_in, dut_out = (manager.modules["bgp"].peers[addr]
                               for addr in ("10.0.0.1", "10.0.1.1"))
        else:
            if kind == "mrtd":
                dut: _BaselineRouter = EventDrivenRouterModel(
                    loop, kind, DUT_AS, "2.2.2.2")
            else:  # cisco / quagga: the 30-second scanner design
                dut = ScannerRouterModel(loop, kind, DUT_AS, "2.2.2.2",
                                         scan_interval=scan_interval)
            dut_in = dut.add_peer("in", SOURCE_AS)
            dut_out = dut.add_peer("out", SINK_AS)
            dut.start()
        source.start()
        sink.start()
        wire(loop, source_peer, dut_in, session_latency)
        wire(loop, dut_out, sink_peer, session_latency)
        to_watch.extend([dut_in.fsm, dut_out.fsm])
        if not loop.run_until(
                lambda: all(f.state == BgpState.ESTABLISHED for f in to_watch),
                timeout=120.0):
            raise RuntimeError(f"{kind}: sessions failed to establish")

        attrs = PathAttributeList(origin=Origin.IGP,
                                  as_path=ASPath.from_sequence(SOURCE_AS),
                                  nexthop=IPv4("10.0.0.1"))
        inject_times: Dict = {}
        start = loop.now()
        for index in range(route_count):
            when = start + (index + 1) * interval
            prefix = IPNet(IPv4(0xC6120000 + (index << 8)), 24)  # 198.18.x.0/24
            inject_times[prefix] = when
            loop.call_at(when, lambda p=prefix: source.inject(
                UpdateMessage(attributes=attrs, nlri=[p])))
        if not loop.run_until(lambda: len(sink.arrivals) >= route_count,
                              timeout=route_count * interval
                              + 4 * scan_interval + 120):
            raise RuntimeError(
                f"{kind}: only {len(sink.arrivals)}/{route_count} arrived")
        series = []
        for arrival_time, net in sink.arrivals:
            injected = inject_times.get(net)
            if injected is not None:
                series.append((injected - start, arrival_time - injected))
        series.sort()
        result.record(kind, series)
        if progress is not None:
            progress(f"{kind}: max delay {result.max_delay(kind):.2f}s")
    return result
