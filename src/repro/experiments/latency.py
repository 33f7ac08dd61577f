"""Figures 10-12: route propagation latency through the profiling points.

    "The key metric we care about is how long it takes for a route newly
    received by BGP to be installed into the forwarding engine."

The Router Manager builds one XORP router from :data:`CONFIG` — BGP,
RIB and FEA as separate processes communicating over XRLs — and the
experiment establishes one or two BGP peerings with injecting speakers,
optionally preloads a full synthetic backbone feed, then injects test
routes one at a time and reads the eight profiling points:

1. Entering BGP                      (``bgp``/``route_ribin``)
2. Queued for transmission to RIB    (``bgp``/``route_queued_rib``)
3. Sent to RIB                       (``bgp``/``route_sent_rib``)
4. Arriving at the RIB               (``rib``/``route_arrive_rib``)
5. Queued for transmission to FEA    (``rib``/``route_queued_fea``)
6. Sent to the FEA                   (``rib``/``route_sent_fea``)
7. Arriving at FEA                   (``fea``/``route_arrive_fea``)
8. Entering kernel                   (``fea``/``route_kernel``)

Substitutions vs. the paper's testbed (see DESIGN.md): the experiment is
event-paced rather than 2-second-paced (each route is withdrawn as soon
as the previous one reached the kernel), and runs on the wall clock with
host-local IPC, so the absolute numbers reflect this Python stack rather
than 2004 C++ on FreeBSD — the *shape* (flat latency under a full table,
IPC-hop-dominated profile) is the reproduction target.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from repro.bgp import BgpState
from repro.bgp.messages import UpdateMessage
from repro.core.process import Host
from repro.eventloop import EventLoop, SystemClock
from repro.experiments.synth import synthetic_feed
from repro.net import IPNet, IPv4
from repro.rtrmgr import RouterManager
from repro.simnet.baselines import Speaker, wire

#: The router under test: the feed peering, Figure 12's second peering,
#: and the two interfaces their nexthops resolve through — "we keep one
#: route installed during the test to prevent additional interactions
#: with the RIB".
CONFIG = """
interfaces { interface eth0 { address: 10.0.0.1 } interface eth1 { address: 10.0.1.1 } }
protocols { bgp {
    local-as: 65000 bgp-id: 1.1.1.1
    peer 10.0.0.2 { as: 65002 local-ip: 10.0.0.1 enabled: true }
    peer 10.0.1.2 { as: 65003 local-ip: 10.0.1.1 enabled: true }
} }
"""

PROFILE_POINTS = [
    ("Entering BGP", "bgp", "route_ribin"),
    ("Queued for transmission to the RIB", "bgp", "route_queued_rib"),
    ("Sent to RIB", "bgp", "route_sent_rib"),
    ("Arriving at the RIB", "rib", "route_arrive_rib"),
    ("Queued for transmission to the FEA", "rib", "route_queued_fea"),
    ("Sent to the FEA", "rib", "route_sent_fea"),
    ("Arriving at FEA", "fea", "route_arrive_fea"),
    ("Entering kernel", "fea", "route_kernel"),
]


class LatencyResult:
    """Per-point latency statistics plus the per-route series."""

    def __init__(self, initial_routes: int, peering: str):
        self.initial_routes = initial_routes
        self.peering = peering
        #: per point label -> list of per-route deltas (ms from point 1)
        self.deltas: Dict[str, List[float]] = {
            label: [] for label, __, __ in PROFILE_POINTS}

    def stats(self, label: str) -> Tuple[float, float, float, float]:
        samples = self.deltas[label]
        if not samples:
            return (0.0, 0.0, 0.0, 0.0)
        avg = statistics.mean(samples)
        sd = statistics.stdev(samples) if len(samples) > 1 else 0.0
        return avg, sd, min(samples), max(samples)

    def table(self) -> str:
        """Render the paper's per-figure table (times in ms)."""
        lines = [
            f"Route propagation latency (ms); {self.initial_routes} initial "
            f"routes, {self.peering} peering",
            f"{'Profile Point':<38} {'Avg':>8} {'SD':>8} {'Min':>8} {'Max':>8}",
        ]
        for label, __, __ in PROFILE_POINTS:
            if label == "Entering BGP":
                lines.append(f"{label:<38} {'-':>8} {'-':>8} {'-':>8} {'-':>8}")
                continue
            avg, sd, low, high = self.stats(label)
            lines.append(
                f"{label:<38} {avg:>8.3f} {sd:>8.3f} {low:>8.3f} {high:>8.3f}")
        return "\n".join(lines)

    def kernel_latencies(self) -> List[float]:
        return list(self.deltas["Entering kernel"])

    def ascii_plot(self, width: int = 64, rows: int = 10) -> str:
        """Scatter of kernel-entry latency per route (the figures' y axis)."""
        samples = self.kernel_latencies()
        if not samples:
            return "(no samples)"
        top = max(samples)
        grid = [[" "] * width for __ in range(rows)]
        for index, value in enumerate(samples):
            x = min(width - 1, index * width // max(1, len(samples)))
            y = min(rows - 1, int(value / top * (rows - 1)))
            grid[rows - 1 - y][x] = "*"
        header = (f"kernel-entry latency per route: 0..{top:.2f} ms over "
                  f"{len(samples)} routes")
        return "\n".join([header] + ["".join(row) for row in grid])


def _connect_injector(loop, bgp, peer_addr: str, peer_as: int,
                      name: str) -> Speaker:
    """A speaker on the configured peering *peer_addr*, established."""
    handler = bgp.peers[peer_addr]
    injector = Speaker(loop, name, peer_as, peer_addr)
    injector_peer = injector.add_peer("dut", bgp.local_as)
    injector.start()
    wire(loop, injector_peer, handler)
    if not loop.run_until(
            lambda: handler.fsm.state == BgpState.ESTABLISHED
            and injector_peer.fsm.state == BgpState.ESTABLISHED,
            timeout=30.0):
        raise RuntimeError(f"peering {name} failed to establish")
    return injector


def _drain(loop: EventLoop, predicate, timeout: float = 1800.0) -> bool:
    """Run until *predicate* holds AND the loop has nothing left to do."""
    if not loop.run_until(predicate, timeout=timeout):
        return False
    while True:
        progressed = loop.run_once(block=False)
        if not progressed:
            if predicate():
                return True
            if not loop.run_until(predicate, timeout=timeout):
                return False


def _collect_point_times(processes, prefix_text: str) -> Dict[str, float]:
    """Timestamp of each point's 'add <prefix>' record (latest occurrence)."""
    times: Dict[str, float] = {}
    wanted = f"add {prefix_text}"
    for label, process_name, var_name in PROFILE_POINTS:
        profiler = processes[process_name].profiler
        for timestamp, data in reversed(profiler.var(var_name).entries):
            if data == wanted:
                times[label] = timestamp
                break
    return times


def run_latency_experiment(*, initial_routes: int = 0,
                           same_peering: bool = True,
                           test_routes: int = 255,
                           feed_seed: int = 2004,
                           loop: Optional[EventLoop] = None,
                           progress=None) -> LatencyResult:
    """Run one of the Figure 10-12 experiments.

    * Figure 10: ``initial_routes=0``
    * Figure 11: ``initial_routes=146515, same_peering=True``
    * Figure 12: ``initial_routes=146515, same_peering=False``
    """
    loop = loop if loop is not None else EventLoop(SystemClock())
    manager = RouterManager(Host(loop=loop))
    manager.load(CONFIG)
    manager.commit()
    processes = manager.modules
    bgp, rib, fea = processes["bgp"], processes["rib"], processes["fea"]

    feed_injector = _connect_injector(loop, bgp, "10.0.0.2", 65002, "feed")
    if same_peering:
        test_injector = feed_injector
        test_nexthop = "10.0.0.2"
    else:
        test_injector = _connect_injector(loop, bgp, "10.0.1.2", 65003, "test")
        test_nexthop = "10.0.1.2"

    # Preload the backbone feed.
    if initial_routes:
        loaded = 0
        for attributes, prefixes in synthetic_feed(initial_routes,
                                                   seed=feed_seed):
            feed_injector.inject(UpdateMessage(attributes=attributes,
                                               nlri=prefixes))
            loaded += len(prefixes)
            if progress is not None and loaded % 20000 < len(prefixes):
                progress(f"injected {loaded}/{initial_routes} feed routes")
            # Drain periodically so buffers stay bounded.
            loop.run_until(lambda: bgp.txq.idle, timeout=60.0)
        if not _drain(loop, lambda: (
                bgp.decision.route_count >= initial_routes
                and bgp.fanout.queue_length == 0
                and bgp.txq.idle and rib.txq.idle)):
            raise RuntimeError(
                f"feed preload incomplete: {bgp.decision.route_count}"
                f"/{initial_routes}")
        if progress is not None:
            progress(f"feed loaded: {bgp.decision.route_count} routes")

    # Enable the profiling points (via their XRL-facing profilers).
    for __, process_name, var_name in PROFILE_POINTS:
        processes[process_name].profiler.enable(var_name)

    from repro.bgp.attributes import ASPath, Origin, PathAttributeList

    test_attrs = PathAttributeList(
        origin=Origin.IGP,
        as_path=ASPath.from_sequence(
            65002 if same_peering else 65003),
        nexthop=IPv4(test_nexthop))

    result = LatencyResult(initial_routes,
                           "same" if same_peering else "different")
    kernel_var = fea.profiler.var("route_kernel")

    for index in range(test_routes):
        prefix = IPNet(IPv4((198 << 24) | (18 << 16) | (index << 8)), 24)
        prefix_text = str(prefix)
        installed = f"add {prefix_text}"
        test_injector.inject(UpdateMessage(attributes=test_attrs,
                                           nlri=[prefix]))
        if not loop.run_until(
                lambda: any(data == installed
                            for __, data in kernel_var.entries),
                timeout=30.0):
            raise RuntimeError(f"route {prefix_text} never reached the kernel")
        times = _collect_point_times(processes, prefix_text)
        base = times.get("Entering BGP")
        if base is not None:
            for label in result.deltas:
                if label in times:
                    result.deltas[label].append((times[label] - base) * 1000.0)
        # Withdraw and let the withdrawal drain before the next route.
        test_injector.inject(UpdateMessage(withdrawn=[prefix]))
        _drain(loop, lambda: (bgp.fanout.queue_length == 0
                              and bgp.txq.idle and rib.txq.idle),
               timeout=30.0)
        if progress is not None and (index + 1) % 50 == 0:
            progress(f"measured {index + 1}/{test_routes} routes")

    return result
