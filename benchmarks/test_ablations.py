"""Ablation benches for the design choices the paper argues for.

1. **Fanout single queue vs. per-peer queues** (§5.1.1): with slow peers,
   the single shared change queue holds one copy of each pending change;
   per-peer queues would hold n copies.
2. **Event-driven vs. scanner inside our own stack** (§2, §8.2):
   re-running the Figure 13 flow with the scanner interval reduced shows
   the latency scales with the scanner interval — the design parameter,
   not the implementation, causes the delay.
3. **Background deletion slicing** (§5.1.2): deleting a large peer table
   must not block the event loop; we measure the longest single
   event-loop stall during a 20k-route peer-down while another peering
   keeps receiving routes.
"""

import sys

from repro.bgp.fanout import FanoutQueue
from repro.eventloop import EventLoop, SimulatedClock
from repro.experiments.routeflow import run_route_flow
from repro.net import IPNet, IPv4


class _Route:
    __slots__ = ("net",)

    def __init__(self, net):
        self.net = net


def test_ablation_fanout_single_queue_memory(benchmark):
    """One queue with n readers vs n queues: measure retained entries."""

    def run():
        loop = EventLoop(SimulatedClock())
        fanout = FanoutQueue("fanout", loop)
        n_peers = 20
        for index in range(n_peers):
            fanout.add_reader(f"peer{index}", lambda *a: None, dump=False)
            fanout.set_reader_busy(f"peer{index}", True)  # all slow
        changes = 2000
        for index in range(changes):
            fanout.add_routes([_Route(IPNet(IPv4(0x0A000000 + (index << 8)), 24))])
        shared_entries = fanout.queue_length
        per_peer_entries = shared_entries * n_peers  # the alternative design
        return shared_entries, per_peer_entries

    shared, per_peer = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\npending entries, 20 slow peers x 2000 changes: "
          f"single shared queue = {shared}, per-peer queues would hold "
          f"= {per_peer}")
    assert shared == 2000
    assert per_peer == 40000


def test_ablation_scanner_interval_drives_latency(benchmark):
    """The scanner *interval* is the latency: halve it, latency halves."""
    box = {}

    def run():
        fast = run_route_flow(kinds=["cisco"], route_count=40,
                              scan_interval=10.0)
        slow = run_route_flow(kinds=["cisco"], route_count=40,
                              scan_interval=30.0)
        box["fast"] = fast.mean_delay("cisco")
        box["slow"] = slow.mean_delay("cisco")

    benchmark.pedantic(run, rounds=1, iterations=1)
    fast, slow = box["fast"], box["slow"]
    print(f"\nscanner mean delay: 10s interval -> {fast:.2f}s, "
          f"30s interval -> {slow:.2f}s")
    assert fast < slow
    assert 2.0 < slow / max(fast, 0.01) < 4.5  # roughly proportional


def test_ablation_background_deletion_responsiveness(benchmark):
    """A 20k-route peer-down must not stall concurrent event handling."""
    from repro.core.stages import (DeletionStage, OriginStage,
                                   RouteTableStage)

    def run():
        loop = EventLoop(SimulatedClock())
        origin = OriginStage("peer-in")
        deleted = []
        sink = RouteTableStage("sink")
        sink.delete_routes = lambda routes, caller=None: deleted.extend(routes)
        sink.add_routes = lambda routes, caller=None: None
        RouteTableStage.plumb(origin, sink)
        for index in range(20000):
            origin.originate(_Route(IPNet(IPv4(0x0B000000 + (index << 8)), 24)))
        # Peering goes down: hand the table to a deletion stage.
        old_routes = origin.routes
        origin.routes = {}
        stage = DeletionStage("del", loop, old_routes, slice_size=256)
        origin.insert_downstream(stage)
        stage.start()
        # A competing event source: a timer that must keep firing on time.
        ticks = []
        loop.call_periodic(0.1, lambda: ticks.append(loop.now()))
        import time

        max_stall = 0.0
        last = time.perf_counter()
        while not stage.done:
            loop.run_once()
            now = time.perf_counter()
            max_stall = max(max_stall, now - last)
            last = now
        return len(deleted), max_stall

    deleted_count, max_stall = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ndeleted {deleted_count} routes in background; "
          f"longest single event-loop stall: {max_stall * 1000:.2f} ms")
    assert deleted_count == 20000
    # One slice (256 deletions) must stay well under human-visible stalls.
    assert max_stall < 0.5
