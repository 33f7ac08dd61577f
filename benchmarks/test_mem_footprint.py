"""Memory footprint sanity check (paper §5.1 text).

    "a XORP router holding a full backbone routing table of about 150,000
    routes requires about 120 MB for BGP and 60 MB for the RIB, which is
    simply not a problem on any recent hardware."

A fresh subprocess loads the synthetic feed into the BGP pipeline + RIB +
FEA and reports resident-memory growth, isolated from the other benches.
The target is the paper's order of magnitude (a full table fits
comfortably), accepting that Python objects are fatter than C++ ones —
plus the stage design's known cost of "slightly greater memory usage, due
to some duplication between stages".
"""

import json
import subprocess
import sys

from conftest import FEED_ROUTES

_CHILD = r"""
import json, sys, time

def rss_mb():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0

feed_routes = int(sys.argv[1])
before = rss_mb()
from repro.eventloop import collector
from repro.experiments.latency import run_latency_experiment
imported = rss_mb()
started = time.perf_counter()
run_latency_experiment(initial_routes=feed_routes, same_peering=True,
                       test_routes=1)
load_s = time.perf_counter() - started
after = rss_mb()
print(json.dumps({"before": before, "imported": imported, "after": after,
                  "load_s": load_s,
                  "full_collections": collector.collections[2],
                  "full_gc_s": collector.seconds[2],
                  "young_gc_s": collector.seconds[0] + collector.seconds[1]}))
"""


def test_memory_footprint_full_table(benchmark):
    box = {}

    def run():
        output = subprocess.run(
            [sys.executable, "-c", _CHILD, str(FEED_ROUTES)],
            capture_output=True, text=True, check=True, timeout=1800)
        box["stats"] = json.loads(output.stdout.strip().splitlines()[-1])

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = box["stats"]
    growth = stats["after"] - stats["imported"]
    kb_per_route = growth * 1024.0 / max(FEED_ROUTES, 1)
    print(f"\nRSS at start: {stats['before']:.0f} MB, after imports: "
          f"{stats['imported']:.0f} MB, after loading {FEED_ROUTES} routes: "
          f"{stats['after']:.0f} MB")
    print(f"table cost: {growth:.0f} MB "
          f"(~{kb_per_route:.1f} KB/route across "
          f"all stage copies; paper: ~180 MB total for BGP + RIB in C++)")
    print(f"load: {stats['load_s']:.1f} s, of which "
          f"{stats['full_collections']} full collections "
          f"{stats['full_gc_s']:.1f} s and young collections "
          f"{stats['young_gc_s']:.1f} s")
    benchmark.extra_info["load_s"] = round(stats["load_s"], 1)
    benchmark.extra_info["full_gc_s"] = round(stats["full_gc_s"], 1)
    # A route is stored in three tries of 6-slot nodes whose joins borrow
    # a route's int, its prefix holds an int rather than an address
    # object, and an UPDATE's routes share one nexthop object (DESIGN.md,
    # "Which table is which structure"): 1.4 KB/route measured, 1.6 with
    # the FEA's Fib a fourth trie.  With six tries, an address per prefix
    # and one per nexthop it was 2.8, so the ceiling sits where those
    # coming back would cross it.
    assert kb_per_route <= 2.5, (
        f"table used {growth:.0f} MB, {kb_per_route:.2f} KB/route")
    assert growth > 1, "suspiciously small: did the feed load?"
