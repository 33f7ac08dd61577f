"""Backend-resilience bench: dataplane blackhole time and queue bounds.

Two numbers behind the pluggable-FIB robustness story:

* **blackhole time** — the netlink-like backend crashes (tables and
  in-flight ops lost) under seeded nack/drop-ack faults while route
  churn continues; the FEA serves lookups from its shadow table, and on
  reattach the reconciliation pass replays exactly the delta.  The
  metric is virtual seconds from the crash until ``dump()`` again
  equals the shadow.
* **throttled-flush peak queue** — a full-table flush into a 10x-slower
  backend; the FEA answers a FIB XRL once the backend has settled it, so
  the RIB's in-flight window must bound the FEA's un-acked queue no
  matter the table size.
"""

import pytest

from repro.experiments.resilience import (
    run_backend_resilience,
    run_throttled_flush,
)

RESIL_SEED = 7
RESIL_ROUTES = 64
FLUSH_ROUTES = 256
FLUSH_SLOWDOWN = 10
#: 256 routes, one per 10 ms service tick: the backend is the bottleneck
FLUSH_ELAPSED = 2.56
#: (blackhole, repair, deferred, reconcile adds, deletes, served)
RESIL_FINGERPRINT = (0.453, 0.203, 24, 72, 0, 72)


@pytest.mark.chaos
def test_backend_blackhole_time(benchmark):
    box = {}

    def run():
        box["result"] = run_backend_resilience(seed=RESIL_SEED,
                                               routes=RESIL_ROUTES)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = box["result"]
    print()
    print(f"seed={RESIL_SEED} routes={RESIL_ROUTES}")
    print(f"  blackhole time      {result.blackhole_time * 1000:9.3f} ms "
          "(virtual)")
    print(f"  repair time         {result.repair_time * 1000:9.3f} ms "
          "(virtual)")
    print(f"  deferred writes     {result.deferred:6d}")
    print(f"  reconcile adds      {result.reconcile_adds:6d}")
    print(f"  reconcile deletes   {result.reconcile_deletes:6d}")
    print(f"  shadow lookups ok   {result.served_during_outage:6d}")

    # Convergence: the run itself raises if dump != shadow; sanity-check
    # the repair actually replayed the table and the shadow kept serving.
    assert result.reconcile_adds >= RESIL_ROUTES
    assert result.served_during_outage > 0
    assert 0 < result.repair_time <= result.blackhole_time < 10.0
    assert result.fingerprint() == RESIL_FINGERPRINT

    flush = run_throttled_flush(routes=FLUSH_ROUTES,
                                slowdown=FLUSH_SLOWDOWN)
    print(f"  flush peak queue    {flush.peak_pending:6d} "
          f"(window {flush.window})")
    print(f"  flush elapsed       {flush.elapsed * 1000:9.3f} ms (virtual)")
    # The window bound: no unbounded queue growth into a slow backend,
    # and the window actually filled (the backend was the bottleneck).
    assert flush.bounded, (flush.peak_pending, flush.window)
    assert flush.peak_pending == flush.window
    assert abs(flush.elapsed - FLUSH_ELAPSED) <= 0.01 * FLUSH_ELAPSED

    benchmark.extra_info["blackhole_ms"] = round(
        result.blackhole_time * 1000, 3)
    benchmark.extra_info["flush_peak_pending"] = flush.peak_pending


@pytest.mark.chaos
def test_blackhole_time_is_deterministic(benchmark):
    def run():
        return run_backend_resilience(seed=RESIL_SEED, routes=RESIL_ROUTES)

    first = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first.fingerprint() == run().fingerprint()
