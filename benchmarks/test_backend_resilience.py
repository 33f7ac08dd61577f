"""Backend-resilience bench: dataplane blackhole time and queue bounds.

Two numbers behind the pluggable-FIB robustness story:

* **blackhole time** — the netlink-like backend crashes (tables and
  in-flight ops lost) under seeded nack/drop-ack faults while route
  churn continues; the FEA serves lookups from its shadow table, and on
  reattach the reconciliation pass replays exactly the delta.  The
  metric is virtual seconds from the crash until ``dump()`` again
  equals the shadow.
* **throttled-flush peak queue** — a full-table flush into a 10x-slower
  backend; the congested latch plus the RIB's flow controller must keep
  the FEA's un-acked queue under ``high_watermark + window`` no matter
  the table size.
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

    flush = run_throttled_flush(routes=FLUSH_ROUTES,
                                slowdown=FLUSH_SLOWDOWN)
    print(f"  flush peak queue    {flush.peak_pending:6d} "
          f"(bound {flush.pending_bound})")
    print(f"  flush pause polls   {flush.polls_sent:6d}")
    # The watermark bound: no unbounded queue growth into a slow
    # backend, and the backpressure path actually engaged.
    assert flush.bounded, (flush.peak_pending, flush.pending_bound)
    assert flush.paused

    benchmark.extra_info["blackhole_ms"] = round(
        result.blackhole_time * 1000, 3)
    benchmark.extra_info["flush_peak_pending"] = flush.peak_pending


@pytest.mark.chaos
def test_blackhole_time_is_deterministic(benchmark):
    def run():
        return run_backend_resilience(seed=RESIL_SEED, routes=RESIL_ROUTES)

    first = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first.fingerprint() == run().fingerprint()
