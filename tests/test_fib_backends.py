"""Pluggable FIB backends: ack/nack, retries, backpressure, reconciliation.

Unit coverage for the tentpole of the dataplane-robustness work: the
:class:`FibBackend` implementations (trie, flowrule, netlink-like), the
:class:`BackendDriver` that converges a faulty backend to the FEA's
shadow tables, and the RIB-side :class:`FeaFlowController` pacing.  The
headline property: for *any* seeded fault schedule, after
reconciliation the backend's ``dump()`` equals the shadow table, both
families.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eventloop import EventLoop, SimulatedClock
from repro.fea.backends import (
    BACKENDS,
    BackendFaultPlan,
    FibOp,
    FlowRuleBackend,
    NetlinkFibBackend,
    TrieFibBackend,
    make_backend,
)
from repro.fea.backends.base import ADD, DELETE
from repro.fea.backends.flowrule import (
    TABLE_IPV4,
    TABLE_IPV6,
    entry_to_rule,
    rule_to_entry,
)
from repro.fea.driver import BackendDriver
from repro.fea.fib import Fib, FibEntry
from repro.net import IPNet, IPv4, IPv6
from repro.obs.metrics import MetricsRegistry
from repro.rib.flow import FeaFlowController


def v4_entry(i, nexthop=1, ifname="eth0"):
    return FibEntry(IPNet(IPv4(0x0A000000 + (i << 8)), 24),
                    IPv4(nexthop), ifname)


def v6_entry(i, nexthop=1, ifname="eth1"):
    return FibEntry(IPNet.parse(f"2001:db8:{i:x}::/48"),
                    IPv6(nexthop), ifname)


def collect_completions(backend, loop=None):
    """Open *backend* with a recording completion sink; return the log."""
    log = []
    backend.open(loop, lambda seq, ok, reason: log.append((seq, ok, reason)))
    return log


def make_driver(backend, **options):
    loop = EventLoop(SimulatedClock())
    fib4, fib6 = Fib(32), Fib(128)
    driver = BackendDriver(backend, loop, fib4=fib4, fib6=fib6, **options)
    metrics = MetricsRegistry("fea")
    driver.register_metrics(metrics)
    return loop, fib4, fib6, driver, metrics


def shadow_set(fib):
    return {entry for __, entry in fib.entries()}


# ---------------------------------------------------------------------------
# FibEntry identity (the reconciliation diff currency)


class TestFibEntryIdentity:
    def test_equal_entries_hash_equal(self):
        a, b = v4_entry(1), v4_entry(1)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_any_field_differs_entry_differs(self):
        base = v4_entry(1)
        assert base != v4_entry(2)
        assert base != v4_entry(1, nexthop=9)
        assert base != v4_entry(1, ifname="eth9")

    def test_set_diff_finds_divergence(self):
        want = {v4_entry(i) for i in range(4)}
        have = {v4_entry(i) for i in range(2, 6)}
        assert want - have == {v4_entry(0), v4_entry(1)}
        assert have - want == {v4_entry(4), v4_entry(5)}


# ---------------------------------------------------------------------------
# the backend registry


class TestRegistry:
    def test_all_three_backends_registered(self):
        assert set(BACKENDS) == {"trie", "flowrule", "netlink"}

    @pytest.mark.parametrize("name", ["trie", "flowrule", "netlink"])
    def test_make_backend_by_name(self, name):
        assert make_backend(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown FIB backend"):
            make_backend("kernel-of-theseus")


# ---------------------------------------------------------------------------
# trie backend: synchronous, always acks


class TestTrieBackend:
    def test_sync_ack_and_dump(self):
        backend = TrieFibBackend()
        log = collect_completions(backend)
        backend.apply([FibOp(ADD, v4_entry(1), seq=11),
                       FibOp(ADD, v6_entry(2), seq=12)])
        assert log == [(11, True, ""), (12, True, "")]
        assert backend.dump(32) == [v4_entry(1)]
        assert backend.dump(128) == [v6_entry(2)]

    def test_delete_and_lookup(self):
        backend = TrieFibBackend()
        collect_completions(backend)
        backend.apply([FibOp(ADD, v4_entry(1), seq=1),
                       FibOp(ADD, v4_entry(2), seq=2)])
        match = backend.lookup(IPv4(0x0A000101))  # inside 10.0.1.0/24
        assert match == v4_entry(1)
        backend.apply([FibOp(DELETE, v4_entry(1), seq=3)])
        assert backend.lookup(IPv4(0x0A000101)) is None
        assert len(backend) == 1


# ---------------------------------------------------------------------------
# flow-rule backend: routes <-> match/action rules


class TestFlowRuleBackend:
    def test_entry_to_rule_shape(self):
        rule = entry_to_rule(v4_entry(3, nexthop=7, ifname="sw0"))
        assert rule.table == TABLE_IPV4
        assert rule.priority == 24  # longest-prefix-match via priority
        assert rule.match == {"ipv4_dst": "10.0.3.0/24"}
        assert rule.actions == [("set_next_hop", "0.0.0.7"),
                                ("output", "sw0")]

    @pytest.mark.parametrize("entry", [
        v4_entry(1), v4_entry(2, nexthop=0, ifname="eth3"),
        v6_entry(4), v6_entry(5, nexthop=0, ifname=""),
    ])
    def test_rule_round_trip(self, entry):
        assert rule_to_entry(entry_to_rule(entry)) == entry

    def test_apply_and_dump_both_families(self):
        backend = FlowRuleBackend()
        log = collect_completions(backend)
        backend.apply([FibOp(ADD, v4_entry(1), seq=1),
                       FibOp(ADD, v6_entry(2), seq=2),
                       FibOp(ADD, v4_entry(3), seq=3)])
        assert all(ok for __, ok, __r in log)
        assert set(backend.dump(32)) == {v4_entry(1), v4_entry(3)}
        assert set(backend.dump(128)) == {v6_entry(2)}
        assert len(backend.rules(TABLE_IPV4)) == 2
        assert len(backend.rules(TABLE_IPV6)) == 1
        backend.apply([FibOp(DELETE, v4_entry(1), seq=4)])
        assert set(backend.dump(32)) == {v4_entry(3)}
        assert backend.rules_removed == 1

    def test_add_overwrites_rule_for_same_prefix(self):
        backend = FlowRuleBackend()
        collect_completions(backend)
        backend.apply([FibOp(ADD, v4_entry(1, nexthop=1), seq=1),
                       FibOp(ADD, v4_entry(1, nexthop=2), seq=2)])
        assert backend.dump(32) == [v4_entry(1, nexthop=2)]
        assert len(backend) == 1


# ---------------------------------------------------------------------------
# netlink-like backend: bounded async queue + seeded faults


class TestNetlinkBackend:
    def test_completions_are_asynchronous(self):
        loop = EventLoop(SimulatedClock())
        backend = NetlinkFibBackend()
        log = collect_completions(backend, loop)
        backend.apply([FibOp(ADD, v4_entry(1), seq=1)])
        assert log == []  # nothing acked within apply()
        assert loop.run_until(lambda: len(log) == 1, timeout=5)
        assert log == [(1, True, "")]
        assert backend.dump(32) == [v4_entry(1)]

    def test_queue_overflow_nacks_enobufs(self):
        loop = EventLoop(SimulatedClock())
        backend = NetlinkFibBackend(queue_capacity=2)
        log = collect_completions(backend, loop)
        backend.apply([FibOp(ADD, v4_entry(i), seq=i) for i in range(5)])
        rejected = [(seq, reason) for seq, ok, reason in log if not ok]
        assert rejected == [(2, "ENOBUFS"), (3, "ENOBUFS"), (4, "ENOBUFS")]
        assert backend.stats.rejected == 3
        assert loop.run_until(lambda: len(backend.dump(32)) == 2, timeout=5)

    def test_seeded_nack_and_drop_ack(self):
        loop = EventLoop(SimulatedClock())
        plan = BackendFaultPlan(seed=3, nack_probability=0.5,
                                drop_ack_probability=0.5)
        backend = NetlinkFibBackend(fault_plan=plan)
        log = collect_completions(backend, loop)
        ops = [FibOp(ADD, v4_entry(i), seq=i) for i in range(40)]
        backend.apply(ops)
        assert loop.run_until(lambda: backend.queue_depth == 0, timeout=30)
        stats = backend.stats
        assert stats.nacked > 0 and stats.dropped_acks > 0
        # Conservation: every queued op was nacked, applied+acked, or
        # applied with its ack dropped.
        assert stats.nacked + stats.applied == 40
        assert stats.acked + stats.dropped_acks == stats.applied
        assert len(log) == stats.acked + stats.nacked

    def test_crash_loses_queue_and_tables_and_signals_health(self):
        loop = EventLoop(SimulatedClock())
        backend = NetlinkFibBackend()
        health = []
        backend.set_health_listener(health.append)
        collect_completions(backend, loop)
        backend.apply([FibOp(ADD, v4_entry(1), seq=1)])
        assert loop.run_until(lambda: len(backend.dump(32)) == 1, timeout=5)
        backend.apply([FibOp(ADD, v4_entry(2), seq=2)])
        backend.crash()
        assert not backend.healthy
        assert health == [False]
        assert backend.dump(32) == [] and backend.queue_depth == 0
        assert backend.stats.lost == 1
        # Ops sent into the dead channel vanish silently.
        backend.apply([FibOp(ADD, v4_entry(3), seq=3)])
        assert backend.stats.lost == 2
        backend.restart()
        assert backend.healthy and health == [False, True]

    def test_channel_crash_can_preserve_tables(self):
        loop = EventLoop(SimulatedClock())
        backend = NetlinkFibBackend()
        collect_completions(backend, loop)
        backend.apply([FibOp(ADD, v4_entry(1), seq=1)])
        assert loop.run_until(lambda: len(backend.dump(32)) == 1, timeout=5)
        backend.crash(lose_tables=False)
        assert backend.dump(32) == [v4_entry(1)]


# ---------------------------------------------------------------------------
# the driver: retries, timeouts, degradation, reconciliation


class TestBackendDriver:
    def test_sync_backend_settles_immediately(self):
        __, fib4, __f6, driver, metrics = make_driver(TrieFibBackend())
        driver.add(v4_entry(1))
        driver.add(v6_entry(2))
        driver.delete(v4_entry(1).net)
        assert driver.settled and driver.queued == 0
        assert shadow_set(fib4) == set()
        assert driver.backend.dump(32) == []
        assert driver.backend.dump(128) == [v6_entry(2)]
        assert metrics.get("fea.backend.acks").value == 3
        assert driver.status() == "synced"

    def test_nack_retries_with_backoff_then_gives_up(self):
        plan = BackendFaultPlan(seed=1, nack_probability=1.0)
        backend = NetlinkFibBackend(fault_plan=plan)
        loop, fib4, __, driver, metrics = make_driver(
            backend, max_attempts=3, retry_base=0.01, ack_timeout=0.5)
        driver.add(v4_entry(1))
        assert loop.run_until(lambda: driver.settled, timeout=30)
        assert metrics.get("fea.backend.nacks").value == 3
        assert metrics.get("fea.backend.retries").value == 2
        assert metrics.get("fea.backend.failed").value == 1
        # The shadow still holds the intent; reconciliation repairs once
        # the fault clears.
        plan.nack_probability = 0.0
        driver.reconcile()
        assert loop.run_until(lambda: driver.settled, timeout=30)
        assert set(backend.dump(32)) == shadow_set(fib4)

    def test_lost_ack_resubmits_after_timeout(self):
        plan = BackendFaultPlan(seed=1, drop_ack_probability=1.0)
        backend = NetlinkFibBackend(fault_plan=plan)
        loop, fib4, __, driver, metrics = make_driver(
            backend, max_attempts=4, ack_timeout=0.1)
        driver.add(v4_entry(1))
        # Faults roll at drain time: wait for the ack to actually be
        # swallowed before clearing the fault so the retry succeeds.
        assert loop.run_until(lambda: backend.stats.dropped_acks >= 1,
                              timeout=30)
        plan.drop_ack_probability = 0.0
        assert loop.run_until(lambda: driver.settled, timeout=30)
        assert metrics.get("fea.backend.ack_timeouts").value >= 1
        assert metrics.get("fea.backend.acks").value == 1
        assert set(backend.dump(32)) == shadow_set(fib4)

    def test_congestion_latches_at_watermarks(self):
        backend = NetlinkFibBackend(queue_capacity=64)
        loop, __, __f6, driver, __m = make_driver(
            backend, high_watermark=8, low_watermark=2)
        for i in range(10):
            driver.add(v4_entry(i))
        assert driver.congested and driver.status() == "congested"
        # Completions drain; the latch releases only at the low mark.
        assert loop.run_until(lambda: not driver.congested, timeout=30)
        assert driver.queued <= 2
        assert loop.run_until(lambda: driver.settled, timeout=30)

    def test_crash_goes_stale_serves_shadow_reconciles_on_reattach(self):
        backend = NetlinkFibBackend()
        loop, fib4, fib6, driver, metrics = make_driver(backend)
        for i in range(6):
            driver.add(v4_entry(i))
        driver.add(v6_entry(1))
        assert loop.run_until(lambda: driver.settled, timeout=30)
        backend.crash()
        assert driver.stale and driver.status() == "stale"
        # Writes while stale reach only the shadow (graceful degradation:
        # lookups keep answering from it) and are counted deferred.
        driver.add(v4_entry(10))
        driver.delete(v4_entry(0).net)
        assert driver.settled  # nothing in flight toward a dead backend
        assert backend.dump(32) == []
        assert metrics.get("fea.backend.deferred").value >= 2
        backend.restart()  # health up-edge triggers reconciliation
        assert not driver.stale
        assert loop.run_until(lambda: driver.settled, timeout=30)
        assert set(backend.dump(32)) == shadow_set(fib4)
        assert set(backend.dump(128)) == shadow_set(fib6)
        assert metrics.get("fea.backend.reconcile.runs").value == 1
        # 5 surviving v4 adds + the stale-time add + the v6 entry.
        assert metrics.get("fea.backend.reconcile.adds").value == 7

    def test_reconcile_deletes_entries_the_shadow_dropped(self):
        backend = NetlinkFibBackend()
        loop, fib4, __, driver, metrics = make_driver(backend)
        for i in range(4):
            driver.add(v4_entry(i))
        assert loop.run_until(lambda: driver.settled, timeout=30)
        # The shadow loses two entries behind the driver's back (as a
        # divergence would after failed deletes); reconcile repairs.
        fib4.remove(v4_entry(0).net)
        fib4.remove(v4_entry(1).net)
        adds, deletes = driver.reconcile()
        assert (adds, deletes) == (0, 2)
        assert loop.run_until(lambda: driver.settled, timeout=30)
        assert set(backend.dump(32)) == shadow_set(fib4)


# ---------------------------------------------------------------------------
# the headline property: any seeded fault schedule reconciles to equality


FAULT_OPS = st.lists(
    st.tuples(st.booleans(),                      # v6?
              st.sampled_from(["add", "delete"]),
              st.integers(min_value=0, max_value=7),   # prefix index
              st.integers(min_value=1, max_value=3)),  # nexthop
    max_size=24,
)


class TestReconciliationProperty:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           nack=st.floats(min_value=0, max_value=0.4),
           drop=st.floats(min_value=0, max_value=0.4),
           ops=FAULT_OPS,
           crash_after=st.none() | st.integers(min_value=0, max_value=23))
    def test_dump_equals_shadow_after_reconciliation(self, seed, nack, drop,
                                                     ops, crash_after):
        plan = BackendFaultPlan(seed=seed, nack_probability=nack,
                                drop_ack_probability=drop, latency=0.002)
        backend = NetlinkFibBackend(queue_capacity=8, fault_plan=plan)
        loop, fib4, fib6, driver, __ = make_driver(
            backend, max_attempts=3, retry_base=0.005, ack_timeout=0.05,
            high_watermark=16, low_watermark=4)
        for index, (is_v6, op, prefix, nexthop) in enumerate(ops):
            if crash_after == index:
                backend.crash()
                backend.restart()
            entry = v6_entry(prefix, nexthop) if is_v6 \
                else v4_entry(prefix, nexthop)
            if op == "add":
                driver.add(entry)
            else:
                driver.delete(entry.net)
        assert loop.run_until(lambda: driver.settled, timeout=120)

        def converged():
            return (set(backend.dump(32)) == shadow_set(fib4)
                    and set(backend.dump(128)) == shadow_set(fib6))

        # Ops that exhausted their retries leave divergence; each
        # reconciliation pass repairs it (repairs themselves can be
        # faulted, hence the loop — the FEA reruns it per health edge).
        for __attempt in range(8):
            if converged():
                break
            driver.reconcile()
            assert loop.run_until(lambda: driver.settled, timeout=120)
        assert converged()


# ---------------------------------------------------------------------------
# RIB-side flow controller: pacing, polling, shedding


class _Route:
    def __init__(self, net):
        self.net = net


class _FakeFea:
    """Records segments; replies with a scripted congestion signal."""

    class _Error:
        is_okay = True

    class _Args:
        def __init__(self, congested):
            self._congested = congested

        def get_bool(self, name):
            return self._congested

    def __init__(self):
        self.segments = []
        self.polls = 0
        self.congested = False
        self.held = []

    def send_segment(self, family, op, routes, batching, on_reply):
        self.segments.append((family, op, [str(r.net) for r in routes]))
        self.held.append(on_reply)

    def flush(self):
        held, self.held = self.held, []
        for on_reply in held:
            on_reply(self._Error(), self._Args(self.congested))

    def poll_status(self, on_reply):
        self.polls += 1
        on_reply(self._Error(), self._Args(self.congested))


def v4_route(i):
    return _Route(IPNet(IPv4(0x0A000000 + (i << 8)), 24))


class TestFeaFlowController:
    def make(self, fea, **options):
        loop = EventLoop(SimulatedClock())
        options.setdefault("batch_limit", lambda: 8)
        flow = FeaFlowController(loop, send_segment=fea.send_segment,
                                 poll_status=fea.poll_status, **options)
        return loop, flow

    def test_single_event_pumps_singular_segment(self):
        fea = _FakeFea()
        __, flow = self.make(fea)
        flow.submit_batch(32, "add", [v4_route(1)])
        assert fea.segments == [(32, "add", ["10.0.1.0/24"])]

    def test_batch_segments_at_limit(self):
        fea = _FakeFea()
        __, flow = self.make(fea)
        flow.submit_batch(32, "add", [v4_route(i) for i in range(20)])
        assert [len(nets) for __f, __o, nets in fea.segments] == [8, 8, 4]

    def test_runs_break_at_op_boundaries(self):
        fea = _FakeFea()
        fea.congested = True
        loop, flow = self.make(fea, poll_interval=0.01)
        flow.submit_batch(32, "add", [v4_route(1)])
        fea.flush()  # congested reply pauses; the rest queue up mixed
        flow.submit_batch(32, "add", [v4_route(2)])
        flow.submit_batch(32, "add", [v4_route(3)])
        flow.submit_batch(32, "delete", [v4_route(1)])
        flow.submit_batch(32, "add", [v4_route(4)])
        assert len(fea.segments) == 1
        fea.congested = False
        assert loop.run_until(lambda: not flow.paused, timeout=5)
        # The backlog drains as maximal same-op runs, never across an
        # op boundary: the two adds coalesce, the delete goes alone.
        ops = [(family, op, len(nets)) for family, op, nets in fea.segments]
        assert ops == [(32, "add", 1), (32, "add", 2), (32, "delete", 1),
                       (32, "add", 1)]

    def test_congested_reply_pauses_until_poll_clears(self):
        fea = _FakeFea()
        fea.congested = True
        loop, flow = self.make(fea, poll_interval=0.01)
        flow.submit_batch(32, "add", [v4_route(1)])
        fea.flush()  # reply says congested
        assert flow.paused
        flow.submit_batch(32, "add", [v4_route(2)])
        assert len(fea.segments) == 1  # backlog held while paused
        fea.congested = False
        assert loop.run_until(lambda: not flow.paused, timeout=5)
        fea.flush()
        assert fea.polls >= 1
        assert len(fea.segments) == 2
        assert loop.run_until(lambda: flow.idle, timeout=5)

    def test_window_bounds_inflight_operations(self):
        fea = _FakeFea()
        loop, flow = self.make(fea, window=8)
        flow.submit_batch(32, "add", [v4_route(i) for i in range(30)])
        sent = sum(len(nets) for __f, __o, nets in fea.segments)
        assert sent == 8  # nothing beyond the window until replies
        fea.flush()
        loop.run(duration=0.1)
        assert sum(len(n) for __f, __o, n in fea.segments) == 16

    def test_shed_scans_are_amortised_over_distinct_prefixes(self):
        """10 000 distinct prefixes into a paused controller: nothing is
        superseded, so rescanning on every intake above the watermark
        (~9 000 full scans of a growing queue) would buy nothing."""
        fea = _FakeFea()
        fea.congested = True
        __, flow = self.make(fea, high_watermark=1024)
        flow.submit_batch(32, "add", [v4_route(0)])
        fea.flush()  # the congested reply pauses the pump
        assert flow.paused
        scans = []
        shed = flow._shed
        flow._shed = lambda: (scans.append(flow.depth), shed())
        for i in range(1, 10_001):
            flow.submit_batch(32, "add", [v4_route(i)])
        assert flow.depth == 10_000 and flow.shed_total == 0
        assert len(scans) <= 10_000 // 1024 + 1
        # Still bounded by distinct prefixes: a flap of every queued
        # prefix is shed back within one watermark of the distinct count.
        for i in range(1, 10_001):
            flow.submit_batch(32, "delete", [v4_route(i)])
        assert flow.depth <= 10_000 + 1024
        assert flow.shed_total >= 10_000 - 1024

    def test_shed_keeps_newest_event_per_prefix(self):
        fea = _FakeFea()
        __, flow = self.make(fea, window=1, high_watermark=6)
        # window=1: the first op goes out, the rest accumulate.
        for round_ in range(5):
            for i in range(4):
                flow.submit_batch(
                    32, "add" if round_ % 2 == 0 else "delete", [v4_route(i)])
        # 20 events over 4 prefixes: superseded ones were shed.
        assert flow.depth <= 6
        assert flow.shed_total > 0
        # Drain: the survivors end with each prefix's newest op.
        fea.congested = False
        while fea.held:
            fea.flush()
        final = {}
        for __f, op, nets in fea.segments:
            for net in nets:
                final[net] = op
        assert all(op == "add" for op in final.values())  # round 4 was adds
