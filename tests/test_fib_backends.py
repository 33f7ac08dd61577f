"""Pluggable FIB backends: ack/nack, retries, backpressure, reconciliation.

Unit coverage for the tentpole of the dataplane-robustness work: the
:class:`FibBackend` implementations (in-memory, netlink-like), the
:class:`BackendDriver` that converges a faulty backend to the FEA's
shadow tables, and the RIB's :class:`RouteStream` toward the FEA.  The
headline property: for *any* seeded fault schedule, after
reconciliation the backend's ``dump()`` equals the shadow table, both
families.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.experiments.resilience import run_throttled_flush
from repro.fea import FeaProcess
from repro.fea.backends import (
    BACKENDS,
    BackendFaultPlan,
    FibOp,
    NetlinkFibBackend,
    TrieFibBackend,
    make_backend,
)
from repro.fea.backends.base import ADD, DELETE
from repro.fea.driver import BackendDriver
from repro.fea.fib import Fib, FibEntry
from repro.net import IPNet, IPv4, IPv6
from repro.obs.metrics import MetricsRegistry
from repro.rib import RibProcess, RibRoute
from repro.core.txqueue import RouteStream
from repro.trie import RouteTrie, SnapshotWalk
from repro.xrl import Xrl, XrlArgs, XrlAtom, XrlAtomType, XrlRouter
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.retry import RetryPolicy


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
    def test_both_backends_registered(self):
        assert set(BACKENDS) == {"trie", "netlink"}

    @pytest.mark.parametrize("name", ["trie", "netlink"])
    def test_make_backend_by_name(self, name):
        assert make_backend(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown FIB backend"):
            make_backend("kernel-of-theseus")


# ---------------------------------------------------------------------------
# in-memory backend: synchronous, always acks


class TestTrieBackend:
    def test_sync_ack_and_dump(self):
        backend = TrieFibBackend()
        log = collect_completions(backend)
        backend.apply([FibOp(ADD, v4_entry(1), seq=11),
                       FibOp(ADD, v6_entry(2), seq=12)])
        assert log == [(11, True, ""), (12, True, "")]
        assert backend.dump(32) == [v4_entry(1)]
        assert backend.dump(128) == [v6_entry(2)]

    def test_add_overwrites_and_delete_removes(self):
        backend = TrieFibBackend()
        collect_completions(backend)
        backend.apply([FibOp(ADD, v4_entry(1, nexthop=1), seq=1),
                       FibOp(ADD, v4_entry(2), seq=2),
                       FibOp(ADD, v4_entry(1, nexthop=2), seq=3)])
        assert set(backend.dump(32)) == {v4_entry(1, nexthop=2),
                                         v4_entry(2)}
        backend.apply([FibOp(DELETE, v4_entry(1), seq=4),
                       FibOp(DELETE, v4_entry(9), seq=5)])
        assert backend.dump(32) == [v4_entry(2)]
        assert len(backend) == 1

    def test_each_family_has_its_own_table(self):
        backend = TrieFibBackend()
        collect_completions(backend)
        backend.apply([FibOp(ADD, v4_entry(1), seq=1),
                       FibOp(ADD, v6_entry(1), seq=2),
                       FibOp(ADD, v6_entry(2), seq=3)])
        assert len(backend) == 3
        backend.apply([FibOp(DELETE, v4_entry(1), seq=4)])
        assert backend.dump(32) == []
        assert set(backend.dump(128)) == {v6_entry(1), v6_entry(2)}
        assert len(backend) == 2


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

    def test_drained_ops_write_the_in_memory_tables(self):
        loop = EventLoop(SimulatedClock())
        backend = NetlinkFibBackend(ops_per_completion=4)
        log = collect_completions(backend, loop)
        backend.apply([FibOp(ADD, v4_entry(1), seq=1),
                       FibOp(ADD, v6_entry(2), seq=2),
                       FibOp(ADD, v4_entry(3), seq=3),
                       FibOp(DELETE, v4_entry(1), seq=4)])
        assert len(backend) == 0  # nothing is applied within apply()
        assert loop.run_until(lambda: len(log) == 4, timeout=5)
        assert isinstance(backend, TrieFibBackend)
        assert backend.dump(32) == [v4_entry(3)]
        assert backend.dump(128) == [v6_entry(2)]
        assert len(backend) == 2 and backend.stats.applied == 4


# ---------------------------------------------------------------------------
# the driver: retries, timeouts, degradation, reconciliation


class TestBackendDriver:
    def test_sync_backend_settles_immediately(self):
        __, fib4, __f6, driver, metrics = make_driver(TrieFibBackend())
        driver.add(v4_entry(1))
        driver.add(v6_entry(2))
        driver.delete(v4_entry(1).net)
        assert driver.settled
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
            backend, max_attempts=3, retry_base=0.005, ack_timeout=0.05)
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
# the reply contract: a FIB XRL is answered once the dataplane settled it


def add_entries4(client, count, replies, snapshot):
    """Send one ``add_entries4`` of *count* entries; its reply appends
    ``(ok, snapshot())`` to *replies*."""
    entries = [v4_entry(i) for i in range(count)]
    args = (XrlArgs()
            .add_list("nets", [XrlAtom("net", XrlAtomType.IPV4NET, e.net)
                               for e in entries])
            .add_list("nexthops", [XrlAtom("nexthop", XrlAtomType.IPV4,
                                           e.nexthop) for e in entries])
            .add_list("ifnames", [XrlAtom("ifname", XrlAtomType.TXT,
                                          e.ifname) for e in entries]))
    client.send(Xrl("fea", "fea_fib", "1.0", "add_entries4", args),
                lambda error, __: replies.append((error.is_okay, snapshot())))


class TestFibReplyContract:
    def fea_and_client(self, plan, **driver_options):
        host = Host()
        fea = FeaProcess(host, backend="netlink",
                         backend_options={"fault_plan": plan},
                         driver_options=driver_options)
        client = XrlRouter(host.loop, "cli", host.finder,
                           families=list(host.families))
        return host, fea, client

    def test_reply_waits_until_the_backend_holds_every_entry(self):
        host, fea, client = self.fea_and_client(BackendFaultPlan(latency=0.01))
        replies = []
        add_entries4(client, 32, replies,
                     lambda: set(fea.backend.dump(32)))
        assert host.loop.run_until(lambda: replies, timeout=30)
        assert replies == [(True, {v4_entry(i) for i in range(32)})]

    def test_reply_follows_the_give_up(self):
        host, fea, client = self.fea_and_client(
            BackendFaultPlan(drop_ack_probability=1.0),
            max_attempts=3, ack_timeout=0.1)
        failed = fea.metrics.get("fea.backend.failed")
        replies = []
        add_entries4(client, 4, replies, lambda: failed.value)
        assert host.loop.run_until(lambda: replies, timeout=30)
        assert replies == [(True, 4)]  # answered; reconciliation repairs

    def test_crash_answers_outstanding_replies(self):
        host, fea, client = self.fea_and_client(BackendFaultPlan(latency=0.01))
        replies = []
        add_entries4(client, 8, replies, lambda: fea.driver.stale)
        host.loop.run(duration=0.03)  # about 3 of the 8 acks are back
        assert len(fea.fib4) == 8 and replies == []
        fea.backend.crash()
        assert host.loop.run_until(lambda: replies, timeout=5)
        assert replies == [(True, True)]

    def test_fea_shutdown_mid_flush_empties_the_rib_window(self):
        host = Host()
        fea = FeaProcess(host, backend="netlink", backend_options={
            "fault_plan": BackendFaultPlan(latency=0.01)})
        rib = RibProcess(host, window=16)
        inflight = rib.metrics.get("rib.txq.inflight")
        rib.v4.origin("static").originate_batch(
            [RibRoute(v4_entry(i).net, IPv4("192.168.0.1"), 1, "static")
             for i in range(64)])
        host.loop.run(duration=0.05)
        assert inflight.read() == 16  # the window waits on the backend
        fea.shutdown()
        assert host.loop.run_until(lambda: rib.txq.idle, timeout=30)
        assert inflight.read() == 0

    def test_throttled_flush_is_bounded_by_the_window(self):
        flush = run_throttled_flush(routes=2048, window=32)
        assert flush.peak_pending <= flush.window == 32


# ---------------------------------------------------------------------------
# The RIB's route stream: runs, window, newest op per prefix, ordering


class _Route:
    def __init__(self, net):
        self.net = net


class _FakeFea:
    """Stands in for the XRL router under a stream: records every segment
    and holds its reply until :meth:`answer`."""

    def __init__(self):
        self.loop = EventLoop(SimulatedClock())
        self.segments = []
        self.held = []

    @staticmethod
    def segment(family, op, routes):
        return family, op, [str(route.net) for route in routes]

    def send(self, segment, callback, *, deadline=None, batch=False):
        self.segments.append(segment)
        self.held.append(callback)

    def answer(self, error=None):
        held, self.held = self.held, []
        for callback in held:
            callback(error or XrlError.okay(), XrlArgs())

    def ops(self):
        return [(op, nets) for __, op, nets in self.segments]


def v4_route(i):
    return _Route(IPNet(IPv4(0x0A000000 + (i << 8)), 24))


def v4_net(i):
    return str(v4_route(i).net)


def v4_walk(count):
    """A walk over a trie of *count* routes, for :meth:`RouteStream.dump`
    (the RIB's dumps walk its register stage's trie)."""
    trie = RouteTrie(32)
    for i in range(count):
        route = v4_route(i)
        trie.insert(route.net, route)
    return SnapshotWalk(trie)


def keep_all(route):
    return True


class TestRouteStream:
    def make(self, fea, **options):
        options.setdefault("batch_limit", lambda: 8)
        return RouteStream(fea, fea.segment, **options)

    def test_single_event_pumps_singular_segment(self):
        fea = _FakeFea()
        stream = self.make(fea)
        stream.submit(32, "add", [v4_route(1)])
        assert fea.segments == [(32, "add", ["10.0.1.0/24"])]

    def test_batch_segments_at_limit(self):
        fea = _FakeFea()
        stream = self.make(fea)
        stream.submit(32, "add", [v4_route(i) for i in range(20)])
        assert [len(nets) for __, nets in fea.ops()] == [8, 8, 4]
        assert stream.sent_count == 3

    def test_runs_break_at_op_and_group_boundaries(self):
        fea = _FakeFea()
        stream = self.make(fea, window=1)
        stream.submit(32, "add", [v4_route(1)])  # its reply is held
        stream.submit(32, "add", [v4_route(2), v4_route(3)])
        stream.submit(32, "delete", [v4_route(5)])
        stream.submit(128, "add", [v4_route(6)])
        stream.submit(32, "add", [v4_route(4)])
        assert len(fea.segments) == 1
        stream.window = 8
        fea.answer()
        assert [(family, op, len(nets))
                for family, op, nets in fea.segments[1:]] == [
            (32, "add", 2), (32, "delete", 1), (128, "add", 1),
            (32, "add", 1)]

    def test_segments_are_capped_at_the_window_left(self):
        fea = _FakeFea()
        stream = self.make(fea, window=10)
        stream.submit(32, "add", [v4_route(i) for i in range(30)])
        # 8 (the batch limit), then the 2 the window has left.
        assert [len(nets) for __, nets in fea.ops()] == [8, 2]
        assert stream.inflight == 10 and stream.depth == 20
        fea.answer()
        assert [len(nets) for __, nets in fea.ops()] == [8, 2, 8, 2]

    def test_newer_op_replaces_a_pending_one(self):
        fea = _FakeFea()
        stream = self.make(fea, window=1)
        stream.submit(32, "add", [v4_route(0)])  # its reply is held
        for op in ("add", "delete", "add", "delete"):
            stream.submit(32, op, [v4_route(1)])
        assert stream.depth == 1 and stream.shed == 3
        fea.answer()
        assert fea.ops()[1:] == [("delete", [v4_net(1)])]

    def test_peak_depth_is_bounded_by_distinct_keys_plus_window(self):
        import random

        fea = _FakeFea()
        window = 16
        stream = self.make(fea, window=window)
        rng = random.Random(5)
        newest, peak = {}, 0
        for n in range(10_000):
            i, op = rng.randrange(100), rng.choice(("add", "delete"))
            stream.submit(32, op, [v4_route(i)])
            newest[v4_net(i)] = op
            peak = max(peak, stream.depth + stream.inflight)
            if n % 7 == 0:
                fea.answer()
        assert peak <= 100 + window
        while not stream.idle:
            fea.answer()
        final = {}
        for op, nets in fea.ops():
            final.update(dict.fromkeys(nets, op))
        assert final == newest
        assert stream.shed > 0

    def test_key_is_held_while_in_flight(self):
        fea = _FakeFea()
        stream = self.make(fea)
        stream.submit(32, "add", [v4_route(1)])
        stream.submit(32, "delete", [v4_route(1)])   # waits for the add
        stream.submit(32, "add", [v4_route(2)])      # not held back
        assert fea.ops() == [("add", [v4_net(1)]), ("add", [v4_net(2)])]
        assert stream.depth == 1 and not stream.idle
        fea.answer()
        assert fea.ops()[2:] == [("delete", [v4_net(1)])]
        fea.answer()
        assert stream.idle

    def test_failed_segment_requeues_only_unsuperseded_keys(self):
        fea = _FakeFea()
        policy = RetryPolicy(max_attempts=2, backoff=0.1, jitter=0)
        stream = self.make(fea, retry=policy)
        stream.submit(32, "add", [v4_route(i) for i in range(3)])
        stream.submit(32, "delete", [v4_route(1)])   # newer than the add
        fea.answer(XrlError(XrlErrorCode.SEND_FAILED, "lost"))
        # The superseded add is dropped and the delete leaves at once;
        # the other two wait out the backoff before they are re-sent.
        assert fea.ops()[1:] == [("delete", [v4_net(1)])]
        assert (stream.retries, stream.shed) == (1, 1)
        fea.answer()
        fea.loop.run(duration=0.2)
        assert fea.ops()[2:] == [("add", [v4_net(0), v4_net(2)])]
        # The second failure exhausts max_attempts: dropped and counted.
        fea.answer(XrlError(XrlErrorCode.REPLY_TIMED_OUT, "lost"))
        fea.loop.run(duration=1.0)
        assert len(fea.segments) == 3
        assert stream.failed == 2 and stream.idle

    def test_failures_without_a_policy_are_counted_and_dropped(self):
        fea = _FakeFea()
        stream = self.make(fea)
        stream.submit(32, "add", [v4_route(i) for i in range(3)])
        fea.answer(XrlError(XrlErrorCode.SEND_FAILED, "lost"))
        assert (stream.failed, stream.retries) == (3, 0) and stream.idle
        policy = RetryPolicy(max_attempts=5)
        stream = self.make(fea, retry=policy)
        stream.submit(32, "add", [v4_route(4)])
        fea.answer(XrlError(XrlErrorCode.COMMAND_FAILED, "refused"))
        assert (stream.failed, stream.retries) == (1, 0) and stream.idle

    def test_reset_ignores_stale_replies(self):
        fea = _FakeFea()
        stream = self.make(fea, window=4)
        stream.submit(32, "add", [v4_route(i) for i in range(6)])
        stale = fea.held
        fea.held = []
        stream.reset()
        assert stream.idle and stream.inflight == 0
        stream.submit(32, "add", [v4_route(1)])
        assert fea.ops()[-1] == ("add", [v4_net(1)])
        for callback in stale:
            callback(XrlError.okay(), XrlArgs())
        assert stream.inflight == 1 and len(fea.segments) == 2
        fea.answer()
        assert stream.idle

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            self.make(_FakeFea(), window=0)

    # -- dump: a whole table pulled through the window ---------------------
    def test_dump_sends_each_accepted_route_once_as_adds(self):
        fea = _FakeFea()
        stream = self.make(fea, window=16)
        accepted = {v4_net(i) for i in range(0, 100, 3)}
        stream.dump(32, v4_walk(100),
                    lambda route: str(route.net) in accepted)
        assert fea.segments == []  # read from a turn of its own
        while not stream.idle:
            fea.loop.run_once(block=False)
            fea.answer()
        sent = [net for op, nets in fea.ops() for net in nets]
        assert {op for op, __ in fea.ops()} == {"add"}
        assert sorted(sent) == sorted(accepted)

    def test_submit_does_not_advance_a_pending_walk(self):
        fea = _FakeFea()
        stream = self.make(fea, window=16)
        walk = v4_walk(50)
        stream.dump(32, walk, keep_all)
        # A live op may arrive mid stage message, before the walk's table
        # has seen it: the window has room, yet only the op itself leaves.
        stream.submit(32, "delete", [v4_route(99)])
        assert fea.ops() == [("delete", [v4_net(99)])]
        assert walk.front == v4_route(0).net
        fea.loop.run_once(block=False)  # the dump's own turn fills the window
        assert [len(nets) for __, nets in fea.ops()] == [1, 8, 7]
        fea.answer()  # each reply pulls on the walk by what it freed
        assert [len(nets) for __, nets in fea.ops()[3:]] == [1, 8, 7]

    def test_walk_keeps_depth_and_inflight_within_window_plus_batch(self):
        fea = _FakeFea()
        stream = self.make(fea, window=64)
        stream.dump(32, v4_walk(5000), keep_all)
        peak, turns = 0, 0
        while not stream.idle:
            fea.loop.run_once(block=False)
            turns += 1
            peak = max(peak, stream.depth + stream.inflight)
            held, fea.held = fea.held, []
            for callback in held:
                callback(XrlError.okay(), XrlArgs())
                peak = max(peak, stream.depth + stream.inflight)
        assert peak <= 64 + 8
        assert sum(len(nets) for __, nets in fea.ops()) == 5000
        assert turns >= 5000 // (64 + 8)

    def test_dumped_key_in_flight_is_held_not_sent_twice(self):
        fea = _FakeFea()
        stream = self.make(fea)
        stream.submit(32, "add", [v4_route(1)])
        stream.submit(32, "add", [v4_route(7)])
        stream.dump(32, v4_walk(3), keep_all)
        first, second = fea.held
        fea.held = []
        second(XrlError.okay(), XrlArgs())  # its reply pulls the walk
        assert fea.ops()[2:] == [("add", [v4_net(0), v4_net(2)])]
        assert stream.depth == 1  # route 1's dumped add waits its turn
        first(XrlError.okay(), XrlArgs())
        assert fea.ops()[3:] == [("add", [v4_net(1)])]
        while not stream.idle:
            fea.answer()
        assert len(fea.segments) == 4

    def test_reset_closes_the_walk_and_a_stale_reply_does_not_resume_it(self):
        fea = _FakeFea()
        stream = self.make(fea, window=4)
        walk = v4_walk(20)
        stream.dump(32, walk, keep_all)
        fea.loop.run_once(block=False)
        assert fea.ops() == [("add", [v4_net(i) for i in range(4)])]
        stale, fea.held = fea.held, []
        stream.reset()
        assert walk.exhausted and stream.idle
        for callback in stale:
            callback(XrlError.okay(), XrlArgs())
        fea.loop.run()
        assert len(fea.segments) == 1 and stream.idle

    def test_idle_stays_false_until_the_walk_ends(self):
        fea = _FakeFea()
        stream = self.make(fea, window=4)
        # A walk its keep rejects whole still yields the loop every
        # window's worth of routes, and is pending until it ends.
        stream.dump(32, v4_walk(10), lambda route: False)
        idle = [stream.idle]
        while fea.loop.run_once(block=False):
            idle.append(stream.idle)
        assert idle == [False, False, False, True] and fea.segments == []
        stream.dump(32, v4_walk(10), keep_all)
        idle = [stream.idle]
        while fea.loop.run_once(block=False) or fea.held:
            fea.answer()
            idle.append(stream.idle)
        assert idle[-1] and not any(idle[:-1])
