"""The event loop owns the full garbage collection
(``repro.eventloop.collector``).

Counted from outside with a ``gc.callbacks`` hook of the test's own: a
full collection happens between two events, when something was promoted
since the last one *and* the time budget allows it; a host that shuts
down hands CPython's own thresholds back.  Time is the module's
clock function, replaced by a clock the test moves — nothing here sleeps.
"""

import gc
import weakref

import pytest

from repro.core.process import Host
from repro.eventloop import EventLoop, collector
from repro.fea import FeaProcess
from repro.net import IPNet, IPv4
from repro.trie import RouteTrie
from tests.test_vector_route_stream import Router

#: what the moved clock makes every full collection appear to take
PAUSE = 0.1
BUDGETED_DELAY = PAUSE / collector.FULL_GC_SHARE


class Watch:
    """Collections per generation, and a clock only the test moves: a full
    collection advances it by PAUSE between the collector's two readings,
    so the budget sees the same pause every time."""

    def __init__(self):
        self.time = 0.0
        self.seen = [0, 0, 0]

    def now(self):
        return self.time

    def on_collection(self, phase, info):
        if phase == "stop":
            self.seen[info["generation"]] += 1
        elif info["generation"] == 2:
            self.time += PAUSE

    @property
    def full(self):
        return self.seen[2]

    @property
    def young(self):
        return self.seen[0] + self.seen[1]


@pytest.fixture
def loop():
    loop = EventLoop()
    loop.run_once(block=False)  # the first turn takes the collector over
    return loop


@pytest.fixture
def watch(loop):
    """Counts every collection (appended after the collector's own hook, so
    the pause it fakes lands between that hook's two clock readings)."""
    watch = Watch()
    gc.callbacks.append(watch.on_collection)
    yield watch
    gc.callbacks.remove(watch.on_collection)


@pytest.fixture
def moved_clock(watch, monkeypatch):
    monkeypatch.setattr(collector, "now", watch.now)
    gc.collect()  # the budget starts from a full collection at time PAUSE
    yield watch
    monkeypatch.undo()
    gc.collect()  # and ends on one the real clock measured


def grow(loop, kept, turns):
    """Turn *loop* with an event handler that allocates and keeps 1 000
    containers a turn — a table growing, as far as the collector can tell:
    at least one young collection a turn, one promotion every ten or so."""
    def handler():
        kept.extend([] for _ in range(1000))

    for _ in range(turns):
        loop.call_soon(handler)
        loop.run_once(block=False)


def promote(loop, kept):
    """Turn *loop* until a full collection could be worth running."""
    loop.run_once(block=False)  # takes over again after a host shut down
    turns = 0
    while collector.promoted < collector.PROMOTIONS_PER_FULL:
        grow(loop, kept, 10)
        turns += 10
        assert turns < 2000


def nets(count, base=20):
    return [IPNet(IPv4((base << 24) | (i << 8)), 24) for i in range(count)]


def test_no_full_collection_inside_bursts_on_a_loaded_table(watch):
    router = Router()
    try:
        table = nets(10_000)
        for start in range(0, len(table), 200):
            router.announce(0, table[start:start + 200])
        router.run()
        assert len(router.fib()) == 1 + len(table)
        # Re-arm the budget from a pause measured on this table, on the
        # real clock: the next full collection is fifty such pauses away.
        gc.collect()
        seen = list(watch.seen)
        burst = nets(2_000, base=40)
        # Three rounds: stock CPython starts a full collection once a
        # quarter of the heap is new, which is in the second (run alone,
        # the parent of this policy ran two inside these rounds).
        for _ in range(3):
            for start in range(0, len(burst), 200):
                router.announce(0, burst[start:start + 200])
            router.run()
            assert len(router.fib()) == 1 + len(table) + len(burst)
            for start in range(0, len(burst), 200):
                router.withdraw(0, burst[start:start + 200])
            router.run()
            assert len(router.fib()) == 1 + len(table)
        assert watch.full == seen[2]
        # The young generations stayed automatic throughout.
        assert watch.young > seen[0] + seen[1]
    finally:
        router.host.shutdown()


def test_static_table_is_never_collected(loop, moved_clock):
    trie = RouteTrie(32)
    for net in nets(2_000):
        trie.insert(net, object())
    full = moved_clock.full
    moved_clock.time += 1000 * BUDGETED_DELAY  # the budget allows anything
    for _ in range(10_000):
        loop.run_once(block=False)
    assert moved_clock.full == full
    assert len(trie) == 2_000


class Payload:
    """Something a trie can hold and a test can watch die."""


def old_garbage():
    """A shut-down host and a dropped trie with parked iterators, both old
    enough that only a full collection finds them."""
    host = Host()
    fea = FeaProcess(host)
    host.loop.run()
    trie = RouteTrie(32)
    payloads = [Payload() for _ in range(50)]
    for net, payload in zip(nets(50), payloads):
        trie.insert(net, payload)
    parked = [trie.iterator(), trie.iterator()]
    assert parked[0].valid
    gc.collect()  # everything above is in the oldest generation now
    host.shutdown()
    return weakref.ref(fea), weakref.ref(payloads[-1])


def test_cyclic_garbage_is_reclaimed_within_the_budgeted_delay(
        loop, moved_clock):
    fea, payload = old_garbage()
    full = moved_clock.full
    last_full = moved_clock.time
    kept = []
    promote(loop, kept)
    # Promoted, but the last full collection was a moment ago: the budget
    # holds the next one back however many turns pass ...
    moved_clock.time = last_full + BUDGETED_DELAY - 0.001
    grow(loop, kept, 50)
    assert moved_clock.full == full
    assert fea() is not None and payload() is not None
    # ... and the first turn after the delay runs it, between events.
    moved_clock.time = last_full + BUDGETED_DELAY + 0.001
    loop.run_once(block=False)
    assert moved_clock.full == full + 1
    assert fea() is None and payload() is None
    assert collector.promoted == 0


def test_stock_thresholds_return_with_host_shutdown(loop, moved_clock):
    stock = collector._stock
    assert stock is not None and gc.get_threshold()[:2] == stock[:2]
    assert gc.get_threshold()[2] > 1_000_000
    host = Host(loop=loop)
    FeaProcess(host)
    loop.run()
    host.shutdown()
    assert gc.get_threshold() == stock
    # No loop turns; the process keeps allocating, and CPython runs the
    # full collection by its own rule again.
    full = moved_clock.full
    kept = []
    while moved_clock.full == full:
        kept.extend([] for _ in range(10_000))
        assert len(kept) < 3_000_000
    # The next turn of any loop takes the full collection over again.
    loop.run_once(block=False)
    assert gc.get_threshold()[2] > 1_000_000


def test_explicit_collect_works_and_rearms_the_budget(loop, moved_clock):
    fea, payload = old_garbage()
    kept = []
    promote(loop, kept)
    full = moved_clock.full
    assert gc.collect() > 0
    assert fea() is None and payload() is None
    assert moved_clock.full == full + 1
    assert collector.promoted == 0
    assert collector.last_full_pause == pytest.approx(PAUSE)
    # The loop's next one is a whole budgeted delay after this one.
    explicit = moved_clock.time
    promote(loop, kept)
    moved_clock.time = explicit + BUDGETED_DELAY - 0.001
    grow(loop, kept, 20)
    assert moved_clock.full == full + 1
    moved_clock.time = explicit + BUDGETED_DELAY + 0.001
    loop.run_once(block=False)
    assert moved_clock.full == full + 2


def test_gauges_account_for_every_collection(loop, watch):
    host = Host(loop=loop)
    fea = FeaProcess(host)
    try:
        def read():
            return {name.split(".gc.", 1)[1]: fea.metrics.get(name).read()
                    for name in fea.metrics.names() if ".gc." in name}

        before = read()
        assert set(before) == {
            "full.collections", "full.seconds", "full.last_pause_s",
            "young.collections", "young.seconds", "collected"}
        seen = list(watch.seen)
        trie = RouteTrie(32)
        for net in nets(500):
            trie.insert(net, object())
        del trie
        gc.collect()
        after = read()
        assert (after["full.collections"] - before["full.collections"]
                == watch.full - seen[2] == 1)
        assert (after["young.collections"] - before["young.collections"]
                == watch.young - seen[0] - seen[1])
        assert after["collected"] - before["collected"] >= 500
        assert after["full.seconds"] > before["full.seconds"]
        assert after["full.last_pause_s"] > 0
    finally:
        host.shutdown()
