"""What one route costs in tables and in GC-tracked objects.

An in-process BGP+RIB+FEA router is fed 200-prefix UPDATEs and counted
from outside: trie mutations per route, live trie nodes per route,
attribute lists per UPDATE, tag containers per route, and what is left
of a route in GC-tracked objects and traced bytes.  The budget is the
one DESIGN.md states ("Which table is which structure"): a route is in
one trie — the register stage's winners — and in dicts everywhere else,
BGP's PeerIn and the decision's winners, the FEA's ``Fib`` and the FIB
backend's table among them, so a table that quietly becomes a trie
again, or a per-route allocation that comes back, fails here before it
shows up as throughput or footprint.

Stage messages are counted the same way, through a
:class:`repro.core.taps.StageTap`: a RIB stage handles one message per
UPDATE whatever the UPDATE's size (a stage that decomposes a batch for
its downstream fails here by name), and so do the nexthop resolver and
the BGP stages behind it; what still costs per route there — the
decision process asking every branch about each withdrawn prefix — is
written down as the budget to lower.
"""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.bgp.attributes import PathAttributeList
from repro.bgp.decision import DecisionStage
from repro.bgp.fanout import FanoutQueue
from repro.bgp.nexthop import NexthopResolverStage
from repro.bgp.route import BGPRoute
from repro.core import taps
from repro.net import IPNet, IPv4
from repro.rib.route import RibRoute
from repro.trie import RouteTrie, TrieNode
from tests.test_vector_route_stream import Router

#: tries one BGP-learned route is stored in (module docstring)
TRIES_PER_ROUTE = 1
UPDATE_SIZE = 200
UPDATES = 5
#: the routes the counts exclude: 10.0.0.0/8 and whatever the nexthop
#: resolver registers while the first UPDATE warms it
WARM_UP = [IPNet(IPv4((30 << 24) | (i << 8)), 24) for i in range(UPDATE_SIZE)]


def update_prefixes(index, size=UPDATE_SIZE):
    """The /24s of UPDATE *index*: spread over two /16s per UPDATE, so the
    tries hold join nodes as well as leaves."""
    return [IPNet(IPv4((20 << 24) | (index << 17) | (i << 8)), 24)
            for i in range(size)]


def live(cls):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the methods every trie mutation passes through: ``insert``
    and ``remove``."""
    seen = {"insert": 0, "remove": 0}
    for name in seen:
        real = getattr(RouteTrie, name)

        def counted(self, *args, _real=real, _name=name):
            seen[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(RouteTrie, name, counted)
    return seen


@pytest.fixture
def router():
    router = Router()
    router.announce(0, WARM_UP)
    router.run()
    yield router
    router.host.shutdown()


def feed(router):
    for index in range(UPDATES):
        router.announce(0, update_prefixes(index))
    router.run()
    return UPDATES * UPDATE_SIZE


def test_trie_mutations_per_route(counts, router):
    counts.update(insert=0, remove=0)
    routes = feed(router)
    assert len(router.fib()) == 1 + len(WARM_UP) + routes
    assert counts == {"insert": TRIES_PER_ROUTE * routes, "remove": 0}

    counts.update(insert=0, remove=0)
    for index in range(UPDATES):
        router.withdraw(0, update_prefixes(index))
    router.run()
    assert len(router.fib()) == 1 + len(WARM_UP)
    assert counts == {"insert": 0, "remove": TRIES_PER_ROUTE * routes}


def test_at_most_two_trie_nodes_per_route_per_trie(router):
    before = live(TrieNode)
    routes = feed(router)
    # A Patricia trie of n prefixes has at most n - 1 join nodes.
    assert live(TrieNode) - before <= 2 * TRIES_PER_ROUTE * routes


#: what a loaded route leaves behind across BGP, the RIB and the FEA
TRACKED_OBJECTS_PER_ROUTE = 9.5
TRACED_BYTES_PER_ROUTE = 1150


def test_a_route_costs_its_budget_in_objects_and_bytes(router):
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        routes = feed(router)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tracked = len(gc.get_objects()) - objects
    assert tracked / routes <= TRACKED_OBJECTS_PER_ROUTE
    assert traced / routes <= TRACED_BYTES_PER_ROUTE


def test_attribute_lists_grow_with_updates_not_routes(router):
    before = live(PathAttributeList)
    feed(router)
    # Per UPDATE: the decoded list PeerIn keeps and the import filter's
    # local-pref default of it.
    assert live(PathAttributeList) - before <= 2 * UPDATES


def test_no_route_holds_a_list_for_empty_tags(router):
    feed(router)
    gc.collect()
    routes = [obj for obj in gc.get_objects()
              if type(obj) in (BGPRoute, RibRoute)]
    assert len(routes) >= 3 * UPDATES * UPDATE_SIZE
    assert all(route.policytags == () and type(route.policytags) is tuple
               for route in routes)


#: stage messages per UPDATE in the nexthop resolver and the BGP stages
#: behind it: one each, whatever the UPDATE's size ...
BGP_MESSAGES_PER_UPDATE = {
    "announce": {(NexthopResolverStage, "add"): 1,
                 (DecisionStage, "add"): 1,
                 (FanoutQueue, "add"): 1},
    "withdraw": {(NexthopResolverStage, "delete"): 1,
                 (DecisionStage, "delete"): 1,
                 (FanoutQueue, "delete"): 1},
}
#: ... and what a withdrawal still costs per route, as the tree has it
#: today: the decision process asks each of its three branches' resolver
#: stages for an alternative.
BGP_MESSAGES_PER_WITHDRAWN_ROUTE = {(NexthopResolverStage, "lookup"): 3}


class MessageCount(taps.StageTap):
    def __init__(self):
        self.seen = Counter()

    def stage_message(self, stage, op, items, caller):
        self.seen[type(stage), op] += 1


@pytest.fixture
def stage_messages(router):
    """``count(index, size)``: the (stage class, op) messages one UPDATE of
    *size* routes costs, announced and then withdrawn."""
    tap = MessageCount()
    taps.attach(tap)

    def count(index, size):
        costs = {}
        for name, send in (("announce", router.announce),
                           ("withdraw", router.withdraw)):
            tap.seen.clear()
            send(0, update_prefixes(index, size))
            router.run()
            costs[name] = dict(tap.seen)
        return costs

    yield count
    taps.detach(tap)


def owned_by(costs, *packages):
    return {key: n for key, n in costs.items()
            if key[0].__module__.startswith(packages)}


def test_rib_stages_handle_one_message_per_update(stage_messages):
    small, large = stage_messages(0, 50), stage_messages(1, 200)
    for direction in ("announce", "withdraw"):
        at_50 = owned_by(small[direction], "repro.rib", "repro.fea")
        at_200 = owned_by(large[direction], "repro.rib", "repro.fea")
        assert {cls.__name__ for cls, _op in at_50} >= {
            "MergeStage", "ExtIntStage", "RegisterStage", "RedistStage",
            "_FeaDistributorStage"}
        assert at_50 == at_200, direction
        assert set(at_50.values()) == {1}, direction


def test_bgp_stages_behind_the_resolver_cost_per_route(stage_messages):
    for index, size in enumerate((50, 200)):
        costs = stage_messages(index, size)
        per_route = {key: n * size for key, n
                     in BGP_MESSAGES_PER_WITHDRAWN_ROUTE.items()}
        assert owned_by(costs["announce"], "repro.bgp") == \
            BGP_MESSAGES_PER_UPDATE["announce"]
        assert owned_by(costs["withdraw"], "repro.bgp") == {
            **BGP_MESSAGES_PER_UPDATE["withdraw"], **per_route}
