"""What one route costs in tables and in GC-tracked objects.

An in-process BGP+RIB+FEA router is fed 200-prefix UPDATEs and counted
from outside: trie mutations per route, live trie nodes per route,
attribute lists per UPDATE, tag containers per route.  The budget is the
one DESIGN.md states ("Which table is which structure"): a route is in
six tries — PeerIn, the fanout's winners, its RIB origin table, the
register stage's winners, the FEA's ``Fib`` and the FIB backend — and in
dicts everywhere else, so a table that quietly becomes a trie again, or a
per-route allocation that comes back, fails here before it shows up as
throughput or footprint.
"""

import gc

import pytest

from repro.bgp.attributes import PathAttributeList
from repro.bgp.route import BGPRoute
from repro.net import IPNet, IPv4
from repro.rib.route import RibRoute
from repro.trie import RouteTrie, TrieNode
from tests.test_vector_route_stream import Router

#: tries one BGP-learned route is stored in (module docstring)
TRIES_PER_ROUTE = 6
UPDATE_SIZE = 200
UPDATES = 5
#: the routes the counts exclude: 10.0.0.0/8 and whatever the nexthop
#: resolver registers while the first UPDATE warms it
WARM_UP = [IPNet(IPv4((30 << 24) | (i << 8)), 24) for i in range(UPDATE_SIZE)]


def update_prefixes(index):
    """The /24s of UPDATE *index*: spread over two /16s per UPDATE, so the
    tries hold join nodes as well as leaves."""
    return [IPNet(IPv4((20 << 24) | (index << 17) | (i << 8)), 24)
            for i in range(UPDATE_SIZE)]


def live(cls):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the two methods every trie mutation passes through."""
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


def test_six_trie_mutations_per_route(counts, router):
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
