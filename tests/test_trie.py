"""Unit and property tests for the Patricia trie.  The walks a task
parks over a trie are tests/test_snapshot_walk.py's."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import V6_TAG, IPNet, IPv4, IPv6
from repro.trie import RouteTrie
from repro.trie.trie import _EMPTY


def net(text):
    return IPNet.parse(text)


@pytest.fixture
def trie():
    return RouteTrie(32)


class TestInsertLookup:
    def test_empty(self, trie):
        assert len(trie) == 0
        assert trie.exact(net("10.0.0.0/8")) is None
        assert trie.best_match(IPv4("10.0.0.1")) is None

    def test_insert_and_exact(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        assert trie.exact(net("10.0.0.0/8")) == "a"
        assert len(trie) == 1

    def test_replace_returns_old(self, trie):
        assert trie.insert(net("10.0.0.0/8"), "a") is None
        assert trie.insert(net("10.0.0.0/8"), "b") == "a"
        assert trie.exact(net("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_exact_does_not_match_cover(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        assert trie.exact(net("10.0.0.0/16")) is None
        assert trie.exact(net("10.1.0.0/16")) is None

    def test_contains(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        assert net("10.0.0.0/8") in trie
        assert net("10.0.0.0/9") not in trie

    def test_default_route(self, trie):
        trie.insert(net("0.0.0.0/0"), "default")
        assert trie.exact(net("0.0.0.0/0")) == "default"
        assert trie.best_match(IPv4("1.2.3.4")) == (net("0.0.0.0/0"), "default")

    def test_host_route(self, trie):
        trie.insert(net("1.2.3.4/32"), "host")
        assert trie.best_match(IPv4("1.2.3.4")) == (net("1.2.3.4/32"), "host")
        assert trie.best_match(IPv4("1.2.3.5")) is None

    def test_rejects_wrong_family(self, trie):
        with pytest.raises(ValueError):
            trie.insert(IPNet.parse("::/0"), "x")

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            RouteTrie(64)

    def test_ipv6_trie(self):
        t6 = RouteTrie(128)
        t6.insert(net("2001:db8::/32"), "v6")
        assert t6.best_match(IPv6("2001:db8::1")) == (net("2001:db8::/32"), "v6")


class TestBestMatch:
    def test_paper_figure8_topology(self, trie):
        """The exact route set from paper Figure 8."""
        for prefix in ("128.16.0.0/16", "128.16.0.0/18",
                       "128.16.128.0/17", "128.16.192.0/18"):
            trie.insert(net(prefix), prefix)
        assert trie.best_match(IPv4("128.16.32.1"))[0] == net("128.16.0.0/18")
        assert trie.best_match(IPv4("128.16.160.1"))[0] == net("128.16.128.0/17")
        assert trie.best_match(IPv4("128.16.192.1"))[0] == net("128.16.192.0/18")
        assert trie.best_match(IPv4("128.16.64.1"))[0] == net("128.16.0.0/16")

    def test_more_specific_wins(self, trie):
        trie.insert(net("10.0.0.0/8"), "short")
        trie.insert(net("10.1.0.0/16"), "long")
        assert trie.best_match(IPv4("10.1.2.3"))[1] == "long"
        assert trie.best_match(IPv4("10.2.2.3"))[1] == "short"

    def test_covering(self, trie):
        trie.insert(net("0.0.0.0/0"), "d")
        trie.insert(net("10.0.0.0/8"), "a")
        trie.insert(net("10.1.0.0/16"), "b")
        trie.insert(net("11.0.0.0/8"), "c")
        covers = [str(n) for n, __ in trie.covering(net("10.1.2.0/24"))]
        assert covers == ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16"]

    def test_covered(self, trie):
        for prefix in ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8"):
            trie.insert(net(prefix), prefix)
        inside = sorted(str(n) for n, __ in trie.covered(net("10.0.0.0/8")))
        assert inside == ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]


class TestRemoval:
    def test_remove(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        assert trie.remove(net("10.0.0.0/8")) == "a"
        assert len(trie) == 0
        assert trie.exact(net("10.0.0.0/8")) is None

    def test_remove_missing_raises(self, trie):
        with pytest.raises(KeyError):
            trie.remove(net("10.0.0.0/8"))

    def test_discard_missing_ok(self, trie):
        assert trie.discard(net("10.0.0.0/8")) is None

    def test_remove_keeps_siblings(self, trie):
        trie.insert(net("10.0.0.0/16"), "a")
        trie.insert(net("10.1.0.0/16"), "b")
        trie.remove(net("10.0.0.0/16"))
        assert trie.exact(net("10.1.0.0/16")) == "b"
        assert trie.best_match(IPv4("10.1.0.1"))[1] == "b"

    def test_remove_intermediate_keeps_descendants(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        trie.insert(net("10.1.0.0/16"), "b")
        trie.remove(net("10.0.0.0/8"))
        assert trie.best_match(IPv4("10.1.0.1"))[1] == "b"
        assert trie.best_match(IPv4("10.2.0.1")) is None


class TestNodeLinking:
    """Each way an insert links its node in, checked pointer by pointer."""

    def _node(self, trie, text):
        node = _find(trie, net(text))
        assert node is not None, text
        return node

    def test_more_specific_hangs_below_its_cover(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        trie.insert(net("10.128.0.0/16"), "b")
        cover = self._node(trie, "10.0.0.0/8")
        child = self._node(trie, "10.128.0.0/16")
        assert cover.parent is trie._root and trie._root.left is cover
        assert cover.left is None and cover.right is child
        assert child.parent is cover
        _assert_compact(trie)

    def test_cover_inserted_later_is_spliced_above(self, trie):
        trie.insert(net("10.1.0.0/16"), "b")
        trie.insert(net("10.0.0.0/8"), "a")
        cover = self._node(trie, "10.0.0.0/8")
        child = self._node(trie, "10.1.0.0/16")
        assert trie._root.left is cover and cover.parent is trie._root
        assert cover.left is child and cover.right is None
        assert child.parent is cover
        _assert_compact(trie)

    def test_diverging_prefixes_share_a_join_node(self, trie):
        trie.insert(net("10.0.0.0/16"), "a")
        trie.insert(net("10.1.0.0/16"), "b")
        join = self._node(trie, "10.0.0.0/15")
        assert join.payload is _EMPTY and join.parent is trie._root
        assert join.left is self._node(trie, "10.0.0.0/16")
        assert join.right is self._node(trie, "10.1.0.0/16")
        assert len(trie) == 2
        assert trie.exact(net("10.0.0.0/15")) is None
        _assert_compact(trie)

    def test_join_node_forms_below_a_cover(self, trie):
        trie.insert(net("10.0.0.0/8"), "cover")
        trie.insert(net("10.1.2.0/24"), "a")
        trie.insert(net("10.1.3.0/24"), "b")
        cover = self._node(trie, "10.0.0.0/8")
        join = self._node(trie, "10.1.2.0/23")
        assert join.payload is _EMPTY
        assert cover.left is join and join.parent is cover
        assert join.left is self._node(trie, "10.1.2.0/24")
        assert join.right is self._node(trie, "10.1.3.0/24")
        _assert_compact(trie)

    def test_prefix_between_a_join_and_its_child_is_spliced_in(self, trie):
        trie.insert(net("10.0.0.0/16"), "a")
        trie.insert(net("10.2.0.0/16"), "b")
        join = self._node(trie, "10.0.0.0/14")
        trie.insert(net("10.2.0.0/15"), "mid")
        mid = self._node(trie, "10.2.0.0/15")
        assert join.right is mid and mid.parent is join
        assert mid.left is self._node(trie, "10.2.0.0/16") and mid.right is None
        assert self._node(trie, "10.2.0.0/16").parent is mid
        assert [str(n) for n, __ in trie.items()] == [
            "10.0.0.0/16", "10.2.0.0/15", "10.2.0.0/16"]
        _assert_compact(trie)

    def test_a_route_at_a_join_prefix_takes_the_join_node(self, trie):
        trie.insert(net("10.0.0.0/16"), "a")
        trie.insert(net("10.1.0.0/16"), "b")
        join = self._node(trie, "10.0.0.0/15")
        assert trie.insert(net("10.0.0.0/15"), "j") is None
        assert self._node(trie, "10.0.0.0/15") is join
        assert join.payload == "j" and len(trie) == 3
        assert join.left.payload == "a" and join.right.payload == "b"
        assert trie.exact(net("10.0.0.0/15")) == "j"

    def test_a_join_node_borrows_the_int_of_the_route_that_made_it(self,
                                                                   trie):
        first, second = net("10.0.0.0/16"), net("10.1.0.0/16")
        trie.insert(first, "a")
        trie.insert(second, "b")
        join = self._node(trie, "10.0.0.0/15")
        assert join.net is second and join.plen == 15
        later = net("10.0.0.0/15")
        trie.insert(later, "j")
        assert join.net is later

    def test_removing_one_side_of_a_join_removes_the_join(self, trie):
        trie.insert(net("10.0.0.0/16"), "a")
        trie.insert(net("10.1.0.0/16"), "b")
        trie.remove(net("10.1.0.0/16"))
        assert _find(trie, net("10.0.0.0/15")) is None
        left = self._node(trie, "10.0.0.0/16")
        assert left.parent is trie._root and trie._root.left is left
        _assert_compact(trie)

    def test_ipv6_diverging_prefixes_share_a_join_node(self):
        trie = RouteTrie(128)
        trie.insert(IPNet.parse("2001:db8::/32"), "a")
        trie.insert(IPNet.parse("2001:db9::/32"), "b")
        join = _find(trie, IPNet.parse("2001:db8::/31"))
        assert join is not None and join.payload is _EMPTY
        assert join.left.payload == "a" and join.right.payload == "b"
        assert join.left.parent is join and join.right.parent is join
        _assert_compact(trie)


class TestIterationOrder:
    def test_items_sorted(self, trie):
        prefixes = ["10.1.0.0/16", "10.0.0.0/8", "9.0.0.0/8",
                    "10.1.2.0/24", "128.0.0.0/1", "0.0.0.0/0"]
        for p in prefixes:
            trie.insert(net(p), p)
        got = [str(n) for n, __ in trie.items()]
        assert got == sorted(prefixes, key=lambda p: net(p).key())

    def test_iteration_yields_the_prefixes_in_order(self, trie):
        """A trie iterates like a dict: its keys, here in prefix order."""
        for p in ("10.1.0.0/16", "10.0.0.0/8", "9.0.0.0/8", "0.0.0.0/0"):
            trie.insert(net(p), p)
        assert list(trie) == [n for n, __ in trie.items()]
        assert [str(n) for n in trie] == [
            "0.0.0.0/0", "9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"]


# -- property tests against a dict oracle --------------------------------

prefix_strategy = st.builds(
    lambda v, p: IPNet(IPv4(v), p),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)

#: few distinct prefixes, nested eight deep, so a run of operations keeps
#: arriving at the same nodes: a re-insert where a removal left a join,
#: a join losing a child
dense_prefix_strategy = st.builds(
    lambda v, p: IPNet(IPv4(v << 24), p),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=8),
)

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]),
              st.one_of(prefix_strategy, dense_prefix_strategy),
              st.integers()),
    max_size=80,
)


def _containing(oracle, prefix):
    """Oracle prefixes containing *prefix*, shortest first."""
    return sorted((p for p in oracle if p.contains(prefix)),
                  key=lambda p: p.prefix_len)


def _check_against_oracle(trie, oracle, removed):
    assert len(trie) == len(oracle)
    for prefix, payload in oracle.items():
        assert trie.exact(prefix) == payload
        assert prefix in trie
    for prefix in removed:
        assert trie.exact(prefix) is None
        assert prefix not in trie
    got = list(trie.items())
    assert [n for n, __ in got] == sorted(oracle, key=lambda n: n.key())
    for prefix in list(oracle) + list(removed):
        covering = _containing(oracle, prefix)
        assert [n for n, __ in trie.covering(prefix)] == covering
        host = IPNet(prefix.network, 32)
        best = trie.best_match(prefix.network)
        matching = _containing(oracle, host)
        assert (best[0] if best else None) == (
            matching[-1] if matching else None)


def _masked(value, plen):
    shift = (136 if value >= V6_TAG else 40) - plen
    return value >> shift << shift


def _prefix(node):
    """A node's prefix as ``(plen, masked prefix)``: a join node borrows
    a longer route's int, so only its first ``plen`` bits are its own."""
    return node.plen, _masked(node.net, node.plen)


def _find(trie, key):
    """The node whose prefix is *key*, join or route, or None."""
    plen = key & 0xFF
    node = trie._root
    while node is not None and node.plen < plen:
        node = node.right if key >> (trie._top - node.plen) & 1 \
            else node.left
    if node is None or _prefix(node) != (plen, _masked(key, plen)):
        return None
    return node


def _assert_compact(trie):
    """No payload-less node outlives its purpose: each one below the root
    is a join with two children."""
    stack = [trie._root]
    while stack:
        node = stack.pop()
        children = [c for c in (node.left, node.right) if c is not None]
        assert all(child.parent is node for child in children)
        if node is not trie._root and node.payload is _EMPTY:
            assert len(children) == 2
        stack.extend(children)


class TestPropertyOracle:
    @settings(max_examples=60, deadline=None)
    @given(ops_strategy)
    def test_matches_dict_oracle(self, ops):
        trie = RouteTrie(32)
        oracle = {}
        removed = set()
        for op, arg, payload in ops:
            if op == "insert":
                assert trie.insert(arg, payload) == oracle.get(arg)
                oracle[arg] = payload
                removed.discard(arg)
            else:
                assert trie.discard(arg) == oracle.pop(arg, None)
                removed.add(arg)
            _check_against_oracle(trie, oracle, removed)
            _assert_compact(trie)

    @settings(max_examples=60)
    @given(st.lists(prefix_strategy, min_size=1, max_size=40),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_best_match_matches_linear_scan(self, prefixes, addr_value):
        trie = RouteTrie(32)
        for i, p in enumerate(prefixes):
            trie.insert(p, i)
        addr = IPv4(addr_value)
        expected = None
        for p in set(prefixes):
            if p.contains_addr(addr):
                if expected is None or p.prefix_len > expected.prefix_len:
                    expected = p
        got = trie.best_match(addr)
        if expected is None:
            assert got is None
        else:
            assert got[0] == expected

    @settings(max_examples=40)
    @given(st.lists(prefix_strategy, min_size=1, max_size=30), prefix_strategy)
    def test_covered_matches_linear_scan(self, prefixes, probe):
        trie = RouteTrie(32)
        for p in prefixes:
            trie.insert(p, str(p))
        got = sorted(str(n) for n, __ in trie.covered(probe))
        expected = sorted(str(p) for p in set(prefixes) if probe.contains(p))
        assert got == expected


# -- longest-prefix-match vs brute force, v4 and v6, with deletions ------

prefix6_strategy = st.builds(
    lambda v, p: IPNet(IPv6(v), p),
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.integers(min_value=0, max_value=128),
)


def _shape(node):
    """A node and everything below it, as nested tuples."""
    if node is None:
        return None
    payload = None if node.payload is _EMPTY else node.payload
    return (_prefix(node), payload, _shape(node.left), _shape(node.right))


class TestCanonicalShape:
    """A compact Patricia trie has one shape per set of routes, however
    it was reached: the insert links and ``_reclaim`` unlinks to it."""

    @settings(max_examples=60)
    @given(st.lists(prefix_strategy, min_size=1, max_size=30, unique=True),
           st.randoms(use_true_random=False))
    def test_insertion_order_does_not_change_the_shape(self, prefixes, rng):
        sorted_trie, shuffled_trie = RouteTrie(32), RouteTrie(32)
        for p in sorted(prefixes):
            sorted_trie.insert(p, str(p))
        rng.shuffle(prefixes)
        for p in prefixes:
            shuffled_trie.insert(p, str(p))
        assert _shape(shuffled_trie._root) == _shape(sorted_trie._root)

    @settings(max_examples=60)
    @given(st.lists(prefix_strategy, min_size=1, max_size=30, unique=True),
           st.lists(st.one_of(prefix_strategy, dense_prefix_strategy),
                    max_size=20),
           st.randoms(use_true_random=False))
    def test_removals_leave_the_shape_of_the_survivors(self, kept, extra,
                                                        rng):
        victims = [p for p in dict.fromkeys(extra) if p not in kept]
        churned, fresh = RouteTrie(32), RouteTrie(32)
        everything = kept + victims
        rng.shuffle(everything)
        for p in everything:
            churned.insert(p, str(p))
        rng.shuffle(victims)
        for p in victims:
            churned.remove(p)
        for p in kept:
            fresh.insert(p, str(p))
        assert len(churned) == len(kept)
        assert _shape(churned._root) == _shape(fresh._root)
        _assert_compact(churned)


def _brute_force_lpm(prefixes, addr):
    """The LPM oracle: longest prefix containing *addr*, or None."""
    best = None
    for p in prefixes:
        if p.contains_addr(addr):
            if best is None or p.prefix_len > best.prefix_len:
                best = p
    return best


class TestLpmVsBruteForce:
    """LPM equivalence against a linear-scan oracle over random prefix
    sets, both families, including cover fallback after deletions: when
    a more-specific route is removed, lookups must *uncover* the
    next-less-specific covering prefix (or none) exactly as the oracle
    does."""

    def _check(self, trie, live, probes):
        for addr in probes:
            expected = _brute_force_lpm(live, addr)
            got = trie.best_match(addr)
            if expected is None:
                assert got is None, (addr, got)
            else:
                assert got is not None and got[0] == expected, (
                    addr, got, expected)

    def _run(self, bits, addr_cls, prefixes, addr_values, delete_index):
        trie = RouteTrie(bits)
        # Dedupe: inserting the same net twice replaces, keeping one entry.
        live = {p.key(): p for p in prefixes}
        for p in prefixes:
            trie.insert(p, str(p))
        # Probe both arbitrary addresses and each prefix's first address
        # (the latter guarantee covered addresses actually get probed).
        probes = [addr_cls(v) for v in addr_values]
        probes += [p.first_addr() for p in live.values()]
        self._check(trie, live.values(), probes)
        # Delete roughly half the distinct prefixes, then re-check: the
        # trie must fall back to each address's remaining cover.
        victims = sorted(live.values(), key=lambda n: n.key())
        victims = victims[delete_index % max(1, len(victims))::2]
        for victim in victims:
            assert trie.remove(victim) == str(victim)
            del live[victim.key()]
        self._check(trie, live.values(), probes)
        assert len(trie) == len(live)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=40),
           st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                    min_size=1, max_size=10),
           st.integers(min_value=0, max_value=1))
    def test_lpm_v4(self, prefixes, addr_values, delete_index):
        self._run(32, IPv4, prefixes, addr_values, delete_index)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(prefix6_strategy, min_size=1, max_size=40),
           st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1),
                    min_size=1, max_size=10),
           st.integers(min_value=0, max_value=1))
    def test_lpm_v6(self, prefixes, addr_values, delete_index):
        self._run(128, IPv6, prefixes, addr_values, delete_index)
