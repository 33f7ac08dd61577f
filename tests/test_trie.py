"""Unit and property tests for the Patricia trie and its safe iterators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPNet, IPv4, IPv6
from repro.trie import RouteTrie


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

    def test_find_less_specific_is_strict(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        trie.insert(net("10.1.0.0/16"), "b")
        assert trie.find_less_specific(net("10.1.0.0/16"))[1] == "a"
        assert trie.find_less_specific(net("10.0.0.0/8")) is None

    def test_covered(self, trie):
        for prefix in ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8"):
            trie.insert(net(prefix), prefix)
        inside = sorted(str(n) for n, __ in trie.covered(net("10.0.0.0/8")))
        assert inside == ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]

    def test_has_more_specific(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        assert not trie.has_more_specific(net("10.0.0.0/8"))
        trie.insert(net("10.1.0.0/16"), "b")
        assert trie.has_more_specific(net("10.0.0.0/8"))
        assert not trie.has_more_specific(net("10.2.0.0/15"))


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

    def test_clear(self, trie):
        for i in range(10):
            trie.insert(net(f"10.{i}.0.0/16"), i)
        trie.clear()
        assert len(trie) == 0
        assert list(trie.items()) == []


class TestIterationOrder:
    def test_items_sorted(self, trie):
        prefixes = ["10.1.0.0/16", "10.0.0.0/8", "9.0.0.0/8",
                    "10.1.2.0/24", "128.0.0.0/1", "0.0.0.0/0"]
        for p in prefixes:
            trie.insert(net(p), p)
        got = [str(n) for n, __ in trie.items()]
        assert got == sorted(prefixes, key=lambda p: net(p).key())

    def test_scoped_iterator(self, trie):
        for p in ("10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8", "10.1.2.0/24"):
            trie.insert(net(p), p)
        it = trie.iterator(start=net("10.0.0.0/8"))
        seen = []
        while it.valid:
            seen.append(str(it.net))
            it.advance()
        assert seen == ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]

    def test_scoped_iterator_empty_scope(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        it = trie.iterator(start=net("11.0.0.0/8"))
        assert not it.valid


class TestSafeIterators:
    def test_delete_under_parked_iterator(self, trie):
        """Paper §5.3: the node is invalidated but the iterator survives."""
        for p in ("10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8"):
            trie.insert(net(p), p)
        it = trie.iterator()
        assert str(it.net) == "10.0.0.0/8"
        trie.remove(net("10.0.0.0/8"))
        assert not it.valid  # payload invalidated...
        assert it.advance()  # ...but advancing still works
        assert str(it.net) == "11.0.0.0/8"

    def test_last_iterator_performs_deletion(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        trie.insert(net("11.0.0.0/8"), "b")
        it = trie.iterator()
        node = it._node
        trie.remove(net("10.0.0.0/8"))
        assert node.parent is not None  # still plumbed in
        it.advance()
        assert node.parent is None  # reclaimed by the departing iterator

    def test_two_iterators_same_node(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        trie.insert(net("11.0.0.0/8"), "b")
        it1 = trie.iterator()
        it2 = trie.iterator()
        node = it1._node
        trie.remove(net("10.0.0.0/8"))
        it1.advance()
        assert node.parent is not None  # it2 still refs the node
        it2.advance()
        assert node.parent is None

    def test_insert_ahead_of_iterator_is_seen(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        trie.insert(net("30.0.0.0/8"), "c")
        it = trie.iterator()
        trie.insert(net("20.0.0.0/8"), "b")
        seen = []
        while it.valid:
            seen.append(str(it.net))
            it.advance()
        assert seen == ["10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"]

    def test_close_releases_refs(self, trie):
        trie.insert(net("10.0.0.0/8"), "a")
        with trie.iterator() as it:
            node = it._node
            assert node.iter_refs == 1
        assert node.iter_refs == 0
        it.close()  # idempotent

    def test_exhausted_iterator_raises_on_access(self, trie):
        it = trie.iterator()
        with pytest.raises(StopIteration):
            __ = it.net
        with pytest.raises(StopIteration):
            __ = it.payload

    def test_massive_churn_while_parked(self, trie):
        for i in range(64):
            trie.insert(net(f"10.{i}.0.0/16"), i)
        it = trie.iterator()
        # park after the first route, then churn everything behind and ahead
        it.advance()
        for i in range(64):
            trie.discard(net(f"10.{i}.0.0/16"))
        for i in range(64):
            trie.insert(net(f"172.{i}.0.0/16"), i)
        count = 0
        while not it.exhausted:
            if it.valid:
                count += 1
            it.advance()
        assert count == 64  # all the new routes, none of the deleted ones


# -- property tests against a dict oracle --------------------------------

prefix_strategy = st.builds(
    lambda v, p: IPNet(IPv4(v), p),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)

#: few distinct prefixes, nested eight deep, so a run of operations keeps
#: arriving at the same nodes: a removal under a parked iterator, a
#: re-insert into the payload-less node that leaves, a join losing a child
dense_prefix_strategy = st.builds(
    lambda v, p: IPNet(IPv4(v << 24), p),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=8),
)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "remove"]),
                  st.one_of(prefix_strategy, dense_prefix_strategy),
                  st.integers()),
        # park an iterator on the first route, of the table or of a scope
        st.tuples(st.just("park"),
                  st.one_of(st.none(), dense_prefix_strategy), st.just(0)),
        # move or close the n-th parked iterator
        st.tuples(st.sampled_from(["advance", "close"]),
                  st.integers(min_value=0, max_value=7), st.just(0)),
    ),
    max_size=80,
)


def _containing(oracle, prefix, *, strictly=False):
    """Oracle prefixes containing *prefix*, shortest first."""
    return sorted((p for p in oracle
                   if p.contains(prefix) and not (strictly and p == prefix)),
                  key=lambda p: p.prefix_len)


def _check_against_oracle(trie, oracle, removed, parked):
    assert len(trie) == len(oracle)
    for prefix, payload in oracle.items():
        assert trie.exact(prefix) == payload
        assert prefix in trie
    for prefix in removed:      # its node may live on under an iterator
        assert trie.exact(prefix) is None
        assert prefix not in trie
    got = list(trie.items())
    assert [n for n, __ in got] == sorted(oracle, key=lambda n: n.key())
    for it in parked:
        if it.valid:
            assert oracle[it.net] == it.payload
    for prefix in list(oracle) + list(removed):
        covering = _containing(oracle, prefix)
        assert [n for n, __ in trie.covering(prefix)] == covering
        less = _containing(oracle, prefix, strictly=True)
        found = trie.find_less_specific(prefix)
        assert (found[0] if found else None) == (less[-1] if less else None)
        host = IPNet(prefix.network, 32)
        best = trie.best_match(prefix.network)
        matching = _containing(oracle, host)
        assert (best[0] if best else None) == (
            matching[-1] if matching else None)


def _assert_compact(trie):
    """With no iterator left, no payload-less node outlives its purpose:
    each one below the root is a join with two children."""
    stack = [trie._root]
    while stack:
        node = stack.pop()
        assert node.iter_refs == 0
        children = [c for c in (node.left, node.right) if c is not None]
        assert all(child.parent is node for child in children)
        if node is not trie._root and not node.has_payload:
            assert len(children) == 2
        stack.extend(children)


class TestPropertyOracle:
    @settings(max_examples=60, deadline=None)
    @given(ops_strategy)
    def test_matches_dict_oracle(self, ops):
        trie = RouteTrie(32)
        oracle = {}
        removed = set()
        parked = []
        for op, arg, payload in ops:
            if op == "insert":
                trie.insert(arg, payload)
                oracle[arg] = payload
                removed.discard(arg)
            elif op == "remove":
                assert trie.discard(arg) == oracle.pop(arg, None)
                removed.add(arg)
            elif op == "park":
                parked.append(trie.iterator(arg))
            elif parked:
                it = parked[arg % len(parked)]
                if op == "advance":
                    it.advance()
                else:
                    it.close()
                    parked.remove(it)
            _check_against_oracle(trie, oracle, removed, parked)
        for it in parked:
            it.close()
        _check_against_oracle(trie, oracle, removed, ())
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

    @settings(max_examples=40)
    @given(st.lists(prefix_strategy, min_size=2, max_size=30))
    def test_iterator_survives_interleaved_deletion(self, prefixes):
        trie = RouteTrie(32)
        for p in prefixes:
            trie.insert(p, str(p))
        it = trie.iterator()
        seen = []
        victims = list(set(prefixes))
        while it.valid:
            seen.append(it.net)
            if victims:
                trie.discard(victims.pop())
            it.advance()
        # Everything yielded must be unique and ordered.
        keys = [n.key() for n in seen]
        assert keys == sorted(set(keys))


# -- longest-prefix-match vs brute force, v4 and v6, with deletions ------

prefix6_strategy = st.builds(
    lambda v, p: IPNet(IPv6(v), p),
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.integers(min_value=0, max_value=128),
)


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
