"""Unit tests for FEA internals (fib, ifmgr, rawsock) and the profiler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eventloop import EventLoop, SimulatedClock
from repro.fea import Fib, FibEntry, Interface, InterfaceManager, LoopbackPacketIO
from repro.fea.rawsock import RawSocketRelay
from repro.net import IPNet, IPv4, IPv6
from repro.profiler import Profiler
from repro.trie import RouteTrie, SnapshotWalk


def net(text):
    return IPNet.parse(text)


class TestFib:
    def test_insert_lookup_remove(self):
        fib = Fib()
        entry = FibEntry(net("10.0.0.0/8"), IPv4("1.1.1.1"), "eth0")
        assert fib.insert(entry) is None
        assert fib.lookup(IPv4("10.9.9.9")) == entry
        assert fib.exact(net("10.0.0.0/8")) == entry
        assert fib.remove(net("10.0.0.0/8")) == entry
        assert len(fib) == 0

    def test_overwrite_returns_old(self):
        fib = Fib()
        old = FibEntry(net("10.0.0.0/8"), IPv4("1.1.1.1"))
        new = FibEntry(net("10.0.0.0/8"), IPv4("2.2.2.2"))
        fib.insert(old)
        assert fib.insert(new) == old
        assert fib.lookup(IPv4("10.0.0.1")) == new

    def test_lpm_order(self):
        fib = Fib()
        fib.insert(FibEntry(net("0.0.0.0/0"), IPv4("9.9.9.9"), "default"))
        fib.insert(FibEntry(net("10.0.0.0/8"), IPv4("1.1.1.1"), "eth0"))
        fib.insert(FibEntry(net("10.1.0.0/16"), IPv4("2.2.2.2"), "eth1"))
        assert fib.lookup(IPv4("10.1.5.5")).ifname == "eth1"
        assert fib.lookup(IPv4("10.2.5.5")).ifname == "eth0"
        assert fib.lookup(IPv4("99.9.9.9")).ifname == "default"

    def test_v6_fib(self):
        fib = Fib(128)
        fib.insert(FibEntry(net("2001:db8::/32"), IPv6("fe80::1"), "eth0"))
        assert fib.lookup(IPv6("2001:db8::99")).ifname == "eth0"
        assert fib.lookup(IPv6("2002::1")) is None

    def test_entries_and_clear(self):
        fib = Fib()
        for i in range(5):
            fib.insert(FibEntry(net(f"10.{i}.0.0/16"), IPv4("1.1.1.1")))
        assert len(list(fib.entries())) == 5
        fib.clear()
        assert len(fib) == 0


def _brute_force_lpm(model, addr):
    """The LPM oracle: the entry of the longest prefix holding *addr*."""
    best = None
    for prefix, entry in model.items():
        if prefix.contains_addr(addr) and (
                best is None or prefix.prefix_len > best.net.prefix_len):
            best = entry
    return best


def _prefixes(addr):
    """Random prefixes, and prefixes of a few networks nested at every
    length, so that a lookup falls through several lengths."""
    bits = addr.BITS
    return st.one_of(
        st.builds(lambda v, p: IPNet(addr(v), p),
                  st.integers(0, (1 << bits) - 1), st.integers(0, bits)),
        st.builds(lambda v, p: IPNet(addr(v << (bits - 4)), p),
                  st.integers(0, 15), st.integers(0, bits)))


def _fib_ops(addr):
    return st.lists(st.tuples(st.sampled_from(["insert", "remove"]),
                              _prefixes(addr), st.integers(0, 3)),
                    max_size=40)


class TestFibAgainstModel:
    """``Fib`` against a dict and a linear-scan longest match, both
    families, through inserts, overwrites and removes."""

    def _check(self, addr, fib, model, probes):
        assert len(fib) == len(model)
        assert [n for n, __ in fib.entries()] == sorted(model)
        for prefix, entry in model.items():
            assert fib.exact(prefix) is entry
        # A lookup probes exactly the lengths present, longest first.
        assert fib._lengths == tuple(sorted(
            {n.prefix_len for n in model}, reverse=True))
        for prefix in model:
            probes.append(prefix.network)
            probes.append(addr(prefix.network.to_int()
                               | (1 << (addr.BITS - prefix.prefix_len)) - 1))
        for probe in probes:
            assert fib.lookup(probe) is _brute_force_lpm(model, probe), probe

    def _run(self, addr, ops, probes):
        fib, model = Fib(addr.BITS), {}
        for op, prefix, hop in ops:
            if op == "insert":
                entry = FibEntry(prefix, addr(hop), f"eth{hop}")
                assert fib.insert(entry) is model.get(prefix)
                model[prefix] = entry
            else:
                assert fib.remove(prefix) is model.pop(prefix, None)
            self._check(addr, fib, model, [addr(v) for v in probes])

    @settings(max_examples=80, deadline=None)
    @given(_fib_ops(IPv4), st.lists(st.integers(0, (1 << 32) - 1),
                                    min_size=1, max_size=4))
    def test_v4_matches_the_model(self, ops, probes):
        self._run(IPv4, ops, probes)

    @settings(max_examples=80, deadline=None)
    @given(_fib_ops(IPv6), st.lists(st.integers(0, (1 << 128) - 1),
                                    min_size=1, max_size=4))
    def test_v6_matches_the_model(self, ops, probes):
        self._run(IPv6, ops, probes)

    def test_removing_the_last_prefix_of_a_length_stops_probing_it(self):
        fib = Fib()
        cover = FibEntry(net("10.0.0.0/8"), IPv4("1.1.1.1"))
        for text in ("10.1.0.0/16", "10.2.0.0/16"):
            fib.insert(FibEntry(net(text), IPv4("2.2.2.2")))
        fib.insert(cover)
        assert fib._lengths == (16, 8)
        fib.remove(net("10.1.0.0/16"))
        assert fib._lengths == (16, 8)
        fib.remove(net("10.2.0.0/16"))
        assert fib._lengths == (8,)
        assert fib.lookup(IPv4("10.2.0.1")) is cover
        fib.remove(net("10.0.0.0/8"))
        assert fib._lengths == () and fib.lookup(IPv4("10.2.0.1")) is None

    @pytest.mark.parametrize("bits, addr, host, outside", [
        (32, IPv4, "10.1.2.3", "10.1.2.4"),
        (128, IPv6, "2001:db8::1", "2001:db8::2")])
    def test_default_and_host_routes(self, bits, addr, host, outside):
        fib = Fib(bits)
        default = FibEntry(IPNet(addr(0), 0), addr(1))
        exact = FibEntry(IPNet(addr(host), bits), addr(2))
        fib.insert(default)
        fib.insert(exact)
        assert fib.lookup(addr(host)) is exact
        assert fib.lookup(addr(outside)) is default
        assert [n for n, __ in fib.entries()] == [default.net, exact.net]
        fib.remove(exact.net)
        assert fib.lookup(addr(host)) is default

    def test_wrong_family_insert_is_refused(self):
        fib4, fib6 = Fib(32), Fib(128)
        with pytest.raises(ValueError):
            fib4.insert(FibEntry(net("2001:db8::/32"), IPv6("::1")))
        with pytest.raises(ValueError):
            fib6.insert(FibEntry(net("10.0.0.0/8"), IPv4("1.1.1.1")))
        assert len(fib4) == len(fib6) == 0
        assert fib4._lengths == fib6._lengths == ()


class TestInterfaceManager:
    def test_create_and_get(self):
        mgr = InterfaceManager()
        mgr.create("eth0", "10.0.0.1", 24)
        assert mgr.get("eth0").subnet == net("10.0.0.0/24")
        assert mgr.names() == ["eth0"]
        assert len(mgr) == 1

    def test_duplicate_rejected(self):
        mgr = InterfaceManager()
        mgr.create("eth0", "10.0.0.1", 24)
        with pytest.raises(ValueError):
            mgr.create("eth0", "10.0.0.2", 24)

    def test_missing_raises(self):
        with pytest.raises(KeyError):
            InterfaceManager().get("eth9")

    def test_interface_for_addr_skips_disabled(self):
        mgr = InterfaceManager()
        interface = mgr.create("eth0", "10.0.0.1", 24)
        assert mgr.interface_for_addr(IPv4("10.0.0.7")) is interface
        interface.enabled = False
        assert mgr.interface_for_addr(IPv4("10.0.0.7")) is None

    def test_interface_repr_states(self):
        up = Interface("eth0", IPv4("10.0.0.1"), 24)
        assert "up" in repr(up)
        up.enabled = False
        assert "down" in repr(up)


class TestRawSocketRelay:
    def _relay(self):
        loop = EventLoop(SimulatedClock())
        io = LoopbackPacketIO(loop)
        relay = RawSocketRelay(io)
        inbound = []
        relay.set_notifier(lambda *args: inbound.append(args))
        return loop, io, relay, inbound

    def test_open_send_receive(self):
        loop, io, relay, inbound = self._relay()
        relay.open_udp("rip", "eth0", 520)
        relay.send_udp("eth0", IPv4("10.0.0.1"), IPv4("224.0.0.9"), 520, b"x")
        loop.run()
        assert inbound == [("rip", "eth0", IPv4("10.0.0.1"), 520, b"x")]
        assert relay.packets_relayed_out == 1
        assert relay.packets_relayed_in == 1

    def test_unclaimed_port_dropped(self):
        loop, io, relay, inbound = self._relay()
        relay.send_udp("eth0", IPv4("10.0.0.1"), IPv4("224.0.0.9"), 999, b"x")
        loop.run()
        assert inbound == []

    def test_port_ownership_conflict(self):
        loop, io, relay, inbound = self._relay()
        relay.open_udp("rip", "eth0", 520)
        with pytest.raises(ValueError):
            relay.open_udp("ospf", "eth0", 520)
        relay.open_udp("rip", "eth0", 520)  # same creator: idempotent

    def test_close_stops_delivery(self):
        loop, io, relay, inbound = self._relay()
        relay.open_udp("rip", "eth0", 520)
        relay.close_udp("rip", "eth0", 520)
        assert not relay.is_open("eth0", 520)
        relay.send_udp("eth0", IPv4("10.0.0.1"), IPv4("224.0.0.9"), 520, b"x")
        loop.run()
        assert inbound == []

    def test_close_by_wrong_creator_ignored(self):
        loop, io, relay, inbound = self._relay()
        relay.open_udp("rip", "eth0", 520)
        relay.close_udp("ospf", "eth0", 520)
        assert relay.is_open("eth0", 520)


class TestProfilerUnit:
    def _profiler(self):
        clock = SimulatedClock(1097173928.664085)
        return Profiler(clock), clock

    def test_disabled_is_free(self):
        profiler, clock = self._profiler()
        var = profiler.create("route_ribin")
        var.log("add 10.0.1.0/24")
        assert var.entries == []

    def test_paper_record_format(self):
        """The exact record format from paper §8.2."""
        profiler, clock = self._profiler()
        var = profiler.create("route_ribin")
        profiler.enable("route_ribin")
        var.log("add 10.0.1.0/24")
        line = var.format_entries()[0]
        assert line == "route_ribin 1097173928 664085 add 10.0.1.0/24"

    def test_enable_disable_clear(self):
        profiler, clock = self._profiler()
        var = profiler.create("x")
        profiler.enable("x")
        var.log("one")
        profiler.disable("x")
        var.log("two")
        assert [d for __, d in var.entries] == ["one"]
        profiler.clear("x")
        assert var.entries == []

    def test_unknown_variable_raises(self):
        profiler, __ = self._profiler()
        with pytest.raises(KeyError):
            profiler.enable("nope")

    def test_create_is_idempotent(self):
        profiler, __ = self._profiler()
        assert profiler.create("x") is profiler.create("x")
        assert profiler.names() == ["x"]


class TestTrieV6:
    def test_v6_operations(self):
        trie = RouteTrie(128)
        prefixes = ["2001:db8::/32", "2001:db8:1::/48", "::/0",
                    "fe80::/10", "2001:db8:1:2::/64"]
        for p in prefixes:
            trie.insert(net(p), p)
        assert len(trie) == 5
        assert trie.best_match(IPv6("2001:db8:1:2::9"))[1] == "2001:db8:1:2::/64"
        assert trie.best_match(IPv6("2001:db8:9::1"))[1] == "2001:db8::/32"
        assert trie.best_match(IPv6("9999::1"))[1] == "::/0"
        covers = [str(n) for n, __ in trie.covering(net("2001:db8:1:2::/64"))]
        assert covers == ["::/0", "2001:db8::/32", "2001:db8:1::/48",
                          "2001:db8:1:2::/64"]
        trie.remove(net("2001:db8::/32"))
        assert trie.best_match(IPv6("2001:db8:9::1"))[1] == "::/0"

    def test_v6_walk_survives_deletion_under_it(self):
        trie = RouteTrie(128)
        for i in range(16):
            trie.insert(net(f"2001:db8:{i:x}::/48"), i)
        walk = SnapshotWalk(trie)
        seen = []
        for payload in iter(lambda: walk.take(1), []):
            seen += payload
            # delete the route just taken and the next one under the walk
            trie.discard(net(f"2001:db8:{payload[0]:x}::/48"))
            trie.discard(net(f"2001:db8:{payload[0] + 1:x}::/48"))
        assert seen == list(range(0, 16, 2))
        assert len(trie) == 0
