"""Unit tests for the RIB stages: merge, extint, redist, register."""

import random

import pytest

from repro.core.process import Host, XorpProcess
from repro.core.stages import OriginStage, RouteTableStage
from repro.fea import FeaProcess
from repro.interfaces import REDIST4_IDL
from repro.net import IPNet, IPv4
from repro.rib import (
    ExtIntStage,
    MergeStage,
    RedistStage,
    RegisterStage,
    RibProcess,
    RibRoute,
)
from repro.rib.route import preferred

# Arm the stage-graph consistency sanitizer for every test in
# this module; the conftest fixture asserts zero violations at
# teardown.  Autouse
# at module level so it arms before class setup_method fixtures.
@pytest.fixture(autouse=True)
def _runtime_sanitizers(runtime_sanitizers):
    yield runtime_sanitizers


def net(text):
    return IPNet.parse(text)


def route(net_text, protocol, nexthop="192.168.0.1", metric=1, **kw):
    return RibRoute(net(net_text), IPv4(nexthop), metric, protocol, **kw)


class SinkStage(RouteTableStage):
    def __init__(self):
        super().__init__("sink")
        self.log = []

    def add_routes(self, routes, caller=None):
        self.log.extend(("add", r) for r in routes)

    def delete_routes(self, routes, caller=None):
        self.log.extend(("delete", r) for r in routes)

    def replace_route(self, old, new, caller=None):
        self.log.append(("replace", old, new))

    def current(self):
        """Reconstruct the visible table from the message log."""
        table = {}
        for entry in self.log:
            if entry[0] == "add":
                assert entry[1].net not in table, "duplicate add"
                table[entry[1].net] = entry[1]
            elif entry[0] == "delete":
                assert table.pop(entry[1].net, None) is not None, "spurious delete"
            else:
                assert entry[1].net in table, "spurious replace"
                table[entry[2].net] = entry[2]
        return table


class TestPreference:
    def test_admin_distance_order(self):
        static = route("10.0.0.0/8", "static")
        rip = route("10.0.0.0/8", "rip")
        assert preferred(static, rip) is static
        assert preferred(rip, static) is static

    def test_none_handling(self):
        r = route("10.0.0.0/8", "rip")
        assert preferred(None, r) is r
        assert preferred(r, None) is r
        assert preferred(None, None) is None

    def test_default_distances(self):
        assert route("1.0.0.0/8", "connected").admin_distance == 0
        assert route("1.0.0.0/8", "static").admin_distance == 1
        assert route("1.0.0.0/8", "ebgp").admin_distance == 20
        assert route("1.0.0.0/8", "rip").admin_distance == 120
        assert route("1.0.0.0/8", "ibgp").admin_distance == 200
        assert route("1.0.0.0/8", "martian").admin_distance == 255

    def test_bgp_routes_external(self):
        assert route("1.0.0.0/8", "ebgp").is_external
        assert not route("1.0.0.0/8", "rip").is_external


def merged_pair():
    a, b = OriginStage("a"), OriginStage("b")
    merge = MergeStage("m")
    merge.set_parents(a, b)
    sink = SinkStage()
    merge.set_next(sink)
    return a, b, merge, sink


class TestMergeStage:
    def test_single_branch_passthrough(self):
        a, b, merge, sink = merged_pair()
        r = route("10.0.0.0/8", "rip")
        a.originate(r)
        assert sink.current() == {r.net: r}

    def test_better_branch_displaces(self):
        a, b, merge, sink = merged_pair()
        rip = route("10.0.0.0/8", "rip")
        static = route("10.0.0.0/8", "static")
        a.originate(rip)
        b.originate(static)
        assert sink.current()[rip.net] is static
        assert sink.log[-1][0] == "replace"

    def test_worse_branch_swallowed(self):
        a, b, merge, sink = merged_pair()
        static = route("10.0.0.0/8", "static")
        rip = route("10.0.0.0/8", "rip")
        a.originate(static)
        b.originate(rip)
        assert sink.current()[static.net] is static
        assert len(sink.log) == 1  # the rip add never surfaced

    def test_delete_of_winner_promotes_loser(self):
        a, b, merge, sink = merged_pair()
        static = route("10.0.0.0/8", "static")
        rip = route("10.0.0.0/8", "rip")
        a.originate(static)
        b.originate(rip)
        a.withdraw(static.net)
        assert sink.current()[rip.net] is rip

    def test_delete_of_loser_is_silent(self):
        a, b, merge, sink = merged_pair()
        static = route("10.0.0.0/8", "static")
        rip = route("10.0.0.0/8", "rip")
        a.originate(static)
        b.originate(rip)
        before = len(sink.log)
        b.withdraw(rip.net)
        assert len(sink.log) == before

    def test_delete_last_route(self):
        a, b, merge, sink = merged_pair()
        r = route("10.0.0.0/8", "rip")
        a.originate(r)
        a.withdraw(r.net)
        assert sink.current() == {}

    def test_lookup_returns_winner(self):
        a, b, merge, sink = merged_pair()
        static = route("10.0.0.0/8", "static")
        rip = route("10.0.0.0/8", "rip")
        a.originate(rip)
        b.originate(static)
        assert merge.lookup_route(static.net) is static

    def test_replace_with_now_losing_route(self):
        a, b, merge, sink = merged_pair()
        static = route("10.0.0.0/8", "static")
        a.originate(route("10.0.0.0/8", "connected"))
        b.originate(static)  # swallowed
        a.originate(route("10.0.0.0/8", "rip"))  # replace: now loses to static
        assert sink.current()[static.net] is static

    def test_message_from_unknown_branch_asserts(self):
        a, b, merge, sink = merged_pair()
        stranger = OriginStage("x")
        with pytest.raises(AssertionError):
            merge.add_routes([route("10.0.0.0/8", "rip")], caller=stranger)


class TestExtIntStage:
    def setup_method(self):
        self.extint = ExtIntStage("extint")
        self.sink = SinkStage()
        self.extint.set_next(self.sink)

    def test_internal_passes(self):
        r = route("10.0.0.0/8", "rip")
        self.extint.add_routes([r])
        assert self.sink.current() == {r.net: r}

    def test_unresolvable_external_held(self):
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        self.extint.add_routes([bgp])
        assert self.sink.current() == {}
        assert bgp.net in self.extint.unresolved

    def test_external_resolves_via_internal(self):
        igp = route("1.1.1.0/24", "rip", nexthop="0.0.0.0")
        self.extint.add_routes([igp])
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        self.extint.add_routes([bgp])
        assert self.sink.current()[bgp.net] is bgp

    def test_held_external_released_when_igp_appears(self):
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        self.extint.add_routes([bgp])
        self.extint.add_routes([route("1.1.1.0/24", "rip")])
        assert self.sink.current()[bgp.net] is bgp
        assert not self.extint.unresolved

    def test_external_withdrawn_when_igp_goes(self):
        igp = route("1.1.1.0/24", "rip")
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        self.extint.add_routes([igp])
        self.extint.add_routes([bgp])
        self.extint.delete_routes([igp])
        assert bgp.net not in self.sink.current()
        assert bgp.net in self.extint.unresolved

    def test_delete_held_external(self):
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        self.extint.add_routes([bgp])
        self.extint.delete_routes([bgp])
        assert not self.extint.unresolved
        assert self.sink.current() == {}

    def test_lookup_consistent_with_announcements(self):
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        self.extint.add_routes([bgp])
        assert self.extint.lookup_route(bgp.net) is None  # held, not announced
        self.extint.add_routes([route("1.1.1.0/24", "rip")])
        assert self.extint.lookup_route(bgp.net) is bgp

    def test_replace_internal(self):
        old = route("10.0.0.0/8", "rip", metric=2)
        new = route("10.0.0.0/8", "rip", metric=5)
        self.extint.add_routes([old])
        self.extint.replace_route(old, new)
        assert self.sink.current()[new.net] is new

    def test_external_follows_its_nexthop_through_flaps(self):
        """Withdrawn each time the nexthop stops resolving, re-announced
        each time it resolves again — once, and with the route that was
        announced."""
        igp = route("1.1.1.0/24", "rip")
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        self.extint.add_routes([bgp])
        for __ in range(2):
            self.extint.add_routes([igp])
            assert self.extint.lookup_route(bgp.net) is bgp
            self.extint.delete_routes([igp])
            assert self.extint.lookup_route(bgp.net) is None
        self.extint.delete_routes([bgp])
        assert self.sink.log == 2 * [
            ("add", igp), ("add", bgp), ("delete", igp), ("delete", bgp)]
        assert not self.extint.unresolved

    def test_internal_alternative_stands_in_while_external_is_unusable(self):
        igp = route("1.1.1.0/24", "rip")
        bgp = route("20.0.0.0/8", "ebgp", nexthop="1.1.1.1")
        fallback = route("20.0.0.0/8", "rip", metric=9)
        # Two sides, as in Figure 7: one prefix arrives on both edges.
        int_side, ext_side = OriginStage("int"), OriginStage("ext")
        self.extint.add_routes([igp], caller=int_side)
        self.extint.add_routes([fallback], caller=int_side)
        self.extint.add_routes([bgp], caller=ext_side)
        assert self.extint.lookup_route(bgp.net) is bgp
        self.extint.delete_routes([igp], caller=int_side)
        assert self.extint.lookup_route(bgp.net) is fallback
        self.extint.add_routes([igp], caller=int_side)
        assert self.extint.lookup_route(bgp.net) is bgp
        assert self.sink.log == [
            ("add", igp), ("add", fallback), ("replace", fallback, bgp),
            ("delete", igp), ("replace", bgp, fallback),
            ("add", igp), ("replace", fallback, bgp)]


class TestRedistStage:
    def setup_method(self):
        self.redist = RedistStage("redist")
        self.sink = SinkStage()
        self.redist.set_next(self.sink)
        self.events = []

    def _target(self, protocol):
        self.redist.add_target(
            "t", lambda r: r.protocol == protocol,
            lambda op, r: self.events.append((op, r)))

    def test_matching_routes_redistributed(self):
        self._target("rip")
        rip = route("10.0.0.0/8", "rip")
        static = route("11.0.0.0/8", "static")
        self.redist.add_routes([rip])
        self.redist.add_routes([static])
        assert self.events == [("add", rip)]

    def test_initial_dump(self):
        """The stage's share of a target's dump: its keep announces each
        matching winner the target does not know yet, and a later delete
        rescinds what the dump announced."""
        rip, static = route("10.0.0.0/8", "rip"), route("11.0.0.0/8", "static")
        self.redist.add_routes([rip, static])
        self._target("rip")
        keep = self.redist.dump_keep("t")
        assert [r for r in (rip, static, rip) if keep(r)] == [rip]
        assert self.events == []  # the RIB's stream sends what keep kept
        self.redist.delete_routes([rip])
        assert self.events == [("delete", rip)]

    def test_delete_propagates(self):
        self._target("rip")
        rip = route("10.0.0.0/8", "rip")
        self.redist.add_routes([rip])
        self.redist.delete_routes([rip])
        assert self.events == [("add", rip), ("delete", rip)]

    def test_replace_crossing_predicate(self):
        self._target("rip")
        rip = route("10.0.0.0/8", "rip")
        static = route("10.0.0.0/8", "static")
        self.redist.add_routes([rip])
        self.redist.replace_route(rip, static)  # no longer matches
        assert self.events == [("add", rip), ("delete", rip)]
        self.redist.replace_route(static, rip)  # matches again
        assert self.events[-1] == ("add", rip)

    def test_messages_still_flow_downstream(self):
        self._target("rip")
        rip = route("10.0.0.0/8", "rip")
        self.redist.add_routes([rip])
        assert self.sink.current() == {rip.net: rip}

    def test_remove_target(self):
        self._target("rip")
        self.redist.remove_target("t")
        self.redist.add_routes([route("10.0.0.0/8", "rip")])
        assert self.events == []


INSTALL_ORDERS = {
    "ascending": sorted,
    "descending": lambda nets: sorted(nets, reverse=True),
    "shuffled": lambda nets: random.Random(5).sample(nets, len(nets)),
}


class RedistSink:
    """A ``redist4/0.1`` consumer process that logs what it is sent."""

    def __init__(self, host, name="sink"):
        self.process = XorpProcess(host, name)
        router = self.process.create_router(name)
        router.bind(REDIST4_IDL, self)
        self.name, self.log = router.class_name, []

    def xrl_redist_add_route4(self, net, nexthop, metric, admin_distance,
                              protocol, policytags):
        self.log.append(("add", net, protocol, metric))

    def xrl_redist_delete_route4(self, net, protocol):
        self.log.append(("delete", net, protocol, None))

    def table(self):
        """The routes the log leaves the consumer with.  (A stream sends
        the newest op per prefix, so a delete may overtake the add it
        superseded: the consumer never had the route.)"""
        table = {}
        for op, n, protocol, metric in self.log:
            if op == "add":
                table[n] = (protocol, metric)
            else:
                table.pop(n, None)
        return table


def delivered(log):
    """Each logged route once, as an add: its (protocol, metric) by net."""
    assert {op for op, *__ in log} == {"add"}
    assert len({n for __, n, *__ in log}) == len(log), "delivered twice"
    return {n: (protocol, metric) for __, n, protocol, metric in log}


@pytest.mark.parametrize("order", sorted(INSTALL_ORDERS))
class TestWholeTableDumps:
    """The RIB's three whole-table sends — a redist target's first dump,
    its dump to a reborn consumer, the FEA resync — are route-stream
    dumps over the register stage's trie: each delivers every current
    winner exactly once, whatever order the winners were installed in."""

    @pytest.fixture
    def rib(self):
        host = Host()
        FeaProcess(host)
        rib = RibProcess(host, window=8)
        rib.v4.add_origin("rip", external=False)
        yield rib
        host.shutdown()

    @pytest.fixture
    def sink(self, rib):
        return RedistSink(rib.host)

    def _churn(self, rib, order):
        """40 static and 40 overlapping rip routes installed in *order*,
        a third of each withdrawn, some of those put back with another
        metric; returns the winners a reference dict model expects."""
        nets = INSTALL_ORDERS[order](
            [net(f"10.{i}.0.0/16") for i in range(60)])
        tables = {"static": {}, "rip": {}}
        for protocol, mine in (("static", nets[:40]), ("rip", nets[20:])):
            origin = rib.v4.origin(protocol)
            origin.originate_batch(
                [route(str(n), protocol) for n in mine])
            tables[protocol] = dict.fromkeys(mine, 1)
            gone = mine[::3]
            origin.withdraw_batch(gone)
            for n in gone:
                del tables[protocol][n]
            origin.originate_batch(
                [route(str(n), protocol, metric=7) for n in gone[::2]])
            tables[protocol].update(dict.fromkeys(gone[::2], 7))
        rib.loop.run()
        expected = {n: ("rip", metric) for n, metric in tables["rip"].items()}
        expected.update(
            {n: ("static", metric) for n, metric in tables["static"].items()})
        return expected

    def test_target_added_after_churn_gets_each_winner_once(self, rib, sink,
                                                            order):
        expected = self._churn(rib, order)
        rib.xrl_redist_enable4(sink.name, "static")
        rib.xrl_redist_enable4(sink.name, "rip")
        assert sink.log == []  # the dumps run on the loop, not in the call
        rib.loop.run()
        assert delivered(sink.log) == expected

    def test_resync_target_redelivers_each_winner_once(self, rib, sink,
                                                       order):
        rib.xrl_redist_enable4(sink.name, "rip")
        expected = self._churn(rib, order)
        sink.process.shutdown()
        reborn = RedistSink(rib.host)  # same class: the RIB dumps again
        rib.loop.run()
        assert delivered(reborn.log) == {
            n: won for n, won in expected.items() if won[0] == "rip"}
        # The rebuilt bookkeeping still rescinds what it re-announced.
        rip_net = next(n for n, won in expected.items() if won[0] == "rip")
        rib.v4.origin("rip").withdraw(rip_net)
        rib.loop.run()
        assert reborn.log[-1][:2] == ("delete", rip_net)

    def test_resync_fea_replays_each_winner_once(self, rib, order):
        expected = self._churn(rib, order)
        sent, segment = [], rib.txq._segment

        def spy(family, op, routes):
            sent.extend((op, r.net, r.protocol, r.metric) for r in routes)
            return segment(family, op, routes)

        rib.txq._segment = spy
        rib.resync_fea()
        assert sent == []  # the dump runs on the loop, not in the call
        rib.loop.run()
        assert delivered(sent) == expected


class TestStreamDumpsUnderChurn:
    """Live churn between the loop turns of the dumps: withdrawals,
    re-adds and new metrics land on both sides of each walk's front, yet
    the redist consumer and the FIB end equal to the origin tables."""

    NETS = [net(f"10.{i >> 8}.{i & 255}.0/24") for i in range(600)]

    @staticmethod
    def _route(n, protocol, metric):
        # The nexthop names the winner, so the FIB shows a new metric too.
        side = 1 if protocol == "static" else 2
        return route(str(n), protocol, nexthop=f"192.168.{side}.{metric}",
                     metric=metric)

    @pytest.mark.parametrize("seed", range(6))
    def test_sink_and_fib_equal_the_origin_tables(self, seed):
        host = Host()
        fea = FeaProcess(host)
        rib = RibProcess(host, window=8)
        rib.v4.add_origin("rip", external=False)
        sink = RedistSink(host)
        rng = random.Random(seed)
        tables = {"static": {}, "rip": {}}

        def put(protocol, n, metric):
            rib.v4.origin(protocol).originate_batch(
                [self._route(n, protocol, metric)])
            tables[protocol][n] = metric

        for n in self.NETS:
            put("static" if rng.random() < 0.6 else "rip", n, 1)
            if rng.random() < 0.2:
                put("rip", n, 1)
        host.loop.run()
        fea.fib4.clear()  # as if reborn empty
        rib.txq.reset()
        rib.resync_fea()
        rib.xrl_redist_enable4(sink.name, "static")
        redist = rib._redist_streams[sink.name]
        walk = rib._redist_walks[f"{sink.name}:static"]
        index = {n: i for i, n in enumerate(self.NETS)}
        during = turns = 0
        # Churn first (the dumps' first turns are still due), at a rate the
        # window-8 stream outpaces: a walk is pulled only when no live op
        # waits.
        while (rib.txq._walks or not walk.exhausted) and turns < 5000:
            turns += 1
            for __ in range(rng.randrange(6)):
                n = rng.choice(self.NETS)  # either side of the fronts
                if not walk.exhausted and rng.random() < 0.5:
                    # just ahead of the redist walk: the prefixes a walk
                    # read mid stage message would see stale
                    n = self.NETS[min(index[walk.front] + rng.randrange(4),
                                      len(self.NETS) - 1)]
                # Mostly the redistributed protocol's routes, and theirs
                # wherever they are present.
                static = n in tables["static"] or rng.random() < 0.7
                protocol = "static" if static else "rip"
                during += 1
                if n in tables[protocol] and rng.random() < 0.3:
                    rib.v4.origin(protocol).withdraw_batch([n])
                    del tables[protocol][n]
                else:  # an add, a re-add or a new metric
                    put(protocol, n, rng.randrange(1, 6))
            host.loop.run_once(block=False)
        host.loop.run()
        assert turns < 5000 and during > 100
        winners = {n: ("rip", metric) for n, metric in tables["rip"].items()}
        winners.update({n: ("static", metric)
                        for n, metric in tables["static"].items()})
        assert sink.table() == {n: won for n, won in winners.items()
                                if won[0] == "static"}
        assert {n: str(entry.nexthop) for n, entry in fea.fib4.entries()} \
            == {n: str(self._route(n, *won).nexthop)
                for n, won in winners.items()}
        host.shutdown()

    def test_redist_disable4_stops_its_dump(self):
        host = Host()
        FeaProcess(host)
        rib = RibProcess(host)
        sink = RedistSink(host)
        rib.v4.origin("static").originate_batch(
            [self._route(n, "static", 1) for n in self.NETS])
        host.loop.run()
        rib.xrl_redist_enable4(sink.name, "static")
        host.loop.run_once(block=False)  # the dump's first turn
        stream = rib._redist_streams[sink.name]
        sent = stream.sent_count
        assert 0 < sent < len(self.NETS)
        rib.xrl_redist_disable4(sink.name, "static")
        host.loop.run()
        assert stream.idle and stream.sent_count == sent
        assert len(sink.log) == sent
        host.shutdown()


class TestRegisterStage:
    """Paper §5.2.1 / Figure 8 semantics."""

    def setup_method(self):
        self.invalidations = []
        self.register = RegisterStage(
            "reg", invalidate_cb=lambda c, s: self.invalidations.append((c, s)))
        for prefix in ("128.16.0.0/16", "128.16.0.0/18",
                       "128.16.128.0/17", "128.16.192.0/18"):
            self.register.add_routes([route(prefix, "rip")])

    def test_figure8_simple_case(self):
        """128.16.32.1 matches 128.16.0.0/18, valid for the whole /18."""
        subnet, matched = self.register.register_interest(
            "bgp", IPv4("128.16.32.1"))
        assert matched.net == net("128.16.0.0/18")
        assert subnet == net("128.16.0.0/18")

    def test_figure8_overlaid_case(self):
        """128.16.160.1 matches 128.16.128.0/17, but the /17 is overlaid by
        128.16.192.0/18, so the answer is valid only for 128.16.128.0/18."""
        subnet, matched = self.register.register_interest(
            "bgp", IPv4("128.16.160.1"))
        assert matched.net == net("128.16.128.0/17")
        assert subnet == net("128.16.128.0/18")

    def test_no_route_case(self):
        subnet, matched = self.register.register_interest(
            "bgp", IPv4("1.2.3.4"))
        assert matched is None
        # The valid subnet must not contain any existing route.
        for existing in ("128.16.0.0/16", "128.16.0.0/18"):
            assert not subnet.contains(net(existing))
        assert subnet.contains_addr(IPv4("1.2.3.4"))

    def test_valid_subnets_never_overlap(self):
        addrs = ["128.16.32.1", "128.16.160.1", "128.16.192.1",
                 "128.16.64.1", "1.2.3.4", "128.16.255.255"]
        subnets = [self.register.register_interest("bgp", IPv4(a))[0]
                   for a in addrs]
        for i, a in enumerate(subnets):
            for b in subnets[i + 1:]:
                assert not a.overlaps(b) or a == b

    def test_invalidation_on_overlapping_change(self):
        subnet, __ = self.register.register_interest("bgp", IPv4("128.16.32.1"))
        self.register.add_routes([route("128.16.32.0/24", "static")])
        assert ("bgp", subnet) in self.invalidations

    def test_no_invalidation_for_unrelated_change(self):
        self.register.register_interest("bgp", IPv4("128.16.32.1"))
        self.register.add_routes([route("99.0.0.0/8", "static")])
        assert self.invalidations == []

    def test_invalidation_on_delete(self):
        subnet, matched = self.register.register_interest(
            "bgp", IPv4("128.16.32.1"))
        self.register.delete_routes([matched])
        assert ("bgp", subnet) in self.invalidations

    def test_reregistration_after_invalidation(self):
        subnet, __ = self.register.register_interest("bgp", IPv4("128.16.32.1"))
        self.register.add_routes([route("128.16.32.0/24", "static")])
        new_subnet, matched = self.register.register_interest(
            "bgp", IPv4("128.16.32.1"))
        assert matched.net == net("128.16.32.0/24")

    def test_multiple_clients_share_registration(self):
        s1, __ = self.register.register_interest("bgp", IPv4("128.16.32.1"))
        s2, __ = self.register.register_interest("pim", IPv4("128.16.32.1"))
        assert s1 == s2
        self.register.add_routes([route("128.16.32.0/24", "static")])
        clients = {c for c, __ in self.invalidations}
        assert clients == {"bgp", "pim"}

    def test_deregister(self):
        subnet, __ = self.register.register_interest("bgp", IPv4("128.16.32.1"))
        assert self.register.deregister_interest("bgp", subnet)
        self.register.add_routes([route("128.16.32.0/24", "static")])
        assert self.invalidations == []

    def test_lookup_by_dest(self):
        assert self.register.lookup_by_dest(IPv4("128.16.200.1")).net == \
            net("128.16.192.0/18")
        assert self.register.lookup_by_dest(IPv4("9.9.9.9")) is None

    def test_host_route_interest(self):
        self.register.add_routes([route("5.5.5.5/32", "static")])
        subnet, matched = self.register.register_interest("x", IPv4("5.5.5.5"))
        assert subnet == net("5.5.5.5/32")
        assert matched.net == net("5.5.5.5/32")
