"""Unit tests for the RIB stages: merge, extint, redist, register."""

import random

import pytest

from repro.core.process import Host
from repro.core.stages import OriginStage, RouteTableStage
from repro.fea import FeaProcess
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

# Arm the runtime sanitizers (stage-graph consistency + XRL
# dispatch conformance) for every test in this module; the
# conftest fixture asserts zero violations at teardown.  Autouse
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
        rip = route("10.0.0.0/8", "rip")
        self.redist.add_routes([rip])
        self._target("rip")
        assert self.events == [("add", rip)]

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


@pytest.mark.parametrize("order", sorted(INSTALL_ORDERS))
class TestWholeTableDumps:
    """The three dumps of the final winners — a redist target's initial
    dump, its resync, the FEA resync — walk a table that keeps no prefix
    order: each must deliver every current winner exactly once, whatever
    order the winners were installed in."""

    @pytest.fixture
    def rib(self):
        host = Host()
        FeaProcess(host)
        rib = RibProcess(host)
        rib.v4.add_origin("rip", external=False)
        yield rib
        host.shutdown()

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

    @staticmethod
    def _delivered(routes):
        assert len({r.net for r in routes}) == len(routes), "delivered twice"
        return {r.net: (r.protocol, r.metric) for r in routes}

    def test_target_added_after_churn_gets_each_winner_once(self, rib, order):
        expected = self._churn(rib, order)
        events = []
        rib.v4.redist.add_target(
            "t", lambda r: True, lambda op, r: events.append((op, r)))
        assert {op for op, __ in events} == {"add"}
        assert self._delivered([r for __, r in events]) == expected

    def test_resync_target_redelivers_each_winner_once(self, rib, order):
        events = []
        rib.v4.redist.add_target(
            "t", lambda r: r.protocol == "rip",
            lambda op, r: events.append((op, r)))
        expected = self._churn(rib, order)
        del events[:]
        rib.v4.redist.resync_target("t")
        assert {op for op, __ in events} == {"add"}
        assert self._delivered([r for __, r in events]) == {
            n: won for n, won in expected.items() if won[0] == "rip"}
        # The rebuilt bookkeeping still rescinds what it re-announced.
        rip_net = next(n for n, won in expected.items() if won[0] == "rip")
        rib.v4.origin("rip").withdraw(rip_net)
        assert [(op, r.net) for op, r in events[-1:]] == [("delete", rip_net)]

    def test_resync_fea_replays_each_winner_once(self, rib, order):
        expected = self._churn(rib, order)
        replayed = []
        rib._emit_fea4 = lambda op, routes: replayed.append((op, routes))
        rib.resync_fea()
        ((op, routes),) = replayed
        assert op == "add"
        assert self._delivered(routes) == expected


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
