"""The calling side of the IDL: :class:`repro.xrl.idl.XrlSender`.

A sender is declared once, at module level, in the module that sends, so
a bad declaration fails the import of that module.  These tests cover
what a declaration refuses, what a call refuses, that the route path's
senders put on the wire exactly what the hand-built XRLs they replaced
did, and that every module under ``repro`` imports: a module no other
test exercises still has its declarations checked here.
"""

import importlib
import pkgutil
from types import SimpleNamespace

import pytest

import repro
from repro.bgp.process import BgpProcess
from repro.core.process import Host
from repro.net import IPNet, IPv4, IPv6
from repro.rib.rib import RibProcess
from repro.xrl import IdlError, XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.idl import parse_idl
from repro.xrl.xrl import Xrl

IFACE = parse_idl("""
interface rt/1.0 {
    add  ? protocol:txt & net:ipv4net & metric:u32;
    ping;
}
""")["rt/1.0"]


class TestDeclaration:
    def test_an_unknown_method_is_refused(self):
        with pytest.raises(IdlError, match="'addd'"):
            IFACE.sender("addd", "protocol", "net", "metric")

    @pytest.mark.parametrize("names", [
        ("protocol", "nett", "metric"),         # misspelt
        ("protocol", "net"),                    # missing
        ("protocol", "metric", "net"),          # reordered
        ("protocol", "net", "metric", "tag"),   # one too many
    ])
    def test_names_other_than_the_declared_ones_are_refused(self, names):
        with pytest.raises(IdlError, match=r"rt/1.0/add takes "
                                           r"\(protocol, net, metric\)"):
            IFACE.sender("add", *names)

    def test_a_method_without_parameters_takes_no_names(self):
        assert IFACE.sender("ping")("peer").to_text() == \
            "finder://peer/rt/1.0/ping"


class TestCall:
    ADD = IFACE.sender("add", "protocol", "net", "metric")

    def test_values_become_atoms_in_declared_order(self):
        xrl = self.ADD("rib", "static", IPNet.parse("10.0.0.0/8"), 5)
        assert xrl.to_text() == ("finder://rib/rt/1.0/add?protocol:txt=static"
                                 "&net:ipv4net=10.0.0.0%2F8&metric:u32=5")
        assert xrl.args.get_u32("metric") == 5

    @pytest.mark.parametrize("values", [("static",),
                                        ("static", "10.0.0.0/8", 5, 6)])
    def test_a_wrong_value_count_is_refused(self, values):
        with pytest.raises(XrlError, match="expected 3 values"):
            self.ADD("rib", *values)

    def test_a_mistyped_value_is_refused(self):
        with pytest.raises(XrlError, match="u32"):
            self.ADD("rib", "static", "10.0.0.0/8", "five")

    def test_a_bad_target_is_refused(self):
        with pytest.raises(XrlError, match="target"):
            self.ADD("", "static", "10.0.0.0/8", 5)


def _route(net, nexthop, metric=7, ifname="eth0"):
    return SimpleNamespace(net=net, nexthop=nexthop, igp_metric=metric,
                           ifname=ifname)


V4 = [_route(IPNet.parse("10.1.0.0/16"), IPv4("192.0.2.1")),
      _route(IPNet.parse("10.2.0.0/16"), IPv4("192.0.2.2"), metric=0)]
V6 = [_route(IPNet.parse("2001:db8::/32"), IPv6("2001:db8::1"))]


def _parallel(name, atom_type, values):
    return [XrlAtom(name, atom_type, value) for value in values]


class TestRoutePathWireForm:
    """The senders of the BGP→RIB and RIB→FEA hops build, byte for
    byte, the XRLs the hand-built argument chains before them built."""

    def test_bgp_to_rib(self):
        bgp = BgpProcess(Host())
        lone, = V4[:1]
        lone_args = (XrlArgs().add_txt("protocol", "ebgp")
                     .add_ipv4net("net", lone.net))
        routes_args = (XrlArgs().add_txt("protocol", "ebgp")
                       .add_list("nets", _parallel(
                           "net", XrlAtomType.IPV4NET,
                           [r.net for r in V4])))
        expected = {
            ("delete", 1): Xrl("rib", "rib", "1.0", "delete_route4",
                               lone_args),
            ("add", 1): Xrl("rib", "rib", "1.0", "add_route4", XrlArgs(
                list(lone_args) + list(
                    XrlArgs().add_ipv4("nexthop", lone.nexthop)
                    .add_u32("metric", 7).add_list("policytags", [])))),
            ("delete", 2): Xrl("rib", "rib", "1.0", "delete_routes4",
                               routes_args),
            ("add", 2): Xrl("rib", "rib", "1.0", "add_routes4", XrlArgs(
                list(routes_args) + list(
                    XrlArgs().add_list("nexthops", _parallel(
                        "nexthop", XrlAtomType.IPV4,
                        [r.nexthop for r in V4]))
                    .add_list("metrics", _parallel(
                        "metric", XrlAtomType.U32, [7, 0]))))),
        }
        for (op, count), xrl in expected.items():
            built = bgp._rib_segment("ebgp", op, V4[:count])
            assert built.to_text() == xrl.to_text(), (op, count)
        replace = bgp._rib_segment("ebgp", "replace", V4[:1])
        assert replace.method == "replace_route4"
        assert replace.args == expected[("add", 1)].args

    @pytest.mark.parametrize("family, routes, suffix, net, nexthop", [
        (32, V4, "4", XrlAtomType.IPV4NET, XrlAtomType.IPV4),
        (128, V6 * 2, "6", XrlAtomType.IPV6NET, XrlAtomType.IPV6),
    ])
    def test_rib_to_fea(self, family, routes, suffix, net, nexthop):
        rib = RibProcess(Host())
        lone = routes[0]
        nets = _parallel("net", net, [r.net for r in routes])
        expected = {
            ("delete", 1): Xrl("fea", "fea_fib", "1.0",
                               "delete_entry" + suffix,
                               XrlArgs([XrlAtom("net", net, lone.net)])),
            ("add", 1): Xrl("fea", "fea_fib", "1.0", "add_entry" + suffix,
                            XrlArgs([XrlAtom("net", net, lone.net),
                                     XrlAtom("nexthop", nexthop,
                                             lone.nexthop)])
                            .add_txt("ifname", lone.ifname)),
            ("delete", 2): Xrl("fea", "fea_fib", "1.0",
                               "delete_entries" + suffix,
                               XrlArgs().add_list("nets", nets)),
            ("add", 2): Xrl("fea", "fea_fib", "1.0", "add_entries" + suffix,
                            XrlArgs().add_list("nets", nets)
                            .add_list("nexthops", _parallel(
                                "nexthop", nexthop,
                                [r.nexthop for r in routes]))
                            .add_list("ifnames", _parallel(
                                "ifname", XrlAtomType.TXT,
                                [r.ifname for r in routes]))),
        }
        for (op, count), xrl in expected.items():
            built = rib._fea_segment(family, op, routes[:count])
            assert built.to_text() == xrl.to_text(), (op, count)


def test_every_module_imports():
    """Every sender declaration under ``repro`` is checked by this import,
    whether or not another test runs its module."""
    names = [info.name for info in pkgutil.walk_packages(repro.__path__,
                                                         "repro.")
             if not info.name.endswith("__main__")]
    for name in names:
        importlib.import_module(name)
    assert len(names) > 100
