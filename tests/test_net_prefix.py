"""Unit tests for repro.net.prefix (IPNet)."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import AddressError, IPNet, IPv4, IPv6, IPv4Net, IPv6Net
from repro.policy import PolicyVM, VarRW, compile_source
from repro.xrl import XrlArgs, XrlAtom, XrlAtomType, XrlError, XrlErrorCode
from repro.xrl.codec import TEXTUAL


def v4net(text):
    return IPNet.parse(text)


class TestParsing:
    def test_parse_v4(self):
        net = v4net("128.16.0.0/16")
        assert str(net) == "128.16.0.0/16"
        assert net.prefix_len == 16

    def test_parse_v6(self):
        net = IPNet.parse("2001:db8::/32")
        assert net.is_ipv6()
        assert net.prefix_len == 32

    def test_host_bits_are_masked(self):
        assert v4net("128.16.64.1/18") == v4net("128.16.64.0/18")

    def test_needs_slash(self):
        with pytest.raises(AddressError):
            IPNet.parse("10.0.0.0")

    def test_bad_length(self):
        with pytest.raises(AddressError):
            IPNet.parse("10.0.0.0/33")
        with pytest.raises(AddressError):
            IPNet.parse("10.0.0.0/x")

    def test_convenience_constructors(self):
        assert IPv4Net("10.0.0.0/8") == IPNet(IPv4("10.0.0.0"), 8)
        assert IPv6Net("::/0") == IPNet(IPv6(0), 0)
        with pytest.raises(AddressError):
            IPv4Net("::/0")


class TestContainment:
    def test_contains_addr(self):
        net = v4net("128.16.0.0/18")
        assert net.contains_addr(IPv4("128.16.32.1"))
        assert not net.contains_addr(IPv4("128.16.64.1"))

    def test_contains_net(self):
        assert v4net("128.16.0.0/16").contains(v4net("128.16.128.0/17"))
        assert v4net("128.16.0.0/16").contains(v4net("128.16.0.0/16"))
        assert not v4net("128.16.128.0/17").contains(v4net("128.16.0.0/16"))

    def test_cross_family_never_contains(self):
        assert not v4net("0.0.0.0/0").contains(IPNet.parse("::/0"))
        assert not v4net("0.0.0.0/0").contains_addr(IPv6("::1"))

    def test_overlaps(self):
        assert v4net("10.0.0.0/8").overlaps(v4net("10.1.0.0/16"))
        assert v4net("10.1.0.0/16").overlaps(v4net("10.0.0.0/8"))
        assert not v4net("10.0.0.0/8").overlaps(v4net("11.0.0.0/8"))

    def test_first_last_addr(self):
        net = v4net("10.0.0.0/30")
        assert net.first_addr() == IPv4("10.0.0.0")
        assert net.last_addr() == IPv4("10.0.0.3")


class TestDerivation:
    def test_supernet(self):
        assert v4net("128.16.128.0/17").supernet() == v4net("128.16.0.0/16")

    def test_default_has_no_supernet(self):
        with pytest.raises(AddressError):
            v4net("0.0.0.0/0").supernet()

    def test_halves(self):
        low, high = v4net("128.16.0.0/16").halves()
        assert low == v4net("128.16.0.0/17")
        assert high == v4net("128.16.128.0/17")

    def test_host_route_cannot_split(self):
        with pytest.raises(AddressError):
            v4net("1.2.3.4/32").halves()

    def test_half_containing(self):
        net = v4net("128.16.0.0/16")
        assert net.half_containing(IPv4("128.16.200.1")) == v4net("128.16.128.0/17")
        with pytest.raises(AddressError):
            net.half_containing(IPv4("129.0.0.1"))

    def test_hosts(self):
        hosts = list(v4net("10.0.0.0/30").hosts())
        assert [str(h) for h in hosts] == [
            "10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3",
        ]

    def test_default_route(self):
        assert IPNet.default_route(IPv4).is_default()
        assert str(IPNet.default_route(IPv6)) == "::/0"


class TestOrderingAndHashing:
    def test_sort_order(self):
        nets = [v4net("10.1.0.0/16"), v4net("10.0.0.0/8"), v4net("10.0.0.0/16")]
        assert sorted(str(n) for n in [min(nets)]) == ["10.0.0.0/8"]

    def test_shorter_prefix_sorts_first_at_same_address(self):
        assert v4net("10.0.0.0/8") < v4net("10.0.0.0/16")

    def test_hash_equal_nets(self):
        assert len({v4net("10.0.0.0/8"), v4net("10.0.0.1/8")}) == 1

    def test_key(self):
        assert v4net("128.0.0.0/1").key() == (0x80000000, 1)


prefixes = st.builds(
    lambda value, plen: IPNet(IPv4(value), plen),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)


class TestProperties:
    @given(prefixes)
    def test_contains_self(self, net):
        assert net.contains(net)

    @given(prefixes)
    def test_first_addr_inside(self, net):
        assert net.contains_addr(net.first_addr())
        assert net.contains_addr(net.last_addr())

    @given(prefixes)
    def test_parse_round_trip(self, net):
        assert IPNet.parse(str(net)) == net

    @given(prefixes)
    def test_halves_partition(self, net):
        if net.prefix_len == 32:
            return
        low, high = net.halves()
        assert net.contains(low) and net.contains(high)
        assert not low.overlaps(high)
        assert low.last_addr().to_int() + 1 == high.first_addr().to_int()

    @given(prefixes, prefixes)
    def test_containment_antisymmetry(self, a, b):
        if a.contains(b) and b.contains(a):
            assert a == b

    @given(prefixes)
    def test_supernet_contains(self, net):
        if net.prefix_len == 0:
            return
        assert net.supernet().contains(net)


words = st.integers(min_value=0, max_value=(1 << 32) - 1)
lengths4 = st.integers(min_value=0, max_value=32)


class TestRepresentation:
    """A prefix is its network int, its length and its address class;
    whichever constructor built it, the same prefix is the same value."""

    @given(words, lengths4)
    def test_every_constructor_builds_the_same_net(self, value, plen):
        net = IPNet(IPv4(value), plen)
        built = [IPNet.parse(f"{IPv4(value)}/{plen}"),
                 IPNet.from_packed4(value, plen)]
        if plen > 0:
            built.append(IPNet(IPv4(value), plen - 1)
                         .half_containing(IPv4(value)))
        if plen < 32:
            built.append(IPNet(IPv4(value), plen + 1).supernet())
        for other in built:
            assert other == net and hash(other) == hash(net)
        assert len(set(built) | {net}) == 1

    @given(words, lengths4)
    def test_families_with_the_same_int_are_never_equal(self, value, plen):
        v4 = IPNet(IPv4(value), plen)
        v6 = IPNet(IPv6(v4.key()[0]), 128)
        assert v4 != v6 and v6 != v4
        zero4, zero6 = IPNet(IPv4(0), plen), IPNet(IPv6(0), plen)
        assert zero4.key() == zero6.key()
        assert zero4 != zero6 and len({zero4, zero6}) == 2

    @given(st.lists(st.tuples(words, lengths4), max_size=30))
    def test_sorts_by_network_int_then_length(self, pairs):
        nets = [IPNet(IPv4(value), plen) for value, plen in pairs]
        assert sorted(nets) == sorted(
            nets, key=lambda net: (net.network.to_int(), net.prefix_len))

    @given(words, lengths4, st.integers(min_value=0, max_value=128))
    def test_network_is_the_masked_address(self, value, plen, plen6):
        network = IPNet(IPv4(value), plen).network
        assert type(network) is IPv4
        assert network.to_int() == value & ~((1 << (32 - plen)) - 1)
        word6 = (value << 96) | value
        network6 = IPNet(IPv6(word6), plen6).network
        assert type(network6) is IPv6
        assert network6.to_int() == word6 & ~((1 << (128 - plen6)) - 1)

    @given(st.lists(words, min_size=1, max_size=5, unique=True),
           st.lists(st.integers(min_value=0), min_size=2, max_size=40))
    def test_a_decoded_nexthop_column_holds_one_address_per_distinct(
            self, distinct, picks):
        nexthops = [distinct[i % len(distinct)] for i in picks]
        args = XrlArgs().add_list("nexthops", [
            XrlAtom("nexthop", XrlAtomType.IPV4, IPv4(word))
            for word in nexthops])
        decoded = TEXTUAL.decode_request(
            TEXTUAL.encode_request(1, "m", args))[2].get_list("nexthops")
        assert [atom.value.to_int() for atom in decoded] == nexthops
        assert len({id(atom.value) for atom in decoded}) == \
            len(set(nexthops))


class TestIntPitfalls:
    """A prefix is an int underneath; where an int would behave as a
    number, a prefix does not."""

    def test_the_default_route_is_true(self):
        assert IPNet.parse("0.0.0.0/0")
        assert bool(IPNet.parse("0.0.0.0/0")) is True
        assert IPNet.parse("::/0")

    @pytest.mark.parametrize("atom_type", [
        XrlAtomType.U32, XrlAtomType.U64, XrlAtomType.I32, XrlAtomType.I64])
    def test_an_integer_atom_refuses_a_prefix(self, atom_type):
        with pytest.raises(XrlError) as raised:
            XrlAtom("n", atom_type, IPNet.parse("0.0.0.0/0"))
        assert raised.value.code == XrlErrorCode.BAD_ARGS

    def test_a_net_atom_checks_the_family(self):
        XrlAtom("net", XrlAtomType.IPV6NET, IPNet.parse("::/0"))
        for atom_type, text in ((XrlAtomType.IPV4NET, "::/0"),
                                (XrlAtomType.IPV6NET, "0.0.0.0/0")):
            with pytest.raises(XrlError):
                XrlAtom("net", atom_type, IPNet.parse(text))

    def test_a_policy_does_no_arithmetic_on_a_prefix(self):
        net = IPNet.parse("10.0.0.0/8")
        varrw = VarRW({"network4": net})
        PolicyVM().run(compile_source(
            "policy-statement p { term t { then { network4 add 1; } } }"),
            varrw)
        # As for any value that is not a number: the sum starts at 0.
        assert varrw.read("network4") == 1
        assert type(varrw.read("network4")) is int

    def test_a_prefix_formats_and_copies_as_a_prefix(self):
        net = IPNet.parse("10.1.0.0/16")
        assert f"{net:>14}" == "   10.1.0.0/16"
        assert f"{net:x}" == f"{int(net):x}"
        assert "%s" % net == "10.1.0.0/16"
        for copied in (copy.copy(net), copy.deepcopy(net),
                       pickle.loads(pickle.dumps(net))):
            assert type(copied) is IPNet and copied == net
