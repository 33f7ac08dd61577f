"""Unit + property tests for XRL atoms, args, and the Xrl object."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import IPNet, IPv4, IPv6, Mac
from repro.xrl import Xrl, XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.codec import (
    _decode_atoms,
    _encode_atoms,
    decode_request,
    encode_request,
)
from repro.xrl.types import escape_text, unescape_text


class TestAtomText:
    def test_u32(self):
        atom = XrlAtom("as", XrlAtomType.U32, 1777)
        assert atom.to_text() == "as:u32=1777"
        assert XrlAtom.from_text("as:u32=1777") == atom

    def test_txt_with_specials(self):
        atom = XrlAtom("s", XrlAtomType.TXT, "a&b=c d/e?f")
        parsed = XrlAtom.from_text(atom.to_text())
        assert parsed.value == "a&b=c d/e?f"

    def test_bool(self):
        assert XrlAtom.from_text("f:bool=true").value is True
        assert XrlAtom.from_text("f:bool=false").value is False

    def test_ipv4(self):
        atom = XrlAtom.from_text("peer:ipv4=10.0.0.1")
        assert atom.value == IPv4("10.0.0.1")

    def test_ipv4net(self):
        atom = XrlAtom.from_text("net:ipv4net=10.0.0.0/8")
        assert atom.value == IPNet.parse("10.0.0.0/8")

    def test_ipv6net(self):
        atom = XrlAtom("n", XrlAtomType.IPV6NET, "2001:db8::/32")
        assert XrlAtom.from_text(atom.to_text()) == atom

    def test_mac(self):
        atom = XrlAtom("hw", XrlAtomType.MAC, "aa:bb:cc:dd:ee:ff")
        assert XrlAtom.from_text(atom.to_text()) == atom

    def test_binary_hex(self):
        atom = XrlAtom("data", XrlAtomType.BINARY, b"\x00\xff")
        assert atom.to_text() == "data:binary=00ff"
        assert XrlAtom.from_text("data:binary=00ff").value == b"\x00\xff"

    def test_list(self):
        inner = [XrlAtom("x", XrlAtomType.U32, 1), XrlAtom("y", XrlAtomType.U32, 2)]
        atom = XrlAtom("l", XrlAtomType.LIST, inner)
        assert XrlAtom.from_text(atom.to_text()).value == inner

    def test_empty_list(self):
        atom = XrlAtom("l", XrlAtomType.LIST, [])
        assert XrlAtom.from_text(atom.to_text()).value == []

    def test_rejects_wrong_net_family(self):
        with pytest.raises(XrlError):
            XrlAtom("n", XrlAtomType.IPV4NET, "2001:db8::/32")

    def test_rejects_out_of_range(self):
        with pytest.raises(XrlError):
            XrlAtom("n", XrlAtomType.U32, -1)
        with pytest.raises(XrlError):
            XrlAtom("n", XrlAtomType.U32, 1 << 32)
        with pytest.raises(XrlError):
            XrlAtom("n", XrlAtomType.I32, 1 << 31)

    def test_rejects_bad_name(self):
        with pytest.raises(XrlError):
            XrlAtom("a&b", XrlAtomType.U32, 1)
        with pytest.raises(XrlError):
            XrlAtom("", XrlAtomType.U32, 1)

    def test_rejects_unknown_type_text(self):
        with pytest.raises(XrlError):
            XrlAtom.from_text("x:float=1.5")

    def test_rejects_malformed_text(self):
        with pytest.raises(XrlError):
            XrlAtom.from_text("novalue:u32")
        with pytest.raises(XrlError):
            XrlAtom.from_text("notype=5")


class TestEscaping:
    @given(st.text(max_size=200))
    def test_round_trip(self, text):
        assert unescape_text(escape_text(text)) == text

    def test_structural_chars_escaped(self):
        escaped = escape_text("a&b")
        assert "&" not in escaped

    def test_truncated_escape_raises(self):
        with pytest.raises(XrlError):
            unescape_text("%2")

    def test_bad_hex_raises(self):
        with pytest.raises(XrlError):
            unescape_text("%zz")


atom_strategy = st.one_of(
    st.builds(lambda v: XrlAtom("a", XrlAtomType.I32, v),
              st.integers(-(1 << 31), (1 << 31) - 1)),
    st.builds(lambda v: XrlAtom("b", XrlAtomType.U32, v),
              st.integers(0, (1 << 32) - 1)),
    st.builds(lambda v: XrlAtom("c", XrlAtomType.U64, v),
              st.integers(0, (1 << 64) - 1)),
    st.builds(lambda v: XrlAtom("d", XrlAtomType.TXT, v), st.text(max_size=64)),
    st.builds(lambda v: XrlAtom("e", XrlAtomType.BOOL, v), st.booleans()),
    st.builds(lambda v: XrlAtom("f", XrlAtomType.IPV4, IPv4(v)),
              st.integers(0, (1 << 32) - 1)),
    st.builds(lambda v: XrlAtom("g", XrlAtomType.IPV6, IPv6(v)),
              st.integers(0, (1 << 128) - 1)),
    st.builds(lambda v, p: XrlAtom("h", XrlAtomType.IPV4NET, IPNet(IPv4(v), p)),
              st.integers(0, (1 << 32) - 1), st.integers(0, 32)),
    st.builds(lambda v: XrlAtom("i", XrlAtomType.MAC, Mac(v)),
              st.integers(0, (1 << 48) - 1)),
    st.builds(lambda v: XrlAtom("j", XrlAtomType.BINARY, bytes(v)),
              st.lists(st.integers(0, 255), max_size=64)),
)


def _wire(args):
    """*args* as the bytes of the one atom wire encoding."""
    buf = bytearray()
    _encode_atoms(buf, list(args))
    return bytes(buf)


class TestBinaryCodec:
    @given(atom_strategy)
    def test_atom_round_trip(self, atom):
        decoded, offset = _decode_atoms(_wire([atom]), 0)
        assert decoded == [atom]
        assert offset == len(_wire([atom]))

    @given(atom_strategy)
    def test_text_round_trip(self, atom):
        assert XrlAtom.from_text(atom.to_text()) == atom

    def test_nested_list_binary(self):
        inner = [XrlAtom("x", XrlAtomType.IPV4, "1.2.3.4")]
        atom = XrlAtom("l", XrlAtomType.LIST,
                       [XrlAtom("n", XrlAtomType.LIST, inner)])
        decoded, __ = _decode_atoms(_wire([atom]), 0)
        assert decoded == [atom]

    def test_truncated_binary_raises(self):
        args = XrlArgs().add_u32("x", 5)
        with pytest.raises(XrlError):
            decode_request(encode_request(1, "m", args)[:-2])


class TestXrlArgs:
    def test_chaining_and_get(self):
        args = XrlArgs().add_u32("as", 1777).add_ipv4("peer", "10.0.0.1")
        assert args.get_u32("as") == 1777
        assert args.get_ipv4("peer") == IPv4("10.0.0.1")
        assert len(args) == 2

    def test_duplicate_rejected(self):
        with pytest.raises(XrlError):
            XrlArgs().add_u32("x", 1).add_u32("x", 2)

    def test_missing_raises(self):
        with pytest.raises(XrlError):
            XrlArgs().get_u32("absent")

    def test_wrong_type_raises(self):
        args = XrlArgs().add_u32("x", 1)
        with pytest.raises(XrlError):
            args.get_txt("x")

    def test_text_round_trip(self):
        args = (XrlArgs().add_u32("a", 1).add_txt("b", "hi there")
                .add_ipv4net("c", "10.0.0.0/8").add_bool("d", True))
        assert XrlArgs.from_text(args.to_text()) == args

    def test_binary_round_trip(self):
        args = (XrlArgs().add_u64("big", 1 << 40).add_binary("blob", b"\x01\x02")
                .add_ipv6("v6", "2001:db8::1"))
        assert decode_request(encode_request(1, "m", args))[2] == args

    def test_empty(self):
        assert XrlArgs.from_text("") == XrlArgs()
        assert decode_request(encode_request(1, "m", XrlArgs()))[2] == XrlArgs()

    def test_preserves_order(self):
        args = XrlArgs().add_u32("z", 1).add_u32("a", 2)
        assert [a.name for a in args] == ["z", "a"]


class TestXrl:
    def test_paper_example(self):
        """The exact XRL from paper §6.1."""
        text = "finder://bgp/bgp/1.0/set_local_as?as:u32=1777"
        xrl = Xrl.from_text(text)
        assert xrl.target == "bgp"
        assert xrl.interface == "bgp"
        assert xrl.version == "1.0"
        assert xrl.method == "set_local_as"
        assert xrl.args.get_u32("as") == 1777
        assert xrl.to_text() == text
        assert not xrl.is_resolved

    def test_resolved_form(self):
        text = "stcp://192.1.2.3:16878/bgp/1.0/set_local_as?as:u32=1777"
        xrl = Xrl.from_text(text)
        assert xrl.is_resolved
        assert xrl.protocol == "stcp"
        assert xrl.target == "192.1.2.3:16878"

    def test_no_args(self):
        xrl = Xrl.from_text("finder://rib/rib/1.0/get_routes")
        assert len(xrl.args) == 0
        assert xrl.to_text() == "finder://rib/rib/1.0/get_routes"

    def test_method_path(self):
        xrl = Xrl("bgp", "bgp", "1.0", "set_local_as")
        assert xrl.method_path == "bgp/1.0/set_local_as"

    def test_bad_text_raises(self):
        with pytest.raises(XrlError):
            Xrl.from_text("no-protocol-separator")
        with pytest.raises(XrlError):
            Xrl.from_text("finder://only/two")

    def test_bad_fields_raise(self):
        with pytest.raises(XrlError):
            Xrl("bgp/evil", "bgp", "1.0", "m")
        with pytest.raises(XrlError):
            Xrl("bgp", "", "1.0", "m")
