"""Tests for BGP path attributes and message wire codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AS_SEQUENCE,
    AS_SET,
    ASPath,
    BGPAttributeError,
    Origin,
    PathAttributeList,
)
from repro.bgp.messages import (
    BGPDecodeError,
    ErrorCode,
    KeepaliveMessage,
    MessageReader,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
)
from repro.net import IPNet, IPv4


def attrs(**kw):
    kw.setdefault("nexthop", IPv4("10.0.0.1"))
    return PathAttributeList(**kw)


class TestASPath:
    def test_empty(self):
        path = ASPath()
        assert path.path_length() == 0
        assert ASPath.decode(path.encode()) == path

    def test_sequence(self):
        path = ASPath.from_sequence(65001, 65002, 65003)
        assert path.path_length() == 3
        assert path.as_list() == [65001, 65002, 65003]
        assert path.first_asn() == 65001

    def test_prepend(self):
        path = ASPath.from_sequence(65002).prepend(65001)
        assert path.as_list() == [65001, 65002]

    def test_prepend_to_empty(self):
        assert ASPath().prepend(65001).as_list() == [65001]

    def test_as_set_counts_one(self):
        path = ASPath([(AS_SEQUENCE, (1, 2)), (AS_SET, (3, 4, 5))])
        assert path.path_length() == 3

    def test_contains(self):
        path = ASPath([(AS_SEQUENCE, (1, 2)), (AS_SET, (3,))])
        assert path.contains(2) and path.contains(3)
        assert not path.contains(9)

    def test_encode_decode_round_trip(self):
        path = ASPath([(AS_SEQUENCE, (65001, 65002)), (AS_SET, (100, 200))])
        assert ASPath.decode(path.encode()) == path

    def test_rejects_bad_segment_type(self):
        with pytest.raises(BGPAttributeError):
            ASPath([(9, (1,))])

    def test_rejects_huge_asn(self):
        with pytest.raises(BGPAttributeError):
            ASPath([(AS_SEQUENCE, (70000,))])

    def test_str(self):
        assert str(ASPath.from_sequence(1, 2)) == "1 2"
        assert "{" in str(ASPath([(AS_SET, (3, 4))]))

    @given(st.lists(st.integers(0, 0xFFFF), max_size=20))
    def test_sequence_round_trip(self, as_numbers):
        path = ASPath.from_sequence(*as_numbers)
        assert ASPath.decode(path.encode()) == path


class TestPathAttributes:
    def test_requires_nexthop(self):
        with pytest.raises(BGPAttributeError):
            PathAttributeList()

    def test_minimal_round_trip(self):
        a = attrs()
        assert PathAttributeList.decode(a.encode()) == a

    def test_full_round_trip(self):
        a = attrs(origin=Origin.EGP,
                  as_path=ASPath.from_sequence(65001, 65002),
                  med=50, local_pref=200, atomic_aggregate=True,
                  aggregator=(65001, IPv4("1.2.3.4")),
                  communities=[0xFFFF0001, 100])
        decoded = PathAttributeList.decode(a.encode())
        assert decoded == a
        assert decoded.med == 50
        assert decoded.local_pref == 200
        assert decoded.atomic_aggregate
        assert decoded.aggregator == (65001, IPv4("1.2.3.4"))
        assert decoded.communities == (100, 0xFFFF0001)

    def test_replace_is_pure(self):
        a = attrs(med=10)
        b = a.replace(med=20)
        assert a.med == 10 and b.med == 20
        assert b.nexthop == a.nexthop

    def test_hashable_and_groupable(self):
        a1 = attrs(med=10)
        a2 = attrs(med=10)
        assert a1 == a2 and hash(a1) == hash(a2)
        assert len({a1, a2, attrs(med=11)}) == 2

    def test_decode_rejects_duplicate_attribute(self):
        a = attrs()
        data = a.encode()
        # append a second ORIGIN attribute
        with pytest.raises(BGPAttributeError):
            PathAttributeList.decode(data + bytes([0x40, 1, 1, 0]))

    def test_decode_rejects_missing_mandatory(self):
        with pytest.raises(BGPAttributeError):
            PathAttributeList.decode(b"")

    def test_decode_rejects_truncated(self):
        data = attrs().encode()
        with pytest.raises(BGPAttributeError):
            PathAttributeList.decode(data[:-1])

    def test_unknown_optional_tolerated(self):
        data = attrs().encode() + bytes([0x80, 99, 2, 1, 2])
        decoded = PathAttributeList.decode(data)
        assert decoded.nexthop == IPv4("10.0.0.1")

    def test_unknown_wellknown_rejected(self):
        data = attrs().encode() + bytes([0x40, 99, 0])
        with pytest.raises(BGPAttributeError):
            PathAttributeList.decode(data)


class TestOpenMessage:
    def test_round_trip(self):
        msg = OpenMessage(65001, 90, IPv4("1.2.3.4"))
        decoded = decode_message(msg.encode())
        assert isinstance(decoded, OpenMessage)
        assert decoded.asn == 65001
        assert decoded.holdtime == 90
        assert decoded.bgp_id == IPv4("1.2.3.4")

    def test_bad_version_rejected(self):
        msg = OpenMessage(65001, 90, IPv4("1.2.3.4"), version=3)
        with pytest.raises(BGPDecodeError) as err:
            decode_message(msg.encode())
        assert err.value.code == ErrorCode.OPEN_MESSAGE_ERROR

    def test_unacceptable_holdtime(self):
        msg = OpenMessage(65001, 2, IPv4("1.2.3.4"))
        with pytest.raises(BGPDecodeError):
            decode_message(msg.encode())


class TestUpdateMessage:
    def test_announce_round_trip(self):
        msg = UpdateMessage(attributes=attrs(),
                            nlri=[IPNet.parse("10.0.1.0/24"),
                                  IPNet.parse("10.0.2.0/24")])
        decoded = decode_message(msg.encode())
        assert decoded.nlri == msg.nlri
        assert decoded.attributes == msg.attributes
        assert decoded.withdrawn == []

    def test_withdraw_round_trip(self):
        msg = UpdateMessage(withdrawn=[IPNet.parse("10.0.0.0/8")])
        decoded = decode_message(msg.encode())
        assert decoded.withdrawn == msg.withdrawn
        assert decoded.nlri == []

    def test_mixed_round_trip(self):
        msg = UpdateMessage(withdrawn=[IPNet.parse("9.0.0.0/8")],
                            attributes=attrs(),
                            nlri=[IPNet.parse("10.0.0.0/9")])
        decoded = decode_message(msg.encode())
        assert decoded.withdrawn == msg.withdrawn
        assert decoded.nlri == msg.nlri

    def test_odd_prefix_lengths(self):
        nets = [IPNet.parse(p) for p in
                ("0.0.0.0/0", "128.0.0.0/1", "10.0.0.0/7", "10.1.2.3/32",
                 "192.168.1.0/25")]
        msg = UpdateMessage(attributes=attrs(), nlri=nets)
        assert decode_message(msg.encode()).nlri == nets

    def test_nlri_without_attributes_rejected(self):
        with pytest.raises(BGPDecodeError):
            UpdateMessage(nlri=[IPNet.parse("10.0.0.0/8")])

    def test_bad_prefix_length_rejected(self):
        msg = UpdateMessage(withdrawn=[IPNet.parse("10.0.0.0/8")])
        raw = bytearray(msg.encode())
        raw[21] = 33  # corrupt the prefix length
        with pytest.raises(BGPDecodeError):
            decode_message(bytes(raw))

    @given(st.lists(st.tuples(st.integers(0, (1 << 32) - 1),
                              st.integers(0, 32)), max_size=30))
    def test_prefix_list_round_trip(self, raw_prefixes):
        nets = list({IPNet(IPv4(v), p) for v, p in raw_prefixes})
        msg = UpdateMessage(withdrawn=nets)
        assert set(decode_message(msg.encode()).withdrawn) == set(nets)


class TestOtherMessages:
    def test_keepalive(self):
        assert isinstance(decode_message(KeepaliveMessage().encode()),
                          KeepaliveMessage)

    def test_notification(self):
        msg = NotificationMessage(ErrorCode.CEASE, 1, b"bye")
        decoded = decode_message(msg.encode())
        assert decoded.code == ErrorCode.CEASE
        assert decoded.subcode == 1
        assert decoded.data == b"bye"

    def test_bad_marker_rejected(self):
        raw = bytearray(KeepaliveMessage().encode())
        raw[0] = 0
        with pytest.raises(BGPDecodeError) as err:
            decode_message(bytes(raw))
        assert err.value.code == ErrorCode.MESSAGE_HEADER_ERROR

    def test_bad_type_rejected(self):
        raw = bytearray(KeepaliveMessage().encode())
        raw[18] = 99
        with pytest.raises(BGPDecodeError):
            decode_message(bytes(raw))


class TestMessageReader:
    def test_reassembles_fragmented_stream(self):
        stream = (OpenMessage(1, 90, IPv4("1.1.1.1")).encode()
                  + KeepaliveMessage().encode()
                  + UpdateMessage(withdrawn=[IPNet.parse("10.0.0.0/8")]).encode())
        reader = MessageReader()
        messages = []
        # Feed one byte at a time: brutal fragmentation.
        for i in range(len(stream)):
            messages.extend(reader.feed(stream[i:i + 1]))
        assert [type(m).__name__ for m in messages] == [
            "OpenMessage", "KeepaliveMessage", "UpdateMessage"]

    def test_multiple_messages_one_chunk(self):
        stream = KeepaliveMessage().encode() * 5
        assert len(MessageReader().feed(stream)) == 5

    def test_bad_length_raises(self):
        raw = bytearray(KeepaliveMessage().encode())
        raw[16] = 0xFF
        raw[17] = 0xFF
        with pytest.raises(BGPDecodeError):
            MessageReader().feed(bytes(raw))


def test_messages_and_reader_have_no_instance_dict():
    """One UpdateMessage per peer per flush rides the announce path, so no
    message class, nor the reader, may grow a per-instance ``__dict__``."""
    instances = [UpdateMessage(withdrawn=[IPNet.parse("10.0.0.0/8")]),
                 OpenMessage(65001, 90, IPv4("1.2.3.4")),
                 NotificationMessage(ErrorCode.CEASE),
                 KeepaliveMessage(), MessageReader()]
    assert [type(m).__name__ for m in instances
            if hasattr(m, "__dict__")] == []
