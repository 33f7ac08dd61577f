"""Unit tests for the PeerOut stage: coalescing, grouping, size limits."""

import pytest

from repro.bgp.attributes import ASPath, PathAttributeList
from repro.bgp.messages import MAX_MESSAGE_LEN, UpdateMessage, decode_message
from repro.bgp.peer import PeerOutStage
from repro.bgp.route import BGPRoute
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4


def attrs(**kw):
    kw.setdefault("nexthop", IPv4("10.0.0.1"))
    kw.setdefault("as_path", ASPath.from_sequence(65001))
    return PathAttributeList(**kw)


def route(i, attributes=None):
    return BGPRoute(IPNet(IPv4(0x0A000000 + (i << 8)), 24),
                    attributes if attributes is not None else attrs(),
                    peer_id="p")


@pytest.fixture
def stage():
    loop = EventLoop(SimulatedClock())
    sent = []
    out = PeerOutStage("out", loop, sent.append)
    return loop, out, sent


class TestPeerOut:
    def test_coalesces_same_attributes_into_one_update(self, stage):
        loop, out, sent = stage
        shared = attrs()
        for i in range(5):
            out.add_routes([route(i, shared)])
        loop.run_once()
        assert len(sent) == 1
        assert len(sent[0].nlri) == 5

    def test_different_attributes_split_updates(self, stage):
        loop, out, sent = stage
        out.add_routes([route(0, attrs(med=1))])
        out.add_routes([route(1, attrs(med=2))])
        loop.run_once()
        assert len(sent) == 2

    def test_withdrawals_batched(self, stage):
        loop, out, sent = stage
        for i in range(10):
            out.delete_routes([route(i)])
        loop.run_once()
        assert len(sent) == 1
        assert len(sent[0].withdrawn) == 10

    def test_replace_becomes_fresh_announcement(self, stage):
        loop, out, sent = stage
        old, new = route(0, attrs(med=1)), route(0, attrs(med=2))
        out.replace_route(old, new)
        loop.run_once()
        assert len(sent) == 1
        assert sent[0].nlri == [new.net]
        assert sent[0].withdrawn == []

    def test_large_batches_respect_max_message_size(self, stage):
        """Regression for the Figure 12 full-table dump overflow."""
        loop, out, sent = stage
        shared = attrs()
        for i in range(5000):
            out.add_routes([route(i, shared)])
        loop.run_once()
        assert len(sent) > 1
        for update in sent:
            encoded = update.encode()  # must not raise "message too long"
            assert len(encoded) <= MAX_MESSAGE_LEN
            decode_message(encoded)
        total = sum(len(u.nlri) for u in sent)
        assert total == 5000

    def test_large_withdrawal_batches_chunked(self, stage):
        loop, out, sent = stage
        for i in range(3000):
            out.delete_routes([route(i)])
        loop.run_once()
        assert sum(len(u.withdrawn) for u in sent) == 3000
        for update in sent:
            assert len(update.encode()) <= MAX_MESSAGE_LEN

    def test_flush_is_deferred_within_one_turn(self, stage):
        loop, out, sent = stage
        out.add_routes([route(0)])
        assert sent == []  # nothing leaves until the loop turns
        loop.run_once()
        assert len(sent) == 1

    def test_updates_sent_counter(self, stage):
        loop, out, sent = stage
        out.add_routes([route(0)])
        out.delete_routes([route(1)])
        loop.run_once()
        assert out.updates_sent == 2
