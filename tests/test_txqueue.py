"""Tests for the pipelined XRL transmit queue and the route stream."""

import sys
from collections import OrderedDict
from types import SimpleNamespace

import pytest

from repro.core.process import Host, XorpProcess
from repro.core.txqueue import RouteStream, XrlTransmitQueue
from repro.net import IPNet, IPv4
from repro.xrl import Xrl, XrlArgs
from repro.xrl.error import XrlErrorCode
from repro.xrl.idl import parse_idl

IDL = parse_idl("""
interface sink/1.0 {
    put ? value:u32;
    boom;
}
""")["sink/1.0"]


@pytest.fixture
def setup():
    host = Host()
    server_process = XorpProcess(host, "server")
    server = server_process.create_router("sink")
    received = []

    class Impl:
        def xrl_put(self, value):
            received.append(value)

        def xrl_boom(self):
            raise RuntimeError("boom")

    server.bind(IDL, Impl())
    client_process = XorpProcess(host, "client")
    client = client_process.create_router("client")
    return host, client, received


def put_xrl(value):
    return Xrl("sink", "sink", "1.0", "put", XrlArgs().add_u32("value", value))


class TestTransmitQueue:
    def test_all_delivered_in_order(self, setup):
        host, client, received = setup
        queue = XrlTransmitQueue(client, window=10)
        for value in range(100):
            queue.enqueue(put_xrl(value))
        assert host.loop.run_until(
            lambda: len(received) == 100 and queue.idle, timeout=10)
        assert received == list(range(100))

    def test_window_limits_outstanding(self, setup):
        host, client, received = setup
        queue = XrlTransmitQueue(client, window=5)
        for value in range(50):
            queue.enqueue(put_xrl(value))
        assert (queue.inflight, queue.sent_count) == (5, 5)
        host.loop.run_until(lambda: queue.idle, timeout=10)
        assert len(received) == 50

    def test_on_reply(self, setup):
        host, client, received = setup
        queue = XrlTransmitQueue(client, window=10)
        replies = []
        queue.enqueue(put_xrl(1),
                      on_reply=lambda err, args: replies.append(err.is_okay))
        host.loop.run_until(lambda: bool(replies), timeout=10)
        assert replies == [True]

    def test_on_error_callback(self, setup):
        host, client, received = setup
        errors = []
        queue = XrlTransmitQueue(client, window=10)
        queue.enqueue(Xrl("sink", "sink", "1.0", "boom"),
                      on_reply=lambda err, __: errors.append(err))
        assert host.loop.run_until(lambda: bool(errors), timeout=10)
        assert errors[0].code == XrlErrorCode.COMMAND_FAILED

    def test_sent_count(self, setup):
        host, client, received = setup
        queue = XrlTransmitQueue(client, window=100)
        for value in range(7):
            queue.enqueue(put_xrl(value))
        host.loop.run_until(lambda: queue.idle, timeout=10)
        assert queue.sent_count == 7

    def test_rejects_bad_window(self, setup):
        host, client, received = setup
        with pytest.raises(ValueError):
            XrlTransmitQueue(client, window=0)


class TestRouteStream:
    def test_drained_burst_releases_the_table(self, setup):
        """A burst of many windows moves whole into the stream's table;
        once it drains, the table is no bigger than a fresh one."""
        host, client, received = setup
        window = 16
        stream = RouteStream(
            client, lambda group, op, routes: put_xrl(len(routes)),
            window=window)
        routes = [SimpleNamespace(net=IPNet(IPv4(i << 8), 24))
                  for i in range(8 * window)]
        stream.submit(None, "add", routes)
        assert sys.getsizeof(stream._table) > sys.getsizeof(OrderedDict())
        assert host.loop.run_until(lambda: stream.idle, timeout=10)
        assert sum(received) == len(routes)
        assert sys.getsizeof(stream._table) <= sys.getsizeof(OrderedDict())


class TestProcessModel:
    def test_processes_isolated_via_intra(self):
        """Intra-process XRLs must not cross XorpProcess boundaries."""
        host = Host()
        p1 = XorpProcess(host, "p1")
        p2 = XorpProcess(host, "p2")
        assert p1.process_token != p2.process_token

    def test_kill_family_signal(self):
        host = Host()
        process = XorpProcess(host, "victim")
        assert process.running
        # Deliver a "signal" through the kill protocol family.
        from repro.xrl.transport.kill import KillFamily, SIGTERM

        sender = host.kill_family.connect(process._kill_address, None)

        class FakeCaller:
            loop = host.loop

        sender._caller = FakeCaller()
        replies = []
        sender.call(KillFamily.encode_signal(1, SIGTERM), replies.append)
        host.loop.run_until(lambda: bool(replies), timeout=5)
        assert not process.running

    def test_shutdown_deregisters_components(self):
        host = Host()
        process = XorpProcess(host, "p")
        router = process.create_router("thing")
        assert host.finder.known_target("thing")
        process.shutdown()
        assert not host.finder.known_target("thing")
        assert "p" not in host.processes

    def test_host_shutdown_stops_all(self):
        host = Host()
        processes = [XorpProcess(host, f"p{i}") for i in range(3)]
        host.shutdown()
        assert all(not p.running for p in processes)

    def test_common_interface_everywhere(self):
        """Every stock process implements common/0.1."""
        from repro.simnet import SimNetwork
        from repro.rip import RipProcess
        from repro.xrl import Xrl

        network = SimNetwork()
        router = network.add_router("r")
        rip = RipProcess(router.host)
        for target in ("fea", "rib", "rip"):
            error, args = rip.xrl.send_sync(
                Xrl(target, "common", "0.1", "get_status"), deadline=10)
            assert error.is_okay, (target, error)
            assert args.get_txt("status") == "running"
