"""Fault injection and robustness: corrupt wire data, dead transports,
IPv6 paths, hold timers over real session plumbing."""

import time

import pytest

from repro.bgp import BgpProcess, BgpState
from repro.bgp.peer import PeerConfig
from repro.bgp.session import session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock, SystemClock
from repro.net import IPNet, IPv4, IPv6
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter
from repro.xrl.error import XrlError, XrlErrorCode


def bgp_pair(loop, holdtime=90):
    host_a, host_b = Host(loop=loop), Host(loop=loop)
    bgp_a = BgpProcess(host_a, local_as=65001, bgp_id=IPv4("1.1.1.1"),
                       rib_target=None)
    bgp_b = BgpProcess(host_b, local_as=65002, bgp_id=IPv4("2.2.2.2"),
                       rib_target=None)
    peer_a = bgp_a.add_peer(PeerConfig(IPv4("10.0.0.2"), 65002, 65001,
                                       IPv4("10.0.0.1"), holdtime=holdtime))
    peer_b = bgp_b.add_peer(PeerConfig(IPv4("10.0.0.1"), 65001, 65002,
                                       IPv4("10.0.0.2"), holdtime=holdtime))
    s1, s2 = session_pair(loop, 0.001)
    peer_a.attach_session(s1)
    peer_b.attach_session(s2)
    peer_a.enable()
    peer_b.enable()
    assert loop.run_until(
        lambda: peer_a.fsm.state == BgpState.ESTABLISHED
        and peer_b.fsm.state == BgpState.ESTABLISHED, timeout=60)
    return bgp_a, bgp_b, peer_a, peer_b, s1, s2


class TestBgpWireRobustness:
    def test_corrupt_marker_triggers_notification_and_reset(self):
        loop = EventLoop(SimulatedClock())
        bgp_a, bgp_b, peer_a, peer_b, s1, s2 = bgp_pair(loop)
        # Inject garbage into B's receive path (desynchronised marker).
        s1.send(b"\x00" * 19)
        loop.run_until(lambda: peer_b.fsm.state != BgpState.ESTABLISHED,
                       timeout=30)
        assert peer_b.fsm.state != BgpState.ESTABLISHED
        # Both sides eventually re-establish via connect-retry.
        assert loop.run_until(
            lambda: peer_a.fsm.state == BgpState.ESTABLISHED
            and peer_b.fsm.state == BgpState.ESTABLISHED, timeout=300)

    @pytest.mark.parametrize("hostile", [
        b"GET / HTTP/1.1\r\nHost: router\r\n\r\n" * 2,
        b"\xff" * 16 + b"\xff\xff" + b"\x02",  # a header declaring 0xFFFF
    ], ids=["garbage", "length-0xffff"])
    def test_hostile_bytes_at_the_tcp_listener(self, hostile, monkeypatch):
        """A raw socket at the listener ``wire_sessions`` opens gets a
        NOTIFICATION or a clean close; the peer is back in Idle/Active."""
        import socket
        from types import SimpleNamespace

        import repro.bgp.__main__ as bgp_main
        from repro.bgp.messages import MessageType

        listeners = []

        class Listener(bgp_main.TcpSessionListener):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                listeners.append(self)

        monkeypatch.setattr(bgp_main, "TcpSessionListener", Listener)
        loop = EventLoop(SystemClock())
        host = Host(loop=loop)
        bgp = BgpProcess(host, local_as=65000, bgp_id=IPv4("1.1.1.1"),
                         rib_target=None)
        peer = bgp.add_peer(PeerConfig(IPv4("127.0.0.2"), 65001, 65000,
                                       IPv4("127.0.0.1")))
        peer.enable()
        bgp_main.wire_sessions(SimpleNamespace(loop=loop), bgp, 0, {})
        (listener,) = listeners
        raw = socket.create_connection(("127.0.0.1", listener.port))
        received = bytearray()
        try:
            raw.setblocking(False)
            assert loop.run_until(
                lambda: peer.fsm.state == BgpState.OPENSENT, timeout=5)
            raw.sendall(hostile)

            def closed() -> bool:
                try:
                    chunk = raw.recv(4096)
                except BlockingIOError:
                    return False
                received.extend(chunk)
                return not chunk

            assert loop.run_until(closed, timeout=5)
            assert peer.fsm.state in (BgpState.IDLE, BgpState.ACTIVE)
            # Whatever came back is whole BGP messages: the OPEN, then
            # at most a NOTIFICATION.
            types = []
            while received:
                length = int.from_bytes(received[16:18], "big")
                types.append(received[18])
                del received[:length]
            assert types in ([MessageType.OPEN],
                             [MessageType.OPEN, MessageType.NOTIFICATION])
        finally:
            raw.close()
            listener.close()
            host.shutdown()

    def test_truncated_stream_does_not_crash(self):
        loop = EventLoop(SimulatedClock())
        bgp_a, bgp_b, peer_a, peer_b, s1, s2 = bgp_pair(loop)
        from repro.bgp.messages import KeepaliveMessage

        frame = KeepaliveMessage().encode()
        # Send the first half now; the second half later: must reassemble.
        s1.send(frame[:7])
        loop.run(duration=1)
        s1.send(frame[7:])
        loop.run(duration=1)
        assert peer_b.fsm.state == BgpState.ESTABLISHED

    def test_hold_timer_over_real_sessions(self):
        """Kill the wire silently: hold timers fire on both sides."""
        loop = EventLoop(SimulatedClock())
        bgp_a, bgp_b, peer_a, peer_b, s1, s2 = bgp_pair(loop, holdtime=30)
        # Sever delivery without close notifications.
        s1._peer = None
        s2._peer = None
        assert loop.run_until(
            lambda: peer_a.fsm.state != BgpState.ESTABLISHED
            and peer_b.fsm.state != BgpState.ESTABLISHED, timeout=120)

    def test_session_down_withdraws_from_rib_stream(self):
        loop = EventLoop(SimulatedClock())
        bgp_a, bgp_b, peer_a, peer_b, s1, s2 = bgp_pair(loop)
        bgp_a.xrl_originate_route4(IPNet.parse("99.0.0.0/8"),
                                   IPv4("10.0.0.1"), True)
        assert loop.run_until(lambda: bgp_b.decision.route_count == 1,
                              timeout=30)
        peer_a.disable()
        assert loop.run_until(lambda: bgp_b.decision.route_count == 0,
                              timeout=120)


class TestXrlTransportRobustness:
    def test_tcp_server_vanishes_mid_conversation(self):
        loop = EventLoop(SystemClock())
        finder = Finder()
        from repro.xrl.transport import TcpFamily

        family = TcpFamily()
        server = XrlRouter(loop, "svc", finder, families=[family])
        server.register_raw_method("svc/1.0/ping", lambda args: None)
        client = XrlRouter(loop, "cli", finder, families=[family])
        error, __ = client.send_sync(Xrl("svc", "svc", "1.0", "ping"),
                                     deadline=10)
        assert error.is_okay
        server.shutdown()
        # The cached sender's socket dies; the client must surface an
        # error (resolve failure after deregistration) rather than hang.
        error, __ = client.send_sync(Xrl("svc", "svc", "1.0", "ping"),
                                     deadline=10)
        assert not error.is_okay

    def test_tcp_large_payload_fragmentation(self):
        loop = EventLoop(SystemClock())
        finder = Finder()
        from repro.xrl.transport import TcpFamily

        family = TcpFamily()
        server = XrlRouter(loop, "svc", finder, families=[family])
        received = []

        def handler(args):
            received.append(len(args.get_binary("blob")))
            return None

        server.register_raw_method("svc/1.0/put", handler)
        client = XrlRouter(loop, "cli", finder, families=[family])
        blob = bytes(range(256)) * 2000  # 512 KB, many TCP segments
        args = XrlArgs().add_binary("blob", blob)
        error, __ = client.send_sync(Xrl("svc", "svc", "1.0", "put", args),
                                     deadline=30)
        assert error.is_okay
        assert received == [len(blob)]

    def test_sender_closed_from_a_reply_callback_in_the_same_batch(self):
        """Two senders readable in one select batch; the first reply's
        callback closes the other sender (what a Finder invalidation
        does).  The loop still calls the closed sender's reader."""
        import select
        import socket
        import struct
        import types

        from repro.xrl.transport.tcp import TcpFamily, _TcpSender, pack_frame

        loop = EventLoop(SystemClock())
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(2)
        address = "127.0.0.1:{}".format(server.getsockname()[1])
        stub_router = types.SimpleNamespace(loop=loop)
        family = TcpFamily(codec="textual")  # no HELLO: nothing to answer
        senders = [_TcpSender(family, address, stub_router) for __ in "ab"]
        accepted = [server.accept()[0] for __ in senders]
        replies = []
        try:
            for seq, (sender, other) in enumerate(
                    zip(senders, reversed(senders)), start=1):
                frame = b"\x00" + struct.pack("!I", seq)  # kind, then seq
                sender.call(frame, lambda response, other=other:
                            (replies.append(response), other.close()))
                accepted[seq - 1].sendall(pack_frame(frame))
            client_socks = [sender._sock for sender in senders]
            for __ in range(50):
                if len(select.select(client_socks, [], [], 0.1)[0]) == 2:
                    break
            loop.run_once(block=False)  # calls the closed one's reader too
            assert len(replies) == 1
            assert sum(sender.alive for sender in senders) == 1
        finally:
            for sock in accepted + [server]:
                sock.close()
            for sender in senders:
                sender.close()

    def test_finder_connection_closed_by_a_death_push_in_the_same_batch(self):
        """Two children die at once (bench/deploy.py SIGKILLs them): the
        first connection's close pushes a DEATH event at the second,
        whose send fails and closes it before the loop reaches its
        reader."""
        import select
        import socket
        import struct

        from repro.interfaces import txt_atoms
        from repro.xrl.codec import TEXTUAL
        from repro.xrl.finder import FINDER_KEY
        from repro.xrl.finder_target import FinderTarget
        from repro.xrl.transport import TcpFamily
        from repro.xrl.transport.tcp import pack_frame

        loop = EventLoop(SystemClock())
        finder = Finder()
        family = TcpFamily()
        target = FinderTarget(
            finder, XrlRouter(loop, "finder", finder, families=[family]))
        (listener,) = family._listeners.values()
        host, __, port_text = target.address.rpartition(":")
        children = {}
        seq = iter(range(1, 100))

        def send(name, method, args=None):
            children[name].sendall(pack_frame(b"\x00" + TEXTUAL.encode_request(
                next(seq), f"{FINDER_KEY}/finder/1.0/{method}",
                args if args is not None else XrlArgs())))

        try:
            for name in ("left", "right"):
                children[name] = socket.create_connection((host, int(port_text)))
            for name, other in [("left", "right"), ("right", "left")]:
                send(name, "register_target",
                     XrlArgs().add_txt("class_name", name)
                     .add_txt("instance_name", name)
                     .add_bool("singleton", True).add_txt("key", "k" * 32)
                     .add_list("families", []).add_list("addresses", [])
                     .add_list("methods", txt_atoms("method", ["a/1.0/b"])))
                send(name, "watch", XrlArgs().add_txt("class_name", other))
            sessions = target._sessions
            assert loop.run_until(
                lambda: [len(session.watched) for session in sessions.values()]
                == [1, 1], timeout=5)
            # Each holds the other's birth: the first poll collects it, the
            # second parks, so a DEATH is written the moment it happens.
            for name in children:
                send(name, "next_events")
                send(name, "next_events")
            assert loop.run_until(
                lambda: all(session.poll is not None and not session.events
                            for session in sessions.values()), timeout=5)
            server_socks = [conn._sock for conn in listener._connections]
            for sock in children.values():  # die like SIGKILL: RST, no FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
            for __ in range(50):
                if len(select.select(server_socks, [], [], 0.1)[0]) == 2:
                    break
            loop.run_once(block=False)  # calls the closed one's reader too
            assert not listener._connections
            assert not sessions
            assert finder.classes() == ["finder"]
        finally:
            listener.close()

    @pytest.mark.parametrize("port", ["xrl", "finder"])
    def test_oversized_length_prefix_closes_the_connection(self, port):
        """Four hostile bytes must not make a listener buffer 4 GiB: the
        connection is closed, nothing is retained, nothing is raised."""
        import socket

        from repro.xrl.finder_target import FinderTarget
        from repro.xrl.transport import TcpFamily

        loop = EventLoop(SystemClock())
        finder = Finder()
        family = TcpFamily()
        router = XrlRouter(loop, "finder" if port == "finder" else "svc",
                           finder, families=[family])
        if port == "finder":
            FinderTarget(finder, router)
        (listener,) = family._listeners.values()
        host, __, port_text = listener.address.rpartition(":")
        hostile = socket.create_connection((host, int(port_text)))
        try:
            assert loop.run_until(lambda: len(listener._connections) == 1,
                                  timeout=5)
            (conn,) = listener._connections
            hostile.sendall(b"\xff\xff\xff\xff" + b"x" * 4096)
            assert loop.run_until(lambda: not listener._connections,
                                  timeout=5)
            assert len(conn._buffer._data) == 0
            hostile.settimeout(5)
            assert hostile.recv(16) == b""  # a clean close, no reply
        finally:
            hostile.close()
            listener.close()

    def test_peer_death_fails_the_calls_on_the_wire(self):
        """A transmit queue passes no deadline (BGP's and the RIB's do
        not): when the peer dies with the window full, the calls it will
        never answer fail, in send order, and the queue drains."""
        from repro.core.txqueue import XrlTransmitQueue
        from repro.xrl.router import DeferredReply
        from repro.xrl.transport import TcpFamily

        loop = EventLoop(SystemClock())
        finder = Finder()
        family = TcpFamily()
        server = XrlRouter(loop, "svc", finder, families=[family])
        parked = []

        def never(args):
            parked.append(DeferredReply())
            return parked[-1]

        server.register_raw_method("svc/1.0/never", never)
        client = XrlRouter(loop, "cli", finder, families=[family])
        failed = []
        queue = XrlTransmitQueue(
            client, window=2,
            on_error=lambda xrl, error: failed.append(
                (xrl.args.get_u32("n"), error.code)))
        for n in range(4):
            queue.enqueue(Xrl("svc", "svc", "1.0", "never",
                              XrlArgs().add_u32("n", n)))
        assert loop.run_until(lambda: len(parked) == 2, timeout=5)
        assert (queue.inflight, len(queue)) == (2, 2)

        family.unlisten(server._addresses["stcp"])  # the process is gone
        assert loop.run_until(lambda: queue.idle, timeout=5), \
            f"inflight {queue.inflight}, queued {len(queue)}"
        assert failed[:2] == [(0, XrlErrorCode.SEND_FAILED),
                              (1, XrlErrorCode.SEND_FAILED)]
        assert [n for n, __ in failed] == [0, 1, 2, 3]

    def test_peer_that_never_reads_replies_stops_being_served(self):
        """Pipelined requests from a client that reads nothing: the
        connection buffers at most MAX_UNSENT_BYTES plus one reply, stops
        reading, and picks up where it left off once the client reads."""
        import socket

        from repro.xrl.transport import TcpFamily
        from repro.xrl.transport.base import encode_request, encode_response
        from repro.eventloop.stream import MAX_UNSENT_BYTES
        from repro.xrl.transport.tcp import FrameBuffer, pack_frame

        loop = EventLoop(SystemClock())
        finder = Finder()
        family = TcpFamily()
        server = XrlRouter(loop, "svc", finder, families=[family])
        blob = XrlArgs().add_binary("blob", bytes(64 * 1024))
        served = []

        def big(args):
            served.append(args)
            return blob

        server.register_raw_method("svc/1.0/big", big)
        (listener,) = family._listeners.values()
        resolved, __, __cls = finder.resolve("hog", "svc", "svc/1.0/big")
        one_reply = len(pack_frame(b"\x00" + encode_response(
            0, XrlError.okay(), blob)))
        calls = 400                                  # >= 25 MiB of replies
        host, __, port_text = listener.address.rpartition(":")
        hog = socket.create_connection((host, int(port_text)))
        try:
            hog.sendall(b"".join(
                pack_frame(b"\x00" + encode_request(seq, resolved, XrlArgs()))
                for seq in range(calls)))
            assert loop.run_until(lambda: len(listener._connections) == 1,
                                  timeout=5)
            (conn,) = listener._connections

            def unsent():
                return len(conn._out) - conn._sent

            assert loop.run_until(lambda: not conn._reading, timeout=5)
            loop.run(duration=0.3)                   # and it stays paused
            assert not conn._reading
            assert 0 < len(served) < calls
            assert unsent() <= MAX_UNSENT_BYTES + one_reply

            hog.settimeout(0.1)
            frames = FrameBuffer()
            replies = 0
            give_up = time.monotonic() + 30
            while replies < calls and time.monotonic() < give_up:
                loop.run_once(block=False)
                assert unsent() <= MAX_UNSENT_BYTES + one_reply
                try:
                    replies += len(frames.feed(hog.recv(1 << 20)))
                except socket.timeout:
                    pass
            assert replies == len(served) == calls
        finally:
            hog.close()
            listener.close()

    def test_resolution_error_does_not_poison_cache(self):
        loop = EventLoop(SimulatedClock())
        host = Host(loop=loop)
        from repro.core.process import XorpProcess

        client_process = XorpProcess(host, "cp")
        client = client_process.create_router("cli")
        error, __ = client.send_sync(Xrl("late", "svc", "1.0", "ping"),
                                     deadline=5)
        assert error.code == XrlErrorCode.RESOLVE_FAILED
        # The target appears later: the same XRL now succeeds.
        server_process = XorpProcess(host, "sp")
        server = server_process.create_router("late")
        server.register_raw_method("svc/1.0/ping", lambda args: None)
        error, __ = client.send_sync(Xrl("late", "svc", "1.0", "ping"),
                                     deadline=5)
        assert error.is_okay


@pytest.mark.chaos
class TestDataplaneCrashRecovery:
    """Kill the FEA's dataplane backend under live route flow: lookups
    keep answering from the shadow table, and the reattach edge
    reconciles the backend back to shadow equality."""

    def test_backend_kill_serve_from_shadow_reconcile_on_reattach(self):
        from repro.fea import FeaProcess
        from repro.rib import RibProcess

        host = Host()
        fea = FeaProcess(host, backend="netlink")
        rib = RibProcess(host)
        for i in range(8):
            rib.xrl_add_route4("static", IPNet.parse(f"10.9.{i}.0/24"),
                               IPv4("192.168.0.1"), 1, [])
        assert host.loop.run_until(
            lambda: fea.driver.settled and len(fea.backend.dump(32)) == 8,
            timeout=30)
        assert fea.xrl_get_backend_status()["state"] == "synced"

        fea.backend.crash()
        # Graceful degradation: the shadow keeps answering lookups and
        # the supervisor-visible status says why writes are deferred.
        status = fea.xrl_get_backend_status()
        assert status == {"backend": "netlink", "healthy": False,
                          "state": "stale"}
        looked_up = fea.xrl_lookup_entry4(IPv4("10.9.3.7"))
        assert looked_up["nexthop"] == IPv4("192.168.0.1")
        # Route churn while down lands in the shadow only.
        rib.xrl_add_route4("static", IPNet.parse("10.77.0.0/16"),
                           IPv4("192.168.0.1"), 1, [])
        rib.xrl_delete_route4("static", IPNet.parse("10.9.0.0/24"))
        host.loop.run(duration=1.0)
        assert fea.backend.dump(32) == []

        fea.backend.restart()  # the up edge triggers reconciliation
        assert host.loop.run_until(
            lambda: fea.driver.settled
            and set(fea.backend.dump(32))
            == {entry for __, entry in fea.fib4.entries()},
            timeout=30)
        assert len(fea.backend.dump(32)) == 8  # 8 - 1 deleted + 1 added
        assert fea.xrl_get_backend_status()["state"] == "synced"
        assert fea.metrics.get("fea.backend.reconcile.runs").value == 1

    def test_recovery_is_deterministic(self):
        from repro.fea import FeaProcess
        from repro.rib import RibProcess

        def run():
            host = Host()
            fea = FeaProcess(host, backend="netlink")
            rib = RibProcess(host)
            for i in range(4):
                rib.xrl_add_route4("static", IPNet.parse(f"10.8.{i}.0/24"),
                                   IPv4("192.168.0.1"), 1, [])
            host.loop.run_until(lambda: fea.driver.settled, timeout=30)
            fea.backend.crash()
            fea.backend.restart()
            host.loop.run_until(lambda: fea.driver.settled, timeout=30)
            return sorted(str(e.net) for e in fea.backend.dump(32))

        assert run() == run()


class TestIpv6Paths:
    def test_rib_v6_route_to_fib(self):
        from repro.fea import FeaProcess
        from repro.rib import RibProcess

        host = Host()
        fea = FeaProcess(host)
        rib = RibProcess(host)
        from repro.core.process import XorpProcess

        process = XorpProcess(host, "tester")
        client = process.create_router("tester")
        args = (XrlArgs().add_txt("protocol", "static")
                .add_ipv6net("net", "2001:db8::/32")
                .add_ipv6("nexthop", "fe80::1")
                .add_u32("metric", 1).add_list("policytags", []))
        error, __ = client.send_sync(
            Xrl("rib", "rib", "1.0", "add_route6", args), deadline=10)
        assert error.is_okay, error
        assert host.loop.run_until(
            lambda: fea.fib6.lookup(IPv6("2001:db8::42")) is not None,
            timeout=10)
        # And delete.
        del_args = (XrlArgs().add_txt("protocol", "static")
                    .add_ipv6net("net", "2001:db8::/32"))
        error, __ = client.send_sync(
            Xrl("rib", "rib", "1.0", "delete_route6", del_args), deadline=10)
        assert error.is_okay
        assert host.loop.run_until(
            lambda: fea.fib6.lookup(IPv6("2001:db8::42")) is None, timeout=10)

    def test_v6_admin_distance_arbitration(self):
        from repro.fea import FeaProcess
        from repro.rib import RibProcess

        host = Host()
        fea = FeaProcess(host)
        rib = RibProcess(host)
        rib.xrl_add_igp_table6("rip")
        from repro.net import IPNet as Net

        rib.xrl_add_route6("rip", Net.parse("2001:db8::/32"),
                           IPv6("fe80::1"), 5, [])
        rib.xrl_add_route6("static", Net.parse("2001:db8::/32"),
                           IPv6("fe80::2"), 1, [])
        host.loop.run_until(lambda: False, timeout=1)
        entry = fea.fib6.lookup(IPv6("2001:db8::1"))
        assert entry is not None and entry.nexthop == IPv6("fe80::2")
