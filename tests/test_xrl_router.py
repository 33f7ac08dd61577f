"""Integration tests: XrlRouter + Finder + protocol families end to end."""

import gc
import random
import socket

import pytest

from repro.eventloop import EventLoop, SimulatedClock, SystemClock
from repro.xrl import Finder, Xrl, XrlArgs, XrlError, XrlRouter, parse_idl
from repro.xrl.call_xrl import call_xrl, call_xrl_checked
from repro.xrl.error import XrlErrorCode
from repro.xrl.finder import BIRTH, DEATH
from repro.xrl.transport import IntraProcessFamily, SimFamily, TcpFamily, UdpFamily
from repro.xrl.transport.local import HostLocalFamily

TEST_IDL = """
interface test/1.0 {
    echo ? value:u32 -> value:u32;
    greet ? name:txt -> greeting:txt;
    fail;
    noop;
}
"""


class EchoTarget:
    def xrl_echo(self, value):
        return {"value": value}

    def xrl_greet(self, name):
        return {"greeting": f"hello {name}"}

    def xrl_fail(self):
        raise RuntimeError("deliberate failure")

    def xrl_noop(self):
        return None


def build_pair(family_factory, clock=None, shared_process=False):
    """One server router and one client router over the given family."""
    loop = EventLoop(clock or SimulatedClock())
    finder = Finder(rng=random.Random(7))
    family = family_factory()
    iface = parse_idl(TEST_IDL)["test/1.0"]
    token = 999 if shared_process else None
    server = XrlRouter(loop, "echo", finder, families=[family],
                       process_token=token)
    server.bind(iface, EchoTarget())
    client = XrlRouter(loop, "client", finder, families=[family],
                       process_token=token)
    return loop, finder, server, client, iface


FAMILIES = [
    ("intra", lambda: IntraProcessFamily(), None, True),
    ("sim", lambda: SimFamily(), None, False),
    ("tcp", lambda: TcpFamily(), SystemClock(), False),
    ("udp", lambda: UdpFamily(), SystemClock(), False),
]


@pytest.mark.parametrize("name,factory,clock,shared", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
class TestEndToEnd:
    def test_echo(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 42))
        error, args = client.send_sync(xrl, deadline=10)
        assert error.is_okay, error
        assert args.get_u32("value") == 42

    def test_txt_round_trip(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        xrl = Xrl("echo", "test", "1.0", "greet", XrlArgs().add_txt("name", "xorp"))
        error, args = client.send_sync(xrl, deadline=10)
        assert error.is_okay
        assert args.get_txt("greeting") == "hello xorp"

    def test_handler_exception_becomes_command_failed(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "fail"), deadline=10)
        assert error.code == XrlErrorCode.COMMAND_FAILED
        assert "deliberate" in error.note

    def test_bad_args_rejected_remotely(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_txt("value", "x"))
        error, __ = client.send_sync(xrl, deadline=10)
        assert error.code == XrlErrorCode.BAD_ARGS

    def test_pipelined_burst(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        results = []
        for i in range(50):
            xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", i))
            client.send(xrl, lambda err, args, i=i: results.append(
                (i, err.is_okay, args.get_u32("value") if err.is_okay else None)))
        assert loop.run_until(lambda: len(results) == 50, timeout=15)
        assert all(ok and got == i for i, ok, got in results)


@pytest.mark.parametrize("factory", [TcpFamily, UdpFamily])
def test_shutdown_closes_every_socket(factory):
    """Nothing is left for the collector to close: with full collections
    minutes apart (``repro.eventloop.collector``) that would be a leaked
    descriptor.  ``tests/conftest.py`` shuts every router down, so the
    suite under ``-W error::ResourceWarning`` holds the same for every
    other path that owns a socket."""
    def open_sockets():
        return {id(obj) for obj in gc.get_objects()
                if isinstance(obj, socket.socket) and obj.fileno() != -1}

    before = open_sockets()
    loop, __, server, client, __ = build_pair(factory, SystemClock())
    xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 1))
    error, __ = client.send_sync(xrl, deadline=10)
    assert error.is_okay
    # A listener each, the client's sender and (TCP) the accepted channel.
    assert len(open_sockets() - before) >= 3
    client.shutdown()
    server.shutdown()
    assert open_sockets() <= before


class TestResolutionAndSecurity:
    def test_unknown_target(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        error, __ = client.send_sync(Xrl("ghost", "test", "1.0", "echo",
                                         XrlArgs().add_u32("value", 1)))
        assert error.code == XrlErrorCode.RESOLVE_FAILED

    def test_unknown_method_fails_at_resolve(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "bogus"))
        assert error.code == XrlErrorCode.RESOLVE_FAILED

    def test_intra_cannot_cross_processes(self):
        """Two distinct process tokens must not short-circuit via intra."""
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(1))
        family = IntraProcessFamily()
        iface = parse_idl(TEST_IDL)["test/1.0"]
        server = XrlRouter(loop, "echo", finder, families=[family])
        server.bind(iface, EchoTarget())
        client = XrlRouter(loop, "client", finder, families=[family])
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert error.code == XrlErrorCode.SEND_FAILED

    def test_key_rejection(self):
        """A forged key (bypassing the Finder) is rejected (paper §7)."""
        loop, finder, server, client, iface = build_pair(
            IntraProcessFamily, None, True)
        from repro.xrl.transport.base import decode_response, encode_request

        forged = encode_request(1, "0" * 32 + "/test/1.0/noop", XrlArgs())
        response = server.dispatch_frame(forged)
        __, error, __ = decode_response(response)
        assert error.code == XrlErrorCode.BAD_KEY

    def test_acl_denies_resolution(self):
        loop, finder, server, client, iface = build_pair(
            IntraProcessFamily, None, True)
        finder.set_acl(client.instance_name, allowed_targets={"rib"})
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert error.code == XrlErrorCode.ACCESS_DENIED

    def test_acl_method_globs(self):
        loop, finder, server, client, iface = build_pair(
            IntraProcessFamily, None, True)
        finder.set_acl(client.instance_name,
                       allowed_xrls={"test/1.0/noop"})
        okay, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert okay.is_okay
        denied, __ = client.send_sync(
            Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 1)))
        assert denied.code == XrlErrorCode.ACCESS_DENIED

    def test_cache_invalidation_on_restart(self):
        """Client cache must survive a target restart transparently."""
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(3))
        family = IntraProcessFamily()
        iface = parse_idl(TEST_IDL)["test/1.0"]
        token = 5
        server = XrlRouter(loop, "echo", finder, families=[family],
                           process_token=token)
        server.bind(iface, EchoTarget())
        client = XrlRouter(loop, "client", finder, families=[family],
                           process_token=token)
        xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 1))
        error, __ = client.send_sync(xrl)
        assert error.is_okay
        # Restart the echo component: new key, new address.
        server.shutdown()
        server2 = XrlRouter(loop, "echo", finder, families=[family],
                            process_token=token)
        server2.bind(iface, EchoTarget())
        error, args = client.send_sync(xrl)
        assert error.is_okay
        assert args.get_u32("value") == 1

    def test_restarted_in_process_peer_leaves_one_sender(self):
        """A restarted peer listens at a new host-local address.  The
        sender to its old address is dead and the invalidation prunes it:
        ``_senders`` must not grow by one per restart."""
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(3))
        family = HostLocalFamily()
        client = XrlRouter(loop, "client", finder, families=[family])
        xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 1))
        incarnations = []
        for restart in range(3):
            served = []
            server = XrlRouter(loop, "echo", finder, families=[family])
            server.register_raw_method(
                "test/1.0/echo", lambda args, served=served:
                    served.append(args.get_u32("value")))
            incarnations.append(served)
            error, __ = client.send_sync(xrl)
            assert error.is_okay
            assert incarnations[-1] == [1]      # the new incarnation got it
            (sender,) = client._senders.values()
            assert sender.alive
            server.shutdown()                   # unlisten + invalidation
            assert not sender.alive
            assert not client._senders
        assert incarnations == [[1], [1], [1]]

    def test_send_after_shutdown_fails(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        client.shutdown()
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert error.code == XrlErrorCode.SEND_FAILED

    def test_singleton_conflict(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        XrlRouter(loop, "rib", finder, singleton=True, families=[])
        with pytest.raises(XrlError):
            XrlRouter(loop, "rib", finder, singleton=True, families=[])


class TestOneChannelPerEndpoint:
    """The XRL ordering contract (DESIGN.md, "Multi-process deployment"):
    whatever one router sends to one endpoint — any mix of methods —
    travels over one sender and is dispatched in send order."""

    METHODS = ("put", "take", "peek")

    def _store(self):
        loop = EventLoop(SystemClock())
        finder = Finder(rng=random.Random(7))
        family = TcpFamily()
        arrived = []
        server = XrlRouter(loop, "store", finder, families=[family])
        for method in self.METHODS:
            server.register_raw_method(
                f"order/1.0/{method}",
                lambda args, method=method: arrived.append(
                    (method, args.get_u32("value"))))
        listener = family._listeners[server._addresses["stcp"]]
        return loop, finder, family, server, listener, arrived

    @staticmethod
    def _xrl(method, value):
        return Xrl("store", "order", "1.0", method,
                   XrlArgs().add_u32("value", value))

    def test_two_methods_in_one_turn_are_dispatched_in_send_order(self):
        loop, finder, family, __, __listener, arrived = self._store()
        client = XrlRouter(loop, "client", finder, families=[family])
        script = [(self.METHODS[i % 2], i) for i in range(200)]
        outcomes = []
        for method, value in script:                  # unhinted, one turn
            client.send(self._xrl(method, value),
                        lambda error, args: outcomes.append(error))
        assert loop.run_until(lambda: len(outcomes) == len(script), timeout=10)
        assert all(error.is_okay for error in outcomes)
        assert arrived == script

    def test_one_sender_per_endpoint_one_connection_per_caller(self):
        loop, finder, family, __, listener, __arrived = self._store()
        callers = [XrlRouter(loop, f"client{i}", finder, families=[family])
                   for i in range(2)]
        for caller in callers:
            for value, method in enumerate(self.METHODS):
                error, __ = caller.send_sync(self._xrl(method, value),
                                             deadline=10)
                assert error.is_okay
        for caller in callers:
            assert len(caller._cache) == len(self.METHODS)
            assert list(caller._senders) == [("stcp", listener.address)]
        assert len(listener._connections) == len(callers)

    def test_targets_own_add_methods_leaves_calls_on_the_wire(self):
        """A child's trailing ``add_methods`` invalidates the resolutions
        of a caller whose request it has not answered yet.  Only the
        resolutions go: the call completes, and the next one re-resolves
        onto the connection that is already there."""
        from repro.xrl.router import DeferredReply

        loop, finder, family, server, listener, __arrived = self._store()
        parked = []

        def slow(args):
            parked.append(DeferredReply())
            return parked[0]

        server.register_raw_method("order/1.0/slow", slow)
        client = XrlRouter(loop, "client", finder, families=[family])
        outcomes = []
        client.send(Xrl("store", "order", "1.0", "slow"),
                    lambda error, args: outcomes.append(error))
        assert loop.run_until(lambda: bool(parked), timeout=10)
        (sender,) = client._senders.values()

        server.register_raw_method("order/1.0/late", lambda args: None)
        assert not client._cache            # the invalidation reached us
        assert sender.alive and not outcomes
        parked[0].reply(None)
        assert loop.run_until(lambda: bool(outcomes), timeout=10)
        assert outcomes[0].is_okay

        error, __ = client.send_sync(Xrl("store", "order", "1.0", "late"),
                                     deadline=10)
        assert error.is_okay
        assert list(client._senders.values()) == [sender]
        assert len(listener._connections) == 1


class TestLifetimeNotification:
    def test_birth_and_death_events(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        events = []
        finder.watch("watcher", "bgp",
                     lambda event, cls, inst: events.append((event, inst)))
        router = XrlRouter(loop, "bgp", finder, families=[])
        assert events == [(BIRTH, router.instance_name)]
        router.shutdown()
        assert events[-1] == (DEATH, router.instance_name)

    def test_watch_existing_fires_immediately(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        router = XrlRouter(loop, "bgp", finder, families=[])
        events = []
        finder.watch("w", "bgp", lambda e, c, i: events.append(e))
        assert events == [BIRTH]

    def test_unwatch(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        events = []
        finder.watch("w", "bgp", lambda e, c, i: events.append(e))
        finder.unwatch("w", "bgp")
        XrlRouter(loop, "bgp", finder, families=[])
        assert events == []


class TestStubs:
    def test_client_stub(self):
        loop, __, __, client, iface = build_pair(IntraProcessFamily, None, True)
        stub = iface.client(client, "echo")
        results = []
        stub.echo(callback=lambda err, args: results.append(args.get_u32("value")),
                  value=7)
        assert loop.run_until(lambda: bool(results), timeout=5)
        assert results == [7]

    def test_stub_rejects_bad_kwargs(self):
        loop, __, __, client, iface = build_pair(IntraProcessFamily, None, True)
        stub = iface.client(client, "echo")
        with pytest.raises(XrlError):
            stub.echo(value=1, extra=2)

    def test_bind_requires_all_methods(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        iface = parse_idl(TEST_IDL)["test/1.0"]
        router = XrlRouter(loop, "bad", finder, families=[IntraProcessFamily()])

        class Partial:
            def xrl_echo(self, value):
                return {"value": value}

        from repro.xrl import IdlError

        with pytest.raises(IdlError):
            router.bind(iface, Partial())


class TestCallXrlScripting:
    def test_textual_invocation(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        error, text = call_xrl(
            client, "finder://echo/test/1.0/echo?value:u32=99")
        assert error.is_okay
        assert text == "value:u32=99"

    def test_checked_raises(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        with pytest.raises(XrlError):
            call_xrl_checked(client, "finder://ghost/test/1.0/echo?value:u32=1")

    def test_checked_returns_text(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        text = call_xrl_checked(
            client, "finder://echo/test/1.0/greet?name:txt=world")
        assert text == "greeting:txt=hello%20world"
