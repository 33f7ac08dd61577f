"""The Finder over XRL, client and server on one loop in one interpreter.

Nothing in :class:`~repro.xrl.finder_client.RemoteFinder` waits, so the
Finder target (``finder/1.0`` on a real TCP listener), its clients and the
components they register can share an event loop here — real sockets, no
subprocesses, no hand-written frames except where the point is hostile
bytes.
"""

import select
import socket
import struct

import pytest

from repro.eventloop import EventLoop, SystemClock
from repro.interfaces import COMMON_IDL
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter
from repro.xrl.error import XrlErrorCode
from repro.xrl.finder import BIRTH, DEATH
from repro.xrl.finder_client import RemoteFinder
from repro.xrl.finder_target import FinderTarget
from repro.xrl.transport.tcp import TcpFamily, pack_frame

METHODS = [f"svc/1.0/m{n}" for n in range(12)]


class CountingFinder(Finder):
    """Counts what reaches the Finder proper, by method name."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def register_component(self, *args, **kwargs):
        self.calls.append("register_component")
        return super().register_component(*args, **kwargs)

    def add_methods(self, *args, **kwargs):
        self.calls.append("add_methods")
        return super().add_methods(*args, **kwargs)


class Deployment:
    """A Finder target on a TCP listener, and as many clients as asked."""

    def __init__(self):
        self.loop = EventLoop(SystemClock())
        self.finder = CountingFinder()
        self.family = TcpFamily()
        self.target = FinderTarget(self.finder, XrlRouter(
            self.loop, "finder", self.finder, families=[self.family]))
        (self.listener,) = self.family._listeners.values()
        self.clients = []
        del self.finder.calls[:]

    def client(self) -> RemoteFinder:
        remote = RemoteFinder(self.target.address, self.loop, TcpFamily())
        self.clients.append(remote)
        return remote

    def router(self, remote, class_name, methods=(), **kwargs) -> XrlRouter:
        router = XrlRouter(self.loop, class_name, remote,
                           families=[TcpFamily()], **kwargs)
        for path in methods:
            router.register_raw_method(path, lambda args: None)
        return router

    def settle(self, predicate) -> None:
        assert self.loop.run_until(predicate, timeout=5)

    def close(self) -> None:
        for remote in self.clients:
            remote.close()
        self.target.router.shutdown()


@pytest.fixture
def deployment():
    deployment = Deployment()
    yield deployment
    deployment.close()


class _Impl:
    def xrl_get_target_name(self):
        return {"name": "svc"}

    def xrl_get_version(self):
        return {"version": "1"}

    def xrl_get_status(self):
        return {"status": "running"}

    def xrl_shutdown(self):
        return None


class TestAtomicRegistration:
    def test_birth_is_announced_with_the_method_set_complete(self, deployment):
        finder = deployment.finder
        seen = []

        def on_lifetime(event, class_name, instance):
            if event != BIRTH:
                return
            resolvable = []
            for path in METHODS + ["common/0.1/get_status"]:
                finder.resolve("watcher", "svc", path)  # raises if undeclared
                resolvable.append(path)
            seen.append((event, instance, len(resolvable)))

        finder.watch("watcher", "svc", on_lifetime)
        router = deployment.router(deployment.client(), "svc", METHODS)
        router.bind(COMMON_IDL, _Impl())  # four more, by another route
        assert finder.calls == []  # nothing leaves before the loop turns
        deployment.settle(lambda: seen)
        assert seen == [(BIRTH, router.instance_name, len(METHODS) + 1)]
        # One registration XRL for the component, however many bind()s and
        # register_*_method()s came before the first loop turn.
        assert finder.calls == ["register_component"]

    def test_one_registration_per_component(self, deployment):
        remote = deployment.client()
        deployment.router(remote, "one", METHODS[:3])
        deployment.router(remote, "two", METHODS[3:9])
        deployment.settle(lambda: deployment.finder.known_target("two"))
        assert deployment.finder.calls == ["register_component"] * 2

    def test_methods_added_later_travel_as_one_add_methods(self, deployment):
        router = deployment.router(deployment.client(), "svc", METHODS[:2])
        deployment.settle(lambda: deployment.finder.known_target("svc"))
        for path in METHODS[2:6]:
            router.register_raw_method(path, lambda args: None)
        deployment.settle(lambda: "add_methods" in deployment.finder.calls)
        assert deployment.finder.calls == ["register_component", "add_methods"]
        deployment.finder.resolve("t", "svc", METHODS[5])

    def test_a_restart_costs_a_client_one_invalidation(self, deployment):
        """The restart case: a client that resolved the class hears once
        of the death and once of the re-registration — not once more per
        method the reborn component declares (35 for an FEA before)."""
        first = deployment.client()
        deployment.router(first, "svc", METHODS)
        caller = deployment.router(deployment.client(), "cli")
        invalidations = []
        invalidate = caller.finder_cache_invalidate
        caller.finder_cache_invalidate = lambda target: (
            invalidations.append(target), invalidate(target))
        done = []
        caller.send(Xrl("svc", "svc", "1.0", "m3"),
                    lambda error, args: done.append(error))
        deployment.settle(lambda: done)
        assert done[0].is_okay and caller._cache

        first.close()  # the component's process dies
        deployment.settle(lambda: invalidations == ["svc"])
        assert not caller._cache
        deployment.router(deployment.client(), "svc", METHODS)
        deployment.settle(lambda: len(invalidations) >= 2)
        deployment.loop.run(duration=0.1)
        assert invalidations == ["svc", "svc"]

    def test_birth_watcher_calls_the_newborn_first_try(self, deployment):
        """What the manager's RESOLVE_FAILED ride-out was for: a caller
        that acts on BIRTH finds every method there."""
        manager = XrlRouter(deployment.loop, "mgr", deployment.finder,
                            families=[deployment.family])
        replies = []

        def on_lifetime(event, class_name, instance):
            if event == BIRTH:
                manager.send(Xrl("svc", "svc", "1.0", "m11"),
                             lambda error, args: replies.append(error))

        deployment.finder.watch("mgr", "svc", on_lifetime)
        deployment.router(deployment.client(), "svc", METHODS)
        deployment.settle(lambda: replies)
        assert replies[0].is_okay, replies[0]
        assert manager.retries_performed == 0
        manager.shutdown()

    def test_a_refused_registration_is_finder_loss(self, deployment):
        deployment.router(deployment.client(), "svc", singleton=True)
        deployment.settle(lambda: deployment.finder.known_target("svc"))
        second = deployment.client()
        deployment.router(second, "svc", singleton=True)
        deployment.settle(lambda: second._closed)
        assert not second._sender.alive
        assert len(deployment.finder.class_instances("svc")) == 1


class TestLease:
    def test_connection_death_ends_everything_the_session_held(
            self, deployment):
        finder = deployment.finder
        remote = deployment.client()
        first = deployment.router(remote, "alpha", METHODS[:2])
        second = deployment.router(remote, "beta", METHODS[2:4])
        deployment.router(deployment.client(), "other", METHODS[:1])
        deployment.settle(lambda: finder.known_target("other"))
        remote.watch("w", "other", lambda *event: None)
        resolved = []
        first.send(Xrl("other", "svc", "1.0", "m0"),
                   lambda error, args: resolved.append(error))
        deployment.settle(lambda: resolved)
        assert resolved[0].is_okay
        (session,) = [s for s in deployment.target._sessions.values()
                      if first.instance_name in s.components]
        assert session.watched == {"other"}
        assert session in finder._resolver_clients["other"]
        lifetime = []
        for class_name in ("alpha", "beta"):
            finder.watch("t", class_name,
                         lambda event, cls, instance: lifetime.append(
                             (event, instance)))
        del lifetime[:]  # the births of the live instances

        server_sock = session.channel._sock
        remote.close()
        assert select.select([server_sock], [], [], 5)[0]
        deployment.loop.poll_io(0)  # the one call that reads the EOF
        # Dependents first: reverse registration order.
        assert lifetime == [(DEATH, second.instance_name),
                            (DEATH, first.instance_name)]
        assert session not in deployment.target._sessions.values()
        assert not any(name is session
                       for watchers in finder._watches.values()
                       for name, __ in watchers)
        assert not any(session in clients
                       for clients in finder._resolver_clients.values())
        assert not finder.known_target("alpha")

    def test_class_instances_answers_from_the_events_delivered(
            self, deployment):
        remote = deployment.client()
        deployment.router(remote, "fea")
        with pytest.raises(Exception) as refused:
            remote.class_instances("rip")  # not watched: no guessing
        assert refused.value.code == XrlErrorCode.COMMAND_FAILED
        in_callback = []
        remote.watch("fea-sock", "rip",
                     lambda event, cls, instance: in_callback.append(
                         (event, remote.class_instances("rip"))))
        assert remote.class_instances("rip") == []
        rip = deployment.router(deployment.client(), "rip")
        deployment.settle(lambda: in_callback)
        assert in_callback == [(BIRTH, [rip.instance_name])]
        rip.shutdown()
        deployment.settle(lambda: len(in_callback) == 2)
        assert in_callback[1] == (DEATH, [])

    def test_births_of_live_instances_are_the_first_events(self, deployment):
        rip = deployment.router(deployment.client(), "rip")
        deployment.settle(lambda: deployment.finder.known_target("rip"))
        remote = deployment.client()
        events = []
        remote.watch("w", "rip", lambda *event: events.append(event))
        assert events == []  # not synchronously inside watch()
        deployment.settle(lambda: events)
        assert events == [(BIRTH, "rip", rip.instance_name)]
        late = []  # a second watcher here is answered from those events
        remote.watch("w2", "rip", lambda *event: late.append(event))
        assert late == events


class TestSessionOwnership:
    """Paper §7: "only these permitted XRLs will be resolved" must not
    depend on a child telling the truth about who it is."""

    class _Named:
        def __init__(self, instance_name):
            self.instance_name = instance_name

    def resolve(self, deployment, remote, caller_name, target):
        answers = []
        remote.resolve_async(self._Named(caller_name), target, "svc/1.0/m0",
                             lambda error, found: answers.append((error, found)))
        deployment.settle(lambda: answers)
        return answers[0]

    def test_resolve_answers_only_for_a_caller_of_the_calling_session(
            self, deployment):
        finder = deployment.finder
        for class_name in ("fea", "rib"):
            deployment.router(deployment.client(), class_name, METHODS[:1])
        manager = XrlRouter(deployment.loop, "rtrmgr", finder,
                            families=[deployment.family])
        remote = deployment.client()
        a = deployment.router(remote, "a").instance_name
        deployment.settle(lambda: finder.known_target("a")
                          and finder.known_target("rib"))
        finder.set_acl(a, allowed_targets={"rib"})

        # Naming the manager — or anyone with no ACL — borrows nothing.
        for liar in (manager.instance_name, "b", "nobody-at-all"):
            error, found = self.resolve(deployment, remote, liar, "fea")
            assert error.code == XrlErrorCode.ACCESS_DENIED and found is None
        error, __ = self.resolve(deployment, remote, a, "fea")
        assert error.code == XrlErrorCode.ACCESS_DENIED  # a's own ACL
        error, found = self.resolve(deployment, remote, a, "rib")
        assert error is None
        assert found[0].endswith("/svc/1.0/m0") and found[2] == "rib"
        manager.shutdown()

    def test_only_the_owning_session_adds_methods_or_deregisters(
            self, deployment):
        owner = deployment.router(deployment.client(), "svc", METHODS[:1])
        deployment.settle(lambda: deployment.finder.known_target("svc"))
        thief = deployment.client()
        replies = []
        for method, args in (
                ("add_methods", XrlArgs().add_txt(
                    "instance_name", owner.instance_name)
                    .add_list("methods", [])),
                ("deregister_target", XrlArgs().add_txt(
                    "instance_name", owner.instance_name))):
            thief.send(Xrl("finder", "finder", "1.0", method, args),
                        lambda error, args: replies.append(error.code))
        deployment.settle(lambda: len(replies) == 2)
        assert replies == [XrlErrorCode.ACCESS_DENIED] * 2
        assert deployment.finder.known_target("svc")

    def test_session_methods_need_a_connection(self, deployment):
        """Over a family with no connection there is no session to own
        anything: refused, not filed under a shared one."""
        from repro.xrl.transport import IntraProcessFamily

        loop, finder = deployment.loop, Finder()
        family = IntraProcessFamily()
        FinderTarget(finder, XrlRouter(loop, "finder", finder,
                                       families=[family], process_token=1))
        caller = XrlRouter(loop, "cli", finder, families=[family],
                           process_token=1)
        error, __ = caller.send_sync(
            Xrl("finder", "finder", "1.0", "watch",
                XrlArgs().add_txt("class_name", "rib")), deadline=5)
        assert error.code == XrlErrorCode.COMMAND_FAILED


class TestSendOrder:
    """PR 16's contract — dispatched in send order per endpoint — with a
    Finder that answers in a later loop turn."""

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("remote_finder", [True, False])
    def test_calls_to_a_target_being_resolved_keep_their_order(
            self, deployment, remote_finder, batch):
        loop = deployment.loop
        arrived = []
        server = XrlRouter(loop, "svc", deployment.finder,
                           families=[deployment.family])
        for method in ("a", "b"):
            server.register_raw_method(
                f"svc/1.0/{method}",
                lambda args, method=method: arrived.append(
                    (method, args.get_u32("n"))))
        if remote_finder:
            client = deployment.router(deployment.client(), "cli")
        else:
            client = XrlRouter(loop, "cli", deployment.finder,
                               families=[TcpFamily()])
        completed = []

        def send(method, n):
            client.send(Xrl("svc", "svc", "1.0", method,
                            XrlArgs().add_u32("n", n)),
                        lambda error, args: completed.append((n, error.code)),
                        batch=batch)

        send("a", 1)
        send("b", 2)
        send("a", 3)
        if remote_finder and not batch:
            # All three wait for the answer about the first one's method;
            # the third does so although that answer will serve it too.
            assert [call.xrl.args.get_u32("n")
                    for call in client._resolving["svc"]] == [1, 2, 3]
        assert arrived == []
        deployment.settle(lambda: ("svc", "svc/1.0/b") in client._cache)
        send("b", 4)  # its method is cached: must not overtake 3
        deployment.settle(lambda: len(completed) == 4)
        assert arrived == [("a", 1), ("b", 2), ("a", 3), ("b", 4)]
        assert completed == [(n, XrlErrorCode.OKAY) for n in (1, 2, 3, 4)]
        assert not client._resolving
        server.shutdown()

    def test_a_refusal_releases_the_calls_behind_it(self, deployment):
        arrived = []
        server = XrlRouter(deployment.loop, "svc", deployment.finder,
                           families=[deployment.family])
        server.register_raw_method(
            "svc/1.0/a", lambda args: arrived.append(args.get_u32("n")))
        client = deployment.router(deployment.client(), "cli")
        completed = []
        for method, n in (("nope", 1), ("a", 2), ("a", 3)):
            client.send(Xrl("svc", "svc", "1.0", method,
                            XrlArgs().add_u32("n", n)),
                        lambda error, args, n=n: completed.append(
                            (n, error.code)))
        deployment.settle(lambda: len(completed) == 3)
        assert completed[0] == (1, XrlErrorCode.RESOLVE_FAILED)
        assert arrived == [2, 3]
        server.shutdown()


class TestMuteFinder:
    def test_an_unanswered_resolution_times_out_and_blocks_nothing(self):
        """A Finder that accepts and never answers (a SIGSTOPped rtrmgr):
        the call's deadline fires once, and the loop's timers never miss a
        beat — before, the child sat in recv() for 15 s."""
        mute = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mute.bind(("127.0.0.1", 0))
        mute.listen(4)
        loop = EventLoop(SystemClock())
        remote = RemoteFinder("127.0.0.1:%d" % mute.getsockname()[1], loop,
                              TcpFamily())
        try:
            client = XrlRouter(loop, "cli", remote, families=[TcpFamily()])
            ticks, completed = [], []
            timer = loop.call_periodic(
                0.01, lambda: ticks.append(loop.clock.now()))
            client.send(Xrl("svc", "svc", "1.0", "m0"),
                        lambda error, args: completed.append(error.code),
                        deadline=0.2)
            assert completed == []
            loop.run(duration=0.5)
            timer.cancel()
            assert completed == [XrlErrorCode.REPLY_TIMED_OUT]
            assert len(ticks) >= 25
            assert max(b - a for a, b in zip(ticks, ticks[1:])) < 0.1
        finally:
            remote.close()
            mute.close()


class TestHostileBytes:
    OVERSIZED = b"\xff\xff\xff\xff" + b"x" * 4096
    GARBAGE_KIND = pack_frame(b"\x42" + b"not a frame of any kind")
    TRUNCATED = struct.pack("!I", 4096) + b"\x00" + b"y" * 100

    @pytest.mark.parametrize("payload", [OVERSIZED, GARBAGE_KIND, TRUNCATED],
                             ids=["oversized", "garbage-kind", "truncated"])
    def test_the_finder_port_drops_them_and_retains_nothing(
            self, deployment, payload, capsys):
        listener = deployment.listener
        host, __, port_text = deployment.target.address.rpartition(":")
        hostile = socket.create_connection((host, int(port_text)))
        try:
            deployment.settle(lambda: len(listener._connections) == 1)
            (conn,) = listener._connections
            hostile.sendall(payload)
            deployment.loop.run(duration=0.1)
            hostile.shutdown(socket.SHUT_WR)  # ... then EOF
            deployment.settle(lambda: not listener._connections)
        finally:
            hostile.close()
        assert not conn.alive
        assert not deployment.target._sessions
        assert deployment.finder.classes() == ["finder"]
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
