"""Process supervision, XRL retry, and fault-injection tests.

Covers the failure-handling subsystem end to end (DESIGN.md "Failure
model"): the deterministic FaultFamily chaos transport, the XRL layer's
deadlines/retries/late-reply accounting, the kill family's delivery-time
liveness check, the Finder's invalidate-before-notify death ordering,
the Supervisor's backoff / storm budget / dependency ordering / ping
watchdog — and, as the acceptance test, the full kill-BGP-mid-session
recovery scenario from :mod:`repro.experiments.recovery`.
"""

import math

import pytest

from repro.bgp.fanout import FanoutQueue
from repro.core.process import Host, XorpProcess
from repro.experiments.recovery import run_recovery
from repro.net import IPNet, IPv4
from repro.rib import RibProcess
from repro.rtrmgr import RouterManager, SupervisorPolicy
from repro.xrl import XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.finder import BIRTH, DEATH
from repro.xrl.retry import RetryPolicy
from repro.xrl.router import DeferredReply
from repro.xrl.transport import FaultFamily
from repro.xrl.transport.base import decode_response
from repro.xrl.transport.kill import SIGTERM, KillFamily
from repro.xrl.xrl import Xrl
from tests.test_vector_route_stream import Router, spy_sends


def _service(host, process_name="sp", class_name="svc"):
    """A process exposing ``svc/1.0 ping``; returns (process, router)."""
    process = XorpProcess(host, process_name)
    router = process.create_router(class_name)
    router.register_raw_method("svc/1.0/ping", lambda args: None)
    return process, router


def _client(host, process_name="cp", class_name="cli"):
    process = XorpProcess(host, process_name)
    return process, process.create_router(class_name)


def _ping_xrl():
    return Xrl("svc", "svc", "1.0", "ping", XrlArgs())


# ---------------------------------------------------------------------------
# FaultFamily
# ---------------------------------------------------------------------------

class TestFaultFamily:
    def _run_drop_sequence(self, seed):
        host = Host()
        fault = FaultFamily.wrap_host(host, seed=seed, drop_probability=0.3)
        _service(host)
        __, client = _client(host)
        outcomes = []
        for __unused in range(40):
            error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
            outcomes.append(error.is_okay)
        return outcomes, fault.stats

    def test_same_seed_same_faults(self):
        outcomes_a, stats_a = self._run_drop_sequence(seed=5)
        outcomes_b, stats_b = self._run_drop_sequence(seed=5)
        assert outcomes_a == outcomes_b
        assert stats_a.dropped == stats_b.dropped
        assert stats_a.passed == stats_b.passed
        assert stats_a.dropped > 0
        assert any(outcomes_a) and not all(outcomes_a)

    def test_different_seed_different_faults(self):
        outcomes_a, __ = self._run_drop_sequence(seed=5)
        outcomes_b, __ = self._run_drop_sequence(seed=6)
        assert outcomes_a != outcomes_b

    def test_partition_and_heal(self):
        host = Host()
        fault = FaultFamily.wrap_host(host)
        _service(host)
        __, client = _client(host)
        fault.partition("cli", "svc")
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert error.code == XrlErrorCode.REPLY_TIMED_OUT
        assert fault.stats.partitioned > 0
        fault.heal_all()
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert error.is_okay

    def test_scope_limits_faults_to_named_pairs(self):
        host = Host()
        fault = FaultFamily.wrap_host(
            host, drop_probability=1.0,
            scope={frozenset({"cli", "svc"})})
        _service(host)
        other_process = XorpProcess(host, "op")
        other = other_process.create_router("other")
        other.register_raw_method("svc/1.0/ping", lambda args: None)
        __, client = _client(host)
        # In-scope traffic is annihilated...
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert not error.is_okay
        # ...but an out-of-scope pair sails through untouched.
        error, __ = client.send_sync(
            Xrl("other", "svc", "1.0", "ping", XrlArgs()), deadline=1.0)
        assert error.is_okay
        assert fault.stats.dropped == 1

    def test_duplicate_delivers_twice_and_late_reply_is_counted(self):
        host = Host()
        fault = FaultFamily.wrap_host(host, duplicate_probability=1.0)
        process = XorpProcess(host, "sp")
        router = process.create_router("svc")
        calls = {"n": 0}

        def ping(args):
            calls["n"] += 1
            return None

        router.register_raw_method("svc/1.0/ping", ping)
        __, client = _client(host)
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert error.is_okay
        host.loop.run(duration=0.1)
        assert calls["n"] == 2
        assert fault.stats.duplicated == 1
        # The duplicate's reply arrives after the call completed.
        assert client.late_replies == 1

    def test_corruption_is_rejected_not_crashed(self):
        host = Host()
        fault = FaultFamily.wrap_host(host, seed=1, corrupt_probability=1.0)
        _service(host)
        __, client = _client(host)
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert not error.is_okay
        assert fault.stats.corrupted > 0
        fault.corrupt_probability = 0.0
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert error.is_okay

    def test_corrupted_column_frames_surface_only_xrl_errors(self):
        """A flipped byte in a vectorised frame is a structured error or
        a well-formed (if different) argument list — never a traceback
        out of the loop, never a malformed atom in a handler's hands."""
        nets = [XrlAtom("net", XrlAtomType.IPV4NET, f"20.0.{i}.0/24")
                for i in range(32)]
        ifnames = [XrlAtom("ifname", XrlAtomType.TXT, "eth0")] * 32
        xrl = Xrl("svc", "svc", "1.0", "load",
                  XrlArgs().add_list("nets", nets).add_list("ifnames", ifnames))
        outcomes = []
        for seed in range(4):
            host = Host()
            FaultFamily.wrap_host(host, seed=seed, corrupt_probability=0.5)
            __, service = _service(host)
            handed = []
            service.register_raw_method("svc/1.0/load", handed.append)
            __, client = _client(host)
            for __unused in range(25):
                error, __ = client.send_sync(xrl, deadline=1.0)
                assert isinstance(error, XrlError)
                outcomes.append(error.is_okay)
            for args in handed:
                for atom in args:
                    assert atom == XrlAtom(atom.name, atom.type, atom.value)
                    for inner in atom.value:
                        assert inner == XrlAtom(inner.name, inner.type,
                                                inner.value)
        assert any(outcomes) and not all(outcomes)

    def test_delay_defers_delivery(self):
        host = Host()
        fault = FaultFamily.wrap_host(host, delay=0.5)
        _service(host)
        __, client = _client(host)
        start = host.loop.now()
        error, __ = client.send_sync(_ping_xrl(), deadline=5.0)
        assert error.is_okay
        # Request and reply each crossed the family once: >= 2 delays.
        assert host.loop.now() - start >= 1.0
        assert fault.stats.delayed >= 2


# ---------------------------------------------------------------------------
# XRL retry / deadline / late replies
# ---------------------------------------------------------------------------

class TestXrlReliability:
    def test_retry_recovers_from_drops(self):
        host = Host()
        # seed 1's first roll drops the frame, forcing at least one retry
        FaultFamily.wrap_host(host, seed=1, drop_probability=0.7)
        _service(host)
        __, client = _client(host)
        policy = RetryPolicy(max_attempts=20, backoff=0.05,
                             attempt_timeout=0.2, seed=2)
        error, __ = client.send_sync(_ping_xrl(), deadline=60.0, retry=policy)
        assert error.is_okay
        assert client.retries_performed > 0

    def test_no_retry_without_policy(self):
        host = Host()
        FaultFamily.wrap_host(host, drop_probability=1.0)
        _service(host)
        __, client = _client(host)
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert error.code == XrlErrorCode.REPLY_TIMED_OUT
        assert client.retries_performed == 0

    def test_send_sync_timeout_retires_pending_call(self):
        host = Host()
        process = XorpProcess(host, "sp")
        router = process.create_router("svc")
        parked = []

        def slow(args):
            reply = DeferredReply()
            parked.append(reply)
            return reply

        router.register_raw_method("svc/1.0/slow", slow)
        __, client = _client(host)
        error, __ = client.send_sync(
            Xrl("svc", "svc", "1.0", "slow", XrlArgs()), deadline=2.0)
        assert error.code == XrlErrorCode.REPLY_TIMED_OUT
        assert client.late_replies == 0
        # The handler answers long after the deadline: the reply must be
        # counted and dropped, not delivered into the dead call.
        parked[0].reply(None)
        host.loop.run(duration=0.5)
        assert client.late_replies == 1

    def test_shutdown_fails_pending_calls(self):
        host = Host()
        process = XorpProcess(host, "sp")
        router = process.create_router("svc")
        router.register_raw_method("svc/1.0/slow",
                                   lambda args: DeferredReply())
        __, client = _client(host)
        box = []
        client.send(Xrl("svc", "svc", "1.0", "slow", XrlArgs()),
                    lambda error, args: box.append(error))
        host.loop.run(duration=0.05)
        client.shutdown()
        host.loop.run(duration=0.05)
        assert len(box) == 1
        assert box[0].code == XrlErrorCode.SEND_FAILED


# ---------------------------------------------------------------------------
# Finder death ordering
# ---------------------------------------------------------------------------

class TestFinderDeathOrdering:
    def test_cache_invalidated_before_death_notification(self):
        """A DEATH watcher must observe the already-invalidated world.

        deregister_component runs cache invalidation before notifying
        watchers, so anything a watcher does in response (a supervisor
        scheduling a restart, a client re-sending) resolves fresh instead
        of riding a cached sender towards the corpse.
        """
        host = Host()
        server_process, __ = _service(host)
        __, client = _client(host)
        error, __ = client.send_sync(_ping_xrl(), deadline=1.0)
        assert error.is_okay
        assert any(key[0] == "svc" for key in client._cache)

        observed = []
        send_outcome = []

        def watcher(event, class_name, instance):
            cached = any(key[0] == "svc" for key in client._cache)
            observed.append((event, cached))
            if event == DEATH:
                # A send issued from inside the DEATH callback must fail
                # a fresh resolve, not reach a stale cached sender.
                client.send(_ping_xrl(),
                            lambda err, args: send_outcome.append(err))

        host.finder.watch("t", "svc", watcher)
        assert observed == [(BIRTH, True)]
        server_process.shutdown()
        assert observed[1] == (DEATH, False)
        host.loop.run(duration=0.05)  # resolution errors report deferred
        assert len(send_outcome) == 1
        assert send_outcome[0].code == XrlErrorCode.RESOLVE_FAILED


# ---------------------------------------------------------------------------
# Kill family liveness
# ---------------------------------------------------------------------------

class TestKillFamilyLiveness:
    def test_unlisten_between_call_and_delivery(self):
        host = Host()
        victim = XorpProcess(host, "victim")

        class Caller:
            loop = host.loop

        sender = host.kill_family.connect(victim._kill_address, Caller())
        replies = []
        sender.call(KillFamily.encode_signal(1, SIGTERM), replies.append)
        # The signal is queued on the loop; the target vanishes first.
        host.kill_family.unlisten(victim._kill_address)
        host.loop.run(duration=0.05)
        assert victim.running  # on_signal must NOT have fired
        assert len(replies) == 1
        __, error, __args = decode_response(replies[0])
        assert error.code == XrlErrorCode.SEND_FAILED

    def test_live_target_still_killed(self):
        host = Host()
        victim = XorpProcess(host, "victim")

        class Caller:
            loop = host.loop

        sender = host.kill_family.connect(victim._kill_address, Caller())
        replies = []
        sender.call(KillFamily.encode_signal(1, SIGTERM), replies.append)
        host.loop.run(duration=0.05)
        assert not victim.running
        __, error, __args = decode_response(replies[0])
        assert error.is_okay


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

def _flappy_factory(host, name):
    def make():
        process = XorpProcess(host, name)
        process.create_router(name)
        return process
    return make


class TestSupervisor:
    def test_restart_after_death(self):
        host = Host()
        manager = RouterManager(host, policy=SupervisorPolicy(
            ping_period=0, backoff_initial=0.1, jitter=0, stable_after=0,
            seed=0))
        make = _flappy_factory(host, "flappy")
        make()
        supervisor = manager.supervisor
        supervisor.add_module("flappy", restart=make)
        supervisor.start()
        assert supervisor.status("flappy") == "up"
        host.processes["flappy"].shutdown()
        assert supervisor.status("flappy") == "restarting"
        assert host.loop.run_until(
            lambda: supervisor.status("flappy") == "up", timeout=5.0)
        assert supervisor.restarts == 1
        assert host.processes["flappy"].running

    def test_storm_budget_gives_up(self):
        host = Host()
        manager = RouterManager(host, policy=SupervisorPolicy(
            ping_period=0, backoff_initial=0.1, backoff_multiplier=1.0,
            jitter=0, stable_after=0, storm_window=1000.0, storm_budget=3,
            seed=0))
        make = _flappy_factory(host, "flappy")
        make()
        supervisor = manager.supervisor
        gave_up = []
        supervisor.on_gave_up = lambda name, reason: gave_up.append(reason)
        supervisor.add_module("flappy", restart=make)
        supervisor.start()

        def crash_if_up():
            process = host.processes.get("flappy")
            if process is not None and process.running:
                process.shutdown()

        host.loop.call_periodic(0.05, crash_if_up, name="crasher")
        assert host.loop.run_until(lambda: bool(gave_up), timeout=60.0)
        assert supervisor.status("flappy") == "failed"
        assert supervisor.restarts == 3  # exactly the budget, then stop
        assert "storm" in gave_up[0]

    def test_backoff_grows_between_attempts(self):
        host = Host()
        manager = RouterManager(host, policy=SupervisorPolicy(
            ping_period=0, backoff_initial=0.2, backoff_multiplier=2.0,
            jitter=0, stable_after=0, storm_budget=10, seed=0))
        make = _flappy_factory(host, "flappy")
        make()
        supervisor = manager.supervisor
        supervisor.add_module("flappy", restart=make)
        supervisor.start()
        restart_times = []
        supervisor.on_restarted = (
            lambda name, process: restart_times.append(host.loop.now()))

        def crash_if_up():
            process = host.processes.get("flappy")
            if process is not None and process.running:
                process.shutdown()

        crasher = host.loop.call_periodic(0.01, crash_if_up, name="crasher")
        assert host.loop.run_until(lambda: len(restart_times) >= 3,
                                   timeout=30.0)
        crasher.cancel()
        first_gap = restart_times[1] - restart_times[0]
        second_gap = restart_times[2] - restart_times[1]
        # 0.2 -> 0.4 -> 0.8 doubling (no jitter configured).
        assert second_gap > first_gap > 0.2

    def test_dependency_restarted_first(self):
        host = Host()
        manager = RouterManager(host, policy=SupervisorPolicy(
            ping_period=0, backoff_initial=0.1, jitter=0, stable_after=0,
            seed=0))
        order = []

        def make(name):
            def factory():
                order.append(name)
                process = XorpProcess(host, name)
                process.create_router(name)
                return process
            return factory

        make("ribx")()
        make("bgpx")()
        order.clear()
        supervisor = manager.supervisor
        supervisor.add_module("ribx", restart=make("ribx"))
        supervisor.add_module("bgpx", restart=make("bgpx"),
                              depends_on=("ribx",))
        supervisor.start()
        # Both die; bgpx's restart timer fires first (scheduled first)
        # and must bring ribx back before bgpx itself.
        host.processes["bgpx"].shutdown()
        host.processes["ribx"].shutdown()
        assert host.loop.run_until(
            lambda: supervisor.status("bgpx") == "up"
            and supervisor.status("ribx") == "up", timeout=5.0)
        assert order == ["ribx", "bgpx"]

    def test_ping_detects_wedged_module(self):
        host = Host()
        manager = RouterManager(host, policy=SupervisorPolicy(
            ping_period=0.5, ping_timeout=0.2, ping_failures=2,
            backoff_initial=0.1, jitter=0, stable_after=0, seed=0))
        state = {"wedged": False}

        def make():
            process = XorpProcess(host, "wsvc")
            router = process.create_router("wsvc")

            def get_status(args):
                if state["wedged"]:
                    return DeferredReply()  # alive but never answers
                return XrlArgs().add_txt("status", "running")

            router.register_raw_method("common/0.1/get_status", get_status)
            return process

        def restart():
            old = host.processes.get("wsvc")
            if old is not None and old.running:
                old.shutdown()
            state["wedged"] = False
            return make()

        make()
        supervisor = manager.supervisor
        supervisor.add_module("wsvc", restart=restart)
        supervisor.start()
        host.loop.run(duration=2.0)
        assert supervisor.status("wsvc") == "up"
        assert supervisor.restarts == 0
        state["wedged"] = True
        assert host.loop.run_until(lambda: supervisor.restarts == 1,
                                   timeout=30.0)
        assert host.loop.run_until(
            lambda: supervisor.status("wsvc") == "up", timeout=5.0)
        # The replacement answers pings again: no further restarts.
        host.loop.run(duration=3.0)
        assert supervisor.restarts == 1


# ---------------------------------------------------------------------------
# The acceptance scenario: kill BGP mid-session under 10% frame loss
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestRecoveryScenario:
    def test_kill_restart_reconverge(self):
        result = run_recovery(seed=7, drop_probability=0.10)
        assert result.restarts == 1
        assert result.dropped > 0          # the chaos actually happened
        assert result.retries > 0          # and retries papered over it
        assert result.time_to_restart > 0
        assert result.time_to_reconverge >= result.time_to_restart

    def test_recovery_is_deterministic(self):
        first = run_recovery(seed=7, drop_probability=0.10)
        second = run_recovery(seed=7, drop_probability=0.10)
        assert first.fingerprint() == second.fingerprint()

    def test_recovery_seed_sensitivity(self):
        first = run_recovery(seed=7, drop_probability=0.10)
        other = run_recovery(seed=11, drop_probability=0.10)
        assert first.fingerprint() != other.fingerprint()


# ---------------------------------------------------------------------------
# BGP's resync of a restarted RIB
# ---------------------------------------------------------------------------

class TestRibResync:
    def test_resync_rib_replays_the_table_in_vector_frames(self):
        """The dump a reborn RIB gets is a handful of ``add_routes4``
        frames (one per background slice), not one XRL per route."""
        router = Router()
        routes = 300
        nets = [IPNet(IPv4(0x63000000 + (i << 8)), 24)
                for i in range(routes)]
        router.announce(0, nets[:150])
        router.announce(1, nets[150:])
        router.run()
        assert router.rib.v4.origin("ebgp").route_count == routes
        router.rib.shutdown()
        router.run()
        sends = spy_sends(router.bgp)
        before = router.bgp.txq.sent_count
        reborn = RibProcess(router.host)
        Router.add_connected(reborn)
        router.run()
        assert reborn.v4.origin("ebgp").route_count == routes
        assert len(router.fea.fib4) == routes + 1
        slices = math.ceil(routes / router.bgp.fanout.dump_slice)
        replay = router.bgp.txq.sent_count - before
        assert replay <= math.ceil(routes / FanoutQueue.RUN_LIMIT) + slices
        assert replay < routes / 10
        streamed = {method for method, __ in sends
                    if method not in ("add_egp_table4",
                                      "register_interest4")}
        assert streamed == {"add_routes4"}
