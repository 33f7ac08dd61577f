"""Crash-recovery experiment: kill BGP mid-session, measure reconvergence.

The scenario behind the paper's robustness claim (§3, §6.5): a managed
router (rtrmgr + FEA + RIB + BGP, from :data:`CONFIG`) holds an EBGP
session to a remote router (from :data:`REMOTE_CONFIG`, on its own host)
while a seeded :class:`~repro.xrl.transport.fault.FaultFamily`
drops a fraction of the frames on the bgp↔rib and rib↔fea XRL streams.
Mid-session the BGP process is killed through the kill protocol family.
The :class:`~repro.rtrmgr.supervisor.Supervisor` must notice the death,
flush BGP's routes from the RIB, restart the module through the Router
Manager (which replays the committed configuration — the peering and the
originated ``network``), and both the local FIB and the remote peer must
re-converge to the pre-crash routes.

Everything runs on one :class:`~repro.eventloop.clock.SimulatedClock`
and every random decision (fault injection, retry jitter, supervisor
backoff jitter) comes from seeded RNGs, so for a given *seed* the whole
run — including the measured recovery times — is exactly reproducible.
Used by ``tests/test_supervision.py`` (correctness + determinism) and
``benchmarks/test_recovery_time.py`` (time-to-reconverge).
"""

from __future__ import annotations

from typing import Optional

from repro.bgp import BgpProcess
from repro.bgp.session import session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPv4
from repro.rib import RibProcess
from repro.rtrmgr import RouterManager, SupervisorPolicy
from repro.xrl.finder import DEATH
from repro.xrl.retry import RetryPolicy
from repro.xrl.transport import FaultFamily
from repro.xrl.transport.kill import SIGTERM, KillFamily

#: an address inside the route the remote peer announces to the router
#: under test, and one inside the route the router under test originates
REMOTE_PROBE = "99.1.1.1"
LOCAL_PROBE = "88.1.1.1"

#: The router under test: one EBGP peering, one originated network, and
#: the interface the peer's address resolves through.
CONFIG = """
interfaces { interface eth0 { address: 10.0.0.1 } }
protocols { bgp {
    local-as: 65001 bgp-id: 1.1.1.1
    peer 10.0.0.2 { as: 65002 local-ip: 10.0.0.1 }
    network 88.0.0.0/8 { next-hop: 10.0.0.1 }
} }
"""

#: The remote speaker: a second router, on its own host, announcing
#: 99.0.0.0/8 back.
REMOTE_CONFIG = """
interfaces { interface eth0 { address: 10.0.0.2 } }
protocols { bgp {
    local-as: 65002 bgp-id: 2.2.2.2
    peer 10.0.0.1 { as: 65001 local-ip: 10.0.0.2 enabled: true }
    network 99.0.0.0/8 { next-hop: 10.0.0.2 }
} }
"""


class RecoveryResult:
    """Timeline (in virtual seconds) and fault counters of one run."""

    __slots__ = ("kill_at", "restart_at", "reconverged_at", "dropped",
                 "passed", "restarts", "retries")

    def __init__(self, *, kill_at: float, restart_at: float,
                 reconverged_at: float, dropped: int, passed: int,
                 restarts: int, retries: int):
        self.kill_at = kill_at
        self.restart_at = restart_at
        self.reconverged_at = reconverged_at
        self.dropped = dropped
        self.passed = passed
        self.restarts = restarts
        self.retries = retries

    @property
    def time_to_restart(self) -> float:
        return self.restart_at - self.kill_at

    @property
    def time_to_reconverge(self) -> float:
        return self.reconverged_at - self.kill_at

    def fingerprint(self) -> tuple:
        """Everything that must match between same-seed runs."""
        return (round(self.time_to_restart, 9),
                round(self.time_to_reconverge, 9),
                self.dropped, self.passed, self.restarts, self.retries)

    def __repr__(self) -> str:
        return (f"<RecoveryResult restart={self.time_to_restart:.3f}s "
                f"reconverge={self.time_to_reconverge:.3f}s "
                f"dropped={self.dropped} retries={self.retries}>")


def run_recovery(*, seed: int = 7, drop_probability: float = 0.10,
                 policy: Optional[SupervisorPolicy] = None) -> RecoveryResult:
    """Run the kill/restart/reconverge scenario once; see module docstring."""
    loop = EventLoop(SimulatedClock())

    # Router under test.  The fault family must wrap the host-local
    # transport before any process exists (routers copy the family list
    # at construction).  Faults are scoped to the route streams; the
    # rtrmgr's control traffic and the supervisor's pings stay clean.
    host = Host(loop=loop)
    fault = FaultFamily.wrap_host(
        host, seed=seed, drop_probability=drop_probability,
        scope={frozenset({"bgp", "rib"}), frozenset({"rib", "fea"})})
    retry = RetryPolicy(max_attempts=8, backoff=0.05, attempt_timeout=0.5,
                        seed=seed + 1)
    manager = RouterManager(host, policy=policy if policy is not None else
                            SupervisorPolicy(ping_period=1.0,
                                             ping_timeout=0.5,
                                             backoff_initial=0.2,
                                             backoff_max=2.0,
                                             stable_after=5.0,
                                             seed=seed + 2))
    # BGP's and the RIB's route streams ride one retry policy.
    manager.register_module_factory(
        "rib", lambda: RibProcess(host, retry_policy=retry))
    manager.register_module_factory(
        "bgp", lambda **params: BgpProcess(host, retry_policy=retry, **params))
    supervisor = manager.supervisor

    remote_host = Host(loop=loop)
    remote_manager = RouterManager(remote_host)
    remote_manager.load(REMOTE_CONFIG)
    remote_manager.commit()
    remote = remote_manager.modules["bgp"]
    remote_peer = remote.peers["10.0.0.1"]

    # (Re)wire the session whenever the manager (re)creates the BGP
    # module — after the initial commit and after every supervised
    # restart — and have the remote dial it.
    wires = []

    def rewire(name, process) -> None:     # bgp: the one module killed
        if wires:
            old_local, old_remote = wires[-1]
            old_local._peer = None
            old_remote._peer = None
        local_end, remote_end = session_pair(loop, 0.001)
        wires.append((local_end, remote_end))
        handler = process.peers["10.0.0.2"]
        handler.attach_session(local_end)
        remote_peer.attach_session(remote_end)
        handler.enable()
        remote_peer.disable()
        remote_peer.enable()

    supervisor.on_restarted = rewire

    # Sever the live wire the instant the local BGP process dies, the
    # way a real TCP connection dies with its process.  Without this the
    # remote FSM's connect-retry could resurrect the dead handler's
    # loopback session.
    def bgp_lifetime(event: str, class_name: str, instance: str) -> None:
        if event == DEATH and wires:
            local_end, remote_end = wires[-1]
            local_end._peer = None
            remote_end._peer = None

    host.finder.watch("recovery-harness", "bgp", bgp_lifetime)

    manager.load(CONFIG)
    manager.commit()
    rewire("bgp", manager.modules["bgp"])

    fea = manager.modules["fea"]

    def converged() -> bool:
        return (fea.fib4.lookup(IPv4(REMOTE_PROBE)) is not None
                and fea.fib4.lookup(IPv4(LOCAL_PROBE)) is not None
                and remote.decision.route_count == 2)

    if not loop.run_until(converged, timeout=120.0):
        raise RuntimeError("initial convergence failed")

    supervisor.start()

    # Kill the BGP process through the kill protocol family (§6.3).
    victim = manager.modules["bgp"]
    kill_at = loop.now()
    sender = host.kill_family.connect(victim._kill_address, manager.xrl)
    sender.call(KillFamily.encode_signal(1, SIGTERM), lambda frame: None)

    if not loop.run_until(lambda: supervisor.restarts >= 1, timeout=60.0):
        raise RuntimeError("supervisor did not restart bgp")
    restart_at = loop.now()
    if manager.modules["bgp"] is victim:
        raise RuntimeError("bgp module was not replaced")

    if not loop.run_until(converged, timeout=300.0):
        raise RuntimeError("post-restart reconvergence failed")
    reconverged_at = loop.now()

    # Re-sends: the route streams' and the XRL layer's (table setup,
    # nexthop queries).
    retries = sum(module.txq.retries + module.xrl.retries_performed
                  for module in (manager.modules["bgp"],
                                 manager.modules["rib"]))
    supervisor.stop()
    result = RecoveryResult(
        kill_at=kill_at, restart_at=restart_at,
        reconverged_at=reconverged_at, dropped=fault.stats.dropped,
        passed=fault.stats.passed, restarts=supervisor.restarts,
        retries=retries)
    host.shutdown()
    remote_host.shutdown()
    return result
