"""Dataplane-backend resilience: blackhole time and throttled flushes.

Two scenarios behind the pluggable-FIB robustness story:

* :func:`run_backend_resilience` — a router (RIB + FEA driving the
  fault-injecting netlink-like backend) converges, then the backend
  **crashes**, losing its tables and everything in flight.  Route churn
  continues while the dataplane is down (the shadow tables absorb it and
  keep serving lookups — graceful degradation), the backend reattaches,
  and the health up-edge triggers reconciliation.  The headline number
  is the **dataplane blackhole time**: virtual seconds from the crash
  until the backend's ``dump()`` again equals the FEA's shadow table.

* :func:`run_throttled_flush` — the RIB flushes a full table into a
  backend whose completion latency is several times the healthy rate.
  Without backpressure the FEA's un-acked queue would grow with the
  table size; with it — the FEA answers a FIB XRL only once the backend
  has settled it — the RIB's in-flight window is the bound, regardless
  of how many routes are flushed.  The run reports the peak queue
  against that window.

Everything runs on one :class:`~repro.eventloop.clock.SimulatedClock`
and all fault decisions come from the seeded
:class:`~repro.fea.backends.netlink.BackendFaultPlan`, so a given seed
reproduces the whole timeline exactly.  Used by the
``benchmarks/test_backend_resilience.py`` gate and the chaos tests.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.fea import BackendFaultPlan, FeaProcess
from repro.net import IPNet, IPv4
from repro.rib import RibProcess, RibRoute
from repro.rtrmgr import RouterManager


def _route(i: int) -> RibRoute:
    return RibRoute(IPNet(IPv4(0x0A000000 + (i << 8)), 24),
                    IPv4("192.168.0.1"), 1, "static", ifname="eth0")


def _router(fea_options: dict, rib_options: dict) -> RouterManager:
    """The empty configuration — an FEA on the netlink-like backend and a
    RIB — built with options no configuration text carries.  The routes
    are a load generator's, written into the RIB's static origin table."""
    host = Host(loop=EventLoop(SimulatedClock()))
    manager = RouterManager(host)
    manager.register_module_factory(
        "fea", lambda: FeaProcess(host, backend="netlink", **fea_options))
    manager.register_module_factory(
        "rib", lambda: RibProcess(host, **rib_options))
    manager.commit()
    return manager


class ResilienceResult:
    """Timeline (virtual seconds) and repair counters of one crash run."""

    __slots__ = ("crash_at", "restart_at", "reconverged_at", "routes",
                 "churned", "deferred", "reconcile_adds",
                 "reconcile_deletes", "served_during_outage")

    def __init__(self, *, crash_at: float, restart_at: float,
                 reconverged_at: float, routes: int, churned: int,
                 deferred: int, reconcile_adds: int, reconcile_deletes: int,
                 served_during_outage: int):
        self.crash_at = crash_at
        self.restart_at = restart_at
        self.reconverged_at = reconverged_at
        self.routes = routes
        self.churned = churned
        self.deferred = deferred
        self.reconcile_adds = reconcile_adds
        self.reconcile_deletes = reconcile_deletes
        self.served_during_outage = served_during_outage

    @property
    def blackhole_time(self) -> float:
        """Crash -> dataplane back in sync with the shadow table."""
        return self.reconverged_at - self.crash_at

    @property
    def repair_time(self) -> float:
        """Reattach -> reconciliation converged."""
        return self.reconverged_at - self.restart_at

    def fingerprint(self) -> tuple:
        """Everything that must match between same-seed runs."""
        return (round(self.blackhole_time, 9), round(self.repair_time, 9),
                self.deferred, self.reconcile_adds, self.reconcile_deletes,
                self.served_during_outage)

    def __repr__(self) -> str:
        return (f"<ResilienceResult blackhole={self.blackhole_time:.3f}s "
                f"repair={self.repair_time:.3f}s "
                f"adds={self.reconcile_adds} deletes={self.reconcile_deletes}>")


def run_backend_resilience(*, seed: int = 7, routes: int = 64,
                           churn: int = 16, outage: float = 0.25,
                           nack_probability: float = 0.05,
                           drop_ack_probability: float = 0.05
                           ) -> ResilienceResult:
    """Run the crash/churn/reattach/reconcile scenario once."""
    manager = _router({"backend_options": {
        "fault_plan": BackendFaultPlan(
            seed=seed, nack_probability=nack_probability,
            drop_ack_probability=drop_ack_probability),
        "queue_capacity": 2 * routes,
    }, "driver_options": {"retry_base": 0.01, "ack_timeout": 0.2}}, {})
    loop, fea, rib = (manager.loop, manager.modules["fea"],
                      manager.modules["rib"])
    origin = rib.v4.origin("static")

    def consistent() -> bool:
        shadow = {entry for __, entry in fea.fib4.entries()}
        return (fea.driver.settled and rib.txq.idle
                and set(fea.backend.dump(32)) == shadow)

    origin.originate_batch([_route(i) for i in range(routes)])
    if not loop.run_until(lambda: len(fea.fib4) == routes and consistent(),
                          timeout=300.0):
        raise RuntimeError("initial convergence failed")

    # The dataplane dies: tables and every in-flight op are lost.
    crash_at = loop.now()
    fea.backend.crash()

    # Churn continues during the outage; only the shadow absorbs it.
    for i in range(churn):
        origin.originate(_route(routes + i))
    for i in range(churn // 2):
        origin.withdraw(_route(i).net)
    loop.run(duration=outage)

    # Graceful degradation: lookups answer from the shadow throughout.
    served = 0
    for i in range(churn // 2, routes + churn):
        if fea.fib4.lookup(IPv4(0x0A000007 + (i << 8))) is not None:
            served += 1

    restart_at = loop.now()
    fea.backend.restart()  # the up edge triggers reconciliation
    if not loop.run_until(consistent, timeout=300.0):
        raise RuntimeError("post-restart reconciliation failed")
    reconverged_at = loop.now()

    def metric(name: str) -> int:
        return fea.metrics.get(f"fea.{name}").value

    result = ResilienceResult(
        crash_at=crash_at, restart_at=restart_at,
        reconverged_at=reconverged_at, routes=routes, churned=churn,
        deferred=metric("backend.deferred"),
        reconcile_adds=metric("backend.reconcile.adds"),
        reconcile_deletes=metric("backend.reconcile.deletes"),
        served_during_outage=served)
    manager.shutdown()
    manager.host.shutdown()
    return result


class ThrottledFlushResult(NamedTuple):
    """Queue behaviour of one full-table flush into a slow backend."""

    routes: int
    elapsed: float
    peak_pending: int
    window: int

    @property
    def bounded(self) -> bool:
        """The window bound held: no unbounded queue growth."""
        return self.peak_pending <= self.window


def run_throttled_flush(*, routes: int = 256, slowdown: int = 10,
                        window: int = 32) -> ThrottledFlushResult:
    """Flush *routes* into a backend *slowdown*x slower than baseline.

    The bound asserted by the benchmark: the FEA's un-acked queue never
    exceeds the RIB's in-flight *window*, because the FEA answers each
    FIB XRL only once the backend has settled every op it carried.
    """
    manager = _router({"backend_options": {
        # The healthy baseline completes in ~1 ms; this backend is
        # `slowdown`x that, per operation.
        "fault_plan": BackendFaultPlan(seed=0, latency=0.001 * slowdown),
        "queue_capacity": 2 * window,
    }}, {"window": window})
    loop, fea, rib = (manager.loop, manager.modules["fea"],
                      manager.modules["rib"])
    origin = rib.v4.origin("static")

    start = loop.now()
    origin.originate_batch([_route(i) for i in range(routes)])
    done = lambda: (len(fea.backend.dump(32)) == routes  # noqa: E731
                    and fea.driver.settled and rib.txq.idle)
    if not loop.run_until(done, timeout=600.0):
        raise RuntimeError(
            f"throttled flush stalled: {len(fea.backend.dump(32))}"
            f"/{routes} installed")
    elapsed = loop.now() - start

    result = ThrottledFlushResult(routes, elapsed, fea.driver.peak_pending,
                                  window)
    manager.shutdown()
    manager.host.shutdown()
    return result
