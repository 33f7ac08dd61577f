"""The router under test in its two deployments, behind one surface.

:class:`InprocRouter` is BGP+RIB+FEA on one ``Host``/``EventLoop`` with
loopback peer sessions; :class:`MultiprocRouter` is ``repro.fea``,
``repro.rib`` and ``repro.bgp --bgp-listen`` as OS processes under a
``SpawnManager`` hosted by the benchmark, peered over a real
``TcpSession``.  Workloads see only: peer, write bytes, wait for the FIB,
read the FIB back, sample cost.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import signal
import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.bgp import BgpProcess
from repro.bgp.peer import PeerConfig
from repro.bgp.session import TcpSession, session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SystemClock
from repro.fea import FeaProcess
from repro.interfaces import BGP_IDL, FEA_FIB_IDL, METRICS_IDL, RIB_IDL
from repro.net import IPNet, IPv4
from repro.rib import RibProcess
from repro.rtrmgr.spawn import SpawnManager
from repro.xrl import XrlRouter
from repro.xrl.xrl import Xrl

from bench import ROOT
from bench.layers import TARGETS, parse_report
from bench.harness import (ROUTER_AS, ROUTER_ID, Deadline, Speaker,
                           proc_cpu_seconds, proc_status)

#: the nexthop cover: both peers' addresses resolve through it
STATIC_NET = IPNet(IPv4("10.0.0.0"), 8)
STATIC_NEXTHOP = IPv4("0.0.0.0")
#: how often the multi-process FIB gauge is polled while waiting
POLL_INTERVAL = 0.010

#: every child this interpreter spawned, for the atexit sweep
_spawned_pids: List[int] = []


def _kill_leftovers() -> None:
    for pid in _spawned_pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


atexit.register(_kill_leftovers)


def track_children(manager: SpawnManager) -> None:
    _spawned_pids.extend(shell.pid for shell in manager.modules.values()
                         if shell.pid is not None)


def kill_children(manager: SpawnManager) -> None:
    """SIGKILL before ``shutdown()``: on SIGTERM a child deregisters from
    the Finder by blocking RPC, which ``shutdown()`` (it does not run the
    loop) leaves unanswered until its own 5 s kill."""
    for shell in manager.modules.values():
        if shell.alive:
            shell.popen.kill()


def surviving_children() -> List[int]:
    """Spawned pids still running — must be empty once a run has shut down."""
    alive = []
    for pid in _spawned_pids:
        try:
            os.kill(pid, 0)
        except OSError:
            continue
        # A zombie still answers signal 0; reaped children do not.
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                if handle.read().rsplit(b") ", 1)[1][:1] == b"Z":
                    continue
        except (OSError, IndexError):
            continue
        alive.append(pid)
    return alive


def spawn_manager() -> SpawnManager:
    """A SpawnManager whose children can import ``bench`` as well."""
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if ROOT not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [p for p in paths if p])
    return SpawnManager()


class XrlFailed(RuntimeError):
    """An XRL came back with an error, or not at all before its deadline."""


def call(router: XrlRouter, target: str, interface, method: str,
         values: Optional[dict] = None, *, deadline: float = 10.0):
    """Synchronous IDL-typed XRL; raises :class:`XrlFailed` on an error.

    Set-up lets that propagate (no router, no run); the read-backs inside
    measured loops catch it and report "not there", which their callers
    count as a failed operation before moving on."""
    args = interface.method(method).build_args(values or {})
    error, reply = router.send_sync(
        Xrl(target, interface.name, interface.version, method, args),
        deadline=deadline)
    if not error.is_okay:
        raise XrlFailed(f"{target} {method}: {error}")
    return reply


#: what a lookup returns when its XRL failed: equal to no route and to no
#: absence of one, so every comparison with the oracle comes out wrong
LOST: Tuple[None, None] = (None, None)


def _static_route_values() -> dict:
    return {"protocol": "static", "net": str(STATIC_NET),
            "nexthop": str(STATIC_NEXTHOP), "metric": 1, "policytags": []}


class _Router:
    """What both deployments share: the probe router and XRL read-backs."""

    mode = "?"
    loop: EventLoop
    #: a component of the benchmark's own, the "third XrlRouter" reads use
    probe: XrlRouter

    def __init__(self) -> None:
        self.poll_xrls = 0

    def _lookup(self, target: str, interface, method: str,
                addr: IPv4) -> Optional[Tuple[IPNet, IPv4]]:
        self.poll_xrls += 1
        try:
            reply = call(self.probe, target, interface, method,
                         {"addr": addr}, deadline=5.0)
        except XrlFailed:
            return LOST
        if not reply.get_bool("resolves"):
            return None
        return reply.get_ipv4net("net"), reply.get_ipv4("nexthop")

    def xrl_lookup(self, addr: IPv4) -> Optional[Tuple[IPNet, IPv4]]:
        """``fea_fib/1.0 lookup_entry4`` from the probe router."""
        return self._lookup("fea", FEA_FIB_IDL, "lookup_entry4", addr)

    def rib_lookup(self, addr: IPv4) -> Optional[Tuple[IPNet, IPv4]]:
        """``rib/1.0 lookup_route_by_dest4`` from the probe router."""
        return self._lookup("rib", RIB_IDL, "lookup_route_by_dest4", addr)

    def on_one_cpu(self):
        """Context in which every router process shares one CPU."""
        return contextlib.nullcontext()  # one interpreter: one thread

    def counters(self) -> Optional[Dict[str, float]]:
        """Every process's metrics report over ``metrics/1.0``, merged;
        None if one could not be had."""
        merged: Dict[str, float] = {}
        for target in TARGETS:
            self.poll_xrls += 1
            try:
                reply = call(self.probe, target, METRICS_IDL, "get_metrics")
            except XrlFailed:
                return None
            merged.update(parse_report(reply.get_txt("report")))
        return merged


class InprocRouter(_Router):
    """BGP, RIB and FEA as objects on one event loop."""

    mode = "inproc"

    def __init__(self) -> None:
        super().__init__()
        self.loop = EventLoop(SystemClock())
        self.host = Host(loop=self.loop)
        self.fea = FeaProcess(self.host)
        self.rib = RibProcess(self.host)
        self.bgp = BgpProcess(self.host, local_as=ROUTER_AS,
                              bgp_id=IPv4(ROUTER_ID))
        self.probe = XrlRouter(self.loop, "bench_probe", self.host.finder,
                               families=list(self.host.families))
        call(self.probe, "rib", RIB_IDL, "add_route4", _static_route_values())
        if not self.loop.run_until(lambda: len(self.fea.fib4) == 1,
                                   timeout=10.0):
            raise RuntimeError("static route never reached the FIB")

    def add_peer(self, peer: dict) -> Speaker:
        handler = self.bgp.add_peer(PeerConfig(
            IPv4(peer["addr"]), peer["asn"], ROUTER_AS, IPv4(peer["local"])))
        ours, theirs = session_pair(self.loop, 0.0)
        handler.attach_session(theirs)
        speaker = Speaker(self.loop, ours, asn=peer["asn"],
                          bgp_id=peer["addr"])
        handler.enable()
        speaker.fsm.manual_start()
        if not self.loop.run_until(lambda: speaker.established,
                                   timeout=10.0):
            raise RuntimeError(f"peering {peer['addr']} did not establish")
        return speaker

    # -- FIB read-back -------------------------------------------------------
    def fib_count(self) -> int:
        return len(self.fea.fib4)

    def _quiet(self) -> bool:
        return (self.bgp.txq.idle and self.rib.txq.idle
                and self.bgp.fanout.queue_length == 0)

    def wait_fib_count(self, target: int, seconds: float) -> Optional[float]:
        """When the FIB reached *target* with the queues idle — provided it
        is still there once the loop has nothing left to run; else None."""
        fib4 = self.fea.fib4
        deadline = Deadline(seconds)
        while not deadline.expired:
            if not self.loop.run_until(
                    lambda: len(fib4) == target and self._quiet(),
                    timeout=deadline.remaining):
                return None
            reached = time.perf_counter()
            while self.loop.run_once(block=False):
                pass
            if len(fib4) == target and self._quiet():
                return reached
        return None

    def lookup(self, addr: IPv4) -> Optional[Tuple[IPNet, IPv4]]:
        entry = self.fea.fib4.lookup(addr)
        return None if entry is None else (entry.net, entry.nexthop)

    def wait_exact(self, net: IPNet, nexthop: Optional[IPv4],
                   seconds: float) -> bool:
        """The exact entry for *net* has *nexthop* (None = is absent)."""
        exact = self.fea.fib4.exact
        if nexthop is None:
            return self.loop.run_until(lambda: exact(net) is None,
                                       timeout=seconds)

        def installed() -> bool:
            entry = exact(net)
            return entry is not None and entry.nexthop == nexthop

        return self.loop.run_until(installed, timeout=seconds)

    # -- cost ----------------------------------------------------------------
    def cpu_seconds(self) -> Dict[str, float]:
        return {"router": time.process_time()}

    def status(self) -> Dict[str, Dict[str, int]]:
        return {"router": proc_status(os.getpid())}

    def close(self) -> None:
        self.probe.shutdown()
        self.host.shutdown()


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class MultiprocRouter(_Router):
    """FEA, RIB and BGP as OS processes; the benchmark hosts the Finder."""

    mode = "multiproc"

    def __init__(self) -> None:
        super().__init__()
        self.manager = spawn_manager()
        self.loop = self.manager.loop
        self.probe = self.manager.xrl
        self._sessions: List[TcpSession] = []
        try:
            self._bgp_port = _free_port()
            self.manager.spawn_module("fea", supervise=False)
            self.manager.spawn_module("rib", supervise=False)
            self.manager.spawn_module(
                "bgp", supervise=False,
                args=["--local-as", str(ROUTER_AS), "--bgp-id", ROUTER_ID,
                      "--bgp-listen", str(self._bgp_port)])
            track_children(self.manager)
            call(self.probe, "rib", RIB_IDL, "add_route4",
                 _static_route_values())
            if self.wait_fib_count(1, 10.0) is None:
                raise RuntimeError("static route never reached the FEA child")
        except BaseException:
            self.close()
            raise

    @property
    def pids(self) -> Dict[str, int]:
        return {name: shell.pid for name, shell in self.manager.modules.items()}

    def add_peer(self, peer: dict) -> Speaker:
        call(self.probe, "bgp", BGP_IDL, "add_peer",
             {"peer": peer["addr"], "as": peer["asn"],
              "next_hop": peer["local"], "holdtime": 90})
        call(self.probe, "bgp", BGP_IDL, "enable_peer", {"peer": peer["addr"]})
        session = TcpSession(self.loop, remote=("127.0.0.1", self._bgp_port))
        self._sessions.append(session)
        speaker = Speaker(self.loop, session, asn=peer["asn"],
                          bgp_id=peer["addr"])
        speaker.fsm.manual_start()
        if not self.loop.run_until(lambda: speaker.established,
                                   timeout=10.0):
            raise RuntimeError(f"peering {peer['addr']} did not establish")
        return speaker

    # -- FIB read-back -------------------------------------------------------
    def fib_count(self) -> int:
        """The FEA child's route gauge; -1 if it could not be read."""
        self.poll_xrls += 1
        try:
            reply = call(self.probe, "fea", METRICS_IDL, "get_metric",
                         {"name": "fea.fib4.routes"}, deadline=5.0)
        except XrlFailed:
            return -1
        return int(reply.get_txt("value"))

    def wait_fib_count(self, target: int, seconds: float) -> Optional[float]:
        """When the FEA child's gauge first read *target* — provided the
        next poll reads the same; else None."""
        deadline = Deadline(seconds)
        reached = None
        while not deadline.expired:
            if self.fib_count() != target:
                reached = None
            elif reached is not None:
                return reached
            else:
                reached = time.perf_counter()
            self.loop.run(duration=POLL_INTERVAL)
        return None

    lookup = _Router.xrl_lookup

    def wait_exact(self, net: IPNet, nexthop: Optional[IPv4],
                   seconds: float) -> bool:
        """Spin on ``lookup_entry4`` for the probe's own address."""
        deadline = Deadline(seconds)
        addr = net.network
        while not deadline.expired:
            found = self.xrl_lookup(addr)
            if found is LOST:
                continue
            held = found[1] if found is not None and found[0] == net else None
            if held == nexthop:
                return True
        return False

    @contextlib.contextmanager
    def on_one_cpu(self):
        """Stop-and-wait work has one process running at a time; apart on
        two vCPUs every hop is a cross-CPU wake-up of an idle one, whose
        cost swings with the schedulers' mood from run to run (see
        ``xrl_call``).  Together, a hop is a context switch."""
        allowed = os.sched_getaffinity(0)
        pids = [0, *self.pids.values()]
        for pid in pids:
            os.sched_setaffinity(pid, {max(allowed)})
        try:
            yield
        finally:
            for pid in pids:
                os.sched_setaffinity(pid, allowed)

    # -- cost ----------------------------------------------------------------
    def cpu_seconds(self) -> Dict[str, float]:
        cpu = {name: proc_cpu_seconds(pid) for name, pid in self.pids.items()}
        cpu["rtrmgr"] = time.process_time()
        return cpu

    def status(self) -> Dict[str, Dict[str, int]]:
        status = {name: proc_status(pid) for name, pid in self.pids.items()}
        status["rtrmgr"] = proc_status(os.getpid())
        return status

    def close(self) -> None:
        for session in self._sessions:
            session.close()
        kill_children(self.manager)
        self.manager.shutdown()


def make_router(mode: str) -> _Router:
    return InprocRouter() if mode == "inproc" else MultiprocRouter()


def cpu_delta(before: Dict[str, float], after: Dict[str, float]
              ) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0.0) for name in after}
