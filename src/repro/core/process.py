"""The multi-process composition model (paper §4).

    "The XORP control plane implements this functionality diagram as a set
    of communicating processes.  Each routing protocol and management
    function is implemented by a separate process, as are the RIB and the
    FEA. ... This multi-process design limits the coupling between
    components; misbehaving code, such as an experimental routing
    protocol, cannot directly corrupt the memory of another process."

In this Python reproduction a :class:`XorpProcess` is an isolated object
with its own process token; the intra-process XRL family refuses to cross
tokens, so processes really can only interact through XRLs, preserving the
architectural boundary the paper's robustness argument rests on.

A :class:`Host` groups the things processes on one machine share: the
event loop, the Finder, and the protocol family instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.eventloop import EventLoop, SimulatedClock, collector
from repro.interfaces import METRICS_IDL
from repro.obs.metrics import MetricsRegistry
from repro.xrl import Finder, XrlRouter
from repro.xrl.finder import BIRTH, DEATH
from repro.xrl.idl import XrlInterface
from repro.xrl.router import new_process_token
from repro.xrl.transport import IntraProcessFamily, KillFamily, TcpFamily
from repro.xrl.transport.base import ProtocolFamily
from repro.xrl.transport.local import HostLocalFamily


class Host:
    """One machine: a shared event loop, Finder, and transport families."""

    def __init__(self, loop: Optional[EventLoop] = None,
                 finder: Optional[Finder] = None,
                 extra_families: Optional[List[ProtocolFamily]] = None):
        self.loop = loop if loop is not None else EventLoop(SimulatedClock())
        self.finder = finder if finder is not None else Finder()
        self.intra_family = IntraProcessFamily()
        self.local_family = HostLocalFamily()
        self.kill_family = KillFamily()
        self.families: List[ProtocolFamily] = [self.intra_family,
                                               self.local_family]
        if extra_families:
            self.families.extend(extra_families)
        self.processes: Dict[str, "XorpProcess"] = {}

    def add_process(self, process: "XorpProcess") -> None:
        self.processes[process.name] = process

    def shutdown(self) -> None:
        for process in list(self.processes.values()):
            process.shutdown()
        # What was just torn down is cyclic garbage and this loop may
        # never turn again: CPython runs the full collection until one does.
        collector.hand_back()


class XorpProcess:
    """Base class for one control-plane process (BGP, RIB, FEA, ...).

    Subclasses typically:

    * create one or more components via :meth:`create_router`;
    * bind IDL interfaces to implementation objects;
    * start timers and background tasks on ``self.loop``.
    """

    #: the component class name this process registers under
    process_name = "process"
    #: what ``common/0.1 get_version`` answers
    version = "repro/1.0"

    def __init__(self, host: Host, name: Optional[str] = None):
        self.host = host
        self.loop = host.loop
        self.name = name if name is not None else self.process_name
        self.process_token = new_process_token()
        self.routers: List[XrlRouter] = []
        #: this process's scrapeable instruments (namespace = process name);
        #: every component created below serves it over ``metrics/1.0``.
        self.metrics = MetricsRegistry(self.name)
        self.loop.register_metrics(self.metrics)
        # Frames per write is what pipelining over TCP buys (paper §6.3);
        # a host without the family reads zero.
        tcp = [f for f in host.families if isinstance(f, TcpFamily)]
        self.metrics.gauge("xrl.tcp.writes",
                           lambda: sum(f.writes for f in tcp))
        self.metrics.gauge("xrl.tcp.frames_out",
                           lambda: sum(f.frames_out for f in tcp))
        self._kill_address = host.kill_family.listen(self)
        self._running = True
        #: classes watched by :meth:`watch_rebirth` -> a death was seen
        #: and the resync is still due
        self._rebirth_due: Dict[str, bool] = {}
        host.add_process(self)

    # -- component management ------------------------------------------------
    def create_router(self, class_name: Optional[str] = None, *,
                      singleton: bool = False,
                      instance_name: Optional[str] = None) -> XrlRouter:
        """Create an XRL component endpoint owned by this process."""
        router = XrlRouter(
            self.loop,
            class_name if class_name is not None else self.name,
            self.host.finder,
            instance_name=instance_name,
            singleton=singleton,
            families=list(self.host.families),
            process_token=self.process_token,
        )
        prefix = f"xrl.{router.class_name}"
        if any(r.class_name == router.class_name for r in self.routers):
            prefix = f"{prefix}.{len(self.routers)}"
        self.routers.append(router)
        self.metrics.gauge(f"{prefix}.batches_sent",
                           lambda r=router: r.batches_sent)
        self.metrics.gauge(f"{prefix}.late_replies",
                           lambda r=router: r.late_replies)
        self.metrics.gauge(f"{prefix}.retries",
                           lambda r=router: r.retries_performed)
        router.bind(METRICS_IDL, self.metrics)
        return router

    def bind(self, router: XrlRouter, interface: XrlInterface, impl=None) -> None:
        """Bind *interface* on *router* to *impl* (default: this process)."""
        router.bind(interface, impl if impl is not None else self)

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def watch_rebirth(self, class_name: str, resync: Callable[[], None],
                      at_birth: Optional[Callable[[], None]] = None) -> None:
        """Run *resync* whenever *class_name* dies and is born again while
        this process runs (the resync contract in DESIGN.md).

        *resync* is deferred one loop turn past BIRTH: a reborn process has
        registered its component by then but not yet bound its interfaces.
        *at_birth* runs at BIRTH itself.  Watching a class again is a no-op.
        """
        if class_name in self._rebirth_due:
            return
        self._rebirth_due[class_name] = False

        def lifetime(event: str, _class_name: str, _instance: str) -> None:
            if event == DEATH:
                self._rebirth_due[class_name] = True
            elif event == BIRTH and self._rebirth_due[class_name] \
                    and self.running:
                self._rebirth_due[class_name] = False
                if at_birth is not None:
                    at_birth()
                self.loop.call_soon(resync)

        self.host.finder.watch(self._rebirth_watcher(), class_name, lifetime)

    def _rebirth_watcher(self) -> str:
        return f"{self.name}-rebirth:{self.process_token}"

    def on_signal(self, signal_number: int) -> None:
        """Kill protocol family entry point."""
        self.shutdown()

    def shutdown(self) -> None:
        """Deregister all components; subclasses extend to stop timers."""
        if not self._running:
            return
        self._running = False
        for class_name in self._rebirth_due:
            self.host.finder.unwatch(self._rebirth_watcher(), class_name)
        for router in self.routers:
            router.shutdown()
        self.host.kill_family.unlisten(self._kill_address)
        self.host.processes.pop(self.name, None)

    # -- common/0.1: what the Router Manager's supervisor asks of every
    # process it manages, for whichever component binds ``COMMON_IDL`` ------
    def xrl_get_target_name(self) -> dict:
        return {"name": self.routers[0].instance_name}

    def xrl_get_version(self) -> dict:
        return {"version": self.version}

    def xrl_get_status(self) -> dict:
        return {"status": "running" if self.running else "shutdown"}

    def xrl_shutdown(self) -> None:
        self.loop.call_soon(self.shutdown)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
