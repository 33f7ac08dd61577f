"""Launchers: the one thing a deployment chooses.

A launcher is how a module named *M* with start-up parameters *P* comes
to exist and is stopped again.  Everything else the Router Manager does
— which modules a configuration needs, what XRLs configure them, what a
restart replays — is the same in every deployment.

* :class:`InProcessLauncher` calls a factory: the module is an object on
  the manager's own event loop, and the handle is that object.
* :class:`ProcessLauncher` runs ``python -m repro.<M> --finder … P`` as
  an OS process (paper §6.1), binds the Finder's XRL target so the child
  can register, and the handle is a :class:`ChildProcess` shell.

Both render the same parameters — constructor keywords for one, argv for
the other — and both return from :meth:`start` only once the module is
known to the Finder, and from :meth:`stop` only once it is gone from it.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.process import Host
from repro.rtrmgr.config_tree import CommitError
from repro.xrl.finder_target import bind_finder_target

#: stock modules: the package under ``repro`` that implements each, and
#: the process class in it
MODULE_CLASSES = {
    "fea": ("fea", "FeaProcess"),
    "rib": ("rib", "RibProcess"),
    "bgp": ("bgp", "BgpProcess"),
    "rip": ("rip", "RipProcess"),
    "ospf": ("ospf", "OspfProcess"),
    "static_routes": ("staticroutes", "StaticRoutesProcess"),
    "pim": ("pim", "PimProcess"),
    "mld6igmp": ("mld6igmp", "Mld6igmpProcess"),
}


class InProcessLauncher:
    """Modules are objects on the manager's host."""

    def __init__(self, host: Host):
        self.host = host
        #: third-party (or harness) factories, called ``factory(**params)``
        self.factories: Dict[str, Callable] = {}

    def start(self, name: str, class_name: str, params: Dict[str, Any]):
        factory = self.factories.get(name)
        if factory is not None:
            return factory(**params)
        if name not in MODULE_CLASSES:
            raise CommitError(f"no module factory for {name!r}")
        # The composition root: the same ``repro.<package>`` the process
        # launcher hands to ``python -m``, imported only when first needed.
        package, process_class = MODULE_CLASSES[name]
        module = importlib.import_module(f"repro.{package}")
        return getattr(module, process_class)(self.host, **params)

    def stop(self, process) -> None:
        if process.running:
            process.shutdown()

    def close(self) -> None:
        pass


class ChildProcess:
    """The manager's handle on one child OS process."""

    __slots__ = ("class_name", "popen")

    def __init__(self, class_name: str, popen: subprocess.Popen):
        self.class_name = class_name
        self.popen = popen

    @property
    def pid(self) -> int:
        return self.popen.pid

    @property
    def alive(self) -> bool:
        return self.popen.poll() is None


class ProcessLauncher:
    """Modules are ``python -m`` children registering over ``finder/1.0``."""

    #: how long a child has to register with (or vanish from) the Finder
    REGISTER_TIMEOUT = 30.0
    DEREGISTER_TIMEOUT = 10.0
    #: how long a SIGTERMed child has before :meth:`stop` SIGKILLs it
    EXIT_TIMEOUT = 5.0

    def __init__(self, host: Host, *, codec: Optional[str] = None,
                 python: str = sys.executable):
        self.host = host
        self._codec = codec
        self._python = python
        #: ``finder/1.0`` on the host's families; where it listens over
        #: TCP is the children's ``--finder`` bootstrap address
        self.finder_target = bind_finder_target(host)
        #: the ``python -m`` module behind each module name
        self.programs: Dict[str, str] = {
            name: f"repro.{name}" for name in ("fea", "rib", "bgp")}
        #: deployment wiring appended to a module's argv (``--bgp-listen``)
        self.args: Dict[str, List[str]] = {}

    def _child_env(self) -> dict:
        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        if self._codec is not None:
            env["REPRO_XRL_CODEC"] = self._codec
        return env

    def start(self, name: str, class_name: str,
              params: Dict[str, Any]) -> ChildProcess:
        program = self.programs.get(name)
        if program is None:
            raise CommitError(
                f"module {name!r} has no 'python -m' entry point; it runs "
                f"under the in-process launcher only")
        argv = [self._python, "-m", program,
                "--finder", self.finder_target.address]
        if self._codec is not None:
            argv += ["--codec", self._codec]
        for keyword, value in params.items():
            argv += ["--" + keyword.replace("_", "-"), str(value)]
        argv += self.args.get(name, ())
        child = ChildProcess(
            class_name, subprocess.Popen(argv, env=self._child_env()))
        if not self._pump_until(
                lambda: self.host.finder.known_target(class_name),
                self.REGISTER_TIMEOUT):
            self.stop(child)
            raise CommitError(
                f"module {name!r} (pid {child.pid}) did not register "
                f"target {class_name!r} within {self.REGISTER_TIMEOUT}s")
        return child

    def stop(self, child: ChildProcess) -> None:
        """SIGTERM, then SIGKILL what outlives the grace period; reap.

        A child leaves the Finder when its session's connection ends —
        an event on *this* process's loop — so I/O is served meanwhile: the
        next :meth:`start` must not find the registration of a child that
        is gone.
        """
        if child.alive:
            child.popen.terminate()
            if not self._pump_until(lambda: not child.alive,
                                    self.EXIT_TIMEOUT):
                child.popen.kill()
        child.popen.wait()
        self._pump_until(
            lambda: not self.host.finder.known_target(child.class_name),
            self.DEREGISTER_TIMEOUT)

    def close(self) -> None:
        self.finder_target.router.shutdown()

    def _pump_until(self, predicate: Callable[[], bool],
                    timeout: float) -> bool:
        """Service Finder/XRL I/O until *predicate* holds.

        Uses :meth:`EventLoop.poll_io` — never timers or deferred
        callbacks — so it is safe inside the Supervisor's restart timer.
        """
        # repro: allow[DET001] real OS children: registration waits are wall-clock
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() >= deadline:  # repro: allow[DET001]
                return False
            self.host.loop.poll_io(0.05)
        return True
