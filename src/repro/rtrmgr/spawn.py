"""Real OS-process deployment: rtrmgr spawns children with ``Popen``.

This is the deployment the paper actually describes (§6.1): the Router
Manager forks one OS process per routing module, each process connects
back to the Finder over TCP, and XRLs between modules cross real process
boundaries.  The :class:`SpawnManager` below is the parent half:

* it owns the real Finder plus a :class:`~repro.xrl.transport.finderd.FinderServer`
  so children can reach it over a socket;
* :meth:`spawn_module` launches ``python -m repro.<module>`` children and
  blocks until their components register;
* the stock :class:`~repro.rtrmgr.supervisor.Supervisor` runs unchanged
  on top: a child's socket death deregisters its components, which fires
  the DEATH watch, which schedules a dependency-ordered, jitter-backed
  restart — except now "restart" means ``SIGKILL`` the old OS process
  and fork a new one;
* :meth:`provision` records every configuration XRL it pushes, and
  :meth:`restart_module` replays them into the fresh child, so restarted
  modules reconverge to the pre-crash configuration (the resync
  contract).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.core.process import Host, XorpProcess
from repro.eventloop import EventLoop, SystemClock
from repro.rtrmgr.supervisor import Supervisor, SupervisorPolicy
from repro.xrl import XrlError, XrlErrorCode
from repro.xrl.transport.finderd import FinderServer
from repro.xrl.transport.tcp import TcpFamily
from repro.xrl.xrl import Xrl


class SpawnedModule:
    """Book-keeping for one child OS process."""

    __slots__ = ("name", "module", "args", "class_name", "provision", "popen")

    def __init__(self, name: str, module: str, args: Sequence[str],
                 class_name: str):
        self.name = name
        self.module = module
        self.args = list(args)
        self.class_name = class_name
        #: configuration XRLs replayed into every respawn, in push order
        self.provision: List[Xrl] = []
        self.popen: Optional[subprocess.Popen] = None

    @property
    def pid(self) -> Optional[int]:
        return self.popen.pid if self.popen is not None else None

    @property
    def alive(self) -> bool:
        return self.popen is not None and self.popen.poll() is None


class SpawnManager(XorpProcess):
    """The Router Manager for real multi-process deployment."""

    process_name = "rtrmgr"

    def __init__(self, host: Optional[Host] = None, *,
                 policy: Optional[SupervisorPolicy] = None,
                 codec: Optional[str] = None,
                 python: str = sys.executable):
        if host is None:
            loop = EventLoop(SystemClock())
            host = Host(loop, extra_families=[TcpFamily(codec=codec)])
        super().__init__(host)
        self._codec = codec
        self._python = python
        self.xrl = self.create_router("rtrmgr", singleton=True)
        self.finder_server = FinderServer(self.host.finder, self.loop)
        self.modules: Dict[str, SpawnedModule] = {}
        self.supervisor = Supervisor(self, policy)
        self.supervisor.on_restarted = self._note_restart
        self.restart_log: List[str] = []

    def _note_restart(self, name: str, shell) -> None:
        self.restart_log.append(name)

    # -- spawning -----------------------------------------------------------
    def _child_env(self) -> dict:
        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        if self._codec is not None:
            env["REPRO_XRL_CODEC"] = self._codec
        return env

    def spawn_module(self, name: str, module: Optional[str] = None, *,
                     args: Sequence[str] = (),
                     class_name: Optional[str] = None,
                     supervise: bool = True,
                     wait_timeout: float = 30.0) -> SpawnedModule:
        """Fork ``python -m <module>`` and wait until it registers."""
        if name in self.modules:
            raise ValueError(f"module {name!r} already spawned")
        shell = SpawnedModule(name, module if module is not None
                              else f"repro.{name}", args,
                              class_name if class_name is not None else name)
        self.modules[name] = shell
        self._launch(shell, wait_timeout)
        if supervise:
            self.supervisor.add_module(
                name, class_name=shell.class_name,
                restart=lambda: self.restart_module(name))
        return shell

    def _launch(self, shell: SpawnedModule, wait_timeout: float) -> None:
        argv = [self._python, "-m", shell.module,
                "--finder", self.finder_server.address]
        if self._codec is not None:
            argv += ["--codec", self._codec]
        argv += shell.args
        shell.popen = subprocess.Popen(argv, env=self._child_env())
        if not self._pump_until(
                lambda: self.host.finder.known_target(shell.class_name),
                wait_timeout):
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"module {shell.name!r} (pid {shell.pid}) did not register "
                f"target {shell.class_name!r} within {wait_timeout}s")

    def _pump_until(self, predicate, timeout: float) -> bool:
        """Service Finder/XRL I/O until *predicate* holds.

        Uses :meth:`EventLoop.poll_io` — never timers or deferred
        callbacks — so it is safe inside the Supervisor's restart timer.
        """
        # repro: allow[DET001] real OS children: registration waits are wall-clock
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() >= deadline:  # repro: allow[DET001]
                return False
            self.loop.poll_io(0.05)
        return True

    # -- provisioning ---------------------------------------------------------
    def provision(self, name: str, xrl: Xrl, *, deadline: float = 10.0,
                  record: bool = True):
        """Push a configuration XRL; record it for replay on respawn."""
        shell = self.modules[name]
        error, args = self.xrl.send_sync(xrl, deadline=deadline)
        if not error.is_okay:
            raise XrlError(error.code,
                           f"provisioning {name!r} failed: {error.note}")
        if record:
            shell.provision.append(xrl)
        return args

    # -- restart (the Supervisor's restart callable) --------------------------
    def restart_module(self, name: str) -> SpawnedModule:
        shell = self.modules[name]
        if shell.popen is not None:
            if shell.popen.poll() is None:
                shell.popen.kill()
            shell.popen.wait()
        # The dead child's Finder connection must drain before respawn,
        # or the stale registration would satisfy the wait below.
        self._pump_until(
            lambda: not self.host.finder.known_target(shell.class_name), 10.0)
        self._launch(shell, wait_timeout=30.0)
        for xrl in shell.provision:
            error, __ = self.xrl.send_sync(xrl, deadline=10.0)
            if not error.is_okay:
                raise XrlError(
                    error.code,
                    f"replaying {xrl.method!r} into {name!r}: {error.note}")
        return shell

    # -- teardown -------------------------------------------------------------
    def shutdown(self) -> None:
        if not self.running:
            return
        self.supervisor.stop()
        children = [shell.popen for shell in self.modules.values()
                    if shell.popen is not None]
        for child in children:
            if child.poll() is None:
                child.terminate()
        # A SIGTERMed child deregisters from the Finder on its way out — a
        # blocking RPC against *this* process — so serve I/O while waiting.
        self._pump_until(
            lambda: all(child.poll() is not None for child in children), 5.0)
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
        self.finder_server.close()
        super().shutdown()
