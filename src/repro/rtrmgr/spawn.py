"""The Router Manager of the OS-process deployment (paper §6.1).

There is one manager (:class:`~repro.rtrmgr.rtrmgr.RouterManager`);
:class:`SpawnManager` is that manager constructed with a
:class:`~repro.rtrmgr.launcher.ProcessLauncher` on a real-clock loop and
a TCP-capable host, which is all that distinguishes the deployment.
Commit, restart and supervision are inherited unchanged.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.core.process import Host
from repro.eventloop import EventLoop, SystemClock
from repro.rtrmgr.launcher import ChildProcess, ProcessLauncher
from repro.rtrmgr.rtrmgr import RouterManager
from repro.rtrmgr.supervisor import SupervisorPolicy
from repro.xrl.transport.tcp import TcpFamily


class SpawnManager(RouterManager):
    def __init__(self, host: Optional[Host] = None, *,
                 policy: Optional[SupervisorPolicy] = None,
                 codec: Optional[str] = None,
                 python: str = sys.executable):
        if host is None:
            host = Host(EventLoop(SystemClock()),
                        extra_families=[TcpFamily(codec=codec)])
        super().__init__(host, policy=policy, launcher=ProcessLauncher(
            host, codec=codec, python=python))

    def spawn_module(self, name: str, module: Optional[str] = None, *,
                     args: Sequence[str] = (),
                     class_name: Optional[str] = None,
                     supervise: bool = True) -> ChildProcess:
        """Run ``python -m <module> <args>`` now, outside any configuration
        (a harness's bare RIB, the benchmark's echo server)."""
        if name in self.modules:
            raise ValueError(f"module {name!r} already spawned")
        self.launcher.programs[name] = module if module is not None \
            else f"repro.{name}"
        self.launcher.args[name] = list(args)
        if class_name is not None:
            self.class_names[name] = class_name
        return self.start_module(name, supervise=supervise)
