"""Host-local protocol family: IPC between processes on one machine.

XORP's processes talk over localhost TCP by default; this family models
that host-local channel without socket overhead.  Unlike the intra-process
family it crosses process boundaries — but it still marshals through the
shared codec and still delivers asynchronously via the event loop, so the
processes remain fully decoupled.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict

from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.transport.base import ProtocolFamily, Sender
from repro.xrl.transport.intra import DirectSender


class HostLocalFamily(ProtocolFamily):
    """One instance per host; shared by all of that host's processes."""

    name = "unix"
    preference = 18

    def __init__(self) -> None:
        self._listeners: Dict[str, object] = {}
        self._ids = itertools.count(1)

    def listen(self, router) -> str:
        # pid-qualified for the same reason as the intra-process family:
        # with real OS subprocesses sharing one Finder, another
        # interpreter's "hostlocal-N" must never alias ours.
        address = f"hostlocal-{os.getpid():x}-{next(self._ids)}"
        self._listeners[address] = router
        return address

    def connect(self, address: str, router) -> Sender:
        return DirectSender(self, address, router)

    def target_router(self, address: str, caller):
        router = self._listeners.get(address)
        if router is None:
            raise XrlError(
                XrlErrorCode.SEND_FAILED, f"local target {address} is gone"
            )
        return router

    def unlisten(self, address: str) -> None:
        self._listeners.pop(address, None)

    def reachable(self, address: str, router) -> bool:
        """True when the address lives in this interpreter's registry."""
        return address in self._listeners
