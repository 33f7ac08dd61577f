"""Intra-process protocol family: direct dispatch, no sockets.

Matches the paper's "Intra-Process direct calling where the XRL library
invokes direct method calls between a sender and receiver inside the same
process".  Marshaling still happens (the library code path is shared with
the networked families); only the transport disappears.  Delivery is
deferred through the event loop so callers observe the same asynchronous
semantics on every family.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict

from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.transport.base import ProtocolFamily, ReplyCallback, Sender


class DirectSender(Sender):
    """In-interpreter delivery, shared by the intra-process and host-local
    families: the owning family's ``target_router(address, caller)``
    says where (and whether) *caller* may deliver."""

    def __init__(self, family, address: str, router):
        self._family = family
        self._address = address
        self._caller = router

    @property
    def alive(self) -> bool:
        """False once the listener behind the address is gone, so the
        router drops this sender when the peer restarts at a new address."""
        return self._family.reachable(self._address, self._caller)

    def call(self, request: bytes, reply_cb: ReplyCallback) -> None:
        target_router = self._family.target_router(self._address, self._caller)
        loop = self._caller.loop

        def deliver() -> None:
            target_router.dispatch_frame_async(
                request, lambda response: loop.call_soon(reply_cb, response))

        loop.call_soon(deliver)

    def call_batch(self, requests) -> None:
        """Deliver a whole batch in two event-loop hops instead of ``2N``.

        One deferred call dispatches every request; replies produced
        synchronously by the handlers are collected and flushed together
        in a second deferred call.  A handler that defers (an XRL
        intermediary) still answers through its own later hop.
        """
        target_router = self._family.target_router(self._address, self._caller)
        loop = self._caller.loop
        pairs = list(requests)

        def deliver() -> None:
            ready = []
            collecting = True

            def respond_for(reply_cb):
                def respond(response: bytes) -> None:
                    if collecting:
                        ready.append((reply_cb, response))
                    else:
                        loop.call_soon(reply_cb, response)
                return respond

            for request, reply_cb in pairs:
                target_router.dispatch_frame_async(request,
                                                   respond_for(reply_cb))
            collecting = False
            if ready:
                def flush() -> None:
                    for reply_cb, response in ready:
                        reply_cb(response)
                loop.call_soon(flush)

        loop.call_soon(deliver)


class IntraProcessFamily(ProtocolFamily):
    """Shared in-interpreter registry of intra-process listeners."""

    name = "local"
    preference = 30

    def __init__(self) -> None:
        self._listeners: Dict[str, tuple] = {}
        self._ids = itertools.count(1)

    def listen(self, router) -> str:
        # The pid keeps addresses globally unique when several real OS
        # processes register with one Finder (multi-process deployment):
        # another interpreter's "intra-N" must never alias ours.
        address = f"intra-{os.getpid():x}-{next(self._ids)}"
        self._listeners[address] = (router, router.process_token)
        return address

    def connect(self, address: str, router) -> Sender:
        return DirectSender(self, address, router)

    def target_router(self, address: str, caller):
        entry = self._listeners.get(address)
        if entry is None:
            raise XrlError(
                XrlErrorCode.SEND_FAILED, f"intra target {address} is gone"
            )
        router, process_token = entry
        if process_token != caller.process_token:
            raise XrlError(
                XrlErrorCode.SEND_FAILED,
                "intra-process family cannot cross process boundaries",
            )
        return router

    def unlisten(self, address: str) -> None:
        self._listeners.pop(address, None)

    def reachable(self, address: str, router) -> bool:
        """True if *router* may use this address (same process only)."""
        entry = self._listeners.get(address)
        return entry is not None and entry[1] == router.process_token
