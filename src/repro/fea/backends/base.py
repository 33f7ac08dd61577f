"""The FIB backend API: one control plane, many dataplanes.

    "The FEA provides a stable API for communicating with a forwarding
    engine or engines."  (paper §3)

The seed hard-wired the FEA to one in-memory table that could never
fail, lag, or disagree with the RIB.  A :class:`FibBackend` makes the
RIB→FEA boundary a real distributed-systems boundary instead: a backend
is *asynchronous* (``apply`` returns before the dataplane did anything),
*lossy* (each operation is acked or nacked individually, and an ack may
never come), *slower than the control plane* (a bounded completion
queue pushes back), and *recoverable* (``dump()`` lets the FEA diff the
dataplane against its shadow table and replay the delta).

Two implementations ship:

* :class:`~repro.fea.backends.trie.TrieFibBackend` — an in-memory
  table per family; synchronous, always acks;
* :class:`~repro.fea.backends.netlink.NetlinkFibBackend` — the same
  tables behind a "netlink-like" asynchronous kernel channel with a
  bounded completion queue and seeded fault injection (nack, drop-ack,
  latency, crash/restart).

Every operation the FEA hands a backend is a :class:`FibOp` carrying a
driver-assigned sequence number; the backend completes it by calling the
completion callback given to :meth:`FibBackend.open` with that sequence
number and an ack/nack verdict.  Operations are idempotent (a FIB add
overwrites, a FIB delete of an absent prefix is a no-op), which is what
makes blind retransmission after a nack or a lost ack safe.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.fea.fib import FibEntry
from repro.net import V6_TAG

#: ``completion(seq, ok, reason)`` — *ok* is the ack/nack verdict;
#: *reason* is an errno-style token for nacks ("ENOBUFS", "EINVAL", ...)
CompletionCallback = Callable[[int, bool, str], None]

#: ``health(healthy)`` — edge-triggered: False on crash, True on reattach
HealthCallback = Callable[[bool], None]

ADD = "add"
DELETE = "delete"


class FibOp:
    """One dataplane operation: install or remove a forwarding entry."""

    __slots__ = ("op", "entry", "seq", "bits")

    def __init__(self, op: str, entry: FibEntry, seq: int = 0):
        if op not in (ADD, DELETE):
            raise ValueError(f"unknown FIB op {op!r}")
        self.op = op
        self.entry = entry
        self.seq = seq
        #: the width of the entry's family: which table the op is for
        self.bits = 128 if entry.net >= V6_TAG else 32

    def __repr__(self) -> str:
        return f"FibOp(#{self.seq} {self.op} {self.entry.net})"


class FibBackend:
    """Abstract dataplane: the contract every forwarding engine honours.

    Lifecycle: the FEA constructs the backend, then calls :meth:`open`
    exactly once with the event loop and its completion callback before
    the first :meth:`apply`; :meth:`close` ends the attachment.  A
    backend that can fail additionally reports edge-triggered health
    transitions through the callback registered with
    :meth:`set_health_listener`.
    """

    #: registry / metrics name of the implementation
    name = "backend"

    def __init__(self) -> None:
        self._health_listener: Optional[HealthCallback] = None

    # -- lifecycle -----------------------------------------------------------
    def open(self, loop, completion: CompletionCallback) -> None:
        """Attach to the FEA: remember *loop* and the completion sink."""
        raise NotImplementedError

    def close(self) -> None:
        """Detach; pending operations will never complete."""
        raise NotImplementedError

    # -- the dataplane write path --------------------------------------------
    def apply(self, ops: Sequence[FibOp]) -> None:
        """Submit *ops* for installation.

        Asynchronous by contract: completions arrive through the
        callback given to :meth:`open`, possibly within this call
        (synchronous backends), possibly event-loop turns later, and —
        for a faulty backend — possibly never.  The driver above owns
        retries and timeouts; a backend never retries internally.
        """
        raise NotImplementedError

    # -- reconciliation ------------------------------------------------------
    def dump(self, bits: int) -> List[FibEntry]:
        """Every entry the dataplane currently holds for one family.

        The ground truth the FEA diffs its shadow table against after a
        failure; must reflect exactly the operations the backend acked
        (plus any it applied whose acks were lost).
        """
        raise NotImplementedError

    # -- health --------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """Liveness signal: False while the dataplane is unreachable."""
        return True

    def set_health_listener(self, listener: Optional[HealthCallback]) -> None:
        self._health_listener = listener

    def _notify_health(self, healthy: bool) -> None:
        if self._health_listener is not None:
            self._health_listener(healthy)
