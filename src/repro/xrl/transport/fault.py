"""Fault-injection protocol family: deterministic chaos for XRL transports.

The paper's robustness argument (§3, §6.5) is that a multi-process router
survives the failure of any one routing process.  Claims like that are
only worth anything if failure is *testable*, so this module wraps any
protocol family and injects faults into the frames crossing it:

* **drop** — the frame silently vanishes (a lost datagram, a dying peer);
* **delay** — delivery is deferred on the event loop (congestion,
  scheduling artifacts);
* **duplicate** — the frame is delivered twice (retransmit races);
* **corrupt** — a byte is flipped (the codec must reject, not crash);
* **partition** — all frames between two component classes are dropped
  until the partition heals.

Every decision comes from one seeded :class:`random.Random` and every
delay is scheduled on the caller's event loop, so under a
:class:`~repro.eventloop.clock.SimulatedClock` a chaos run is exactly
reproducible — the property the supervision test suite depends on.

Faults can be *scoped* to specific class pairs (e.g. only the bgp↔rib
route stream) so a test can keep its own control traffic clean while the
data path burns.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.xrl.transport.base import ProtocolFamily, ReplyCallback, Sender


def _pair(class_a: str, class_b: str) -> FrozenSet[str]:
    return frozenset((class_a, class_b))


class FaultStats:
    """Counters for every injected fault, by kind."""

    __slots__ = ("dropped", "delayed", "duplicated", "corrupted",
                 "partitioned", "passed")

    def __init__(self) -> None:
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.corrupted = 0
        self.partitioned = 0
        self.passed = 0

    def __repr__(self) -> str:
        return (f"<FaultStats passed={self.passed} dropped={self.dropped} "
                f"delayed={self.delayed} duplicated={self.duplicated} "
                f"corrupted={self.corrupted} partitioned={self.partitioned}>")


class _FaultSender(Sender):
    """Wraps one inner sender; injects faults on requests and replies."""

    __slots__ = ("_family", "_inner", "_address", "_caller")

    def __init__(self, family: "FaultFamily", inner: Sender, address: str,
                 caller) -> None:
        self._family = family
        self._inner = inner
        self._address = address
        self._caller = caller

    def call(self, request: bytes, reply_cb: ReplyCallback) -> None:
        family = self._family
        caller_class = getattr(self._caller, "class_name", "?")
        target_class = family.listener_class(self._address)
        loop = self._caller.loop

        if not family.in_scope(caller_class, target_class):
            self._inner.call(request, reply_cb)
            return

        def faulted_reply(frame: Optional[bytes]) -> None:
            if family.is_partitioned(caller_class, target_class):
                family.stats.partitioned += 1
                return
            frame = family.mangle(frame)
            if frame is _DROPPED:
                return
            family.deliver(loop, lambda: reply_cb(frame))

        if family.is_partitioned(caller_class, target_class):
            family.stats.partitioned += 1
            return
        request = family.mangle(request)
        if request is _DROPPED:
            return
        copies = 2 if family.roll(family.duplicate_probability) else 1
        if copies == 2:
            family.stats.duplicated += 1
        for __ in range(copies):
            family.deliver(
                loop, lambda: self._inner.call(request, faulted_reply))

    def encode_request(self, seq, resolved_method, args):
        # Frames are opaque between router and sender: the inner sender
        # owns the codec, so faults mangle exactly the negotiated wire
        # form (binary included) — the codec must reject, not crash.
        return self._inner.encode_request(seq, resolved_method, args)

    def decode_response(self, frame):
        return self._inner.decode_response(frame)

    def close(self) -> None:
        self._inner.close()

    @property
    def alive(self) -> bool:
        return self._inner.alive


#: sentinel returned by :meth:`FaultFamily.mangle` for a dropped frame
_DROPPED = object()


class FaultFamily(ProtocolFamily):
    """A protocol family that proxies *inner* and injects faults."""

    def __init__(self, inner: ProtocolFamily, *, seed: int = 0,
                 drop_probability: float = 0.0,
                 delay: float = 0.0,
                 delay_jitter: float = 0.0,
                 duplicate_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 scope: Optional[Iterable[FrozenSet[str]]] = None):
        self.inner = inner
        self.name = inner.name
        self.preference = inner.preference
        self.drop_probability = drop_probability
        self.delay_base = delay
        self.delay_jitter = delay_jitter
        self.duplicate_probability = duplicate_probability
        self.corrupt_probability = corrupt_probability
        #: None = all traffic; otherwise the set of class pairs faulted
        self.scope: Optional[Set[FrozenSet[str]]] = (
            set(scope) if scope is not None else None)
        self.stats = FaultStats()
        self._rng = random.Random(seed)
        self._classes: Dict[str, str] = {}
        self._partitions: Set[FrozenSet[str]] = set()

    @classmethod
    def wrap_host(cls, host, **kwargs) -> "FaultFamily":
        """Wrap *host*'s host-local family in place.

        Must run before the host's processes are created — routers copy
        the family list at construction time.
        """
        fault = cls(host.local_family, **kwargs)
        host.families[host.families.index(host.local_family)] = fault
        host.local_family = fault
        return fault

    # -- partitioning -------------------------------------------------------
    def partition(self, class_a: str, class_b: str) -> None:
        """Silently drop all frames between two component classes."""
        self._partitions.add(_pair(class_a, class_b))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, class_a: str, class_b: str) -> bool:
        return _pair(class_a, class_b) in self._partitions

    # -- fault decisions -----------------------------------------------------
    def in_scope(self, caller_class: str, target_class: str) -> bool:
        return self.scope is None or _pair(caller_class,
                                           target_class) in self.scope

    def roll(self, probability: float) -> bool:
        return probability > 0 and self._rng.random() < probability

    def mangle(self, frame: Optional[bytes]):
        """Apply drop/corrupt decisions to one frame; count the outcome."""
        if frame is None:
            return frame
        if self.roll(self.drop_probability):
            self.stats.dropped += 1
            return _DROPPED
        if self.roll(self.corrupt_probability):
            self.stats.corrupted += 1
            position = self._rng.randrange(len(frame)) if frame else 0
            corrupted = bytearray(frame)
            if corrupted:
                corrupted[position] ^= 0xFF
            return bytes(corrupted)
        self.stats.passed += 1
        return frame

    def deliver(self, loop, action) -> None:
        """Run *action* now, or later if a delay fault applies."""
        delay = self.delay_base
        if self.delay_jitter > 0:
            delay += self._rng.random() * self.delay_jitter
        if delay > 0:
            self.stats.delayed += 1
            loop.call_later(delay, action, name="fault-delay")
        else:
            action()

    # -- ProtocolFamily ------------------------------------------------------
    def listen(self, router) -> str:
        address = self.inner.listen(router)
        self._classes[address] = getattr(router, "class_name", "?")
        return address

    def connect(self, address: str, router) -> Sender:
        return _FaultSender(self, self.inner.connect(address, router),
                            address, router)

    def unlisten(self, address: str) -> None:
        self._classes.pop(address, None)
        self.inner.unlisten(address)

    def listener_class(self, address: str) -> str:
        return self._classes.get(address, "?")

    def reachable(self, address: str, router) -> bool:
        inner_reachable = getattr(self.inner, "reachable", None)
        if inner_reachable is None:
            return True
        return inner_reachable(address, router)

    def capabilities(self) -> dict:
        """Faults never change what the wrapped transport speaks."""
        return self.inner.capabilities()
