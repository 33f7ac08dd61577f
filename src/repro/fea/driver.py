"""The backend driver: retries, timeouts, completion, reconciliation.

This is the robustness layer between the FEA's XRL surface and a
:class:`~repro.fea.backends.base.FibBackend`.  The FEA keeps *shadow
tables* (plain :class:`~repro.fea.fib.Fib` instances) that always hold
the control plane's **intended** forwarding state; the driver's job is
to make the dataplane converge to the shadow no matter how the backend
misbehaves:

* **nack** → per-op retry with capped exponential backoff (operations
  are idempotent, so blind retransmission is safe);
* **lost ack** → an ack-timeout sweep resubmits operations whose
  completion never arrived (the sweep timer only runs while operations
  are pending, so a synchronous backend costs no timers at all);
* **completion** → a write's *on_settled* callback runs once each of
  its ops is acked, given up on, or left to reconciliation (written
  while stale, abandoned by a crash or :meth:`close`).  The FEA replies
  then, so the RIB's in-flight window bounds the un-acked ops;
* **crash** → the driver goes *stale*: writes update only the shadow
  (lookups keep being served from it — graceful degradation), and on
  the backend's up edge :meth:`reconcile` diffs ``dump()`` against the
  shadow per family and replays exactly the delta.

Reconciliation replays flow through the same retry/timeout machinery,
so convergence holds even when the repair traffic itself is faulted.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.fea.backends.base import ADD, DELETE, FibBackend, FibOp
from repro.fea.fib import Fib, FibEntry
from repro.net import V6_TAG, IPNet


def _countdown(count: int,
               on_settled: Callable[[], None]) -> Callable[[], None]:
    """A callable that runs *on_settled* at its *count*-th call."""
    def settle() -> None:
        nonlocal count
        count -= 1
        if count == 0:
            on_settled()
    return settle


def _nothing() -> None:
    pass


class _Pending:
    """One submitted operation awaiting its ack; *settle* runs once it is
    acked, given up on or abandoned."""

    __slots__ = ("op", "settle", "attempts", "deadline")

    def __init__(self, op: FibOp, settle: Callable[[], None]):
        self.op = op
        self.settle = settle
        self.attempts = 0
        self.deadline = 0.0


class BackendDriver:
    """Drives one :class:`FibBackend` toward the FEA's shadow tables."""

    def __init__(self, backend: FibBackend, loop, *,
                 fib4: Fib, fib6: Fib,
                 max_attempts: int = 6,
                 retry_base: float = 0.05, retry_cap: float = 1.0,
                 ack_timeout: float = 2.0):
        if retry_base <= 0 or ack_timeout <= 0:
            raise ValueError("retry_base and ack_timeout must be > 0")
        self.backend = backend
        self.loop = loop
        self.shadow = {32: fib4, 128: fib6}
        self.max_attempts = max_attempts
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.ack_timeout = ack_timeout

        self._seq = 0
        self._pending: Dict[int, _Pending] = {}
        #: nacked ops waiting out their backoff before the next attempt
        self._backoff: Set[_Pending] = set()
        self.peak_pending = 0
        self._sweep_scheduled = False
        self._stale = not backend.healthy

        # Counters live on the driver even before register_metrics so the
        # bookkeeping never needs None checks; registration swaps them
        # for the registry's instruments.
        self._c_acks = _NullCounter()
        self._c_nacks = _NullCounter()
        self._c_retries = _NullCounter()
        self._c_ack_timeouts = _NullCounter()
        self._c_failed = _NullCounter()
        self._c_deferred = _NullCounter()
        self._c_rec_runs = _NullCounter()
        self._c_rec_adds = _NullCounter()
        self._c_rec_deletes = _NullCounter()

        backend.set_health_listener(self._on_health)
        backend.open(loop, self._on_completion)

    def close(self) -> None:
        """Detach the backend.  Nothing will complete now, so every op
        still outstanding is settled: no caller waits on a dead driver."""
        self.backend.set_health_listener(None)
        self.backend.close()
        outstanding = [*self._pending.values(), *self._backoff]
        self._pending.clear()
        self._backoff.clear()
        for pending in outstanding:
            pending.settle()

    # -- observability --------------------------------------------------------
    def register_metrics(self, metrics) -> None:
        """Register the driver's counters and gauges on a process registry."""
        self._c_acks = metrics.counter("backend.acks")
        self._c_nacks = metrics.counter("backend.nacks")
        self._c_retries = metrics.counter("backend.retries")
        self._c_ack_timeouts = metrics.counter("backend.ack_timeouts")
        self._c_failed = metrics.counter("backend.failed")
        self._c_deferred = metrics.counter("backend.deferred")
        self._c_rec_runs = metrics.counter("backend.reconcile.runs")
        self._c_rec_adds = metrics.counter("backend.reconcile.adds")
        self._c_rec_deletes = metrics.counter("backend.reconcile.deletes")
        metrics.gauge("backend.pending", lambda: len(self._pending))
        metrics.gauge("backend.peak_pending", lambda: self.peak_pending)
        metrics.gauge("backend.stale", lambda: self._stale)

    @property
    def stale(self) -> bool:
        """True while the dataplane is down and the shadow is authoritative."""
        return self._stale

    @property
    def settled(self) -> bool:
        """No pending acks and no retries waiting out a backoff."""
        return not self._pending and not self._backoff

    def status(self) -> str:
        """Supervisor-visible one-word dataplane state."""
        return "stale" if self._stale else "synced"

    # -- the write path (shadow first, then the dataplane) --------------------
    def add(self, entry: FibEntry) -> None:
        self.add_batch([entry])

    def delete(self, net: IPNet) -> None:
        self.delete_batch([net])

    def add_batch(self, entries: Iterable[FibEntry],
                  on_settled: Callable[[], None] = _nothing) -> None:
        """Install *entries*; *on_settled* runs once each op is settled."""
        ops = []
        for entry in entries:
            self.shadow[128 if entry.net >= V6_TAG else 32].insert(entry)
            ops.append(FibOp(ADD, entry))
        self._submit(ops, on_settled)

    def delete_batch(self, nets: Iterable[IPNet],
                     on_settled: Callable[[], None] = _nothing) -> None:
        """Remove *nets*; *on_settled* runs once each op is settled."""
        ops = []
        for net in nets:
            removed = self.shadow[128 if net >= V6_TAG else 32].remove(net)
            # A delete for a prefix we never held still goes to the
            # dataplane (it may hold it — e.g. an add whose ack we lost
            # judged failed); removing an absent entry is a no-op there.
            entry = removed if removed is not None else \
                FibEntry(net, type(net.network)(0), "")
            ops.append(FibOp(DELETE, entry))
        self._submit(ops, on_settled)

    def _submit(self, ops: List[FibOp],
                on_settled: Callable[[], None] = _nothing) -> None:
        if not ops or self._stale:
            # Dataplane down: the shadow recorded the intent; the
            # reconciliation pass on reattach replays the delta.
            self._c_deferred.inc(len(ops))
            on_settled()
            return
        settle = _countdown(len(ops), on_settled)
        self._send([_Pending(op, settle) for op in ops])

    def _send(self, pendings: List[_Pending]) -> None:
        """Hand *pendings* to the backend, one attempt more each, under
        fresh seqs (a late ack for an earlier one is then ignored)."""
        deadline = self.loop.clock.now() + self.ack_timeout
        ops = []
        for pending in pendings:
            op = pending.op
            self._seq += 1
            op.seq = self._seq
            pending.attempts += 1
            pending.deadline = deadline
            self._pending[op.seq] = pending
            ops.append(op)
        if len(self._pending) > self.peak_pending:
            self.peak_pending = len(self._pending)
        self.backend.apply(ops)
        self._schedule_sweep()

    # -- completions -----------------------------------------------------------
    def _on_completion(self, seq: int, ok: bool, reason: str) -> None:
        pending = self._pending.pop(seq, None)
        if pending is None:
            return  # late ack for an op we resubmitted or abandoned
        if ok:
            self._c_acks.value += 1     # in place: no call per acked op
        else:
            self._c_nacks.inc()
            if pending.attempts < self.max_attempts:
                # Capped exponential backoff, then retransmit the same op
                # (same payload, fresh seq).
                delay = min(self.retry_cap,
                            self.retry_base * (2 ** (pending.attempts - 1)))
                self._backoff.add(pending)
                self.loop.call_later(
                    delay, lambda: self._retry(pending), name="fib-retry")
                return
            # Give up; the shadow still holds the intent, so the next
            # reconciliation pass repairs the divergence.
            self._c_failed.inc()
        pending.settle()

    def _retry(self, pending: _Pending) -> None:
        if pending not in self._backoff:
            return  # settled by close()
        self._backoff.remove(pending)
        if self._stale:
            self._c_deferred.inc()
            pending.settle()
            return
        self._c_retries.inc()
        self._send([pending])

    # -- ack timeouts ------------------------------------------------------------
    def _schedule_sweep(self) -> None:
        if self._sweep_scheduled or not self._pending:
            return
        self._sweep_scheduled = True
        self.loop.call_later(self.ack_timeout / 2, self._sweep,
                             name="fib-ack-sweep")

    def _sweep(self) -> None:
        self._sweep_scheduled = False
        if self._stale:
            return
        now = self.loop.clock.now()
        expired = [p for p in self._pending.values() if p.deadline <= now]
        resubmit = []
        for pending in expired:
            del self._pending[pending.op.seq]
            if pending.attempts >= self.max_attempts:
                self._c_failed.inc()
                pending.settle()
                continue
            self._c_ack_timeouts.inc()
            resubmit.append(pending)
        if resubmit:
            self._c_retries.inc(len(resubmit))
            self._send(resubmit)
        else:
            self._schedule_sweep()

    # -- health / degradation ------------------------------------------------------
    def _on_health(self, healthy: bool) -> None:
        if not healthy:
            # Everything in flight died with the channel.  The shadow has
            # it all, so abandon the acks and let reconciliation repair.
            abandoned, self._pending = self._pending, {}
            self._c_deferred.inc(len(abandoned))
            self._stale = True
            for pending in abandoned.values():
                pending.settle()
            return
        self._stale = False
        self.reconcile()

    # -- reconciliation ---------------------------------------------------------
    def reconcile(self) -> Tuple[int, int]:
        """Diff ``backend.dump()`` against the shadow; replay the delta.

        Returns ``(adds, deletes)`` — the number of repair operations
        submitted.  Repairs flow through the normal retry/timeout path,
        so they too survive faults.
        """
        self._c_rec_runs.inc()
        ops: List[FibOp] = []
        dump = self.backend.dump
        for bits, fib in self.shadow.items():
            want = {entry for __, entry in fib.entries()}
            have = set(dump(bits))
            for entry in sorted(want - have, key=lambda e: str(e.net)):
                ops.append(FibOp(ADD, entry))
            for entry in sorted(have - want, key=lambda e: str(e.net)):
                ops.append(FibOp(DELETE, entry))
        adds = sum(1 for op in ops if op.op == ADD)
        deletes = len(ops) - adds
        self._c_rec_adds.inc(adds)
        self._c_rec_deletes.inc(deletes)
        self._submit(ops)
        return adds, deletes


class _NullCounter:
    """Stand-in until :meth:`BackendDriver.register_metrics` runs."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        pass
