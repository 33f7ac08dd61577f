"""XrlRouter: the per-component XRL dispatch point.

Every component (a routing protocol, the RIB, the FEA...) owns one
:class:`XrlRouter`.  Outbound, it resolves generic XRLs through the Finder
(with caching), picks the best mutually-supported protocol family, and
dispatches asynchronously.  Inbound, it verifies the Finder-issued access
key, checks argument signatures against the IDL, and calls the registered
handler.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.eventloop import EventLoop
from repro.xrl.args import XrlArgs
from repro.xrl.codec import TEXTUAL, FrameCodec
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.finder import Finder
from repro.xrl.idl import XrlInterface, XrlMethod
from repro.xrl.retry import RetryPolicy
from repro.xrl.transport.base import ProtocolFamily, Sender

#: callback signature for XRL completion: (error, return_args)
ResponseCallback = Callable[[XrlError, XrlArgs], None]

# Tokens must stay distinct across real OS processes too (multi-process
# deployment): the high bits carry the pid, the low bits the counter.
_token_counter = itertools.count((os.getpid() & 0xFFFFFFFF) << 20 | 1)


class DeferredReply:
    """Returned by a handler that will answer later (async dispatch).

    The handler keeps the object and eventually calls :meth:`reply` or
    :meth:`fail`; the transport-level response is sent at that moment.
    This is what makes XRL *intermediaries* possible — paper §7: "This
    would require an XRL intermediary, but the flexibility of our XRL
    resolution mechanism makes installing such an XRL proxy rather
    simple."  A handler may also complete the object before returning
    it (the answer was ready at once); it is then sent as it is bound.
    """

    __slots__ = ("_respond", "_method", "_seq", "_codec", "completed",
                 "_outcome")

    def __init__(self) -> None:
        self._respond: Optional[Callable[[bytes], None]] = None
        self._method = None
        self._seq = 0
        self._codec: FrameCodec = TEXTUAL
        self.completed = False
        self._outcome = None

    def _bind(self, respond: Callable[[bytes], None], seq: int,
              method, codec: FrameCodec = TEXTUAL) -> None:
        self._respond = respond
        self._method = method
        self._seq = seq
        self._codec = codec
        if self.completed:
            self._send()

    def reply(self, values=None) -> None:
        """Complete successfully with the method's return values."""
        self._complete(XrlError.okay(), values)

    def fail(self, error: XrlError) -> None:
        self._complete(error, None)

    def _complete(self, error: XrlError, values) -> None:
        if not self.completed:
            self.completed = True
            self._outcome = (error, values)
            if self._respond is not None:
                self._send()

    def _send(self) -> None:
        error, values = self._outcome
        returns = values if isinstance(values, XrlArgs) else XrlArgs()
        if error.is_okay and self._method is not None:
            try:
                if not isinstance(values, XrlArgs):
                    returns = self._method.build_returns(values)
                self._method.check_returns(returns)
            except XrlError as exc:
                error, returns = exc, XrlArgs()
        self._respond(self._codec.encode_response(self._seq, error, returns))


def new_process_token() -> int:
    """A fresh token identifying one conceptual OS process."""
    return next(_token_counter)


class _Resolution:
    """What the Finder said about one (target, method): the keyed method
    name to put on the wire and the endpoint to send it to.  Owns no
    connection — senders are held per endpoint, see ``XrlRouter._senders``.
    """

    __slots__ = ("resolved_method", "endpoint")

    def __init__(self, resolved_method: str, endpoint: Tuple[str, str]):
        self.resolved_method = resolved_method
        #: (family name, listener address)
        self.endpoint = endpoint


class _PendingCall:
    """One in-flight :meth:`XrlRouter.send`, across all of its attempts.

    The *attempt_token* identifies the newest dispatch: a reply carrying
    a stale token (the attempt was abandoned by a per-attempt timeout, a
    retry, or the overall deadline) is counted in
    :attr:`XrlRouter.late_replies` and dropped rather than delivered to a
    completed call.
    """

    __slots__ = ("xrl", "callback", "retry", "attempt", "attempt_token",
                 "failed", "deadline_timer", "attempt_timer", "retry_timer",
                 "done")

    def __init__(self, xrl, callback: ResponseCallback,
                 retry: Optional[RetryPolicy]):
        self.xrl = xrl
        self.callback = callback
        self.retry = retry
        self.attempt = 0
        self.attempt_token: Optional[object] = None
        #: endpoint -> its transport error, for those that failed within
        #: the current attempt (the re-resolution between may be awaited)
        self.failed: Optional[Dict[Tuple[str, str], XrlError]] = None
        self.deadline_timer = None
        self.attempt_timer = None
        self.retry_timer = None
        self.done = False

    def cancel_timers(self) -> None:
        for timer in (self.deadline_timer, self.attempt_timer,
                      self.retry_timer):
            if timer is not None:
                timer.cancel()
        self.deadline_timer = self.attempt_timer = self.retry_timer = None


class XrlRouter:
    """One component's sending and receiving endpoint."""

    #: the connection whose requests are being dispatched, when the
    #: transport has connections — for a handler whose state belongs to
    #: one (``finder/1.0``'s sessions)
    dispatch_channel: Optional[Any] = None

    def __init__(self, loop: EventLoop, class_name: str, finder: Finder, *,
                 instance_name: Optional[str] = None,
                 singleton: bool = False,
                 families: Optional[List[ProtocolFamily]] = None,
                 process_token: Optional[int] = None):
        self.loop = loop
        self.class_name = class_name
        self.finder = finder
        self.process_token = (
            process_token if process_token is not None else new_process_token()
        )
        self._families: Dict[str, ProtocolFamily] = {}
        self._addresses: Dict[str, str] = {}
        for family in families or []:
            if family.name in self._families:
                raise XrlError(
                    XrlErrorCode.INTERNAL_ERROR,
                    f"duplicate protocol family {family.name!r}",
                )
            self._families[family.name] = family
            self._addresses[family.name] = family.listen(self)
        self.instance_name, self._key, self._secret = finder.register_component(
            class_name,
            instance_name=instance_name,
            singleton=singleton,
            addresses=self._addresses,
        )
        self._handlers: Dict[str, Tuple[Optional[XrlMethod], Callable]] = {}
        #: (target, method path) -> resolution; forgotten on invalidation
        self._cache: Dict[Tuple[str, str], _Resolution] = {}
        #: endpoint -> the one sender carrying every call to it, in order;
        #: lives until its connection dies, a transmit fails, or shutdown
        self._senders: Dict[Tuple[str, str], Sender] = {}
        #: target -> the calls waiting for the Finder's answer about it, in
        #: send order; the first is the one whose method was asked about
        self._resolving: Dict[str, List[_PendingCall]] = {}
        self._seq = itertools.count(1)
        self._alive = True
        self._pending: set = set()
        #: calls dispatched with ``batch=True``, awaiting the turn's flush
        self._batch_pending: List[_PendingCall] = []
        self._batch_scheduled = False
        #: coalesced wire transmissions performed (one per sender per flush)
        self.batches_sent = 0
        #: replies that arrived after their call was cancelled or completed
        self.late_replies = 0
        #: attempts re-dispatched under a :class:`RetryPolicy`
        self.retries_performed = 0

    # -- handler registration ---------------------------------------------
    def register_method(self, interface: XrlInterface, method: XrlMethod,
                        handler: Callable) -> None:
        """Register a typed handler for one IDL method."""
        path = f"{interface.name}/{interface.version}/{method.name}"
        self._handlers[path] = (method, handler)
        self.finder.add_methods(self.instance_name, self._secret, [path])

    def register_raw_method(self, method_path: str,
                            handler: Callable[[XrlArgs], Any]) -> None:
        """Register an unchecked handler taking raw :class:`XrlArgs`."""
        self._handlers[method_path] = (None, handler)
        self.finder.add_methods(self.instance_name, self._secret, [method_path])

    def bind(self, interface: XrlInterface, impl: Any) -> None:
        """Bind every method of *interface* to *impl* (see IDL docs)."""
        interface.bind(self, impl)

    # -- sending -------------------------------------------------------------
    def send(self, xrl, callback: Optional[ResponseCallback] = None, *,
             deadline: Optional[float] = None,
             retry: Optional[RetryPolicy] = None,
             batch: bool = False) -> None:
        """Dispatch *xrl* asynchronously.

        *callback(error, args)* runs from the event loop when the response
        arrives (or resolution/transport fails).  Errors never raise into
        the caller — event-driven code deals with them in the callback.

        *deadline* (seconds, event-loop clock) bounds the whole call: when
        it expires the callback fires once with ``REPLY_TIMED_OUT`` and any
        later reply is counted in :attr:`late_replies` and dropped.

        *retry*, for idempotent methods only, re-dispatches the call with
        jittered backoff on retryable failures (see
        :class:`repro.xrl.retry.RetryPolicy`).

        *batch* is a coalescing hint for bursty streams (route updates):
        all ``batch=True`` sends issued within one event-loop turn that
        resolve to the same sender go to the wire as a single coalesced
        transmission (:meth:`Sender.call_batch`).  Semantics are unchanged
        — each call still completes individually, in order (a plain send
        issued behind them in the same turn joins their flush).
        """
        self._dispatch(xrl, callback, deadline=deadline, retry=retry,
                       batch=batch)

    def _dispatch(self, xrl, callback: Optional[ResponseCallback], *,
                  deadline: Optional[float], retry: Optional[RetryPolicy],
                  batch: bool) -> None:
        """The single internal entry point behind :meth:`send` and
        :meth:`send_sync`."""
        if callback is None:
            callback = _ignore_response
        if not self._alive:
            self.loop.call_soon(
                callback, XrlError(XrlErrorCode.SEND_FAILED, "router shut down"),
                XrlArgs(),
            )
            return
        call = _PendingCall(xrl, callback, retry)
        self._pending.add(call)
        if deadline is not None:
            call.deadline_timer = self.loop.call_later(
                deadline, lambda: self._deadline_expired(call),
                name="xrl-deadline")
        if batch or self._batch_pending:
            self._batch_pending.append(call)
            if not self._batch_scheduled:
                self._batch_scheduled = True
                self.loop.call_soon(self._flush_batch)
            return
        self._attempt(call, defer_errors=True)

    def _flush_batch(self) -> None:
        """End-of-turn flush: transmit each run of consecutive calls to one
        sender as one coalesced wire operation, runs in order."""
        self._batch_scheduled = False
        calls, self._batch_pending = self._batch_pending, []
        if not self._alive:
            return  # shutdown already failed every pending call
        runs: List[Tuple[Sender, Tuple[str, str], List[Tuple]]] = []
        for call in calls:
            if call.done:
                continue
            self._attempt(call, defer_errors=True, collect=runs)
        for sender, endpoint, items in runs:
            if len(items) > 1:
                self.batches_sent += 1
            try:
                sender.call_batch(
                    [(request, on_reply) for __, request, on_reply in items])
            except XrlError:
                # The shared sender broke before the run left the process:
                # every member falls back to the singular path, which
                # carries per-endpoint failover.
                self._drop_sender(endpoint, sender)
                for call, __, __cb in items:
                    self._retransmit_singular(call)
                continue
            for call, __, __cb in items:
                self._arm_attempt_timer(call)

    def _retransmit_singular(self, call: _PendingCall) -> None:
        """A coalesced transmit failed before leaving the process: forget
        the call's resolution and re-dispatch it through the singular path
        (the transmit never happened, so it does not count as an attempt).
        """
        if call.done:
            return
        self._cache.pop((call.xrl.target, call.xrl.method_path), None)
        call.attempt -= 1
        self._attempt(call, defer_errors=True)

    def _drop_sender(self, endpoint: Tuple[str, str], sender: Sender) -> None:
        """*sender* failed a transmit: close it, failing what it had on the
        wire; the next call to *endpoint*, by any method, connects afresh."""
        if self._senders.get(endpoint) is sender:
            del self._senders[endpoint]
        sender.close()

    def _arm_attempt_timer(self, call: _PendingCall) -> None:
        policy = call.retry
        if policy is not None and policy.attempt_timeout is not None:
            token = call.attempt_token
            call.attempt_timer = self.loop.call_later(
                policy.attempt_timeout,
                lambda: self._expire_attempt(call, token),
                name="xrl-attempt-timeout")

    def _attempt(self, call: _PendingCall, defer_errors: bool = False,
                 collect: Optional[List[Tuple]] = None) -> None:
        """Dispatch one attempt of *call* (resolve, connect, transmit).

        With *collect*, the encoded request joins the given list's last
        same-sender run instead of being transmitted — :meth:`_flush_batch`
        performs the actual (coalesced) transmission and arms the attempt
        timer afterwards.
        """
        xrl = call.xrl
        target = xrl.target
        if self._resolving and target in self._resolving:
            # Transmitting now, even on a cached resolution, would overtake
            # the calls waiting for the Finder's answer about this target.
            self._resolving[target].append(call)
            return
        call.attempt += 1
        token = object()
        call.attempt_token = token
        cache_key = (target, xrl.method_path)
        # The sender that carries the transmitted frame — frames are
        # opaque between the router and that sender (per-connection
        # codecs), so its decode_response must interpret the reply.
        sender: Optional[Sender] = None

        def on_reply(frame: Optional[bytes]) -> None:
            if call.done or call.attempt_token is not token:
                if frame is not None:
                    self.late_replies += 1
                return
            if call.attempt_timer is not None:
                call.attempt_timer.cancel()
                call.attempt_timer = None
            if frame is None:
                # The transport gave up: its connection closed under the
                # call, or (stop-and-wait UDP) no datagram came back.
                self._finish_attempt(call, XrlError(
                    XrlErrorCode.REPLY_TIMED_OUT if sender.alive
                    else XrlErrorCode.SEND_FAILED, str(xrl)))
                return
            try:
                __, error, args = sender.decode_response(frame)
            except XrlError as decode_error:
                self._complete(call, decode_error, XrlArgs())
                return
            self._complete(call, error, args)

        while True:
            resolution = self._cache.get(cache_key)
            if resolution is None:
                resolution = self._resolve(call, defer_errors)
                if resolution is None:
                    return  # refused, or parked until the Finder answers
            endpoint = resolution.endpoint
            sender = self._senders.get(endpoint)
            try:
                if sender is None or not sender.alive:
                    family_name, address = endpoint
                    sender = self._senders[endpoint] = (
                        self._families[family_name].connect(address, self))
                request = sender.encode_request(
                    next(self._seq), resolution.resolved_method, xrl.args)
                if collect is not None:
                    if not collect or collect[-1][0] is not sender:
                        collect.append((sender, endpoint, []))  # a new run
                    collect[-1][2].append((call, request, on_reply))
                    return  # flusher transmits and arms the attempt timer
                sender.call_batch(((request, on_reply),))
            except XrlError as error:
                # The endpoint is unusable: forget this resolution and the
                # broken sender, then retry the freshly-resolved
                # candidates, skipping endpoints that already failed
                # within this attempt.
                self._cache.pop(cache_key, None)
                if sender is not None:
                    self._drop_sender(endpoint, sender)
                if call.failed is None:
                    call.failed = {}
                call.failed[endpoint] = error
                continue
            break
        self._arm_attempt_timer(call)

    def _resolve(self, call: _PendingCall,
                 defer_errors: bool) -> Optional[_Resolution]:
        """Ask the Finder about *call*'s (target, method) — the one
        resolution path, wherever the Finder lives.

        An in-process Finder answers before ``resolve_async`` returns: so
        does this, with the resolution (cached), or None and the attempt
        finished by the refusal.  A remote one answers in a later turn:
        None now, and *call* heads ``_resolving[target]``, which every
        later call to the target joins (:meth:`_attempt`) and the answer
        replays in send order — what keeps "dispatched in send order per
        endpoint" true.  A waiting call's deadline still fires.
        """
        xrl = call.xrl
        target = xrl.target
        waiting = self._resolving[target] = [call]
        resolution: Optional[_Resolution] = None
        inline = True

        def answered(error: Optional[XrlError], found) -> None:
            nonlocal resolution
            if self._resolving.get(target) is not waiting:
                return  # the router shut down while the Finder was asked
            del self._resolving[target]
            if error is None:
                try:
                    resolution = self._cache[(target, xrl.method_path)] = (
                        self._usable(call, found))
                except XrlError as none_usable:
                    error = none_usable
            if error is not None:
                # A transport failure is more informative than the
                # resulting "no family left" resolution failure.
                if call.failed:
                    error = next(reversed(call.failed.values()))
                self._finish_attempt(call, error,
                                     defer=defer_errors and inline)
            if inline:
                return
            if resolution is None:
                del waiting[0]
            else:
                call.attempt -= 1  # resumed below, not attempted anew
            # Whatever is pending was sent after these: they go first.
            self._batch_pending[:0] = waiting
            self._flush_batch()

        self.finder.resolve_async(self, target, xrl.method_path, answered)
        inline = False
        return resolution

    def _expire_attempt(self, call: _PendingCall, token: object) -> None:
        if call.done or call.attempt_token is not token:
            return
        call.attempt_timer = None
        self._finish_attempt(call, XrlError(
            XrlErrorCode.REPLY_TIMED_OUT,
            f"attempt {call.attempt}: {call.xrl}"))

    def _finish_attempt(self, call: _PendingCall, error: XrlError,
                        defer: bool = False) -> None:
        """An attempt failed: retry under the call's policy or complete."""
        policy = call.retry
        if (policy is not None and not call.done
                and policy.retryable(error.code)
                and call.attempt < policy.max_attempts):
            call.attempt_token = None  # late replies for this attempt drop
            call.failed = None  # the next attempt may try every endpoint
            self.retries_performed += 1
            call.retry_timer = self.loop.call_later(
                policy.delay(call.attempt),
                lambda: self._retry_fire(call), name="xrl-retry")
            return
        self._complete(call, error, XrlArgs(), defer=defer)

    def _retry_fire(self, call: _PendingCall) -> None:
        call.retry_timer = None
        if call.done or not self._alive:
            return
        self._attempt(call)

    def _deadline_expired(self, call: _PendingCall) -> None:
        if call.done:
            return
        call.deadline_timer = None
        call.attempt_token = None
        self._complete(call, XrlError(XrlErrorCode.REPLY_TIMED_OUT,
                                      str(call.xrl)), XrlArgs())

    def _complete(self, call: _PendingCall, error: XrlError, args: XrlArgs,
                  defer: bool = False) -> None:
        if call.done:
            return
        call.done = True
        call.cancel_timers()
        self._pending.discard(call)
        if defer:
            self.loop.call_soon(call.callback, error, args)
        else:
            call.callback(error, args)

    def _usable(self, call: _PendingCall, found) -> _Resolution:
        """The best candidate of the Finder's answer *found* that this
        router has a family for and that has not failed *call* already."""
        resolved_method, candidates, __ = found
        failed = call.failed
        usable: List[Tuple[int, str, str]] = []
        for family_name, address in candidates:
            family = self._families.get(family_name)
            if family is None:
                continue
            if failed and (family_name, address) in failed:
                continue
            reachable = getattr(family, "reachable", None)
            if reachable is not None and not reachable(address, self):
                continue
            usable.append((family.preference, family_name, address))
        if not usable:
            raise XrlError(
                XrlErrorCode.SEND_FAILED,
                "no mutually supported protocol family for target "
                f"{call.xrl.target!r}",
            )
        usable.sort(reverse=True)
        __, family_name, address = usable[0]
        return _Resolution(resolved_method, (family_name, address))

    def send_sync(self, xrl, *,
                  deadline: Optional[float] = None,
                  retry: Optional[RetryPolicy] = None,
                  batch: bool = False) -> Tuple[XrlError, XrlArgs]:
        """Convenience: dispatch and run the loop until the reply arrives.

        For scripts and tests; event-driven code uses :meth:`send`.  The
        keyword-only surface matches :meth:`send` exactly (*deadline*,
        *retry*, *batch*).  The deadline is a true cancellation deadline:
        on expiry the pending callback is retired, so a late reply is
        counted in :attr:`late_replies` and dropped instead of landing in
        a dead box.
        """
        if deadline is None:
            deadline = 30.0
        box: List[Tuple[XrlError, XrlArgs]] = []
        # Through self.send (not _dispatch) so instrumentation wrapping
        # send — the obs tracer — observes synchronous calls too.
        self.send(xrl, lambda error, args: box.append((error, args)),
                  deadline=deadline, retry=retry, batch=batch)
        self.loop.run_until(lambda: bool(box), timeout=deadline + 1.0)
        if not box:
            return XrlError(XrlErrorCode.REPLY_TIMED_OUT, str(xrl)), XrlArgs()
        return box[0]

    def finder_cache_invalidate(self, target: str) -> None:
        """Forget cached resolutions involving *target* (Finder callback).

        Fires on birth as well as death, so after a supervised restart the
        next call resolves the reborn instance fresh instead of addressing
        the dead one.  Connections are untouched: calls already on the
        wire to a still-live instance complete, and a sender to a dead one
        ends with its socket.
        """
        for cache_key in [k for k in self._cache if k[0] == target]:
            del self._cache[cache_key]
        for endpoint in [e for e, s in self._senders.items() if not s.alive]:
            del self._senders[endpoint]

    # -- receiving ------------------------------------------------------------
    def dispatch_frame_async(self, frame: bytes,
                             respond: Callable[[bytes], None], *,
                             codec: FrameCodec = TEXTUAL) -> None:
        """Handle one encoded request; deliver the response via *respond*.

        *codec* decodes the request body and encodes the response body —
        codec-negotiating transports pass their per-connection codec, so
        the reply always travels in the codec its request arrived in.

        Handlers normally answer synchronously; a handler may instead
        return a :class:`DeferredReply` and complete it later (the XRL
        proxy / intermediary pattern, paper §7).
        """
        try:
            seq, resolved_method, args = codec.decode_request(frame)
        except XrlError as error:
            respond(codec.encode_response(0, error, XrlArgs()))
            return
        self.dispatch_request(seq, resolved_method, args, respond,
                              codec=codec)

    def dispatch_request(self, seq: int, resolved_method: str, args: XrlArgs,
                         respond: Callable[[bytes], None], *,
                         codec: FrameCodec = TEXTUAL) -> None:
        """Decoded-request dispatch: key check, IDL check, handler call.

        Split from :meth:`dispatch_frame_async` so instrumentation (the
        causal tracer) can observe and rewrite the decoded arguments
        without re-encoding the frame through a stateful codec.
        """
        encode_response = codec.encode_response
        key, __, method_path = resolved_method.partition("/")
        if key != self._key:
            respond(encode_response(
                seq,
                XrlError(XrlErrorCode.BAD_KEY,
                         "method key does not match registration"),
                XrlArgs(),
            ))
            return
        handler_entry = self._handlers.get(method_path)
        if handler_entry is None:
            respond(encode_response(
                seq,
                XrlError(XrlErrorCode.NO_SUCH_METHOD, method_path),
                XrlArgs(),
            ))
            return
        method, handler = handler_entry
        try:
            if method is not None:
                method.check_args(args)
                kwargs = {name: args.atom(name).value for name, __ in method.params}
                result = handler(**kwargs)
                if isinstance(result, DeferredReply):
                    result._bind(respond, seq, method, codec)
                    return
                returns = (
                    result if isinstance(result, XrlArgs)
                    else method.build_returns(result)
                )
                method.check_returns(returns)
            else:
                result = handler(args)
                if isinstance(result, DeferredReply):
                    result._bind(respond, seq, None, codec)
                    return
                if isinstance(result, XrlArgs):
                    returns = result
                elif result is None:
                    returns = XrlArgs()
                else:
                    raise XrlError(
                        XrlErrorCode.INTERNAL_ERROR,
                        "raw handler must return XrlArgs or None",
                    )
        except XrlError as error:
            respond(encode_response(seq, error, XrlArgs()))
            return
        except Exception as exc:  # noqa: BLE001 - handler bugs become errors
            respond(encode_response(
                seq,
                XrlError(XrlErrorCode.COMMAND_FAILED,
                         f"{type(exc).__name__}: {exc}"),
                XrlArgs(),
            ))
            return
        respond(encode_response(seq, XrlError.okay(), returns))

    def dispatch_frame(self, frame: bytes) -> bytes:
        """Synchronous dispatch convenience (tests, sync-only callers).

        Raises if the handler deferred its reply — use
        :meth:`dispatch_frame_async` wherever deferral is possible.
        """
        box: List[bytes] = []
        self.dispatch_frame_async(frame, box.append)
        if not box:
            raise RuntimeError(
                "handler deferred its reply; use dispatch_frame_async"
            )
        return box[0]

    # -- lifecycle -------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def listen_address(self, family_name: str) -> Optional[str]:
        """Where this router listens in *family_name*, if it has it."""
        return self._addresses.get(family_name)

    def shutdown(self) -> None:
        """Deregister from the Finder and release all transports."""
        if not self._alive:
            return
        self._alive = False
        # Outstanding calls can never complete now: fail them promptly so
        # callers (transmit queues, supervisors) observe the shutdown
        # instead of hanging until their deadlines.
        for call in list(self._pending):
            self._complete(call, XrlError(XrlErrorCode.SEND_FAILED,
                                          "router shut down"),
                           XrlArgs(), defer=True)
        self._batch_pending.clear()
        self._resolving.clear()
        self._cache.clear()
        for sender in self._senders.values():
            sender.close()
        self._senders.clear()
        for family_name, address in self._addresses.items():
            self._families[family_name].unlisten(address)
        self.finder.deregister_component(self.instance_name, self._secret)

    def __repr__(self) -> str:
        return f"<XrlRouter {self.instance_name}>"


def _ignore_response(error: XrlError, args: XrlArgs) -> None:
    """Default completion callback: drop the result."""
