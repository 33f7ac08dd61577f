"""The XRL TCP channel writes once per received chunk (paper §6.3).

While a ``FramedChannel`` delivers a chunk of several frames, what its
handlers send on it — replies, and the requests a reply callback
pipelines behind them — goes out in one ``send()`` when the chunk is
done.  Writes made outside a
delivery still leave at once, and a loop entered from inside one writes
first.  The slow-reader bound is held by
``test_robustness.py::test_peer_that_never_reads_replies_stops_being_served``.
"""

import socket
import time

import pytest

from repro.core.process import Host, XorpProcess
from repro.eventloop import EventLoop, SimulatedClock, SystemClock
from repro.xrl import Finder, Xrl, XrlArgs, XrlError, XrlRouter
from repro.xrl.error import XrlErrorCode
from repro.xrl.router import DeferredReply
from repro.xrl.transport import TcpFamily

WINDOW = 100
CALLS = 1_000


def _pair():
    loop = EventLoop(SystemClock())
    finder = Finder()
    family = TcpFamily()
    server = XrlRouter(loop, "bench", finder, families=[family])
    server.register_raw_method("bench/1.0/noargs", lambda args: None)
    client = XrlRouter(loop, "caller", finder, families=[family])
    return loop, family, server, client


def _ten_args() -> XrlArgs:
    args = XrlArgs()
    for index in range(10):
        args.add_u32(f"a{index}", index)
    return args


def _noargs(args=None) -> Xrl:
    return Xrl("bench", "bench", "1.0", "noargs",
               args if args is not None else XrlArgs())


def test_pipelined_transaction_writes_once_per_received_chunk(monkeypatch):
    """Window 100, 1 000 ten-``u32`` XRLs, one loop: each side writes
    once per chunk it reads, not once per frame (2 000 writes)."""
    loop, family, __, client = _pair()
    error, __ = client.send_sync(_noargs(), deadline=5)  # connect + HELLO
    assert error.is_okay, error
    xrl = _noargs(_ten_args())
    state = {"sent": 0, "done": 0, "failed": 0}

    def pump():
        while state["sent"] < CALLS and state["sent"] - state["done"] < WINDOW:
            state["sent"] += 1
            client.send(xrl, on_reply)

    def on_reply(error, args):
        state["done"] += 1
        state["failed"] += not error.is_okay
        pump()

    sends = []
    send = socket.socket.send

    def counted(sock, data, *flags):
        sends.append(len(data))
        return send(sock, data, *flags)

    writes, frames = family.writes, family.frames_out
    with monkeypatch.context() as patch:
        patch.setattr(socket.socket, "send", counted)
        pump()
        assert loop.run_until(lambda: state["done"] == CALLS, timeout=30)

    assert state["failed"] == 0
    assert len(sends) <= 2 * CALLS // 10, len(sends)
    assert family.frames_out - frames == 2 * CALLS
    assert family.writes - writes == len(sends)


@pytest.mark.parametrize("nested_loop", ["send_sync", "poll_io"])
def test_a_loop_nested_in_a_delivery_writes_the_corked_request_first(
        nested_loop):
    """Two calls on the wire before the server reads: their replies share
    one write and so one chunk.  The first reply's callback corks its
    request behind the second reply; the nested loop writes it on its
    first turn instead of waiting out the deadline for an answer to a
    request never sent.  ``poll_io`` is how a launcher serves the Finder
    while it waits."""
    loop, __, __, client = _pair()
    outcome = []

    def call_and_spin() -> XrlError:
        box = []
        client.send(_noargs(), lambda error, args: box.append(error))
        give_up = time.monotonic() + 2.0
        while not box and time.monotonic() < give_up:
            loop.poll_io(0.05)
        return box[0] if box else XrlError(XrlErrorCode.REPLY_TIMED_OUT)

    def on_reply(error, args):
        assert error.is_okay, error
        started = time.monotonic()
        if nested_loop == "send_sync":
            nested, __ = client.send_sync(_noargs(), deadline=2.0)
        else:
            nested = call_and_spin()
        outcome.append((nested, time.monotonic() - started))

    client.send(_noargs(), on_reply)
    client.send(_noargs())
    assert loop.run_until(lambda: bool(outcome), timeout=10)
    (nested, elapsed), = outcome
    assert nested.is_okay, nested
    assert elapsed < 0.1, elapsed
    assert len(client._senders) == 1  # every call rode one connection


def test_deferred_reply_completed_from_a_timer_is_written_in_that_turn():
    loop, family, server, client = _pair()
    deferred = []
    written = []

    def later(args):
        deferred.append(DeferredReply())
        return deferred[-1]

    server.register_raw_method("bench/1.0/later", later)

    def complete():
        before = family.writes
        deferred[0].reply()
        written.append(family.writes - before)

    replies = []
    client.send(Xrl("bench", "bench", "1.0", "later"),
                lambda error, args: replies.append(error))
    assert loop.run_until(lambda: bool(deferred), timeout=5)
    loop.call_later(0.01, complete)
    assert loop.run_until(lambda: bool(replies), timeout=5)
    assert written == [1]
    assert replies[0].is_okay, replies[0]


def test_every_process_exports_tcp_writes_and_frames():
    family = TcpFamily()
    host = Host(EventLoop(SimulatedClock()), extra_families=[family])
    process = XorpProcess(host, "proc")
    bare = XorpProcess(Host(), "bare")
    try:
        family.writes, family.frames_out = 3, 40
        assert process.metrics.get("proc.xrl.tcp.writes").read() == 3
        assert process.metrics.get("proc.xrl.tcp.frames_out").read() == 40
        assert bare.metrics.get("bare.xrl.tcp.writes").read() == 0
    finally:
        host.shutdown()
        bare.host.shutdown()
