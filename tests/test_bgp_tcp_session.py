"""BGP's TcpSession over loopback TCP, both ends on one event loop.

A dialled and an accepted session each report ``on_connected`` once;
bytes a session could not write at once go out, intact and in order,
when the peer starts reading; a refused dial and a peer's EOF each call
``on_closed`` once, and our own ``close()`` calls nothing.
"""

import socket

import pytest

from repro.bgp.session import TcpSession, TcpSessionListener
from repro.eventloop import EventLoop, SystemClock


class Recorder:
    """Counts a session's callbacks and keeps the bytes it received."""

    def __init__(self, session):
        self.session = session
        self.connected = 0
        self.closed = 0
        self.data = bytearray()
        session.on_connected = self._connected
        session.on_closed = self._closed
        session.on_data = self.data.extend

    def _connected(self):
        self.connected += 1

    def _closed(self):
        self.closed += 1


@pytest.fixture
def loop():
    return EventLoop(SystemClock())


@pytest.fixture
def pair(loop):
    """A dialled session and the session its listener accepted."""
    accepted = []
    listener = TcpSessionListener(
        loop, lambda session: accepted.append(Recorder(session)))
    dialled = Recorder(TcpSession(loop, remote=("127.0.0.1", listener.port)))
    dialled.session.connect()
    try:
        assert loop.run_until(
            lambda: accepted and accepted[0].connected and dialled.connected,
            timeout=5.0)
        yield dialled, accepted[0]
    finally:
        dialled.session.close()
        for recorder in accepted:
            recorder.session.close()
        listener.close()


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_dial_and_accept_each_connect_once(loop, pair):
    dialled, accepted = pair
    loop.run(duration=0.05)
    assert (dialled.connected, accepted.connected) == (1, 1)
    assert dialled.session.connected and accepted.session.connected
    assert (dialled.closed, accepted.closed) == (0, 0)
    dialled.session.send(b"open")
    accepted.session.send(b"keepalive")
    assert loop.run_until(lambda: dialled.data and accepted.data, timeout=5.0)
    assert (bytes(dialled.data), bytes(accepted.data)) == (b"keepalive",
                                                           b"open")


def test_four_mib_reach_a_peer_that_reads_late(loop):
    payload = bytes(range(256)) * (4 * 1024 * 1024 // 256)
    server = socket.create_server(("127.0.0.1", 0))
    sender = Recorder(TcpSession(loop, remote=server.getsockname()))
    receiver = None
    try:
        sender.session.connect()
        conn, __ = server.accept()  # not read yet: the buffers fill
        assert loop.run_until(lambda: sender.connected, timeout=5.0)
        for offset in range(0, len(payload), 4096):  # one UPDATE-sized
            sender.session.send(payload[offset:offset + 4096])
        loop.run(duration=0.1)
        receiver = Recorder(TcpSession(loop, sock=conn))
        assert loop.run_until(lambda: len(receiver.data) >= len(payload),
                              timeout=20.0)
        assert bytes(receiver.data) == payload
        assert sender.closed == 0 and receiver.closed == 0
    finally:
        sender.session.close()
        if receiver is not None:
            receiver.session.close()
        else:
            conn.close()
        server.close()


def test_a_refused_dial_closes_once(loop):
    refused = Recorder(TcpSession(loop, remote=("127.0.0.1", free_port())))
    refused.session.connect()
    assert loop.run_until(lambda: refused.closed, timeout=5.0)
    loop.run(duration=0.05)
    assert (refused.connected, refused.closed) == (0, 1)
    assert not refused.session.connected


def test_peer_eof_closes_but_our_own_close_does_not(loop, pair):
    dialled, accepted = pair
    accepted.session.close()
    assert loop.run_until(lambda: dialled.closed, timeout=5.0)
    loop.run(duration=0.05)
    assert (dialled.closed, accepted.closed) == (1, 0)
    assert not dialled.session.connected
    assert not accepted.session.connected
