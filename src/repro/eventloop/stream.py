"""Non-blocking TCP on the event loop: the one socket state machine,
under the XRL TCP family's ``FramedChannel`` and BGP's ``TcpSession``,
the one accept loop (:class:`StreamListener`) and the one reassembler
of length-prefixed frames (:class:`FrameReassembler`).
"""

from __future__ import annotations

import contextlib
import errno
import socket
from typing import Callable, List, Optional, Tuple

#: What one ``recv`` takes.
CHUNK_BYTES = 64 * 1024

#: Unsent bytes past which a serving channel stops reading its peer.
MAX_UNSENT_BYTES = 1024 * 1024


class FrameReassembler:
    """Cuts length-prefixed frames off a byte stream, across chunks.

    Every frame opens with a *header* of fixed size.  *frame_length*
    reads the whole frame's length, header included, from the buffered
    bytes once a header is there — and raises the caller's own
    ``ValueError`` for a length it refuses, which drops everything
    buffered.  *strip_header* returns each frame's body only.
    """

    __slots__ = ("_data", "_header", "_frame_length", "_start")

    def __init__(self, header: int,
                 frame_length: Callable[[bytearray], int], *,
                 strip_header: bool = False):
        self._data = bytearray()
        self._header = header
        self._frame_length = frame_length
        self._start = header if strip_header else 0

    def feed(self, chunk: bytes) -> List[bytes]:
        """Absorb *chunk*; return the frames it completed, in order."""
        data = self._data
        data += chunk
        header, start = self._header, self._start
        frames = []
        while len(data) >= header:
            try:
                length = self._frame_length(data)
            except ValueError:
                data.clear()  # the stream is unusable: retain nothing
                raise
            if len(data) < length:
                break
            frames.append(bytes(data[start:length]))
            del data[:length]
        return frames


class StreamChannel:
    """One non-blocking TCP connection, accepted or dialled: its reader
    and writer, an output buffer written from an offset, the slow-reader
    pause and the close.  Subclasses implement ``_on_chunk(bytes)``, once
    per ``recv``, may implement the ``_on_*`` hooks and set ``_stats``,
    whose ``writes`` counts ``send()`` calls."""

    #: A serving channel stops reading while more than
    #: :data:`MAX_UNSENT_BYTES` of what it wrote wait for the peer.
    serving = True

    def __init__(self, loop, sock: Optional[socket.socket] = None):
        self._loop = loop
        self._sock: Optional[socket.socket] = None
        self._out = bytearray()
        #: bytes of ``_out`` already written to the socket
        self._sent = 0
        self._reading = False
        self._writing = False
        if sock is not None:
            self._attach(sock)

    @property
    def alive(self) -> bool:
        return self._sock is not None

    def _attach(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        with contextlib.suppress(OSError):  # a reset peer: the read tells
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._reading = True
        self._loop.add_reader(sock, self._on_readable)

    def _dial(self, address: Tuple[str, int]) -> None:
        """Connect without blocking: the subclass's ``_on_connected`` once
        the peer answers, :meth:`_on_closed` if it refuses."""
        sock = self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        if sock.connect_ex(address) not in (0, errno.EINPROGRESS):
            self._loop.call_soon(self._drop)
            return
        self._writing = True
        self._loop.add_writer(sock, self._on_dialled)

    def _on_dialled(self) -> None:
        sock = self._sock
        if sock is None:
            return  # closed earlier in this select batch
        self._writing = False
        self._loop.remove_writer(sock)
        if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
            self._drop()
        else:
            self._attach(sock)
            self._on_connected()

    def _on_resumed(self) -> None:
        """A paused serving channel reads again."""

    def _on_closed(self) -> None:
        """The connection is gone (EOF, error, bad input or close())."""

    def _on_readable(self) -> None:
        sock = self._sock
        if sock is None:
            return  # closed earlier in this select batch
        try:
            chunk = sock.recv(CHUNK_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if chunk:
            self._on_chunk(chunk)
        else:
            self._drop()

    def _flush(self) -> None:
        sock = self._sock
        if sock is None:
            return  # closed earlier in this select batch
        out = self._out
        stats = self._stats
        while self._sent < len(out):
            try:
                if self._sent:  # resume mid-buffer without copying the rest
                    with memoryview(out) as view, view[self._sent:] as unsent:
                        self._sent += sock.send(unsent)
                else:
                    self._sent = sock.send(out)
                stats.writes += 1
            except BlockingIOError:
                if not self._writing:
                    self._writing = True
                    self._loop.add_writer(sock, self._flush)
                if (self.serving and self._reading
                        and len(out) - self._sent > MAX_UNSENT_BYTES):
                    self._reading = False
                    self._loop.remove_reader(sock)
                return
            except OSError:
                self._drop()
                return
        out.clear()
        self._sent = 0
        if self._writing:
            self._writing = False
            self._loop.remove_writer(sock)
        if not self._reading:
            self._reading = True
            self._loop.add_reader(sock, self._on_readable)
            self._on_resumed()

    def _release(self) -> bool:
        """Close the socket, unsent bytes and all; False if there was none."""
        sock = self._sock
        if sock is None:
            return False
        self._sock = None
        if self._reading:
            self._reading = False
            self._loop.remove_reader(sock)
        if self._writing:
            self._writing = False
            self._loop.remove_writer(sock)
        self._out.clear()
        self._sent = 0
        sock.close()
        return True

    def _drop(self) -> None:
        """The connection ended: release it, then :meth:`_on_closed`."""
        if self._release():
            self._on_closed()

    close = _drop


class StreamListener:
    """A listening TCP socket that hands each connection it accepts to
    *accepted*."""

    def __init__(self, loop, host: str, port: int,
                 accepted: Callable[[socket.socket], None]):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.setblocking(False)
        self._loop = loop
        self._sock: Optional[socket.socket] = sock
        self._accepted = accepted
        self.host, self.port = sock.getsockname()
        loop.add_reader(sock, self._on_acceptable)

    def _on_acceptable(self) -> None:
        while self._sock is not None:
            try:
                conn, __ = self._sock.accept()
            except OSError:  # BlockingIOError: none left to accept
                return
            self._accepted(conn)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.remove_reader(sock)
            sock.close()
