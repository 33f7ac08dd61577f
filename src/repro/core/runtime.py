"""Child-process bootstrap for real OS multi-process deployment.

``python -m repro.bgp --finder 127.0.0.1:PORT ...`` (likewise
``repro.rib`` and ``repro.fea``) builds a :class:`ChildRuntime` — a
real-clock event loop, a :class:`~repro.core.process.Host` whose
transport set includes :class:`~repro.xrl.transport.tcp.TcpFamily` so
XRLs cross the OS-process boundary, and a
:class:`~repro.xrl.finder_client.RemoteFinder`, an XRL client of the
parent rtrmgr's Finder target over that same family — then instantiates
exactly the same process class the single-interpreter deployment uses.
The paper's point (§6.1): processes do not know or care which side of a
process boundary their peers live on.

Only the process-agnostic plumbing lives here; each module's argv
surface is its own ``__main__`` (``repro/bgp/__main__.py``; the RIB and
the FEA have none beyond :func:`run_child`), so this shared package
never imports process packages.
"""

from __future__ import annotations

import argparse
import signal
from typing import Optional, Tuple

from repro.core.process import Host
from repro.eventloop import EventLoop
from repro.eventloop.clock import SystemClock
from repro.xrl.finder_client import RemoteFinder
from repro.xrl.transport.tcp import TcpFamily


class ChildRuntime:
    """Event loop + remote Finder + TCP-capable Host for one child."""

    def __init__(self, finder_address: str, *, codec: Optional[str] = None):
        self.loop = EventLoop(SystemClock())
        self.tcp_family = TcpFamily(codec=codec)
        self.finder = RemoteFinder(finder_address, self.loop, self.tcp_family)
        self.host = Host(self.loop, finder=self.finder,
                         extra_families=[self.tcp_family])

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self.loop.stop()

    def run(self) -> None:
        try:
            self.loop.run()
        finally:
            self.host.shutdown()
            self.finder.close()


def base_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--finder", required=True, metavar="HOST:PORT",
                        help="where the rtrmgr's Finder target listens")
    parser.add_argument("--codec", default=None,
                        choices=("binary", "textual"),
                        help="XRL frame codec preference for TCP transport")
    return parser


def run_child(prog: str, process_class) -> None:
    """The whole ``__main__`` of a module with no argv of its own."""
    args = base_parser(prog).parse_args()
    runtime = ChildRuntime(args.finder, codec=args.codec)
    process_class(runtime.host)
    runtime.install_signal_handlers()
    runtime.run()


def parse_endpoint(spec: str) -> Tuple[str, Tuple[str, int]]:
    """``PEER=HOST:PORT`` for --bgp-connect."""
    peer, __, rest = spec.partition("=")
    host, __, port = rest.rpartition(":")
    if not peer or not host or not port:
        raise argparse.ArgumentTypeError(
            f"bad --bgp-connect {spec!r}; expected PEER=HOST:PORT")
    return peer, (host, int(port))
