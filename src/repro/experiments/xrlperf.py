"""Figure 9: XRL throughput versus argument count.

    "To measure the XRL rate, we send a transaction of 10000 XRLs using a
    pipeline size of 100 XRLs.  Initially, the sender sends 100 XRLs
    back-to-back, and then for every XRL response received it sends a new
    request. ... We evaluate three communication transport mechanisms:
    TCP, UDP and Intra-Process direct calling ..."

UDP deliberately does not pipeline (the family enforces stop-and-wait),
reproducing the paper's illustration of what pipelining buys.

Every family's router pair is built and warmed before any point is
timed, and the families take turns at each point, so a slow spell of the
host spoils one sample of each rather than every sample of one.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

from repro.eventloop import EventLoop, SystemClock
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter
from repro.xrl.transport import IntraProcessFamily, TcpFamily, UdpFamily


class XrlPerfResult:
    """XRLs/sec per (family, argument count), with repetitions."""

    def __init__(self) -> None:
        self.rates: Dict[str, Dict[int, List[float]]] = {}

    def record(self, family: str, arg_count: int, rate: float) -> None:
        self.rates.setdefault(family, {}).setdefault(arg_count, []).append(rate)

    def mean(self, family: str, arg_count: int) -> float:
        return statistics.mean(self.rates[family][arg_count])

    def best(self, family: str, arg_count: int) -> float:
        """The fastest repetition: what the family can do when the host
        lets it, the reading least disturbed by anything else."""
        return max(self.rates[family][arg_count])

    def table(self) -> str:
        """Render the Figure 9 series as text (best of the repetitions)."""
        lines = ["XRL performance for various communication families",
                 f"{'args':>5} " + " ".join(
                     f"{family:>14}" for family in sorted(self.rates))]
        arg_counts = sorted({a for fam in self.rates.values() for a in fam})
        for arg_count in arg_counts:
            row = [f"{arg_count:>5}"]
            for family in sorted(self.rates):
                row.append(f"{self.best(family, arg_count):>10.0f} /s")
            lines.append(" ".join(row))
        return "\n".join(lines)


def _measure_transaction(loop: EventLoop, client: XrlRouter, target: str,
                         arg_count: int, transaction_size: int,
                         window: int) -> float:
    """One transaction; returns XRLs/sec (wall clock)."""
    args = XrlArgs()
    for index in range(arg_count):
        args.add_u32(f"a{index}", index)
    xrl = Xrl(target, "bench", "1.0", "noargs", args)
    completed = [0]
    sent = [0]

    def pump() -> None:
        while sent[0] < transaction_size and sent[0] - completed[0] < window:
            sent[0] += 1
            client.send(xrl, on_reply)

    def on_reply(error, response) -> None:
        completed[0] += 1
        pump()

    # repro: allow[DET001] throughput benchmark: real elapsed wall time IS the measurement
    start = time.perf_counter()
    pump()
    finished = loop.run_until(lambda: completed[0] >= transaction_size,
                              timeout=120.0)
    elapsed = time.perf_counter() - start  # repro: allow[DET001] benchmark timing
    if not finished:
        raise RuntimeError(
            f"XRL transaction did not finish: {completed[0]}/{transaction_size}"
        )
    return transaction_size / elapsed


def _build_pair(family_name: str):
    """A server and a client router on their own loop, over one family."""
    loop = EventLoop(SystemClock())
    finder = Finder()
    if family_name == "intra":
        family = IntraProcessFamily()
        token: Optional[int] = 77  # sender and receiver share a process
    elif family_name == "local":
        # Two processes on the same host (paper §8.1 footnote 1:
        # "very slightly worse" than intra-process).
        from repro.xrl.transport.local import HostLocalFamily

        family = HostLocalFamily()
        token = None
    elif family_name == "tcp":
        family = TcpFamily()
        token = None
    elif family_name == "udp":
        family = UdpFamily()
        token = None
    else:
        raise ValueError(f"unknown family {family_name!r}")
    server = XrlRouter(loop, "bench", finder, families=[family],
                       process_token=token)
    # Raw registration: accept any arguments, return nothing.
    server.register_raw_method("bench/1.0/noargs", lambda args: None)
    client = XrlRouter(loop, "caller", finder, families=[family],
                       process_token=token)
    return loop, server, client


def run_xrl_throughput(arg_counts: Optional[List[int]] = None, *,
                       transaction_size: int = 10000,
                       window: int = 100,
                       repetitions: int = 1,
                       families: Optional[List[str]] = None
                       ) -> XrlPerfResult:
    """Run the Figure 9 experiment; returns the rate table.

    The receiving target ignores its arguments (the paper measures
    marshal + transport + dispatch, not handler work), so one ``noargs``
    method accepts any argument list via a raw registration.  Each pair
    runs one untimed transaction first; then, per argument count and
    repetition, every family runs one timed transaction in turn.
    """
    if arg_counts is None:
        arg_counts = [0, 5, 10, 15, 20, 25]
    if families is None:
        families = ["intra", "tcp", "udp"]
    pairs = {}
    result = XrlPerfResult()
    try:
        for name in families:
            pairs[name] = _build_pair(name)
        # The UDP family serialises on the wire itself; for it the window
        # only bounds how many requests queue inside the sender.
        for loop, __, client in pairs.values():
            _measure_transaction(loop, client, "bench", arg_counts[0],
                                 transaction_size, window)
        for arg_count in arg_counts:
            for __ in range(repetitions):
                for name, (loop, __, client) in pairs.items():
                    result.record(name, arg_count, _measure_transaction(
                        loop, client, "bench", arg_count, transaction_size,
                        window))
    finally:
        for __, server, client in pairs.values():
            client.shutdown()
            server.shutdown()
    return result
