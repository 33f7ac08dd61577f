"""Batch-size sweeps for the two hot paths, plus the perf trajectory.

ISSUE 4 makes batches the native unit of (1) the staged route tables and
(2) the XRL layer.  This module measures what that buys, sweeping batch
size over the values future PRs will regress against (1, 16, 256):

* :func:`run_xrl_batch_sweep` — the Figure 9 transaction re-run with the
  sender issuing coalesced groups (``XrlRouter.send(batch=True)``), per
  transport family;
* :func:`run_route_batch_sweep` — the Figure 13 hot path as a throughput
  measurement: routes injected at a RIB origin table, through the staged
  pipeline (ExtInt -> redist -> register -> FEA distributor) and over
  pipelined XRLs into the FEA's FIB, then withdrawn again.  Batch size 1
  uses the singular ``originate``/``withdraw`` entry points; larger sizes
  use ``originate_batch``/``withdraw_batch``, so the sweep contrasts the
  per-call API with the vectorized one end to end;
* :func:`record_trajectory` — append-or-update one entry of the
  ``BENCH_fig09.json`` / ``BENCH_fig13.json`` trajectory artifacts the
  benchmark CI job publishes.

Wall-clock reads below are the measurement itself, as in
:mod:`repro.experiments.xrlperf`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.process import Host
from repro.eventloop import EventLoop, SystemClock
from repro.experiments.xrlperf import run_xrl_throughput
from repro.net import IPNet, IPv4
from repro.rib.route import RibRoute

#: the canonical sweep: singular baseline, a peering-burst-sized batch,
#: and a full-table-resync-sized batch
BATCH_SIZES = (1, 16, 256)


def run_xrl_batch_sweep(batch_sizes: Sequence[int] = BATCH_SIZES, *,
                        transaction_size: int = 5000,
                        window: int = 512,
                        families: Optional[List[str]] = None,
                        arg_count: int = 0) -> Dict[str, Dict[int, float]]:
    """Figure 9 with coalescing: XRLs/sec per (family, batch size).

    The window is held constant across batch sizes (and sized above the
    largest batch) so the sweep isolates coalescing from pipelining
    depth: batch size 1 is the original fully pipelined singular sender.
    """
    if families is None:
        families = ["intra", "tcp"]
    rates: Dict[str, Dict[int, float]] = {family: {} for family in families}
    for size in batch_sizes:
        result = run_xrl_throughput(
            [arg_count], transaction_size=transaction_size,
            window=max(window, size), families=list(families),
            batch_size=size)
        for family in families:
            rates[family][size] = result.mean(family, arg_count)
    return rates


def run_codec_sweep(batch_sizes: Sequence[int] = BATCH_SIZES, *,
                    transaction_size: int = 5000,
                    window: int = 512,
                    arg_count: int = 10) -> Dict[str, Dict[int, float]]:
    """Figure 9, textual vs. negotiated binary frames over TCP.

    Same transaction and window discipline as the batch sweep, but the
    swept variable is the frame codec: ``tcp-textual`` pins the family to
    the canonical frames, ``tcp-binary`` negotiates the interned binary
    form.  The argument count is held at a typical routing-XRL size so
    the sweep exercises atom marshaling, not just the method token.
    """
    rates: Dict[str, Dict[int, float]] = {}
    for codec in ("textual", "binary"):
        table: Dict[int, float] = {}
        for size in batch_sizes:
            result = run_xrl_throughput(
                [arg_count], transaction_size=transaction_size,
                window=max(window, size), families=["tcp"],
                batch_size=size, codec=codec)
            table[size] = result.mean("tcp", arg_count)
        rates[f"tcp-{codec}"] = table
    return rates


def _sweep_routes(count: int) -> List[RibRoute]:
    """Distinct /24s under 10.0.0.0/8 with a common resolvable nexthop."""
    routes = []
    for index in range(count):
        net = IPNet(IPv4(0x0A000000 + (index << 8)), 24)
        routes.append(RibRoute(net, IPv4("10.0.0.1"), 1, "static",
                               ifname="eth0"))
    return routes


def run_route_batch_sweep(batch_sizes: Sequence[int] = BATCH_SIZES, *,
                          route_count: int = 2048,
                          window: int = 512,
                          repetitions: int = 1) -> Dict[int, float]:
    """Routes/sec through origin -> staged pipeline -> XRLs -> FEA FIB.

    Each sweep point builds a fresh RIB + FEA pair, injects *route_count*
    routes in segments of the given batch size, waits for every route to
    land in the FEA's FIB (and every XRL reply to drain), then withdraws
    them all the same way.  The rate counts both directions: one "op" is
    one add or one delete observed end to end.  With *repetitions* > 1
    the best run per size is kept (noise on a shared machine only ever
    slows a run down).
    """
    rates: Dict[int, float] = {}
    for size in batch_sizes_guard(batch_sizes):
        best = 0.0
        for __ in range(max(1, repetitions)):
            best = max(best, _route_batch_run(size, route_count, window))
        rates[size] = best
    return rates


def _route_batch_run(size: int, route_count: int, window: int) -> float:
    """One sweep point: build the stack, push + withdraw, return ops/sec."""
    from repro.fea import FeaProcess
    from repro.rib import RibProcess

    loop = EventLoop(SystemClock())
    host = Host(loop=loop)
    fea = FeaProcess(host)
    rib = RibProcess(host, window=window)
    origin = rib.v4.origin("static")
    routes = _sweep_routes(route_count)

    # repro: allow[DET001] throughput benchmark: wall time IS the measurement
    start = time.perf_counter()
    if size <= 1:
        for route in routes:
            origin.originate(route)
    else:
        for index in range(0, route_count, size):
            origin.originate_batch(routes[index:index + size])
    if not loop.run_until(
            lambda: len(fea.fib4) >= route_count and rib.txq.idle,
            timeout=300.0):
        raise RuntimeError(
            f"batch {size}: only {len(fea.fib4)}/{route_count} routes "
            f"reached the FEA")
    if size <= 1:
        for route in routes:
            origin.withdraw(route.net)
    else:
        nets = [route.net for route in routes]
        for index in range(0, route_count, size):
            origin.withdraw_batch(nets[index:index + size])
    if not loop.run_until(lambda: len(fea.fib4) == 0 and rib.txq.idle,
                          timeout=300.0):
        raise RuntimeError(
            f"batch {size}: {len(fea.fib4)} routes still in the FEA "
            f"after withdrawal")
    elapsed = time.perf_counter() - start  # repro: allow[DET001] benchmark timing
    rib.shutdown()
    fea.shutdown()
    return 2 * route_count / elapsed


def run_subprocess_route_point(route_count: int = 512, *,
                               window: int = 64) -> float:
    """Figure 13, deployment mode: routes/sec across real OS processes.

    The RIB and FEA run as genuine ``python -m repro.rib`` /
    ``python -m repro.fea`` subprocesses under a
    :class:`~repro.rtrmgr.spawn.SpawnManager`; the measurement pipelines
    *route_count* ``add_route4`` XRLs from the manager into the RIB
    child and waits until the last route is visible in the FEA child's
    FIB — so every route crosses two process boundaries over TCP with
    the negotiated codec.  One number, not a sweep: the point exists to
    compare deployment mode against the in-process trajectory above.
    """
    from repro.interfaces import FEA_FIB_IDL, RIB_IDL
    from repro.rtrmgr.spawn import SpawnManager
    from repro.xrl import Xrl

    manager = SpawnManager()
    try:
        # Any configuration starts the FEA and RIB children; this one
        # gives the routes' nexthop an interface to resolve through.
        manager.load("interfaces { interface eth0 { address: 10.0.0.1 } }")
        manager.commit()
        manager.loop.run(duration=0.5)

        routes = _sweep_routes(route_count)
        completed = [0]
        sent = [0]

        def pump() -> None:
            while sent[0] < route_count and sent[0] - completed[0] < window:
                route = routes[sent[0]]
                sent[0] += 1
                args = RIB_IDL.method("add_route4").build_args({
                    "protocol": "static", "net": str(route.net),
                    "nexthop": str(route.nexthop), "metric": 1,
                    "policytags": []})
                manager.xrl.send(
                    Xrl("rib", "rib", "1.0", "add_route4", args), on_reply)

        def on_reply(error, response) -> None:
            if not error.is_okay:
                raise RuntimeError(f"add_route4 failed: {error}")
            completed[0] += 1
            pump()

        last = routes[-1]
        probe_args = FEA_FIB_IDL.method("lookup_entry4").build_args(
            {"addr": str(last.net.network)})
        landed = [False]

        def probe() -> None:
            def on_probe(error, response) -> None:
                if error.is_okay and response.get_bool("resolves"):
                    landed[0] = True
            manager.xrl.send(
                Xrl("fea", "fea_fib", "1.0", "lookup_entry4", probe_args),
                on_probe)

        # repro: allow[DET001] throughput benchmark: wall time IS the measurement
        start = time.perf_counter()
        pump()
        if not manager.loop.run_until(
                lambda: completed[0] >= route_count, timeout=300.0):
            raise RuntimeError(
                f"only {completed[0]}/{route_count} adds acknowledged")
        # repro: allow[DET001] real-subprocess benchmark: wall-clock deadline
        probe_deadline = time.monotonic() + 60.0
        while not landed[0]:
            if time.monotonic() > probe_deadline:  # repro: allow[DET001]
                raise RuntimeError("last route never reached the FEA child")
            probe()
            manager.loop.run_until(lambda: landed[0], timeout=0.2)
        elapsed = time.perf_counter() - start  # repro: allow[DET001] benchmark timing
    finally:
        manager.shutdown()
    return route_count / elapsed


def batch_sizes_guard(batch_sizes: Sequence[int]) -> List[int]:
    sizes = [int(size) for size in batch_sizes]
    if any(size < 1 for size in sizes):
        raise ValueError(f"batch sizes must be >= 1, got {sizes}")
    return sizes


def record_trajectory(path, figure: str, unit: str,
                      entry: Dict) -> Dict:
    """Append-or-update one *entry* of a benchmark trajectory file.

    The file holds ``{"figure", "unit", "trajectory": [...]}``; entries
    are keyed by their ``"issue"`` field, so re-running a sweep for the
    same PR updates its entry in place instead of growing the list.
    Returns the full document as written.
    """
    path = Path(path)
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"figure": figure, "unit": unit, "trajectory": []}
    data["figure"] = figure
    data["unit"] = unit
    trajectory = data.setdefault("trajectory", [])
    for index, existing in enumerate(trajectory):
        if existing.get("issue") == entry.get("issue"):
            trajectory[index] = entry
            break
    else:
        trajectory.append(entry)
    path.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return data
