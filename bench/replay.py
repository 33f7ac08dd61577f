"""Isolated replays: one layer's public calls timed over the seed's feed.

Each replay builds only the layer it times (a BGP process with no RIB, a
RIB whose FEA is a stub that acks at once, a bare trie ...), runs a few
passes over a slice of the workload's own input and reports the median
pass in microseconds per route or per call.  They answer "what would this
hop cost alone"; the traced self times answer "what did it cost in place",
and README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, List, Sequence

from repro.bgp import BgpProcess
from repro.bgp.messages import MessageReader, UpdateMessage
from repro.bgp.peer import PeerConfig
from repro.core.process import Host
from repro.core.txqueue import XrlTransmitQueue
from repro.eventloop import EventLoop, SystemClock
from repro.fea import FeaProcess
from repro.fea.backends import ADD, DELETE, FibOp, make_backend
from repro.fea.fib import FibEntry
from repro.interfaces import RIB_IDL
from repro.net import IPNet, IPv4
from repro.rib import RibProcess
from repro.trie import RouteTrie
from repro.xrl import Finder, Xrl, XrlArgs, XrlAtom, XrlAtomType, XrlRouter
from repro.xrl.codec import TEXTUAL, BinaryCodec
from repro.xrl.transport import IntraProcessFamily, TcpFamily
from repro.xrl.transport.local import HostLocalFamily

from bench.harness import PEER_A, ROUTER_AS, ROUTER_ID, Feed, Scale, rng_for

_NEXTHOP = IPv4(PEER_A["addr"])


def _median_us(passes: int, run_pass: Callable[[], float], per: int) -> float:
    """Median over *passes* of ``run_pass()`` seconds, as µs per item."""
    return statistics.median(run_pass() for __ in range(passes)) * 1e6 / per


def _drain(loop: EventLoop, idle: Callable[[], bool]) -> None:
    if not loop.run_until(idle, timeout=60.0):
        raise RuntimeError("replay did not drain")


def _route_args(net: IPNet) -> XrlArgs:
    """The five-atom ``add_route4`` argument chain BGP builds per route."""
    return (XrlArgs().add_txt("protocol", "ebgp").add_ipv4net("net", net)
            .add_ipv4("nexthop", _NEXTHOP).add_u32("metric", 0)
            .add_list("policytags", []))


# -- bgp ----------------------------------------------------------------------

def _bgp(groups, nets: List[IPNet], passes: int) -> Dict[str, float]:
    updates = [UpdateMessage(attributes=attrs, nlri=group)
               for attrs, group in groups]
    stream = b"".join(update.encode() for update in updates)
    withdrawals = [UpdateMessage(withdrawn=group) for __, group in groups]
    count = len(nets)

    def decode() -> float:
        reader = MessageReader()
        start = perf_counter()
        reader.feed(stream)
        return perf_counter() - start

    def encode() -> float:
        start = perf_counter()
        for update in updates:
            update.encode()
        return perf_counter() - start

    loop = EventLoop(SystemClock())
    host = Host(loop=loop)
    bgp = BgpProcess(host, local_as=ROUTER_AS, bgp_id=IPv4(ROUTER_ID),
                     rib_target=None)
    handler = bgp.add_peer(PeerConfig(_NEXTHOP, PEER_A["asn"], ROUTER_AS,
                                      IPv4(PEER_A["local"])))

    def pipeline() -> float:
        start = perf_counter()
        for batch, held in ((updates, count), (withdrawals, 0)):
            for update in batch:
                handler.update_received(update)
            _drain(loop, lambda: bgp.decision.route_count == held
                   and bgp.fanout.queue_length == 0)
        return perf_counter() - start

    try:
        return {
            "bgp.decode_us_per_route": _median_us(passes, decode, count),
            "bgp.encode_us_per_route": _median_us(passes, encode, count),
            "bgp.pipeline_us_per_route":
                _median_us(passes, pipeline, 2 * count),
        }
    finally:
        host.shutdown()


# -- rib ----------------------------------------------------------------------

def _rib(nets: List[IPNet], passes: int) -> Dict[str, float]:
    loop = EventLoop(SystemClock())
    host = Host(loop=loop)
    ack = XrlArgs().add_u32("queued", 0).add_bool("congested", False)
    stub = XrlRouter(loop, "fea", host.finder, families=list(host.families))
    for method in ("add_entry4", "delete_entry4", "add_entries4",
                   "delete_entries4", "get_queue_status"):
        stub.register_raw_method(f"fea_fib/1.0/{method}", lambda args: ack)
    rib = RibProcess(host)
    rib.xrl_add_egp_table4("ebgp")
    rib.xrl_add_route4("static", IPNet(IPv4("10.0.0.0"), 8), IPv4("0.0.0.0"),
                       1, [])
    idle = lambda: rib.txq.idle  # noqa: E731
    _drain(loop, idle)
    # Routes reach the RIB a BGP transmit window at a time, never as one
    # burst (which would only exercise the flow controller's shedding).
    windows = [nets[i:i + 100] for i in range(0, len(nets), 100)]
    deleted: List[float] = []

    def add() -> float:
        start = perf_counter()
        for window in windows:
            for net in window:
                rib.xrl_add_route4("ebgp", net, _NEXTHOP, 0, [])
            _drain(loop, idle)
        elapsed = perf_counter() - start
        start = perf_counter()
        for window in windows:
            for net in window:
                rib.xrl_delete_route4("ebgp", net)
            _drain(loop, idle)
        deleted.append(perf_counter() - start)
        return elapsed

    try:
        added = _median_us(passes, add, len(nets))
        return {"rib.add_route4_us_per_route": added,
                "rib.delete_route4_us_per_route":
                    statistics.median(deleted) * 1e6 / len(nets)}
    finally:
        stub.shutdown()
        host.shutdown()


# -- fea ----------------------------------------------------------------------

def _fea(nets: List[IPNet], passes: int) -> Dict[str, float]:
    loop = EventLoop(SystemClock())
    host = Host(loop=loop)
    fea = FeaProcess(host)

    def atoms(chunk: Sequence[IPNet]):
        return ([XrlAtom("net", XrlAtomType.IPV4NET, net) for net in chunk],
                [XrlAtom("nexthop", XrlAtomType.IPV4, _NEXTHOP)
                 for __ in chunk],
                [XrlAtom("ifname", XrlAtomType.TXT, "") for __ in chunk])

    def vectors(size: int) -> Callable[[], float]:
        calls = [atoms(nets[i:i + size]) for i in range(0, len(nets), size)]

        def run() -> float:
            start = perf_counter()
            for net_atoms, nexthop_atoms, ifname_atoms in calls:
                fea.xrl_add_entries4(net_atoms, nexthop_atoms, ifname_atoms)
            elapsed = perf_counter() - start
            for net_atoms, __, __ in calls:
                fea.xrl_delete_entries4(net_atoms)
            return elapsed

        return run

    backend = make_backend("trie")
    backend.open(loop, lambda seq, ok, reason: None)
    adds = [FibOp(ADD, FibEntry(net, _NEXTHOP), seq)
            for seq, net in enumerate(nets)]
    deletes = [FibOp(DELETE, op.entry, op.seq) for op in adds]

    def apply() -> float:
        start = perf_counter()
        for i in range(0, len(adds), 256):
            backend.apply(adds[i:i + 256])
        elapsed = perf_counter() - start
        backend.apply(deletes)
        return elapsed

    try:
        return {
            "fea.add_entries_us_per_route_b1":
                _median_us(passes, vectors(1), len(nets)),
            "fea.add_entries_us_per_route_b256":
                _median_us(passes, vectors(256), len(nets)),
            "fea.backend_apply_us_per_route":
                _median_us(passes, apply, len(nets)),
        }
    finally:
        backend.close()
        host.shutdown()


# -- trie and net ---------------------------------------------------------------

def _trie(table: List[IPNet], seed: int, passes: int) -> Dict[str, float]:
    """Insert, match and remove at the full table size of the workload."""
    rng = rng_for(seed, "replay-lookups")
    addrs = [IPv4(net.network.to_int() | rng.getrandbits(32 - net.prefix_len))
             for net in rng.choices(table, k=len(table))]
    inserts: List[float] = []
    lookups: List[float] = []
    removes: List[float] = []
    for __ in range(passes):
        trie = RouteTrie(32)
        start = perf_counter()
        for net in table:
            trie.insert(net, net)
        inserts.append(perf_counter() - start)
        start = perf_counter()
        for addr in addrs:
            trie.best_match(addr)
        lookups.append(perf_counter() - start)
        start = perf_counter()
        for net in table:
            trie.remove(net)
        removes.append(perf_counter() - start)
    scale = 1e6 / len(table)
    return {"trie.insert_us": statistics.median(inserts) * scale,
            "trie.lookup_us": statistics.median(lookups) * scale,
            "trie.remove_us": statistics.median(removes) * scale}


def _net(nets: List[IPNet], passes: int) -> Dict[str, float]:
    pairs = [(net.network.to_int(), net.prefix_len) for net in nets]
    texts = [str(net) for net in nets]

    def new() -> float:
        start = perf_counter()
        for value, length in pairs:
            IPNet(IPv4(value), length)
        return perf_counter() - start

    def parse() -> float:
        start = perf_counter()
        for text in texts:
            IPNet.parse(text)
        return perf_counter() - start

    return {"net.ipnet_new_us": _median_us(passes, new, len(nets)),
            "net.ipnet_parse_us": _median_us(passes, parse, len(nets))}


# -- xrl, eventloop, core -----------------------------------------------------

def _marshalling(nets: List[IPNet], passes: int) -> Dict[str, float]:
    method = "0123456789abcdef0123456789abcdef/rib/1.0/add_route4"
    prebuilt = [_route_args(net) for net in nets]
    out: Dict[str, float] = {}

    def build() -> float:
        start = perf_counter()
        for net in nets:
            _route_args(net)
        return perf_counter() - start

    out["xrl.args_build_us_per_call"] = _median_us(passes, build, len(nets))
    for suffix, make in (("", BinaryCodec), ("_textual", lambda: TEXTUAL)):
        frames: List[bytes] = []
        decoded: List[float] = []

        def encode() -> float:
            sender, receiver = make(), make()
            frames.clear()
            start = perf_counter()
            for seq, args in enumerate(prebuilt):
                frames.append(sender.encode_request(seq, method, args))
            elapsed = perf_counter() - start
            start = perf_counter()
            for frame in frames:
                receiver.decode_request(frame)
            decoded.append(perf_counter() - start)
            return elapsed

        out[f"xrl.codec_encode_us_per_call{suffix}"] = _median_us(
            passes, encode, len(nets))
        out[f"xrl.codec_decode_us_per_call{suffix}"] = (
            statistics.median(decoded) * 1e6 / len(nets))
        out[f"xrl.codec_bytes_per_call{suffix}"] = (
            sum(map(len, frames)) / len(frames))
    return out


class _NoopRib:
    def xrl_add_route4(self, protocol, net, nexthop, metric, policytags):
        return None


def _dispatch(nets: List[IPNet], passes: int) -> Dict[str, float]:
    """``dispatch_request``: key check, IDL check, kwargs, no-op handler."""
    loop = EventLoop(SystemClock())
    finder = Finder()
    family = IntraProcessFamily()
    server = XrlRouter(loop, "stub", finder, families=[family])
    server.register_method(RIB_IDL, RIB_IDL.method("add_route4"),
                           _NoopRib().xrl_add_route4)
    client = XrlRouter(loop, "caller", finder, families=[family])
    resolved, __, __ = finder.resolve(client, "stub", "rib/1.0/add_route4")
    prebuilt = [_route_args(net) for net in nets]
    respond = lambda frame: None  # noqa: E731

    def run() -> float:
        start = perf_counter()
        for seq, args in enumerate(prebuilt):
            server.dispatch_request(seq, resolved, args, respond)
        return perf_counter() - start

    try:
        return {"xrl.dispatch_us_per_call":
                _median_us(passes, run, len(nets))}
    finally:
        client.shutdown()
        server.shutdown()


def ten_args(count: int = 10) -> XrlArgs:
    """The paper's §8.1 payload: *count* ``u32`` atoms."""
    args = XrlArgs()
    for index in range(count):
        args.add_u32(f"a{index}", index)
    return args


def transaction(loop: EventLoop, client: XrlRouter, xrl: Xrl, size: int, *,
                window: int = 100, group: int = 1) -> Dict[str, float]:
    """One §8.1 transaction: *window* outstanding, refilled per reply.

    Returns XRLs/s and the count of replies that carried an error.  With
    *group* > 1 requests go out in groups of that size with ``batch=True``.
    """
    state = {"sent": 0, "outstanding": 0, "done": 0, "errors": 0}

    def pump() -> None:
        while state["sent"] < size:
            chunk = min(group, size - state["sent"])
            if window - state["outstanding"] < chunk:
                return
            for __ in range(chunk):
                state["sent"] += 1
                state["outstanding"] += 1
                client.send(xrl, on_reply, batch=group > 1)

    def on_reply(error, args) -> None:
        state["outstanding"] -= 1
        state["done"] += 1
        if not error.is_okay:
            state["errors"] += 1
        pump()

    start = perf_counter()
    pump()
    finished = loop.run_until(lambda: state["done"] >= size, timeout=120.0)
    elapsed = perf_counter() - start
    return {"per_s": state["done"] / elapsed,
            "errors": state["errors"] + (0 if finished
                                         else size - state["done"])}


def round_trips(client: XrlRouter, xrl: Xrl, count: int) -> List[float]:
    """*count* stop-and-wait ``send_sync`` round trips, seconds each;
    a reply with an error is recorded as ``inf``."""
    samples = []
    for __ in range(count):
        start = perf_counter()
        error, __ = client.send_sync(xrl, deadline=10.0)
        samples.append(perf_counter() - start if error.is_okay
                       else float("inf"))
    return samples


def _same_loop(calls: int, passes: int) -> Dict[str, float]:
    """Client and server on one loop, per transport family."""
    out: Dict[str, float] = {}
    for name, make_family, token in (
            ("intra", IntraProcessFamily, 77),
            ("local", HostLocalFamily, None),
            ("tcp_sameloop", TcpFamily, None)):
        loop = EventLoop(SystemClock())
        finder = Finder()
        family = make_family()
        server = XrlRouter(loop, "echo", finder, families=[family],
                           process_token=token)
        server.register_raw_method("bench/1.0/noargs", lambda args: None)
        client = XrlRouter(loop, "caller", finder, families=[family],
                           process_token=token)
        xrl = Xrl("echo", "bench", "1.0", "noargs", ten_args())
        try:
            round_trips(client, xrl, 20)  # resolve, connect, negotiate
            out[f"xrl.{name}_rtt_us"] = statistics.median(
                round_trips(client, xrl, calls)) * 1e6
            if name == "tcp_sameloop":
                out["xrl.tcp_sameloop_per_s"] = statistics.median(
                    transaction(loop, client, xrl, calls)["per_s"]
                    for __ in range(passes))
        finally:
            client.shutdown()
            server.shutdown()
    return out


def _loop_and_queue(calls: int, passes: int) -> Dict[str, float]:
    loop = EventLoop(SystemClock())
    noop = lambda: None  # noqa: E731

    def turns() -> float:
        start = perf_counter()
        for __ in range(calls):
            loop.call_soon(noop)
            loop.run_once(block=False)
        return perf_counter() - start

    finder = Finder()
    family = IntraProcessFamily()
    server = XrlRouter(loop, "echo", finder, families=[family],
                       process_token=77)
    server.register_raw_method("bench/1.0/noargs", lambda args: None)
    client = XrlRouter(loop, "caller", finder, families=[family],
                       process_token=77)
    queue = XrlTransmitQueue(client, window=100)
    xrl = Xrl("echo", "bench", "1.0", "noargs", ten_args())

    def queued() -> float:
        start = perf_counter()
        for __ in range(calls):
            queue.enqueue(xrl)
        _drain(loop, lambda: queue.idle)
        return perf_counter() - start

    try:
        return {"eventloop.turn_us": _median_us(passes, turns, calls),
                "core.txq_us_per_call": _median_us(passes, queued, calls)}
    finally:
        client.shutdown()
        server.shutdown()


def xrl_plane(scale: Scale, nets: List[IPNet]) -> Dict[str, float]:
    """The replays of the layers every workload uses."""
    passes = scale.replay_passes
    calls = scale.replay_routes
    out = _marshalling(nets, passes)
    out.update(_dispatch(nets, passes))
    out.update(_same_loop(calls, passes))
    out.update(_loop_and_queue(calls, passes))
    return out


def route_plane(scale: Scale, feed: Feed, seed: int) -> Dict[str, float]:
    """The replays of the layers only the route workloads use."""
    passes = scale.replay_passes
    groups, taken = [], 0
    for attrs, group in feed.groups:
        if taken >= scale.replay_routes:
            break
        groups.append((attrs, group))
        taken += len(group)
    nets = [net for __, group in groups for net in group]
    out = _bgp(groups, nets, passes)
    out.update(_rib(nets, passes))
    out.update(_fea(nets, passes))
    out.update(_trie(feed.nets, seed, passes))
    out.update(_net(nets, passes))
    return out
