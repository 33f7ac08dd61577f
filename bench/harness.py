"""What every workload shares: the generated inputs, the benchmark's own
BGP speaker, /proc sampling, order statistics and the result record."""

from __future__ import annotations

import hashlib
import math
import os
import random
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp import BgpState, PeerFSM
from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.fsm import FsmActions
from repro.bgp.messages import MessageReader, UpdateMessage
from repro.experiments.synth import synthetic_feed
from repro.net import IPNet, IPv4

from bench import spec

ROUTER_AS = 65000
ROUTER_ID = "1.1.1.1"
#: peer A sends the feed, peer B the one-prefix events; both sit inside the
#: static 10/8 the router resolves nexthops through.
PEER_A = {"addr": "10.0.0.2", "asn": 65002, "local": "10.0.0.1"}
PEER_B = {"addr": "10.0.1.2", "asn": 65003, "local": "10.0.1.1"}
#: one-prefix probes come from 198.18/15, which the synthetic feed avoids
PROBE_BASE = (198 << 24) | (18 << 16)
PROBE_SPACE = 512

#: stop-and-wait samples are summarised per block of this many, and the
#: run reports the median block: a burst of host noise then spoils a few
#: blocks, not the run.  1000 leaves ten samples beyond a block's p99.
LATENCY_BLOCK = 1000
#: every run sets up this many times and reports the median set-up
SETUPS = 3
#: share of the feed that is the table the feed workloads keep loaded; a
#: round announces and withdraws the rest on top of it
BASE_SHARE = 0.8

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Scale:
    """The fixed sizes of a run; ``--quick`` only shrinks them."""

    def __init__(self, quick: bool = False):
        self.quick = quick
        self.feed_routes = 500 if quick else 10_000
        self.min_rounds = 1 if quick else 3
        #: stop-and-wait samples per summarised block (see LATENCY_BLOCK)
        self.block = 40 if quick else LATENCY_BLOCK
        self.min_events = 500 if quick else 3 * LATENCY_BLOCK
        self.xrl_transaction = 2_000 if quick else 50_000
        self.min_transactions = 1 if quick else 3
        self.setups = 1 if quick else SETUPS
        #: lookup XRLs of each kind (FEA, RIB) per round of a feed workload
        self.lookups = 20 if quick else 200
        self.check_prefixes = 50 if quick else 200
        self.replay_routes = 200 if quick else 2_000
        self.replay_passes = 2 if quick else 5


class Speaker(FsmActions):
    """The benchmark's end of a peering: a real FSM, and then raw bytes.

    OPEN and KEEPALIVE go through :class:`PeerFSM`; the measured UPDATEs
    are written to :attr:`session` as already-encoded bytes.
    """

    def __init__(self, loop, session, *, asn: int, bgp_id: str):
        self.session = session
        self._reader = MessageReader()
        self.fsm = PeerFSM(loop, self, local_as=asn, bgp_id=IPv4(bgp_id),
                           peer_as=ROUTER_AS, name=f"bench-{bgp_id}")
        session.on_connected = self.fsm.connection_opened
        session.on_data = self._on_data
        session.on_closed = self.fsm.connection_failed

    def _on_data(self, data: bytes) -> None:
        for message in self._reader.feed(data):
            self.fsm.message_received(message)

    def start_connect(self) -> None:
        self.session.connect()

    def send_message(self, message) -> None:
        if self.session.connected:
            self.session.send(message.encode())

    def drop_connection(self) -> None:
        if self.session.connected:
            self.session.close()

    @property
    def established(self) -> bool:
        return self.fsm.state == BgpState.ESTABLISHED


class Feed:
    """The seed's feed as the bytes the router receives.

    The first :data:`BASE_SHARE` of it (cut at an UPDATE boundary) is the
    *base* a feed workload's set-up loads and keeps; the *tail* is what
    each of its rounds announces and withdraws, so the table peaks at the
    whole feed.  ``churn_inproc`` loads all of it.
    """

    def __init__(self, seed: int, routes: int):
        self.groups: List[Tuple[PathAttributeList, List[IPNet]]] = list(
            synthetic_feed(routes, seed=seed, nexthop=PEER_A["addr"],
                           neighbor_as=PEER_A["asn"], group_size=200))
        self.announce = [UpdateMessage(attributes=attrs, nlri=nets).encode()
                         for attrs, nets in self.groups]
        self.nets: List[IPNet] = [net for __, nets in self.groups
                                  for net in nets]
        self.routes = len(self.nets)
        held = cut = 0
        while held < BASE_SHARE * self.routes:
            held += len(self.groups[cut][1])
            cut += 1
        self.announce_tail = self.announce[cut:]
        self.withdraw_tail = [UpdateMessage(withdrawn=nets).encode()
                              for __, nets in self.groups[cut:]]
        self.tail_routes = self.routes - held
        digest = hashlib.sha256()
        for chunk in self.announce + self.withdraw_tail:
            digest.update(chunk)
        #: both feed workloads record this, so "same byte stream" is checked
        self.sha256 = digest.hexdigest()


def probe_net(index: int) -> IPNet:
    return IPNet(IPv4(PROBE_BASE + ((index % PROBE_SPACE) << 8)), 24)


def one_prefix_update(net: IPNet, peer: dict) -> bytes:
    """A one-hop-AS-path announcement of *net* from *peer*."""
    attrs = PathAttributeList(origin=Origin.IGP,
                              as_path=ASPath.from_sequence(peer["asn"]),
                              nexthop=IPv4(peer["addr"]))
    return UpdateMessage(attributes=attrs, nlri=[net]).encode()


def one_prefix_withdraw(net: IPNet) -> bytes:
    return UpdateMessage(withdrawn=[net]).encode()


def addresses_inside(rng: random.Random, nets: Sequence[IPNet],
                     count: int) -> List[IPv4]:
    """One seeded host address inside each of *count* of *nets*."""
    return [IPv4(net.network.to_int() | rng.getrandbits(32 - net.prefix_len))
            for net in rng.sample(nets, min(len(nets), count))]


def rng_for(seed: int, purpose: str) -> random.Random:
    """Independent seeded streams, so adding a draw to one purpose does not
    shift another's inputs."""
    return random.Random(f"{seed}:{purpose}")


# -- /proc ------------------------------------------------------------------

def proc_cpu_seconds(pid: int) -> float:
    """user+sys of *pid*; 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_status(pid: int) -> Dict[str, int]:
    """VmRSS (KiB) and voluntary context switches of *pid*."""
    wanted = {"VmRSS": "rss_kb", "voluntary_ctxt_switches": "vol_ctxsw"}
    out = {"rss_kb": 0, "vol_ctxsw": 0}
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                key, __, rest = line.partition(":")
                if key in wanted:
                    out[wanted[key]] = int(rest.split()[0])
    except OSError:
        pass
    return out


# -- statistics ---------------------------------------------------------------

def percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_samples)))
    return sorted_samples[rank - 1]


def summary(samples: Iterable[float]) -> Dict[str, float]:
    """Median, quartiles and count — what every timing carries."""
    ordered = sorted(samples)
    if not ordered:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(ordered) == 1:
        q1 = q3 = ordered[0]
    else:
        q1, __, q3 = statistics.quantiles(ordered, n=4)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered)}


class Result:
    """One run of one workload: the metrics plus what was checked."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        #: quartiles and sample counts behind the timing metrics
        self.detail: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: Dict[str, object] = {}
        #: the armed tracer of a ``--trace 1`` run, for trace.json
        self.tracer = None

    def set(self, name: str, value: float,
            detail: Optional[Dict[str, float]] = None) -> None:
        if name not in spec.UNITS:
            raise KeyError(f"undeclared metric {name!r}")
        self.metrics[name] = float(value)
        if detail is not None:
            self.detail[name] = detail

    def set_summary(self, name: str, samples: Iterable[float]) -> None:
        stats = summary(samples)
        self.set(name, stats["median"], stats)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def reported(self) -> Dict[str, Dict[str, object]]:
        """The metric set the mode owes: end-to-end, or per-layer (0 where
        the workload bypasses the layer)."""
        names = spec.PER_LAYER_NAMES if self.trace else spec.END_TO_END_NAMES
        return {name: {"value": self.metrics.get(name, 0.0),
                       "unit": spec.UNITS[name]} for name in names}

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.reported()}

    def record(self) -> dict:
        """Everything, for results.json and ``bench.compare``."""
        return {"workload": self.workload, "seed": self.seed,
                "trace": self.trace, "correct": self.correct,
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "notes": self.notes,
                "metrics": {name: {"value": value, "unit": spec.UNITS[name],
                                   **self.detail.get(name, {})}
                            for name, value in self.metrics.items()}}


def report_footprint(result: Result, before, after, routes: int) -> None:
    """RSS over the first load of the table: the total while it is held,
    and the growth per route held, per process (``router.status()`` maps)."""
    result.set("rss_mb", sum(s["rss_kb"] for s in after.values()) / 1024.0)
    total = 0.0
    for name, status in after.items():
        grown = (status["rss_kb"] - before[name]["rss_kb"]) / routes
        total += grown
        if f"{name}.rss_kb_per_route" in spec.UNITS:
            result.set(f"{name}.rss_kb_per_route", grown)
    result.set("rss_kb_per_route", total)


def report_latency(result: Result, samples: Sequence[float],
                   block: int) -> None:
    """p50 and p99 of stop-and-wait *samples* (seconds, in the order
    taken), in microseconds: the median over blocks of each block's."""
    whole = len(samples) // block * block or len(samples)
    blocks = [sorted(samples[i:i + block]) for i in range(0, whole, block)]
    for name, fraction in (("latency_p50_us", 0.50), ("latency_p99_us", 0.99)):
        stats = summary(percentile(block, fraction) * 1e6 for block in blocks)
        stats["samples"] = whole
        result.set(name, stats["median"], stats)


def repeated_setup(count: int, bring_up, tear_down, before_last=None):
    """Set up *count* times, tearing down all but the last; returns
    (seconds of each, what the last ``bring_up(index)`` returned).
    *before_last* runs ahead of the set-up that is kept."""
    seconds: List[float] = []
    for index in range(count):
        last = index == count - 1
        if last and before_last is not None:
            before_last()
        start = time.perf_counter()
        built = bring_up(index)
        seconds.append(time.perf_counter() - start)
        if not last:
            tear_down(built)
    return seconds, built


class Deadline:
    """A hard stop for a wait: late is a failure, never a hang."""

    def __init__(self, seconds: float):
        self._end = time.perf_counter() + seconds

    @property
    def expired(self) -> bool:
        return time.perf_counter() >= self._end

    @property
    def remaining(self) -> float:
        return max(0.0, self._end - time.perf_counter())
