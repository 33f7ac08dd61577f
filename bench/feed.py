"""``feed_inproc`` and ``feed_multiproc``: the batched announce/withdraw.

One implementation, two deployments.  Set-up loads the seed's whole feed
and withdraws its tail again, which leaves the base of the table loaded
and both paths warm.  A round then writes the tail's UPDATEs to the peer
session, waits for the FEA FIB to hold the whole feed, checks the FIB
against the oracle, installs one-prefix probes stop-and-wait against the
full table, then writes the tail's withdrawals and checks again.  Only the
two bulk phases are on the round's clock.  Rounds are short (a fifth of
the feed) so that a run holds ten or so and reports their median: the
host's slow spells last seconds, and spoil a few rounds instead of the run.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.net import IPv4

from bench import replay
from bench.deploy import STATIC_NET, STATIC_NEXTHOP, cpu_delta, make_router
from bench.harness import (PEER_A, Feed, Result, Scale, addresses_inside,
                           one_prefix_update, one_prefix_withdraw, probe_net,
                           repeated_setup, report_footprint, report_latency,
                           rng_for)
from bench.layers import Sampler, report_counts, report_trace
from bench.oracle import Oracle, check_fib
from bench.trace import Tracer

#: a bulk phase slower than this is failed and abandoned, not waited for
PHASE_DEADLINE = 90.0
EVENT_DEADLINE = 5.0


class _Round:
    """What one announce+withdraw round measured."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu: Dict[str, float] = {}
        self.ops = 0

    def add_phase(self, wall: float, cpu: Dict[str, float], ops: int) -> None:
        self.wall += wall
        self.ops += ops
        for name, seconds in cpu.items():
            self.cpu[name] = self.cpu.get(name, 0.0) + seconds


def _bring_up(mode: str, feed: Feed, result: Optional[Result]):
    """One set-up: router, peering ESTABLISHED, the whole feed announced
    and its tail withdrawn again.  Given a *result* it records the
    footprint while the whole feed is held (the first set-up does, before
    freed memory can hide growth)."""
    router = make_router(mode)
    try:
        speaker = router.add_peer(PEER_A)
        before = router.status()
        for messages, held in ((feed.announce, feed.routes),
                               (feed.withdraw_tail,
                                feed.routes - feed.tail_routes)):
            for message in messages:
                speaker.session.send(message)
            if router.wait_fib_count(1 + held, PHASE_DEADLINE) is None:
                raise RuntimeError("set-up did not converge")
            if result is not None and held == feed.routes:
                report_footprint(result, before, router.status(), held)
    except BaseException:
        router.close()
        raise
    return router, speaker


def _bulk(router, speaker, messages: List[bytes], oracle: Oracle,
          routes: int, result: Result, watchers=()):
    """Write one phase's UPDATEs; wall time stops when the FIB is there.
    *watchers* (a traced run's sampler and tracer) watch only this."""
    for message in messages:
        oracle.feed("A", message)
    result.attempt(routes)
    for watcher in watchers:
        watcher.start()
    cpu_before = router.cpu_seconds()
    start = perf_counter()
    for message in messages:
        speaker.session.send(message)
    reached = router.wait_fib_count(len(oracle), PHASE_DEADLINE)
    if reached is None:
        reached = perf_counter()
        # Routes still missing or extra; all of them if the FIB is unreadable.
        result.fail("bulk phase missed its deadline", min(routes, max(
            1, abs(router.fib_count() - len(oracle)))))
    cpu = cpu_delta(cpu_before, router.cpu_seconds())
    for watcher in watchers:
        watcher.stop()
    return reached - start, cpu


def _probe(router, speaker, count: int, result: Result) -> List[float]:
    """Stop-and-wait one-prefix installs against the loaded table."""
    nexthop = IPv4(PEER_A["addr"])
    samples = []
    for index in range(count):
        net = probe_net(index)
        result.attempt()
        start = perf_counter()
        speaker.session.send(one_prefix_update(net, PEER_A))
        if router.wait_exact(net, nexthop, EVENT_DEADLINE):
            samples.append(perf_counter() - start)
        else:
            result.fail(f"probe {net} not installed in {EVENT_DEADLINE}s")
        speaker.session.send(one_prefix_withdraw(net))
        if not router.wait_exact(net, None, EVENT_DEADLINE):
            result.fail(f"probe {net} not withdrawn in {EVENT_DEADLINE}s")
    return samples


def timed_lookups(router, oracle: Oracle, addrs: List[IPv4],
                  result: Result) -> Tuple[List[float], List[float]]:
    """The read side over XRL from the probe router: seconds of each
    ``fea_fib lookup_entry4`` and ``rib lookup_route_by_dest4`` for
    *addrs*, every answer checked against the oracle."""
    fea, rib = [], []
    for addr in addrs:
        expected = oracle.lookup(addr)
        result.attempt(2)
        start = perf_counter()
        found = router.xrl_lookup(addr)
        fea.append(perf_counter() - start)
        if found != expected:
            result.fail(f"fea lookup {addr}: {found}, oracle {expected}")
        start = perf_counter()
        found = router.rib_lookup(addr)
        rib.append(perf_counter() - start)
        # The RIB answers with its own nexthop resolution; the net decides.
        if found is None or found[0] != expected[0]:
            result.fail(f"rib lookup {addr}: {found}, oracle {expected}")
    return fea, rib


def report_lookups(result: Result, fea: List[float],
                   rib: List[float]) -> None:
    result.set_summary("fea.lookup_rtt_us", [rtt * 1e6 for rtt in fea])
    result.set_summary("rib.lookup_rtt_us", [rtt * 1e6 for rtt in rib])


def run(mode: str, seed: int, seconds: float, trace: bool,
        scale: Scale) -> Result:
    result = Result(f"feed_{mode}", seed, trace)
    feed = Feed(seed, scale.feed_routes)
    updates = len(feed.announce_tail) + len(feed.withdraw_tail)
    result.notes.update(feed_sha256=feed.sha256, routes=feed.routes,
                        round_routes=feed.tail_routes, round_updates=updates)
    rng = rng_for(seed, "feed-checks")
    check_addrs = [net.network
                   for net in rng.sample(feed.nets, scale.check_prefixes)]
    lookup_addrs = addresses_inside(rng, feed.nets, scale.lookups)

    # Armed before the set-up that is kept: a socket's callback is wrapped
    # when it is registered.
    tracer: Optional[Tracer] = Tracer() if trace else None
    setups, (router, speaker) = repeated_setup(
        scale.setups,
        lambda index: _bring_up(mode, feed, result if index == 0 else None),
        lambda built: built[0].close(), tracer.arm if trace else None)
    result.set_summary("setup_s", setups)

    try:
        if tracer is not None and mode == "inproc":
            tracer.trace_session(router.bgp.peers[PEER_A["addr"]].session)
        sampler = Sampler(router)
        oracle = Oracle([(STATIC_NET, STATIC_NEXTHOP)])
        for message in feed.announce + feed.withdraw_tail:
            oracle.feed("A", message)
        check_fib(router, oracle, check_addrs, result)
        reference: List[_Round] = []
        recorded: List[_Round] = []
        latencies: List[float] = []
        fea_rtts: List[float] = []
        rib_rtts: List[float] = []
        counters_before = router.counters() if trace else {}
        status_before = router.status()
        started = perf_counter()
        while True:
            this = _Round()
            # A traced run's first rounds are the reference (wrappers
            # installed but idle) and every later one is recorded.
            recording = trace and len(reference) >= scale.min_rounds
            watchers = [sampler] * trace + [tracer] * recording
            this.add_phase(*_bulk(router, speaker, feed.announce_tail, oracle,
                                  feed.tail_routes, result, watchers),
                           feed.tail_routes)
            check_fib(router, oracle, check_addrs, result)
            with router.on_one_cpu():
                latencies += _probe(router, speaker, scale.block, result)
            if trace:
                fea, rib = timed_lookups(router, oracle, lookup_addrs, result)
                fea_rtts += fea
                rib_rtts += rib
            this.add_phase(*_bulk(router, speaker, feed.withdraw_tail, oracle,
                                  feed.tail_routes, result, watchers),
                           feed.tail_routes)
            check_fib(router, oracle, check_addrs, result)
            (recorded if recording else reference).append(this)
            rounds = reference + recorded
            enough = (len(rounds) >= scale.min_rounds
                      and (recorded or not trace))
            if enough and perf_counter() - started >= seconds:
                break

        result.set_summary("ops_per_s", [r.ops / r.wall for r in rounds])
        result.set_summary("cpu_s_per_kop", [
            sum(r.cpu.values()) / (r.ops / 1000.0) for r in rounds])
        report_latency(result, latencies, scale.block)
        result.notes["rounds"] = len(rounds)
        if trace:
            report_lookups(result, fea_rtts, rib_rtts)
            ops = sum(r.ops for r in rounds)
            # The probes' XRLs are in the counters, so their two route
            # operations each are in the denominator too.
            probes = 2 * scale.block * len(rounds)
            report_counts(result, router, sampler, counters_before,
                          ops + probes, len(rounds), updates)
            for name in ("bgp", "rib", "fea", "rtrmgr"):
                result.set(f"{name}.cpu_s_per_kroute", sum(
                    r.cpu.get(name, 0.0) for r in rounds) / (ops / 1000.0))
            switches = sum(
                after["vol_ctxsw"] - status_before[name]["vol_ctxsw"]
                for name, after in router.status().items())
            result.set("eventloop.vol_ctxsw_per_kroute",
                       switches / (ops / 1000.0))
            report_trace(result, tracer, sum(r.ops for r in recorded),
                         sum(r.wall for r in reference),
                         sum(r.ops for r in reference))
    finally:
        if tracer is not None:
            tracer.disarm()
        router.close()
    if trace:
        result.metrics.update(replay.route_plane(scale, feed, seed))
        result.metrics.update(replay.xrl_plane(
            scale, feed.nets[:scale.replay_routes]))
    return result
