"""``churn_inproc``: one-prefix events, one outstanding, on a loaded table.

Peer A preloads the seed's feed (part of set-up); peer B then sends events
drawn 50/50 from the seed: a *new prefix* (announce -> the FIB shows it ->
withdraw -> the FIB drops it) or a *better path* for a prefix A holds with
a longer AS path (announce -> the FIB nexthop flips to B -> withdraw -> it
reverts to A).  Between events two lookup XRLs for a seeded address ride
from a third router and are checked against the oracle.
"""

from __future__ import annotations

from time import perf_counter, process_time
from typing import List, Optional

from repro.net import IPv4

from bench import replay
from bench.deploy import STATIC_NET, STATIC_NEXTHOP, InprocRouter
from bench.feed import (EVENT_DEADLINE, PHASE_DEADLINE, report_lookups,
                        timed_lookups)
from bench.harness import (PEER_A, PEER_B, Feed, Result, Scale,
                           addresses_inside, one_prefix_update,
                           one_prefix_withdraw, probe_net, repeated_setup,
                           report_footprint, report_latency, rng_for)
from bench.layers import Sampler, report_counts, report_trace
from bench.oracle import Oracle, check_fib
from bench.trace import Tracer

#: share of a traced run's events that run before recording starts
REFERENCE_SHARE = 0.3


def _bring_up(feed: Feed, result: Optional[Result]):
    """Router, both peerings, and A's table in the FIB.  The first set-up
    also records the footprint, before freed memory can hide growth."""
    router = InprocRouter()
    try:
        peer_a = router.add_peer(PEER_A)
        peer_b = router.add_peer(PEER_B)
        before = router.status()
        for message in feed.announce:
            peer_a.session.send(message)
        if router.wait_fib_count(1 + feed.routes, PHASE_DEADLINE) is None:
            raise RuntimeError("preload did not converge")
        if result is not None:
            report_footprint(result, before, router.status(), feed.routes)
    except BaseException:
        router.close()
        raise
    return router, peer_b


def run(seed: int, seconds: float, trace: bool, scale: Scale) -> Result:
    result = Result("churn_inproc", seed, trace)
    feed = Feed(seed, scale.feed_routes)
    result.notes.update(feed_sha256=feed.sha256, routes=feed.routes)

    tracer: Optional[Tracer] = Tracer() if trace else None
    setups, (router, peer_b) = repeated_setup(
        scale.setups,
        lambda index: _bring_up(feed, result if index == 0 else None),
        lambda built: built[0].close(), tracer.arm if trace else None)
    result.set_summary("setup_s", setups)

    try:
        oracle = Oracle([(STATIC_NET, STATIC_NEXTHOP)])
        for message in feed.announce:
            oracle.feed("A", message)
        result.attempt(feed.routes)
        rng = rng_for(seed, "churn-events")
        nets = feed.nets
        check_addrs = [net.network
                       for net in rng.sample(nets, scale.check_prefixes)]
        check_fib(router, oracle, check_addrs, result)
        # Only prefixes A reaches over two or more ASes: B's one-AS path is
        # then strictly better, never a tie.
        improvable = [net for attrs, group in feed.groups
                      if attrs.as_path.path_length() >= 2 for net in group]
        lookup_addrs = addresses_inside(rng, nets, 1000)
        nexthop_a, nexthop_b = IPv4(PEER_A["addr"]), IPv4(PEER_B["addr"])
        if tracer is not None:
            tracer.trace_session(router.bgp.peers[PEER_B["addr"]].session)
        sampler = Sampler(router)

        installs: List[float] = []
        fea_rtts: List[float] = []
        rib_rtts: List[float] = []
        events = recorded_events = 0
        reference_wall = 0.0
        counters_before = router.counters() if trace else {}
        started = perf_counter()
        marks = [(started, process_time())]  # at every block of events
        while True:
            elapsed = perf_counter() - started
            if events >= scale.min_events and elapsed >= seconds:
                break
            if (trace and not tracer.active
                    and events >= REFERENCE_SHARE * scale.min_events
                    and elapsed >= REFERENCE_SHARE * seconds):
                reference_wall = elapsed
                recorded_events = -events
                sampler.start()
                tracer.start()
            if rng.random() < 0.5:
                net, reverts_to = probe_net(events), None
            else:
                net, reverts_to = rng.choice(improvable), nexthop_a
            announce = one_prefix_update(net, PEER_B)
            withdraw = one_prefix_withdraw(net)
            result.attempt(2)
            start = perf_counter()
            peer_b.session.send(announce)
            if router.wait_exact(net, nexthop_b, EVENT_DEADLINE):
                installs.append(perf_counter() - start)
            else:
                result.fail(f"{net} not installed via B")
            peer_b.session.send(withdraw)
            if not router.wait_exact(net, reverts_to, EVENT_DEADLINE):
                result.fail(f"{net} did not revert to {reverts_to}")

            # The read side of the same layers, between writes.
            fea, rib = timed_lookups(
                router, oracle, [lookup_addrs[events % len(lookup_addrs)]],
                result)
            if trace and not tracer.active:  # a recorded one pays for spans
                fea_rtts += fea
                rib_rtts += rib
            events += 1
            if events % scale.block == 0:
                marks.append((perf_counter(), process_time()))
        if tracer is not None:
            tracer.stop()
        sampler.stop()
        recorded_events += events
        check_fib(router, oracle, check_addrs, result)

        ops = 2 * events
        blocks = [(wall - wall0, cpu - cpu0)
                  for (wall0, cpu0), (wall, cpu) in zip(marks, marks[1:])]
        result.set_summary("ops_per_s", [
            2 * scale.block / wall for wall, __ in blocks])
        result.set_summary("cpu_s_per_kop", [
            cpu / (2 * scale.block / 1000.0) for __, cpu in blocks])
        if trace:
            # Only the installs the tracer sat idle through are timed like
            # an untraced run's (one per event, unless an install failed).
            del installs[events - recorded_events:]
        report_latency(result, installs, scale.block)
        result.notes["events"] = events
        if trace:
            report_lookups(result, fea_rtts, rib_rtts)
            report_counts(result, router, sampler, counters_before, ops, 1,
                          ops)
            report_trace(result, tracer, 2 * recorded_events, reference_wall,
                         2 * (events - recorded_events))
    finally:
        if tracer is not None:
            tracer.disarm()
        router.close()
    if trace:
        result.metrics.update(replay.route_plane(scale, feed, seed))
        result.metrics.update(replay.xrl_plane(
            scale, feed.nets[:scale.replay_routes]))
    return result
