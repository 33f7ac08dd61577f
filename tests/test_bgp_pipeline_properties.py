"""Runs are a framing of the fanout's event stream.

A fanout reader receives the consecutive same-op changes it is due as
one run.  Concatenated, its runs must be exactly the event sequence the
same schedule produces with the run cap forced to 1; every stage edge,
and the stream the reader sees, obeys the paper's consistency rules
(the stage sanitizer, armed); and the table the reader rebuilds equals
the decision's winners.

The schedules are the reference runner's (``tests/test_reference_
router.py``, which checks what the winners are).  BGP runs here without
a RIB, so its nexthops resolve at once and the IGP and restart steps do
nothing.
"""

from hypothesis import given, settings

from repro.bgp import BgpProcess
from repro.bgp.messages import UpdateMessage
from repro.bgp.peer import PeerConfig
from repro.core.process import Host
from repro.core.stages import RouteTableStage
from repro.net import IPv4
from repro.sanitizer import StageSanitizer
from tests.test_reference_router import POLICIES, schedules
from tests.test_vector_route_stream import LOCAL_AS, PEERS, attributes_for


def _run_schedule(ops, run_limit=None):
    """Drive *ops* through a fresh BGP process under an armed stage
    sanitizer; returns the process, the reader's table, the reader's
    flattened event log and the sanitizer's violations."""
    with StageSanitizer() as sanitizer:
        return _schedule(ops, run_limit) + (sanitizer.violations,)


def _schedule(ops, run_limit):
    host = Host()
    bgp = BgpProcess(host, local_as=LOCAL_AS, bgp_id=IPv4("9.9.9.9"),
                     rib_target=None)
    handlers = [bgp.add_peer(PeerConfig(IPv4(addr), asn, LOCAL_AS,
                                        IPv4("10.0.0.1")))
                for addr, asn in PEERS]
    if run_limit is not None:
        bgp.fanout.RUN_LIMIT = run_limit
    # A fanout reader that hands its runs to a stage: the sanitizer then
    # checks their concatenation as one singular event sequence.
    checker = RouteTableStage("reader-check")
    reader_table = {}
    events = []

    def deliver(op, routes, old_route):
        assert 1 <= len(routes) <= bgp.fanout.RUN_LIMIT
        events.extend((op, route.net, route.peer_id, route.attributes)
                      for route in routes)
        if op == "add":
            checker.add_routes(routes)
            reader_table.update((route.net, route) for route in routes)
        elif op == "delete":
            checker.delete_routes(routes)
            for route in routes:
                reader_table.pop(route.net, None)
        else:
            assert len(routes) == 1, "a replace is a run of one"
            checker.replace_route(old_route, routes[0])
            del reader_table[old_route.net]
            reader_table[routes[0].net] = routes[0]

    bgp.fanout.add_reader("checker", deliver, dump=False)

    for kind, *args in ops:
        if kind == "announce":
            peer, nets, path_len = args
            handlers[peer].update_received(UpdateMessage(
                attributes=attributes_for(peer, path_len), nlri=nets))
        elif kind == "withdraw":
            peer, nets = args
            handlers[peer].update_received(UpdateMessage(withdrawn=nets))
        elif kind == "down":
            handlers[args[0]].session_down("test")
        elif kind == "policy":
            source = POLICIES[args[0]][0]
            if source is None:
                bgp.xrl_reset_filter(bgp.FILTER_IMPORT)
            else:
                bgp.xrl_configure_filter(bgp.FILTER_IMPORT, source)
        elif kind == "turns":
            for __ in range(args[0]):
                host.loop.run_once(block=False)
        elif kind == "quiesce":
            host.loop.run()  # resolver callbacks, fanout pumps

    host.loop.run()
    return bgp, reader_table, events


@settings(max_examples=40, deadline=None)
@given(schedules)
def test_runs_frame_the_per_route_event_stream(ops):
    bgp, reader_table, events, violations = _run_schedule(ops)
    assert not violations, "\n".join(v.render() for v in violations)
    assert reader_table == dict(bgp.decision.winners.items())
    # Runs are only a framing of the event stream: with the cap forced
    # to 1 the reader gets the same events, one per call.
    assert _run_schedule(ops, run_limit=1)[2] == events
