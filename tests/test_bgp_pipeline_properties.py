"""Property-based tests of the whole BGP pipeline.

Random interleavings of announcements and withdrawals from several peers
flow through PeerIn -> filters -> nexthop resolvers -> decision -> fanout.
Invariants checked:

* every stage edge, and the message stream a fanout reader receives,
  obey the paper's consistency rules (the stage sanitizer, armed);
* after quiescing, the decision's winners equal an oracle computed from
  the peers' current announcements with the documented ranking;
* the fanout's winners trie matches the decision winners;
* the runs a fanout reader receives, concatenated, are exactly the event
  sequence the same schedule produces with the run cap forced to 1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BgpProcess
from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.decision import route_ranking_key
from repro.bgp.messages import UpdateMessage
from repro.bgp.peer import PeerConfig
from repro.core.process import Host
from repro.core.stages import RouteTableStage
from repro.net import IPNet, IPv4
from repro.sanitizer import StageSanitizer

PREFIXES = [IPNet.parse(f"99.{i}.0.0/16") for i in range(6)]
PEERS = ["10.0.0.2", "10.0.1.2", "10.0.2.2"]

operations = st.lists(
    st.tuples(
        st.integers(0, len(PEERS) - 1),       # peer
        st.sampled_from(["announce", "withdraw"]),
        # the UPDATE's prefixes: several make a burst, hence a run
        st.lists(st.integers(0, len(PREFIXES) - 1), min_size=1, max_size=4,
                 unique=True),
        st.integers(1, 4),                    # AS path length variant
        st.integers(0, 2),                    # MED variant
        st.booleans(),                        # quiesce before the next op
    ),
    max_size=40,
)


def attrs_for(peer_index: int, path_len: int, med: int) -> PathAttributeList:
    as_numbers = [65002 + peer_index] + [64000 + i for i in range(path_len - 1)]
    return PathAttributeList(
        origin=Origin.IGP,
        as_path=ASPath.from_sequence(*as_numbers),
        nexthop=IPv4(PEERS[peer_index]),
        med=med * 10,
    )


def _run_schedule(ops, run_limit=None):
    """Drive *ops* through a fresh BGP process under an armed stage
    sanitizer; returns the process, its peer handlers, the reader's
    table, the oracle's announcement tables, the reader's flattened event
    log and the sanitizer's violations."""
    with StageSanitizer() as sanitizer:
        return _schedule(ops, run_limit) + (sanitizer.violations,)


def _schedule(ops, run_limit):
    host = Host()
    bgp = BgpProcess(host, local_as=65000, bgp_id=IPv4("9.9.9.9"),
                     rib_target=None)
    handlers = []
    for index, addr in enumerate(PEERS):
        handler = bgp.add_peer(PeerConfig(
            IPv4(addr), 65002 + index, 65000, IPv4("10.0.0.1")))
        handlers.append(handler)
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

    # The oracle's view: per peer, prefix -> (attributes, peer_id).
    announced = [{} for __ in PEERS]

    for peer_index, op, prefix_indices, path_len, med, quiesce in ops:
        prefixes = [PREFIXES[index] for index in prefix_indices]
        handler = handlers[peer_index]
        if op == "announce":
            attributes = attrs_for(peer_index, path_len, med)
            handler.update_received(
                UpdateMessage(attributes=attributes, nlri=prefixes))
            for prefix in prefixes:
                announced[peer_index][prefix] = attributes
        else:
            handler.update_received(UpdateMessage(withdrawn=prefixes))
            for prefix in prefixes:
                announced[peer_index].pop(prefix, None)
        if quiesce:
            host.loop.run()  # resolver callbacks, fanout pumps

    host.loop.run()
    return bgp, handlers, reader_table, announced, events


@settings(max_examples=40, deadline=None)
@given(operations)
def test_pipeline_consistency_and_winner_oracle(ops):
    bgp, handlers, reader_table, announced, events, violations = \
        _run_schedule(ops)
    assert not violations, "\n".join(v.render() for v in violations)
    # Oracle: per prefix, rank every live announcement.
    for prefix in PREFIXES:
        candidates = []
        for peer_index, table in enumerate(announced):
            attributes = table.get(prefix)
            if attributes is None:
                continue
            # Mirror the import filter: default local_pref.
            effective = attributes if attributes.local_pref is not None \
                else attributes.replace(local_pref=100)
            candidates.append((peer_index, effective))
        winner = bgp.decision.winners.get(prefix)
        if not candidates:
            assert winner is None, f"{prefix}: ghost winner {winner}"
            continue
        assert winner is not None, f"{prefix}: missing winner"

        def rank(item):
            peer_index, attributes = item
            info = handlers[peer_index].info

            class FakeRoute:
                pass

            fake = FakeRoute()
            fake.attributes = attributes
            fake.igp_metric = 0
            return route_ranking_key(fake, info)

        best_peer, best_attrs = max(candidates, key=rank)
        assert winner.peer_id == PEERS[best_peer], (
            f"{prefix}: winner from {winner.peer_id}, oracle says "
            f"{PEERS[best_peer]}")
        assert winner.attributes == best_attrs
    # The fanout's winners trie mirrors the decision.
    fanout_winners = {net: route for net, route in bgp.fanout.winners.items()}
    assert fanout_winners == bgp.decision.winners
    # And the reader's reconstructed table matches too.
    assert reader_table == bgp.decision.winners
    # Runs are only a framing of the event stream: with the cap forced
    # to 1 the reader gets the same events, one per call.
    assert _run_schedule(ops, run_limit=1)[4] == events
