"""Unit tests for BGP pipeline stages: nexthop, decision, fanout, damping."""

import pytest

from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.damping import DampingStage
from repro.bgp.decision import DecisionStage, PeerInfo, route_ranking_key
from repro.bgp.fanout import FanoutQueue
from repro.bgp.nexthop import NexthopCache, NexthopResolver, NexthopResolverStage
from repro.bgp.route import BGPRoute
from repro.core.stages import OriginStage, RouteTableStage
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4
from repro.trie import RouteTrie


def net(text):
    return IPNet.parse(text)


def bgp_route(net_text, peer="p1", nexthop="10.0.0.1", as_path=(),
              local_pref=None, med=None, origin=Origin.IGP, **annotations):
    attributes = PathAttributeList(
        origin=origin, as_path=ASPath.from_sequence(*as_path),
        nexthop=IPv4(nexthop), local_pref=local_pref, med=med)
    return BGPRoute(net(net_text), attributes, peer_id=peer, **annotations)


class SinkStage(RouteTableStage):
    def __init__(self):
        super().__init__("sink")
        self.log = []

    def add_routes(self, routes, caller=None):
        self.log.extend(("add", route) for route in routes)

    def delete_routes(self, routes, caller=None):
        self.log.extend(("delete", route) for route in routes)

    def replace_route(self, old, new, caller=None):
        self.log.append(("replace", old, new))

    def table(self):
        state = {}
        for entry in self.log:
            if entry[0] == "add":
                assert entry[1].net not in state
                state[entry[1].net] = entry[1]
            elif entry[0] == "delete":
                assert state.pop(entry[1].net, None) is not None
            else:
                assert entry[1].net in state
                state[entry[2].net] = entry[2]
        return state


@pytest.fixture
def loop():
    return EventLoop(SimulatedClock())


class TestNexthopCache:
    def test_empty_lookup(self):
        assert NexthopCache().lookup(IPv4("1.2.3.4")) is None

    def test_insert_and_hit(self):
        cache = NexthopCache()
        cache.insert(net("10.0.0.0/18"), True, 5)
        entry = cache.lookup(IPv4("10.0.32.1"))
        assert entry.resolvable and entry.metric == 5

    def test_miss_outside_subnet(self):
        cache = NexthopCache()
        cache.insert(net("10.0.0.0/18"), True, 5)
        assert cache.lookup(IPv4("10.0.64.1")) is None

    def test_many_disjoint_subnets(self):
        cache = NexthopCache()
        for i in range(100):
            cache.insert(net(f"10.{i}.0.0/16"), True, i)
        assert cache.lookup(IPv4("10.57.1.1")).metric == 57
        assert cache.lookup(IPv4("11.0.0.1")) is None

    def test_invalidate_overlapping(self):
        cache = NexthopCache()
        cache.insert(net("10.0.0.0/16"), True, 1)
        cache.insert(net("10.1.0.0/16"), True, 2)
        removed = cache.invalidate(net("10.0.0.0/15"))
        assert len(removed) == 2
        assert len(cache) == 0

    def test_refresh_keeps_users(self):
        cache = NexthopCache()
        entry = cache.insert(net("10.0.0.0/16"), True, 1)
        entry.users.add(123)
        refreshed = cache.insert(net("10.0.0.0/16"), False, 9)
        assert refreshed.users == {123}
        assert len(cache) == 1


class SyncAnswers:
    """Scriptable query function for the resolver."""

    def __init__(self, loop):
        self.loop = loop
        self.queries = []
        self.auto = None  # (subnet_fn, resolvable, metric)
        self.pending = []

    def __call__(self, nexthop, reply_cb):
        self.queries.append(nexthop)
        if self.auto is not None:
            subnet_fn, resolvable, metric = self.auto
            self.loop.call_soon(reply_cb, subnet_fn(nexthop), resolvable, metric)
        else:
            self.pending.append((nexthop, reply_cb))

    def answer_all(self, resolvable=True, metric=0, prefix_len=24):
        while self.pending:
            nexthop, reply_cb = self.pending.pop(0)
            reply_cb(IPNet(nexthop, prefix_len), resolvable, metric)


class TestNexthopResolverStage:
    def _build(self, loop):
        answers = SyncAnswers(loop)
        resolver = NexthopResolver(answers)
        stage = NexthopResolverStage("nh", resolver)
        sink = SinkStage()
        stage.set_next(sink)
        return answers, resolver, stage, sink

    def test_add_waits_for_answer(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        stage.add_routes([bgp_route("20.0.0.0/8", nexthop="1.1.1.1")])
        assert sink.log == []  # parked
        answers.answer_all(resolvable=True, metric=7)
        assert len(sink.log) == 1
        annotated = sink.log[0][1]
        assert annotated.resolvable and annotated.igp_metric == 7

    def test_cache_hit_is_synchronous(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        stage.add_routes([bgp_route("20.0.0.0/8", nexthop="1.1.1.1")])
        answers.answer_all(metric=3)
        stage.add_routes([bgp_route("21.0.0.0/8", nexthop="1.1.1.2")])
        assert len(sink.log) == 2  # same /24 answer covers 1.1.1.2
        assert resolver.cache_hits == 1
        assert len(answers.queries) == 1

    def test_delete_while_parked_cancels(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        route = bgp_route("20.0.0.0/8", nexthop="1.1.1.1")
        stage.add_routes([route])
        stage.delete_routes([route])
        answers.answer_all()
        assert sink.log == []

    def test_delete_forwards_annotated_version(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        route = bgp_route("20.0.0.0/8", nexthop="1.1.1.1")
        stage.add_routes([route])
        answers.answer_all()
        annotated = sink.log[0][1]
        stage.delete_routes([route])
        assert sink.log[1] == ("delete", annotated)

    def test_unresolvable_annotation(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        stage.add_routes([bgp_route("20.0.0.0/8", nexthop="1.1.1.1")])
        answers.answer_all(resolvable=False)
        assert sink.log[0][1].resolvable is False

    def test_replace_produces_replace(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        old = bgp_route("20.0.0.0/8", nexthop="1.1.1.1")
        stage.add_routes([old])
        answers.answer_all()
        new = bgp_route("20.0.0.0/8", nexthop="1.1.1.1", med=9)
        stage.replace_route(old, new)
        answers.answer_all()
        assert sink.log[-1][0] == "replace"
        assert sink.log[-1][2].attributes.med == 9

    def test_reresolve_pushes_replacements(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        stage.add_routes([bgp_route("20.0.0.0/8", nexthop="1.1.1.1")])
        answers.answer_all(metric=5)
        # The RIB invalidates the covering subnet; new answer metric=9.
        resolver.invalidate(net("1.1.1.0/24"))
        answers.answer_all(metric=9)
        assert sink.log[-1][0] == "replace"
        assert sink.log[-1][2].igp_metric == 9

    def test_invalidation_that_overtakes_its_answer_is_not_lost(self, loop):
        """The invalidation and the answer travel apart: an answer that
        arrives after an invalidation of its cover may be stale, so it is
        asked again, and only the second answer is used."""
        answers, resolver, stage, sink = self._build(loop)

        def answer(metric):
            nexthop, reply_cb = answers.pending.pop(0)
            reply_cb(IPNet(nexthop, 24), True, metric)

        stage.add_routes([bgp_route("20.0.0.0/8", nexthop="1.1.1.1")])
        resolver.invalidate(net("1.1.1.0/24"))  # before the answer
        answer(5)  # from before the change
        assert sink.log == [] and len(answers.queries) == 2
        answer(9)
        assert [(op, r.igp_metric) for op, r in sink.log] == [("add", 9)]
        # With the answer in hand, an invalidation is the usual re-query.
        resolver.invalidate(net("1.1.1.0/24"))
        answer(4)
        assert len(answers.queries) == 3 and not answers.pending
        assert sink.log[-1][2].igp_metric == 4

    def test_lookup_returns_forwarded(self, loop):
        answers, resolver, stage, sink = self._build(loop)
        route = bgp_route("20.0.0.0/8", nexthop="1.1.1.1")
        stage.add_routes([route])
        assert stage.lookup_route(route.net) is None  # still parked
        answers.answer_all()
        assert stage.lookup_route(route.net).resolvable


PEERS = {
    "p1": PeerInfo("p1", is_ibgp=False, bgp_id=IPv4("1.1.1.1"),
                   peer_addr=IPv4("10.0.1.1")),
    "p2": PeerInfo("p2", is_ibgp=False, bgp_id=IPv4("2.2.2.2"),
                   peer_addr=IPv4("10.0.2.1")),
    "p3": PeerInfo("p3", is_ibgp=True, bgp_id=IPv4("3.3.3.3"),
                   peer_addr=IPv4("10.0.3.1")),
}


class Branch(OriginStage):
    """A fake peer branch: an origin with annotated routes."""


def build_decision(branch_names=("p1", "p2")):
    decision = DecisionStage("decision", lambda pid: PEERS[pid])
    sink = SinkStage()
    decision.set_next(sink)
    branches = {}
    for name in branch_names:
        branch = Branch(name)
        decision.add_branch(branch)
        branches[name] = branch
    return decision, sink, branches


def resolved(route, metric=0):
    return route.annotated(igp_metric=metric, resolvable=True)


class TestDecision:
    def test_first_eligible_route_wins(self):
        decision, sink, branches = build_decision()
        route = resolved(bgp_route("10.0.0.0/8", peer="p1"))
        branches["p1"].originate(route)
        assert sink.table()[route.net] is route

    def test_unresolvable_route_ignored(self):
        decision, sink, branches = build_decision()
        route = bgp_route("10.0.0.0/8", peer="p1",
                          resolvable=False, igp_metric=None)
        branches["p1"].originate(route)
        assert sink.log == []

    def test_local_pref_dominates(self):
        decision, sink, branches = build_decision()
        low = resolved(bgp_route("10.0.0.0/8", peer="p1", local_pref=50,
                                 as_path=(1,)))
        high = resolved(bgp_route("10.0.0.0/8", peer="p2", local_pref=200,
                                  as_path=(1, 2, 3)))
        branches["p1"].originate(low)
        branches["p2"].originate(high)
        assert sink.table()[low.net] is high

    def test_shorter_as_path_wins(self):
        decision, sink, branches = build_decision()
        long_path = resolved(bgp_route("10.0.0.0/8", peer="p1",
                                       as_path=(1, 2, 3)))
        short_path = resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(7,)))
        branches["p1"].originate(long_path)
        branches["p2"].originate(short_path)
        assert sink.table()[long_path.net] is short_path

    def test_lower_med_wins(self):
        decision, sink, branches = build_decision()
        high_med = resolved(bgp_route("10.0.0.0/8", peer="p1", med=50,
                                      as_path=(1,)))
        low_med = resolved(bgp_route("10.0.0.0/8", peer="p2", med=10,
                                     as_path=(1,)))
        branches["p1"].originate(high_med)
        branches["p2"].originate(low_med)
        assert sink.table()[low_med.net] is low_med

    def test_ebgp_beats_ibgp(self):
        decision, sink, branches = build_decision(("p1", "p3"))
        ibgp = resolved(bgp_route("10.0.0.0/8", peer="p3", as_path=(1,)))
        ebgp = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,)))
        branches["p3"].originate(ibgp)
        branches["p1"].originate(ebgp)
        assert sink.table()[ebgp.net] is ebgp

    def test_lower_igp_metric_wins(self):
        decision, sink, branches = build_decision()
        far = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,)), metric=100)
        near = resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(1,)), metric=5)
        branches["p1"].originate(far)
        branches["p2"].originate(near)
        assert sink.table()[far.net] is near

    def test_bgp_id_tiebreak(self):
        decision, sink, branches = build_decision()
        route1 = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,)))
        route2 = resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(1,)))
        branches["p2"].originate(route2)
        branches["p1"].originate(route1)
        assert sink.table()[route1.net] is route1  # p1 has the lower BGP ID

    def test_withdraw_winner_promotes_alternative(self):
        decision, sink, branches = build_decision()
        best = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,)))
        alt = resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(1, 2)))
        branches["p1"].originate(best)
        branches["p2"].originate(alt)
        branches["p1"].withdraw(best.net)
        assert sink.table()[best.net] is alt

    def test_withdraw_last_route(self):
        decision, sink, branches = build_decision()
        route = resolved(bgp_route("10.0.0.0/8", peer="p1"))
        branches["p1"].originate(route)
        branches["p1"].withdraw(route.net)
        assert sink.table() == {}

    def test_withdraw_loser_is_silent(self):
        decision, sink, branches = build_decision()
        best = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,)))
        alt = resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(1, 2)))
        branches["p1"].originate(best)
        branches["p2"].originate(alt)
        count = len(sink.log)
        branches["p2"].withdraw(alt.net)
        assert len(sink.log) == count

    def test_replace_winner_reelects(self):
        decision, sink, branches = build_decision()
        best = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,)))
        alt = resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(1, 2)))
        branches["p1"].originate(best)
        branches["p2"].originate(alt)
        worse = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1, 2, 3)))
        branches["p1"].originate(worse)  # replace: p1 now has a longer path
        assert sink.table()[best.net] is alt

    def test_ranking_key_total_order(self):
        routes = [
            resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,))),
            resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(1, 2))),
            resolved(bgp_route("10.0.0.0/8", peer="p3", local_pref=300)),
        ]
        keys = [route_ranking_key(r, PEERS[r.peer_id]) for r in routes]
        assert len(set(keys)) == len(keys)


class WinnerTable(RouteTableStage):
    """The decision's half of the fanout's contract, alone: the winners
    trie the fanout dumps from, updated before each change goes on to
    the fanout plumbed after it."""

    def __init__(self, fanout):
        super().__init__("winners")
        self.winners = RouteTrie()
        self.set_next(fanout)

    def add_routes(self, routes, caller=None):
        for route in routes:
            self.winners.insert(route.net, route)
        self.next_table.add_routes(routes, caller=self)

    def delete_routes(self, routes, caller=None):
        for route in routes:
            self.winners.remove(route.net)
        self.next_table.delete_routes(routes, caller=self)

    def replace_route(self, old, new, caller=None):
        self.winners.insert(new.net, new)
        self.next_table.replace_route(old, new, caller=self)


class TestFanout:
    def _build(self, loop):
        fanout = FanoutQueue("fanout", loop, dump_slice=4)
        self.table = WinnerTable(fanout)
        logs = {}
        self.runs = runs = {}

        def attach(name, dump=True):
            logs[name] = []
            runs[name] = []

            def deliver(op, routes, old, n=name):
                # A reader takes runs; the flattened log is the singular
                # event sequence the assertions below are written against.
                runs[n].append((op, len(routes)))
                logs[n].extend((op, r.net) for r in routes)

            fanout.add_reader(name, deliver, dump=dump)

        return fanout, logs, attach

    def test_all_readers_receive(self, loop):
        fanout, logs, attach = self._build(loop)
        attach("a", dump=False)
        attach("b", dump=False)
        self.table.add_routes([resolved(bgp_route("10.0.0.0/8"))])
        loop.run()
        assert logs["a"] == logs["b"] == [("add", net("10.0.0.0/8"))]

    def test_a_turns_burst_is_one_run_per_op(self, loop):
        fanout, logs, attach = self._build(loop)
        attach("a", dump=False)
        routes = [resolved(bgp_route(f"10.{i}.0.0/16")) for i in range(6)]
        self.table.add_routes(routes[:3])
        self.table.add_routes([routes[3]])          # same op: joins the run
        self.table.delete_routes(routes[:2])
        better = resolved(bgp_route("10.2.0.0/16", as_path=(7,)))
        self.table.replace_route(routes[2], better)
        self.table.replace_route(better, routes[2])
        self.table.add_routes(routes[4:])
        loop.run()
        assert self.runs["a"] == [("add", 4), ("delete", 2), ("replace", 1),
                                  ("replace", 1), ("add", 2)]
        assert [op for op, __ in logs["a"]] == (
            ["add"] * 4 + ["delete"] * 2 + ["replace"] * 2 + ["add"] * 2)

    def test_replace_run_carries_its_old_route(self, loop):
        fanout = FanoutQueue("fanout", loop)
        self.table = WinnerTable(fanout)
        seen = []
        fanout.add_reader("a", lambda op, routes, old: seen.append(
            (op, list(routes), old)), dump=False)
        first = resolved(bgp_route("10.0.0.0/8"))
        second = resolved(bgp_route("10.0.0.0/8", as_path=(7,)))
        self.table.add_routes([first])
        self.table.replace_route(first, second)
        loop.run()
        assert seen == [("add", [first], None),
                        ("replace", [second], first)]

    def test_runs_are_capped(self, loop):
        fanout, logs, attach = self._build(loop)
        fanout.RUN_LIMIT = 4
        attach("a", dump=False)
        self.table.add_routes([resolved(bgp_route(f"10.{i}.0.0/16"))
                           for i in range(10)])
        loop.run()
        assert self.runs["a"] == [("add", 4), ("add", 4), ("add", 2)]
        fanout.dump_slice = 6   # one background slice: runs of 4 + 2
        attach("late", dump=True)
        loop.run_once()
        assert self.runs["late"] == [("add", 4), ("add", 2)]
        loop.run()
        assert len(logs["late"]) == 10

    def test_busy_reader_queues(self, loop):
        fanout, logs, attach = self._build(loop)
        attach("a", dump=False)
        attach("b", dump=False)
        fanout.set_reader_busy("b", True)
        for i in range(5):
            self.table.add_routes([resolved(bgp_route(f"10.{i}.0.0/16"))])
        loop.run()
        assert len(logs["a"]) == 5
        assert logs["b"] == []
        assert fanout.queue_length == 5  # held for the slow reader
        fanout.set_reader_busy("b", False)
        loop.run()
        assert len(logs["b"]) == 5
        assert fanout.queue_length == 0  # single queue drained and trimmed

    def test_busy_dumping_reader_parks(self, loop):
        """A busy reader's dump parks instead of spinning the loop with
        no-op slices; ready again, it delivers every winner once."""
        fanout, logs, attach = self._build(loop)
        routes = [resolved(bgp_route(f"10.{i}.0.0/16")) for i in range(100)]
        self.table.add_routes(routes)
        slices = []
        dump_slice = fanout._dump_slice
        fanout._dump_slice = lambda reader: (
            slices.append(reader.name) or dump_slice(reader))
        attach("late", dump=True)
        fanout.set_reader_busy("late", True)
        for __ in range(50):
            loop.run_once(block=False)
        assert slices == ["late"]  # the one that found it busy and parked
        assert not loop.tasks.have_work()
        assert logs["late"] == []
        fanout.set_reader_busy("late", False)
        loop.run()
        assert sorted(n.key() for __, n in logs["late"]) == sorted(
            route.net.key() for route in routes)

    def test_single_queue_not_per_reader(self, loop):
        """Paper: one queue with n readers, not n queues."""
        fanout, logs, attach = self._build(loop)
        for name in ("a", "b", "c"):
            attach(name, dump=False)
            fanout.set_reader_busy(name, True)
        for i in range(100):
            self.table.add_routes([resolved(bgp_route(f"10.{i}.0.0/16"))])
        assert fanout.queue_length == 100  # not 300

    def test_late_reader_gets_background_dump(self, loop):
        fanout, logs, attach = self._build(loop)
        attach("early", dump=False)
        for i in range(10):
            self.table.add_routes([resolved(bgp_route(f"10.{i}.0.0/16"))])
        loop.run()
        attach("late", dump=True)
        loop.run()
        assert len(logs["late"]) == 10
        assert sorted(n.key() for __, n in logs["late"]) == sorted(
            n.key() for __, n in logs["early"])

    def test_dump_interleaved_with_live_changes(self, loop):
        fanout, logs, attach = self._build(loop)
        attach("early", dump=False)
        for i in range(20):
            self.table.add_routes([resolved(bgp_route(f"10.{i}.0.0/16"))])
        loop.run()
        attach("late", dump=True)
        # While the dump is in progress, delete some routes and add others.
        loop.run_once()  # one dump slice (4 routes)
        self.table.delete_routes([self.table.winners.exact(net("10.1.0.0/16"))])
        self.table.delete_routes([self.table.winners.exact(net("10.19.0.0/16"))])
        self.table.add_routes([resolved(bgp_route("10.99.0.0/16"))])
        loop.run()
        # Reconstruct the late reader's table; must equal current winners.
        state = set()
        for op, prefix in logs["late"]:
            if op == "add":
                assert prefix not in state, f"duplicate add {prefix}"
                state.add(prefix)
            elif op == "delete":
                assert prefix in state, f"spurious delete {prefix}"
                state.discard(prefix)
            else:
                assert prefix in state
        expected = {n for n, __ in self.table.winners.items()}
        assert state == expected

    def test_remove_reader_trims_queue(self, loop):
        fanout, logs, attach = self._build(loop)
        attach("a", dump=False)
        attach("b", dump=False)
        fanout.set_reader_busy("b", True)
        self.table.add_routes([resolved(bgp_route("10.0.0.0/8"))])
        loop.run()
        assert fanout.queue_length == 1
        fanout.remove_reader("b")
        assert fanout.queue_length == 0

    def test_duplicate_reader_rejected(self, loop):
        fanout, logs, attach = self._build(loop)
        attach("a", dump=False)
        with pytest.raises(ValueError):
            fanout.add_reader("a", lambda *a: None)


class TestDamping:
    def _flap(self, loop, stage, route, times):
        for __ in range(times):
            stage.add_routes([route])
            stage.delete_routes([route])

    def test_stable_route_unaffected(self, loop):
        stage = DampingStage("damp", loop, suppress_threshold=2000)
        sink = SinkStage()
        stage.set_next(sink)
        route = resolved(bgp_route("10.0.0.0/8"))
        stage.add_routes([route])
        assert sink.table()[route.net] is route
        assert stage.suppress_count == 0

    def test_flapping_route_suppressed(self, loop):
        stage = DampingStage("damp", loop, suppress_threshold=2000,
                             half_life=900)
        sink = SinkStage()
        stage.set_next(sink)
        route = resolved(bgp_route("10.0.0.0/8"))
        self._flap(loop, stage, route, 3)  # 3000 penalty
        stage.add_routes([route])
        assert stage.suppress_count >= 1 or route.net not in sink.table()
        assert route.net not in sink.table()

    def test_suppressed_route_reused_after_decay(self, loop):
        stage = DampingStage("damp", loop, suppress_threshold=2000,
                             reuse_threshold=750, half_life=10.0)
        sink = SinkStage()
        stage.set_next(sink)
        route = resolved(bgp_route("10.0.0.0/8"))
        self._flap(loop, stage, route, 3)
        stage.add_routes([route])
        assert route.net not in sink.table()
        # Half-life 10s: penalty 3000 -> below 750 within ~25s.
        loop.run(duration=40)
        assert route.net in sink.table()

    def test_withdrawal_while_suppressed(self, loop):
        stage = DampingStage("damp", loop, suppress_threshold=2000,
                             reuse_threshold=750, half_life=10.0)
        sink = SinkStage()
        stage.set_next(sink)
        route = resolved(bgp_route("10.0.0.0/8"))
        self._flap(loop, stage, route, 3)
        stage.add_routes([route])   # suppressed, held
        stage.delete_routes([route])  # withdrawn while suppressed
        loop.run(duration=60)
        assert route.net not in sink.table()  # never resurrected

    def test_penalty_decays(self, loop):
        stage = DampingStage("damp", loop, half_life=10.0)
        sink = SinkStage()
        stage.set_next(sink)
        route = resolved(bgp_route("10.0.0.0/8"))
        stage.add_routes([route])
        stage.delete_routes([route])
        p0 = stage.penalty_of(route.net)
        loop.clock.advance(10.0)
        assert stage.penalty_of(route.net) == pytest.approx(p0 / 2, rel=0.01)

    def test_batches_leave_as_batches(self, loop):
        """Three routes in with one suppressed: one two-route batch out.
        The reuse scan re-announces everything it held in one batch."""
        stage = DampingStage("damp", loop, suppress_threshold=2000,
                             reuse_threshold=750, half_life=10.0)
        batches = []

        class BatchLog(RouteTableStage):
            def add_routes(self, routes, *, caller=None):
                batches.append(list(routes))

        stage.set_next(BatchLog("log"))
        first, second = (resolved(bgp_route(p))
                         for p in ("10.0.0.0/8", "20.0.0.0/8"))
        self._flap(loop, stage, first, 3)  # 3000 penalty: suppressed next
        self._flap(loop, stage, second, 3)
        batches.clear()
        a, b = (resolved(bgp_route(p)) for p in ("11.0.0.0/8", "12.0.0.0/8"))
        stage.add_routes([a, first, b])
        assert batches == [[a, b]]
        stage.add_routes([second])
        assert batches == [[a, b]]
        # Half-life 10 s: 3000 falls below 750 by the scan at 30 s.
        loop.run(duration=40)
        assert batches == [[a, b], [first, second]]
        assert stage.suppress_count == 2

    def test_other_stages_unaware(self, loop):
        """Paper: 'The code does not impact other stages.'"""
        origin = OriginStage("in")
        stage = DampingStage("damp", loop)
        sink = SinkStage()
        RouteTableStage.plumb(origin, stage, sink)
        route = resolved(bgp_route("10.0.0.0/8"))
        origin.originate(route)
        assert sink.lookup_route(route.net) is route


class TestDecisionUnresolvableTransitions:
    """Resolvability flips at decision level (complements RIB ExtInt tests)."""

    def test_winner_turning_unresolvable_is_withdrawn(self, loop):
        decision, sink, branches = build_decision(("p1",))
        answers_route = resolved(bgp_route("10.0.0.0/8", peer="p1"))
        branches["p1"].originate(answers_route)
        assert answers_route.net in sink.table()
        # The branch revises it to unresolvable (IGP lost the nexthop).
        dead = bgp_route("10.0.0.0/8", peer="p1",
                         resolvable=False, igp_metric=None)
        branches["p1"].originate(dead)
        assert answers_route.net not in sink.table()

    def test_unresolvable_becoming_resolvable_is_announced(self, loop):
        decision, sink, branches = build_decision(("p1",))
        dead = bgp_route("10.0.0.0/8", peer="p1",
                         resolvable=False, igp_metric=None)
        branches["p1"].originate(dead)
        assert sink.log == []
        alive = resolved(bgp_route("10.0.0.0/8", peer="p1"))
        branches["p1"].originate(alive)
        assert sink.table()[alive.net] is alive

    def test_winner_unresolvable_falls_back_to_alternative(self, loop):
        decision, sink, branches = build_decision()
        best = resolved(bgp_route("10.0.0.0/8", peer="p1", as_path=(1,)))
        alt = resolved(bgp_route("10.0.0.0/8", peer="p2", as_path=(1, 2)))
        branches["p1"].originate(best)
        branches["p2"].originate(alt)
        assert sink.table()[best.net] is best
        dead = bgp_route("10.0.0.0/8", peer="p1", as_path=(1,),
                         resolvable=False, igp_metric=None)
        branches["p1"].originate(dead)
        assert sink.table()[alt.net] is alt
