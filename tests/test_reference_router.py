"""One schedule, two routers: FEA + RIB + BGP against the reference.

The system invariant — after quiescence the FIB is a pure function of
the live announcements — checked whole.  One hypothesis strategy
generates schedules (announce or replace, withdraw, ebgp↔ibgp moves
through the one IBGP peer, peer down and later re-announce, import
policy changes, IGP routes of four protocols on nexthop covers and on
BGP prefixes, a RIB restart at a quiet point, and loop turns between
any of them); one runner feeds each schedule to the real router on a
simulated-clock host and to :class:`repro.simnet.reference.
ReferenceRouter`, then asserts that the FIB, the RIB's winners and
ebgp/ibgp tables, BGP's decision and a ``redist4`` consumer of static
routes all equal the reference's, with the stage sanitizer silent.  It
runs at fanout run caps 1 and 256, and with BGP's RIB stream window at
1, where every multi-route run waits in the fanout queue for the RIB
reader to pull it a route at a time.

Every schedule runs under a :class:`~repro.sanitizer.ScheduleShuffler`
whose seed hypothesis draws with it: same-deadline timers, one turn's
deferred callbacks and same-priority tasks run in a seeded order, which
the router may not depend on (paper §4).  The seed is the reproducer.

The RIB-alone scope feeds the announcements straight into the RIB's
ebgp table.  With BGP in front, BGP's own resolver withdraws a route
whose nexthop lost its cover, which hides whether the RIB's ExtInt
stage re-resolves it; alone, only ExtInt can.
"""

from contextlib import nullcontext

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.bgp import BgpProcess, decision
from repro.core.txqueue import RouteStream
from repro.net import IPNet, IPv4
from repro.rib import RibProcess
from repro.rib.extint import ExtIntStage
from repro.rib.redist import RedistStage
from repro.rib.route import RibRoute
from repro.sanitizer import ScheduleShuffler, StageSanitizer
from repro.simnet.reference import EXTERNAL, INTERNAL, Peer, ReferenceRouter
from tests.test_rib_stages import RedistSink
from tests.test_vector_route_stream import (
    LOCAL_AS,
    PEERS,
    Router,
    attributes_for,
)

ADDRS = [IPv4(addr) for addr, __ in PEERS]
NETS = [IPNet.parse(f"99.{i}.0.0/16") for i in range(4)]
#: each peer's nexthop has a /24 of its own, and 10/8 covers all three
COVERS = [IPNet.parse(f"10.0.{i}.0/24") for i in range(3)] + [
    IPNet.parse("10.0.0.0/8")]
IGP_NEXTHOPS = {protocol: IPv4(f"192.168.0.{i}")
                for i, protocol in enumerate(INTERNAL)}


def _policy(text):
    return f"policy-statement p {{ term t {{ {text} }} }}"


DROP_99_2 = IPNet.parse("99.2.0.0/16")
#: the import policies a schedule switches between: (source, the same
#: policy as a Python function); source None resets the filter
POLICIES = [
    (None, None),
    (_policy("from { network4 orlonger 99.2.0.0/16; } then { reject; }"),
     lambda net, attributes, peer: (
         None if DROP_99_2.contains(net) else attributes)),
    (_policy("from { neighbor: 10.0.1.2; } then { localpref: 200; }"),
     lambda net, attributes, peer: (
         attributes.replace(local_pref=200) if peer == ADDRS[1]
         else attributes)),
    (_policy("from { neighbor: 10.0.0.2; } then { med: 7; }"),
     lambda net, attributes, peer: (
         attributes.replace(med=7) if peer == ADDRS[0] else attributes)),
]

peers = st.integers(0, len(PEERS) - 1)
nets = st.lists(st.sampled_from(NETS), min_size=1, max_size=3, unique=True)
igp_nets = st.sampled_from(COVERS + NETS)
#: each step's weight (in twentieths of a schedule) and arguments
STEPS = {
    "announce": (6, (peers, nets, st.integers(1, 2))),
    "withdraw": (2, (peers, nets)),
    "down": (1, (peers,)),
    "policy": (2, (st.integers(0, len(POLICIES) - 1),)),
    "igp_add": (2, (st.sampled_from(INTERNAL), igp_nets, st.integers(1, 3))),
    "igp_delete": (3, (igp_nets,)),
    "restart": (1, ()),
    "turns": (2, (st.integers(1, 3),)),
    "quiesce": (1, ()),
}
schedules = st.lists(
    st.sampled_from([kind for kind, (weight, __) in STEPS.items()
                     for __ in range(weight)]).flatmap(
        lambda kind: st.tuples(st.just(kind), *STEPS[kind][1])),
    min_size=8, max_size=30,
)
#: the schedule shuffler's seed, drawn with each schedule
seeds = st.integers(0, 2**32 - 1)

#: the tier-1 budget, derandomized so the seeded-mutation matrix below is
#: deterministic, and without the shrink phase: a failing schedule is
#: reported as drawn, in a fraction of a second rather than after a minute
#: of shrinking, and the verdict is the same.  CI's Oracle sweep loads the
#: wider ``oracle-sweep`` profile (tests/conftest.py) instead, which
#: shrinks.
TIER1 = (settings(deadline=None)
         if settings.get_current_profile_name() == "oracle-sweep" else
         settings(max_examples=150, derandomize=True, deadline=None,
                  database=None,
                  phases=[Phase.explicit, Phase.reuse, Phase.generate]))


class Drive:
    """One schedule fed to the real router and to the reference.

    *scope* is ``router`` (FEA + RIB + BGP), ``rib`` (FEA + RIB, the
    announcements fed to its ebgp table) or ``reference`` (no router).
    Every schedule starts from one static route covering each nexthop.
    """

    def __init__(self, scope="router", **router_options):
        self.alone = scope == "rib"
        self.reference = ReferenceRouter(LOCAL_AS, [
            Peer(addr, asn, asn == LOCAL_AS)
            for addr, (__, asn) in zip(ADDRS, PEERS)])
        for cover in COVERS[:3]:
            self.reference.add_route("static", cover,
                                     IGP_NEXTHOPS["static"], 1)
        self.router = self.sink = None
        if scope != "reference":
            self.router = Router(connected=False, bgp=not self.alone,
                                 **router_options)
            self.sink = RedistSink(self.router.host)
            self._seed(self.router.rib)
            self.quiesce()

    def _seed(self, rib):
        """A new RIB gets every table and route the runner feeds it."""
        rib.xrl_add_igp_table4("rip")
        rib.xrl_add_igp_table4("ospf")
        if self.alone:
            rib.xrl_add_egp_table4("ebgp")
        for protocol, table in self.reference.tables.items():
            for net, (nexthop, metric) in table.items():
                rib.xrl_add_route4(protocol, net, nexthop, metric, [])
        rib.xrl_redist_enable4(self.sink.name, "static")

    def run(self, ops):
        for kind, *args in ops:
            getattr(self, kind)(*args)
        return self

    # -- schedule steps ----------------------------------------------------
    def announce(self, peer, nets, path_len=1):
        if self.alone:
            for net in nets:
                self.reference.add_route("ebgp", net, ADDRS[peer], path_len)
            self.router.rib.v4.origin("ebgp").originate_batch([
                RibRoute(net, ADDRS[peer], path_len, "ebgp",
                         is_external=True) for net in nets])
            return
        for net in nets:
            self.reference.announce(ADDRS[peer], net,
                                    attributes_for(peer, path_len))
        if self.router:
            self.router.announce(peer, nets, path_len)

    def withdraw(self, peer, nets):
        if self.alone:
            self._withdraw_fed(peer, nets)
            return
        for net in nets:
            self.reference.withdraw(ADDRS[peer], net)
        if self.router:
            self.router.withdraw(peer, nets)

    def down(self, peer):
        if self.alone:
            self._withdraw_fed(peer, NETS)
            return
        self.reference.peer_down(ADDRS[peer])
        if self.router:
            self.router.handlers[peer].session_down("test")

    def _withdraw_fed(self, peer, nets):
        """Without BGP, a peer withdraws the ebgp routes it last fed."""
        table = self.reference.tables["ebgp"]
        gone = [net for net in nets
                if table.get(net, (None,))[0] == ADDRS[peer]]
        for net in gone:
            self.reference.delete_route("ebgp", net)
        self.router.rib.v4.origin("ebgp").withdraw_batch(gone)

    def policy(self, index):
        if self.alone:
            return
        source, function = POLICIES[index]
        self.reference.set_policy(function)
        if self.router:
            bgp = self.router.bgp
            if source is None:
                bgp.xrl_reset_filter(bgp.FILTER_IMPORT)
            else:
                bgp.xrl_configure_filter(bgp.FILTER_IMPORT, source)

    def igp_add(self, protocol, net, metric):
        """*protocol* announces (or replaces) its route to *net*."""
        nexthop = IGP_NEXTHOPS[protocol]
        self.reference.add_route(protocol, net, nexthop, metric)
        self.router.rib.xrl_add_route4(protocol, net, nexthop, metric, [])

    def igp_delete(self, net):
        """One IGP route to *net* goes away: connected's if there is
        one, else static's, rip's or ospf's."""
        tables = self.reference.tables
        for protocol in (p for p in INTERNAL if net in tables[p]):
            self.reference.delete_route(protocol, net)
            self.router.rib.xrl_delete_route4(protocol, net)
            return

    def restart(self, settle=True):
        """Kill the RIB at a quiet point and start a new one, which the
        runner re-seeds (BGP resyncs it by itself)."""
        self.quiesce()
        self.router.rib.shutdown()
        self.quiesce()
        self.sink.log.clear()
        self.router.rib = RibProcess(self.router.host)
        self._seed(self.router.rib)
        if settle:
            self.quiesce()

    def turns(self, count):
        if self.router:
            for __ in range(count):
                self.router.host.loop.run_once(block=False)

    def quiesce(self):
        if self.router:
            self.router.run()

    # -- the verdict --------------------------------------------------------
    def expected(self):
        reference = self.reference
        state = {"fib": reference.fib(), "winners": reference.winners(),
                 "tables": reference.rib_tables(),
                 "redist": reference.redist("static")}
        if not self.alone:
            state["loc_rib"] = {
                net: (str(addr), attributes, metric)
                for net, (addr, attributes, metric)
                in reference.loc_rib().items()}
        return state

    def observed(self):
        router = self.router
        rib = router.rib.v4
        tables = {protocol: {net: (route.nexthop, route.metric)
                             for net, route in origin.routes.items()}
                  for protocol, origin in rib.origins.items()}
        state = {
            "fib": {net: entry.nexthop
                    for net, entry in router.fea.fib4.entries()},
            "winners": {net: (route.protocol, route.nexthop, route.metric)
                        for net, route in rib.register.winners.items()},
            "tables": {protocol: tables.get(protocol, {})
                       for protocol in EXTERNAL},
            "redist": self.sink.table(),
        }
        if router.bgp is not None:
            state["loc_rib"] = {
                net: (route.peer_id, route.attributes, route.igp_metric)
                for net, route in router.bgp.decision.winners.items()}
        return state

    def check(self):
        self.quiesce()
        observed, expected = self.observed(), self.expected()
        for part in expected:
            assert observed[part] == expected[part], part


def run(ops, seed=None, *, scope="router", run_limit=None, window=None):
    """Drive *ops* under the stage sanitizer and, given a *seed*, that
    seed's schedule shuffler; then check the verdict."""
    shuffler = nullcontext() if seed is None else ScheduleShuffler(seed)
    with StageSanitizer() as sanitizer, shuffler:
        drive = Drive(scope, run_limit=run_limit, window=window)
        try:
            drive.run(ops).check()
        finally:
            drive.router.host.shutdown()
    assert not sanitizer.violations, "\n".join(
        violation.render() for violation in sanitizer.violations)


@pytest.mark.parametrize("run_limit, window", [(1, None), (256, None),
                                               (256, 1)])
@TIER1
@given(schedules, seeds)
def test_router_matches_the_reference(run_limit, window, ops, seed):
    run(ops, seed, run_limit=run_limit, window=window)


@TIER1
@given(schedules, seeds)
def test_rib_alone_matches_the_reference(ops, seed):
    run(ops, seed, scope="rib")


# ---------------------------------------------------------------------------
# minimised schedules of defects the runner found


@pytest.mark.parametrize("run_limit", [1, 256])
def test_peer_down_then_policy_change_leaves_no_ghost(run_limit):
    """The routes a peering left in its deletion stage must leave the
    in-filter under the policy that let them in."""
    run([("announce", 0, [NETS[2]]), ("down", 0), ("policy", 1)],
        run_limit=run_limit)


@pytest.mark.parametrize("run_limit", [1, 256])
def test_second_policy_change_supersedes_a_running_refilter(run_limit):
    run([("announce", 0, [NETS[0], NETS[2]]), ("policy", 0),
         ("policy", 1)], run_limit=run_limit)


@pytest.mark.parametrize("run_limit", [1, 256])
def test_withdraw_while_a_replace_waits_on_its_nexthop(run_limit):
    """The new cover invalidates the nexthop, so the replace parks in
    the resolver stage; the withdrawal must still take the version that
    stayed forwarded."""
    run([("announce", 0, [NETS[0]], 1), ("quiesce",),
         ("igp_add", "connected", COVERS[0], 1), ("turns", 1),
         ("announce", 0, [NETS[0]], 1), ("withdraw", 0, [NETS[0]])],
        run_limit=run_limit)


def test_invalidation_that_overtakes_a_nexthop_answer():
    """BGP's nexthop query and the RIB's invalidation of the cover travel
    apart; in this seed's order the invalidation lands first, and the
    answer from before the new cover must not stay in BGP's cache."""
    run([("announce", 0, [NETS[0]], 1), ("turns", 1),
         ("igp_add", "connected", COVERS[0], 2)], seed=1)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: resync_fea only adds, so the FEA keeps a route "
    "the dead RIB installed and the reborn one never had"))
def test_restart_then_churn_before_quiescence():
    drive = Drive()
    try:
        drive.run([("announce", 0, [NETS[0]]),
                   ("announce", 2, [NETS[0], NETS[1]]), ("quiesce",)])
        drive.restart(settle=False)
        drive.run([("announce", 0, [NETS[0]]), ("down", 2)]).check()
    finally:
        drive.router.host.shutdown()


# ---------------------------------------------------------------------------
# seeded mutations: no test above is written for any of these bugs


def _flip_peer_address_tie_break(monkeypatch):
    rank = decision.route_ranking_key
    monkeypatch.setattr(decision, "route_ranking_key", lambda route, peer: (
        rank(route, peer)[:-1] + (-rank(route, peer)[-1],)))


def _skip_reresolution_on_internal_delete(monkeypatch):
    delete_one = ExtIntStage._delete_one

    def mutated(self, route):
        if route.is_external:
            return delete_one(self, route)
        self.internal.discard(route.net)
        self._reevaluate(route.net)

    monkeypatch.setattr(ExtIntStage, "_delete_one", mutated)


def _redist_dump_keeps_nothing(monkeypatch):
    monkeypatch.setattr(RedistStage, "dump_keep",
                        lambda self, name: lambda route: False)


def _resync_rib_does_nothing(monkeypatch):
    monkeypatch.setattr(BgpProcess, "resync_rib", lambda self: None)


def _send_a_busy_key_again(monkeypatch):
    """A newer op for a prefix whose last op is still on the wire is sent
    at once instead of waiting for the reply: the two XRLs are delivered
    in send order unless one turn's deliveries are shuffled."""
    submit = RouteStream.submit

    def mutated(self, group, op, routes):
        self._busy.difference_update((group, r.net) for r in routes)
        submit(self, group, op, routes)

    monkeypatch.setattr(RouteStream, "submit", mutated)


MUTATIONS = {
    "tie_break": (_flip_peer_address_tie_break, "router"),
    "extint_reresolution": (_skip_reresolution_on_internal_delete, "rib"),
    "redist_dump": (_redist_dump_keeps_nothing, "router"),
    "restart_replay": (_resync_rib_does_nothing, "router"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_the_runner_finds_a_seeded_bug(monkeypatch, name):
    mutate, scope = MUTATIONS[name]
    mutate(monkeypatch)

    @settings(TIER1, phases=[Phase.explicit, Phase.generate],
              report_multiple_bugs=False)
    @given(schedules, seeds)
    def matches_the_reference(ops, seed):
        run(ops, seed, scope=scope)

    with pytest.raises(AssertionError):
        matches_the_reference()


@pytest.mark.parametrize("options", [
    {"run_limit": 1}, {"run_limit": 256}, {"run_limit": 256, "window": 1},
    {"scope": "rib"}], ids=["cap1", "cap256", "window1", "rib"])
def test_only_the_shuffled_runner_finds_an_ordering_bug(monkeypatch,
                                                        options):
    """The schedule a shuffled run fails on passes unshuffled: in send
    order, the two XRLs of one prefix arrive as they left."""
    _send_a_busy_key_again(monkeypatch)
    failed = []

    @settings(TIER1, phases=[Phase.explicit, Phase.generate],
              report_multiple_bugs=False)
    @given(schedules, seeds)
    def matches_the_reference(ops, seed):
        try:
            run(ops, seed, **options)
        except AssertionError:
            failed.append(ops)
            raise

    with pytest.raises(AssertionError):
        matches_the_reference()
    run(failed[-1], **options)
