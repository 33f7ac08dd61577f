"""The route stream as vectors: fanout runs → ``rib/1.0 add_routes4`` /
``delete_routes4`` → one ``fea_fib/1.0 add_entries4`` per segment.

A burst that one UPDATE puts on the fanout queue must reach the FIB as a
burst — and must mean exactly what the same burst means one route at a
time.  Every equivalence here is checked against the reference router
(``tests/test_reference_router.py``), over TCP and under frame loss and
duplication as in one interpreter.
"""

import pytest

from repro.bgp import BgpProcess
from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.messages import UpdateMessage
from repro.bgp.peer import PeerConfig
from repro.core.process import Host, XorpProcess
from repro.eventloop import EventLoop, SystemClock
from repro.fea import FeaProcess
from repro.net import IPNet, IPv4, IPv6
from repro.rib import RibProcess
from repro.rib.route import RibRoute
from repro.sanitizer import StageSanitizer
from repro.xrl import Xrl, XrlArgs, XrlAtom, XrlAtomType
from repro.xrl.error import XrlErrorCode
from repro.xrl.retry import RetryPolicy
from repro.xrl.transport import FaultFamily, TcpFamily

LOCAL_AS = 65000
#: (peer address, peer AS): two EBGP peers and one IBGP peer, so a
#: prefix's winner can move between the RIB's ebgp and ibgp tables
PEERS = [("10.0.0.2", 65002), ("10.0.1.2", 65003), ("10.0.2.2", LOCAL_AS)]
PREFIXES = [IPNet.parse(f"99.{i}.0.0/16") for i in range(8)]


def attributes_for(peer, path_len):
    """What PEERS[*peer*] announces: its own AS first (none over IBGP),
    padded to *path_len* ASes."""
    asn = PEERS[peer][1]
    path = [] if asn == LOCAL_AS else [asn]
    path += [64000 + i for i in range(path_len - 1)]
    return PathAttributeList(
        origin=Origin.IGP, as_path=ASPath.from_sequence(*path),
        nexthop=IPv4(PEERS[peer][0]))


class Router:
    """FEA + RIB + BGP on one simulated-clock host, driven by handing
    decoded UPDATEs to the peer handlers (no sessions needed).  With
    *tcp* the three talk over real sockets on a wall-clock loop.  Every
    nexthop resolves through a connected 10/8 unless *connected* is
    false; without *bgp* it is FEA + RIB alone.  *run_limit* and *window*
    set BGP's fanout run cap and its RIB stream's window."""

    def __init__(self, *, run_limit=None, window=None, retry=None,
                 fault=None, tcp=False, connected=True, bgp=True):
        self.tcp = tcp
        self.host = (Host(EventLoop(SystemClock()),
                          extra_families=[TcpFamily()]) if tcp else Host())
        self.fault = (FaultFamily.wrap_host(self.host, **fault)
                      if fault is not None else None)
        self.fea = FeaProcess(self.host)
        self.rib = RibProcess(self.host, retry_policy=retry)
        self.bgp, self.handlers = None, []
        if bgp:
            self.bgp = BgpProcess(self.host, local_as=LOCAL_AS,
                                  bgp_id=IPv4("9.9.9.9"), retry_policy=retry)
            if run_limit is not None:
                self.bgp.fanout.RUN_LIMIT = run_limit
            if window is not None:
                self.bgp.txq.window = window
            self.handlers = [
                self.bgp.add_peer(PeerConfig(IPv4(addr), asn, LOCAL_AS,
                                             IPv4("10.0.0.1")))
                for addr, asn in PEERS]
        if connected:
            self.add_connected(self.rib)
        self.run()

    @staticmethod
    def add_connected(rib):
        # Every peer's nexthop resolves through this connected route.
        rib.v4.origin("connected").originate(RibRoute(
            IPNet.parse("10.0.0.0/8"), IPv4(0), 0, "connected",
            ifname="eth0"))

    def run(self):
        loop = self.host.loop
        if not self.tcp:
            loop.run()
            return
        # Sockets never quiesce a wall-clock loop: wait for every queue
        # between the UPDATE and the FIB to drain, and every XRL call (a
        # nexthop query holds a burst in the resolver) to be answered.
        assert loop.run_until(
            lambda: not (loop.pending_events() or loop.tasks.have_work()
                         or self.bgp.fanout.queue_length
                         or any(process.xrl._pending for process
                                in (self.fea, self.rib, self.bgp)))
            and self.bgp.txq.idle and self.rib.txq.idle
            and all(stream.idle
                    for stream in self.rib._redist_streams.values())
            and self.fea.driver.settled, timeout=30)

    def announce(self, peer, prefixes, path_len=1):
        self.handlers[peer].update_received(UpdateMessage(
            attributes=attributes_for(peer, path_len),
            nlri=list(prefixes)))

    def withdraw(self, peer, prefixes):
        self.handlers[peer].update_received(
            UpdateMessage(withdrawn=list(prefixes)))

    def fib(self):
        return {str(net): (str(entry.nexthop), entry.ifname)
                for net, entry in self.fea.fib4.entries()}

    def rib_tables(self):
        return {protocol: {str(net): (str(route.nexthop), route.metric)
                           for net, route in origin.routes.items()}
                for protocol, origin in self.rib.v4.origins.items()}

    def sent(self):
        """(BGP→RIB, RIB→FEA) XRLs handed to the transport so far."""
        return self.bgp.txq.sent_count, self.rib.txq.sent_count


def spy_sends(process):
    """Record ``(method, batch hint)`` of every XRL *process* sends."""
    seen = []
    real_send = process.xrl.send

    def send(xrl, callback=None, **kwargs):
        seen.append((xrl.method, kwargs.get("batch", False)))
        return real_send(xrl, callback, **kwargs)

    process.xrl.send = send
    return seen


# ---------------------------------------------------------------------------
# (a) order and equivalence on the vector route stream


class TestVectorEqualsPerRouteStream:
    def test_same_over_tcp_between_the_three_processes(self):
        """One fixed schedule with BGP, RIB and FEA joined by TcpFamily:
        six methods cross bgp→rib and four cross rib→fea, and the FIB
        is only right if each pair's frames are read in send order."""
        from tests.test_reference_router import Drive

        nets = [[PREFIXES[i] for i in indices] for indices in (
            [0, 1, 2, 3, 4, 5], [2, 3, 4], [0, 1, 2, 3], [0, 1, 2],
            [1, 6, 7], [0, 3], [6, 7], [0, 3, 5])]
        ops = [("announce", 0, nets[0], 3),
               ("announce", 1, nets[1], 2),
               ("turns", 1),
               ("announce", 2, nets[2], 1),   # ebgp → ibgp replaces
               ("withdraw", 0, nets[3]),
               ("announce", 0, nets[4], 1),
               ("turns", 2),
               ("down", 1),
               ("withdraw", 2, nets[5]),
               ("quiesce",),
               ("withdraw", 0, nets[6]),
               ("announce", 1, nets[7], 1),
               ("down", 2)]
        for run_limit in (None, 1):
            with StageSanitizer() as sanitizer:
                drive = Drive(run_limit=run_limit, tcp=True)
                sent = spy_sends(drive.router.bgp)
                try:
                    drive.run(ops).check()
                finally:
                    drive.router.host.shutdown()
            assert sanitizer.violations == []
            sends = {method for method, __ in sent}
            vectors = {"add_routes4", "delete_routes4"}
            if run_limit is None:
                assert vectors | {"add_route4", "delete_route4"} <= sends
            else:
                assert not vectors & sends

    def test_withdraw_and_reannounce_in_one_update_keeps_order(self):
        """A vector frame is deferred to the turn's flush, a lone route
        is not: the router must not let the second overtake the first."""
        router = Router()
        nets = PREFIXES[:3]
        router.announce(0, nets)
        router.run()
        attributes = PathAttributeList(
            origin=Origin.IGP, as_path=ASPath.from_sequence(65002, 64001),
            nexthop=IPv4(PEERS[0][0]))
        sends = spy_sends(router.bgp)
        router.handlers[0].update_received(UpdateMessage(
            attributes=attributes, withdrawn=nets, nlri=[nets[2]]))
        router.run()
        assert [m for m, __ in sends] == ["delete_routes4", "add_route4"]
        assert set(router.rib_tables()["ebgp"]) == {str(nets[2])}
        assert set(router.fib()) == {str(nets[2]), "10.0.0.0/8"}

    def test_ebgp_to_ibgp_move_breaks_the_stretch(self):
        router = Router()
        nets = PREFIXES[:4]
        router.announce(0, nets, path_len=3)
        router.run()
        assert set(router.rib_tables()["ebgp"]) == {str(n) for n in nets}
        sends = spy_sends(router.bgp)
        # The IBGP peer's shorter paths take over all four prefixes.
        router.announce(2, nets, path_len=1)
        router.run()
        tables = router.rib_tables()
        assert tables["ebgp"] == {}
        assert set(tables["ibgp"]) == {str(n) for n in nets}
        # Each move is a replace: a run of one, delete-then-add.
        assert [m for m, __ in sends] == ["delete_route4", "add_route4"] * 4


# ---------------------------------------------------------------------------
# (b) XRL counts


class TestXrlCounts:
    def test_200_prefix_update_is_one_xrl_per_hop(self):
        router = Router()
        nets = [IPNet(IPv4(0x63000000 + (i << 8)), 24) for i in range(200)]
        router.announce(0, nets[:1])      # warm the nexthop cache
        router.run()
        bgp_sends, rib_sends = spy_sends(router.bgp), spy_sends(router.rib)
        before = router.sent()
        router.announce(0, nets[1:] + [PREFIXES[0]])
        router.run()
        assert len(router.fea.fib4) == 202
        assert tuple(b - a for a, b in zip(before, router.sent())) == (1, 1)
        assert bgp_sends == [("add_routes4", True)]
        assert rib_sends == [("add_entries4", True)]
        before = router.sent()
        router.withdraw(0, nets[1:] + [PREFIXES[0]])
        router.run()
        assert len(router.fea.fib4) == 2
        assert tuple(b - a for a, b in zip(before, router.sent())) == (1, 1)
        assert bgp_sends[-1] == ("delete_routes4", True)
        assert rib_sends[-1] == ("delete_entries4", True)

    def test_one_prefix_update_stays_singular_and_undeferred(self):
        router = Router()
        router.announce(0, [PREFIXES[1]])  # warm the nexthop cache
        router.run()
        bgp_sends, rib_sends = spy_sends(router.bgp), spy_sends(router.rib)
        before = router.sent()
        router.announce(0, [PREFIXES[0]])
        turns = 0
        while router.fea.fib4.exact(PREFIXES[0]) is None:
            assert router.host.loop.run_once(block=False)
            turns += 1
        router.run()
        assert tuple(b - a for a, b in zip(before, router.sent())) == (1, 1)
        # batch=False: neither hop waits for an end-of-turn flush.
        assert bgp_sends == [("add_route4", False)]
        assert rib_sends == [("add_entry4", False)]

        # Same event with every send deferred to the turn's flush (what
        # the stream did before lone routes were exempted): more turns.
        deferred = Router()
        deferred.announce(0, [PREFIXES[1]])
        deferred.run()
        real_send = deferred.bgp.xrl.send
        deferred.bgp.xrl.send = lambda xrl, callback=None, **kwargs: \
            real_send(xrl, callback, **{**kwargs, "batch": True})
        deferred.announce(0, [PREFIXES[0]])
        deferred_turns = 0
        while deferred.fea.fib4.exact(PREFIXES[0]) is None:
            assert deferred.host.loop.run_once(block=False)
            deferred_turns += 1
        assert turns < deferred_turns

    def test_replace_and_delete_of_one_prefix_are_singular(self):
        router = Router()
        router.announce(0, [PREFIXES[0]], path_len=2)
        router.run()
        sends = spy_sends(router.bgp)
        router.announce(0, [PREFIXES[0]], path_len=1)   # better path
        router.run()
        router.withdraw(0, [PREFIXES[0]])
        router.run()
        assert sends == [("replace_route4", False), ("delete_route4", False)]

    def test_profile_points_keep_one_record_per_route(self):
        router = Router()
        for name in ("route_ribin", "route_queued_rib", "route_sent_rib"):
            router.bgp.profiler.enable(name)
        router.rib.profiler.enable("route_arrive_rib")
        nets = PREFIXES[:5]
        router.announce(0, nets)
        router.run()
        router.withdraw(0, nets[:2])
        router.run()
        expected = ([f"add {net}" for net in nets]
                    + [f"delete {net}" for net in nets[:2]])
        for profiler, name in ((router.bgp.profiler, "route_ribin"),
                               (router.bgp.profiler, "route_queued_rib"),
                               (router.bgp.profiler, "route_sent_rib"),
                               (router.rib.profiler, "route_arrive_rib")):
            records = [data for __, data in profiler.var(name).entries]
            assert records == expected, name


# ---------------------------------------------------------------------------
# (c) the RIB reader pulls through its stream's window


@pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
def test_a_burst_waits_in_the_fanout_queue_not_in_the_stream(tcp):
    """10 000 routes in 50 UPDATEs: at every submit BGP's RIB stream holds
    at most its window; the rest of the burst waits in the fanout queue,
    which drains, and the FIB is the reference's."""
    from tests.test_reference_router import Drive

    nets = [IPNet(IPv4((100 << 24) | (i << 8)), 24) for i in range(10_000)]
    drive = Drive(tcp=tcp)
    bgp = drive.router.bgp
    txq, held, queued = bgp.txq, [], []
    submit = txq.submit

    def observed_submit(*args):
        submit(*args)
        held.append(txq.depth + txq.inflight)
        queued.append(bgp.fanout.queue_length)

    txq.submit = observed_submit
    try:
        drive.run([("announce", 0, nets[start:start + 200])
                   for start in range(0, len(nets), 200)]).check()
        assert bgp.fanout.queue_length == 0
    finally:
        drive.router.host.shutdown()
    assert max(held) <= txq.window == 512
    assert max(queued) > txq.window


# ---------------------------------------------------------------------------
# parallel-list validation (nothing is dropped silently)


def _atoms(name, atom_type, values):
    return [XrlAtom(name, atom_type, value) for value in values]


@pytest.fixture
def probe():
    host = Host()
    fea = FeaProcess(host)
    rib = RibProcess(host)
    client = XorpProcess(host, "probe").create_router("probe")

    def call(target, interface, method, args):
        error, __ = client.send_sync(
            Xrl(target, interface, "1.0", method, args), deadline=10)
        host.loop.run()
        return error

    return host, fea, rib, call


class TestParallelLists:
    NETS4 = ["10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"]
    NETS6 = ["2001:db8:1::/48", "2001:db8:2::/48", "2001:db8:3::/48"]

    def _fea_args(self, family, nets, nexthops, ifnames):
        net_type, hop_type = ((XrlAtomType.IPV4NET, XrlAtomType.IPV4)
                              if family == 4 else
                              (XrlAtomType.IPV6NET, XrlAtomType.IPV6))
        return (XrlArgs()
                .add_list("nets", _atoms("net", net_type, nets))
                .add_list("nexthops", _atoms("nexthop", hop_type, nexthops))
                .add_list("ifnames",
                          _atoms("ifname", XrlAtomType.TXT, ifnames)))

    @pytest.mark.parametrize("family", [4, 6])
    def test_fea_add_entries_rejects_unequal_lengths(self, probe, family):
        host, fea, rib, call = probe
        nets = self.NETS4 if family == 4 else self.NETS6
        hop = "10.0.0.1" if family == 4 else "2001:db8::1"
        fib = fea.fib4 if family == 4 else fea.fib6
        method = f"add_entries{family}"
        error = call("fea", "fea_fib", method, self._fea_args(
            family, nets, [hop] * 2, ["eth0"] * 3))
        assert error.code == XrlErrorCode.BAD_ARGS
        error = call("fea", "fea_fib", method, self._fea_args(
            family, nets, [hop] * 3, ["eth0"]))
        assert error.code == XrlErrorCode.BAD_ARGS
        assert len(fib) == 0, "a rejected vector must apply nothing"
        error = call("fea", "fea_fib", method, self._fea_args(
            family, nets, [hop] * 3, ["eth0"] * 3))
        assert error.is_okay
        assert len(fib) == 3

    @pytest.mark.parametrize("family", [4, 6])
    def test_fea_vectors_reject_a_wrong_inner_type(self, probe, family):
        host, fea, rib, call = probe
        nets = self.NETS4 if family == 4 else self.NETS6
        other = self.NETS6 if family == 4 else self.NETS4
        hop = "10.0.0.1" if family == 4 else "2001:db8::1"
        fib = fea.fib4 if family == 4 else fea.fib6
        good = self._fea_args(family, nets, [hop] * 3, ["eth0"] * 3)
        assert call("fea", "fea_fib", f"add_entries{family}", good).is_okay
        # One net of the other family in an otherwise well-formed frame.
        other_type = (XrlAtomType.IPV6NET if family == 4
                      else XrlAtomType.IPV4NET)
        own_type = (XrlAtomType.IPV4NET if family == 4
                    else XrlAtomType.IPV6NET)
        mixed = (_atoms("net", own_type, nets[:2])
                 + _atoms("net", other_type, other[:1]))
        bad_add = (XrlArgs().add_list("nets", mixed)
                   .add_list("nexthops", list(good.get_list("nexthops")))
                   .add_list("ifnames", list(good.get_list("ifnames"))))
        error = call("fea", "fea_fib", f"add_entries{family}", bad_add)
        assert error.code == XrlErrorCode.BAD_ARGS
        error = call("fea", "fea_fib", f"delete_entries{family}",
                     XrlArgs().add_list("nets", mixed))
        assert error.code == XrlErrorCode.BAD_ARGS
        assert len(fib) == 3, "a rejected delete must remove nothing"

    def _rib_args(self, nets, nexthops, metrics):
        return (XrlArgs().add_txt("protocol", "static")
                .add_list("nets", _atoms("net", XrlAtomType.IPV4NET, nets))
                .add_list("nexthops",
                          _atoms("nexthop", XrlAtomType.IPV4, nexthops))
                .add_list("metrics",
                          _atoms("metric", XrlAtomType.U32, metrics)))

    def test_rib_add_routes_rejects_mismatched_lists(self, probe):
        host, fea, rib, call = probe
        origin = rib.v4.origin("static")
        error = call("rib", "rib", "add_routes4", self._rib_args(
            self.NETS4, ["10.0.0.1"] * 2, [1, 1, 1]))
        assert error.code == XrlErrorCode.BAD_ARGS
        error = call("rib", "rib", "add_routes4", self._rib_args(
            self.NETS4, ["10.0.0.1"] * 3, [1]))
        assert error.code == XrlErrorCode.BAD_ARGS
        wrong_type = (XrlArgs().add_txt("protocol", "static")
                      .add_list("nets", _atoms("net", XrlAtomType.IPV4NET,
                                               self.NETS4))
                      .add_list("nexthops", _atoms("nexthop",
                                                   XrlAtomType.TXT,
                                                   ["10.0.0.1"] * 3))
                      .add_list("metrics", _atoms("metric", XrlAtomType.U32,
                                                  [1, 1, 1])))
        error = call("rib", "rib", "add_routes4", wrong_type)
        assert error.code == XrlErrorCode.BAD_ARGS
        assert origin.route_count == 0 and len(fea.fib4) == 0
        error = call("rib", "rib", "delete_routes4",
                     XrlArgs().add_txt("protocol", "static").add_list(
                         "nets", _atoms("net", XrlAtomType.IPV6NET,
                                        self.NETS6)))
        assert error.code == XrlErrorCode.BAD_ARGS

    def test_rib_vectors_are_idempotent(self, probe):
        """add_routes4 is an upsert and delete_routes4 skips absent
        prefixes, so a frame a RetryPolicy re-sends (or a transport
        duplicates) is harmless — unlike the singular delete."""
        host, fea, rib, call = probe
        origin = rib.v4.origin("static")
        args = self._rib_args(self.NETS4, ["10.0.0.1"] * 3, [1, 2, 3])
        assert call("rib", "rib", "add_routes4", args).is_okay
        assert call("rib", "rib", "add_routes4", args).is_okay
        assert origin.route_count == 3 and len(fea.fib4) == 3
        # An upsert replaces in place.
        moved = self._rib_args(self.NETS4[:1], ["10.0.0.9"], [7])
        assert call("rib", "rib", "add_routes4", moved).is_okay
        assert str(fea.fib4.exact(IPNet.parse(self.NETS4[0])).nexthop) \
            == "10.0.0.9"
        nets = (XrlArgs().add_txt("protocol", "static").add_list(
            "nets", _atoms("net", XrlAtomType.IPV4NET, self.NETS4)))
        assert call("rib", "rib", "delete_routes4", nets).is_okay
        assert call("rib", "rib", "delete_routes4", nets).is_okay
        assert origin.route_count == 0 and len(fea.fib4) == 0
        # The singular delete keeps its error behaviour.
        one = (XrlArgs().add_txt("protocol", "static")
               .add_ipv4net("net", self.NETS4[0]))
        assert call("rib", "rib", "delete_route4", one).code \
            == XrlErrorCode.COMMAND_FAILED
        # An unknown table is an error in both forms.
        ghost = (XrlArgs().add_txt("protocol", "ghost").add_list(
            "nets", _atoms("net", XrlAtomType.IPV4NET, self.NETS4)))
        assert call("rib", "rib", "delete_routes4", ghost).code \
            == XrlErrorCode.COMMAND_FAILED


# ---------------------------------------------------------------------------
# (e) the faults a vector frame newly meets


def _burst_rounds(rounds=5):
    """All three peers: winners move between the RIB's ebgp and ibgp
    tables, a delete then an add of one prefix under two keys."""
    bursts = [PREFIXES[:5], PREFIXES[3:8], PREFIXES[1:6]]
    ops = []
    for round_ in range(rounds):
        for peer, nets in enumerate(bursts):
            ops += [("announce", peer, nets, 1 + (round_ + peer) % 3),
                    ("quiesce",)]
        ops += [("withdraw", round_ % 3, bursts[round_ % 3][1:4]),
                ("quiesce",)]
    return ops


class TestVectorFramesUnderFaults:
    RETRY = dict(max_attempts=10, backoff=0.05, attempt_timeout=0.5)
    OPS = _burst_rounds()

    @pytest.fixture(scope="class")
    def reference(self):
        from tests.test_reference_router import Drive

        return Drive("reference").run(self.OPS).expected()

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("fault", [
        dict(drop_probability=0.25),
        dict(duplicate_probability=0.5),
        dict(drop_probability=0.15, duplicate_probability=0.3),
    ])
    def test_drop_and_duplicate_converge_to_the_reference(self, fault, seed,
                                                          reference):
        from tests.test_reference_router import Drive

        faulted = Drive(
            retry=RetryPolicy(seed=seed + 12, **self.RETRY),
            fault=dict(seed=seed, scope={frozenset({"bgp", "rib"}),
                                         frozenset({"rib", "fea"})}, **fault))
        router = faulted.router
        sends = spy_sends(router.bgp)
        assert faulted.run(self.OPS).observed() == reference
        assert any(method in ("add_routes4", "delete_routes4")
                   for method, __ in sends)
        stats = router.fault.stats
        assert stats.dropped + stats.duplicated > 0
        if fault.get("drop_probability"):
            assert router.bgp.txq.retries + router.rib.txq.retries > 0

    def test_duplicated_delete_routes4_is_not_an_error(self):
        router = Router(fault=dict(
            seed=3, duplicate_probability=1.0,
            scope={frozenset({"bgp", "rib"})}))
        errors = []
        real_send = router.bgp.xrl.send

        def send(xrl, callback=None, **kwargs):
            def watch(error, args):
                if not error.is_okay:
                    errors.append((xrl.method, error))
                if callback is not None:
                    callback(error, args)
            return real_send(xrl, watch, **kwargs)

        router.bgp.xrl.send = send
        router.announce(0, PREFIXES[:4])
        router.run()
        router.withdraw(0, PREFIXES[:4])
        router.run()
        assert router.fault.stats.duplicated >= 2
        assert router.bgp.xrl.late_replies >= 2   # the duplicates' replies
        assert errors == []
        assert router.rib_tables()["ebgp"] == {}
        assert set(router.fib()) == {"10.0.0.0/8"}


def test_ipv6_list_atoms_round_trip_through_parallel_values():
    from repro.interfaces import parallel_values

    nets = _atoms("net", XrlAtomType.IPV6NET, ["2001:db8::/32"])
    hops = _atoms("nexthop", XrlAtomType.IPV6, ["2001:db8::1"])
    assert parallel_values("m", (nets, XrlAtomType.IPV6NET),
                           (hops, XrlAtomType.IPV6)) == [
        [IPNet.parse("2001:db8::/32")], [IPv6("2001:db8::1")]]
    assert parallel_values("m", ([], XrlAtomType.IPV6NET)) == [[]]
