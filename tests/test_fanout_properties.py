"""Property-based test of the fanout queue under adversarial schedules.

Random interleavings of route changes, reader attachment (with background
dumps), slow-reader busy toggling, and partial event-loop turns.  After
quiescing, every reader's reconstructed table must equal the winners trie
and every reader's message stream must satisfy the consistency rules.

Readers take *runs* (``deliver(op, routes, old_route)``).  Runs are only
a framing: the same schedule with the run cap forced to 1 must hand every
reader — one attached mid-dump included — the same events in the same
order, one per call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.fanout import FanoutQueue
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4

PREFIX_COUNT = 8


class _Route:
    __slots__ = ("net", "version")

    def __init__(self, index, version):
        self.net = IPNet(IPv4(0x0A000000 + (index << 8)), 24)
        self.version = version

    def __repr__(self):
        return f"_Route({self.net} v{self.version})"


operations = st.lists(
    st.one_of(
        st.tuples(st.just("change"), st.integers(0, PREFIX_COUNT - 1)),
        st.tuples(st.just("attach"), st.integers(0, 3)),
        st.tuples(st.just("busy"), st.integers(0, 3)),
        st.tuples(st.just("ready"), st.integers(0, 3)),
        st.tuples(st.just("turn"), st.integers(1, 4)),
    ),
    max_size=60,
)


def _run_schedule(ops, run_limit=None):
    """Drive *ops* through a fresh fanout; returns it, the mirror of what
    it was told, and per reader the flattened events and the run sizes."""
    loop = EventLoop(SimulatedClock())
    fanout = FanoutQueue("fanout", loop, dump_slice=3)
    if run_limit is not None:
        fanout.RUN_LIMIT = run_limit
    logs = {}
    run_sizes = {}
    version = [0]
    attached = set()

    def attach(name):
        if name in attached:
            return
        attached.add(name)
        logs[name] = []
        run_sizes[name] = []

        def deliver(op, routes, old, n=name):
            assert op != "replace" or len(routes) == 1
            assert op == "replace" or old is None
            run_sizes[n].append(len(routes))
            logs[n].extend((op, route, old) for route in routes)

        fanout.add_reader(name, deliver, dump=True)

    current = {}  # index -> route (mirror of what we told the fanout)
    for op, value in ops:
        if op == "change":
            index = value
            existing = current.get(index)
            version[0] += 1
            if existing is None:
                fresh = _Route(index, version[0])
                current[index] = fresh
                fanout.add_route(fresh)
            elif version[0] % 3 == 0:
                fanout.delete_route(existing)
                del current[index]
            else:
                fresh = _Route(index, version[0])
                fanout.replace_route(existing, fresh)
                current[index] = fresh
        elif op == "attach":
            attach(f"r{value}")
        elif op == "busy":
            name = f"r{value}"
            if name in attached:
                fanout.set_reader_busy(name, True)
        elif op == "ready":
            name = f"r{value}"
            if name in attached:
                fanout.set_reader_busy(name, False)
        else:  # turn: run a few loop iterations mid-stream
            for __ in range(value):
                loop.run_once(block=False)

    # Quiesce: everyone ready, loop drained.
    for name in attached:
        fanout.set_reader_busy(name, False)
    loop.run()
    return fanout, current, logs, run_sizes


def _event_keys(log):
    return [(op, route.net, route.version, old and old.version)
            for op, route, old in log]


@settings(max_examples=60, deadline=None)
@given(operations)
def test_every_reader_converges_to_winners(ops):
    fanout, current, logs, run_sizes = _run_schedule(ops)
    attached = set(logs)

    winners = {net: route for net, route in fanout.winners.items()}
    expected = {route.net: route for route in current.values()}
    assert winners == expected

    for name in attached:
        state = {}
        for op, route, old in logs[name]:
            if op == "add":
                assert route.net not in state, (
                    f"{name}: duplicate add {route.net}")
                state[route.net] = route
            elif op == "delete":
                assert route.net in state, (
                    f"{name}: spurious delete {route.net}")
                del state[route.net]
            else:
                assert route.net in state, (
                    f"{name}: spurious replace {route.net}")
                state[route.net] = route
        assert state == expected, f"{name}: diverged"
    # The drained queue holds nothing once every reader caught up.
    assert fanout.queue_length == 0

    # Runs are only a framing of the per-reader event sequence.
    __, __, singular_logs, singular_sizes = _run_schedule(ops, run_limit=1)
    assert set(singular_logs) == attached
    for name in attached:
        assert all(size == 1 for size in singular_sizes[name])
        assert all(1 <= size <= fanout.RUN_LIMIT for size in run_sizes[name])
        assert _event_keys(logs[name]) == _event_keys(singular_logs[name]), (
            f"{name}: runs do not concatenate to the singular sequence")
