"""The walk a background task parks over a table (paper §5.3): a sorted
snapshot of the keys and a position, over a dict and a trie alike."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPNet, IPv4
from repro.trie import RouteTrie, SnapshotWalk


def net(text):
    return IPNet.parse(text)


class Table:
    """A dict or a trie behind one spelling, so every test runs on both."""

    def __init__(self, kind):
        self.kind = kind
        self.routes = {} if kind == "dict" else RouteTrie(32)

    def put(self, prefix, payload):
        if self.kind == "dict":
            self.routes[net(prefix)] = payload
        else:
            self.routes.insert(net(prefix), payload)

    def drop(self, prefix):
        if self.kind == "dict":
            del self.routes[net(prefix)]
        else:
            self.routes.remove(net(prefix))


@pytest.fixture(params=["dict", "trie"])
def table(request):
    return Table(request.param)


def sixteens(table, count):
    for i in range(count):
        table.put(f"10.{i}.0.0/16", i)


class TestTake:
    def test_take_yields_the_routes_in_prefix_order(self, table):
        for prefix in ("10.1.0.0/16", "9.0.0.0/8", "10.0.0.0/8",
                       "0.0.0.0/0", "10.1.2.0/24"):
            table.put(prefix, prefix)
        walk = SnapshotWalk(table.routes)
        assert walk.take(10) == ["0.0.0.0/0", "9.0.0.0/8", "10.0.0.0/8",
                                 "10.1.0.0/16", "10.1.2.0/24"]
        assert walk.exhausted and walk.take(10) == []

    def test_take_skips_keys_removed_while_parked(self, table):
        sixteens(table, 6)
        walk = SnapshotWalk(table.routes)
        assert walk.take(2) == [0, 1]
        table.drop("10.2.0.0/16")
        table.drop("10.3.0.0/16")
        assert walk.take(1) == [4]
        assert walk.take(5) == [5]
        assert walk.take(5) == [] and walk.exhausted

    def test_take_emits_the_route_a_key_holds_now(self, table):
        sixteens(table, 3)
        walk = SnapshotWalk(table.routes)
        table.put("10.1.0.0/16", "replaced")
        assert walk.take(3) == [0, "replaced", 2]

    def test_take_returns_empty_only_at_the_end(self, table):
        sixteens(table, 3)
        walk = SnapshotWalk(table.routes)
        assert walk.take(2) == [0, 1]
        table.drop("10.2.0.0/16")
        assert not walk.exhausted
        assert walk.take(2) == []
        assert walk.exhausted

    def test_massive_churn_while_parked(self, table):
        """Everything behind and ahead is removed, half of it re-added and
        as much again added new: the walk emits the re-added keys it has
        not passed, nothing it passed and nothing new."""
        sixteens(table, 64)
        walk = SnapshotWalk(table.routes)
        assert walk.take(1) == [0]
        for i in range(64):
            table.drop(f"10.{i}.0.0/16")
        for i in range(0, 64, 2):
            table.put(f"10.{i}.0.0/16", -i)
        for i in range(64):
            table.put(f"172.{i}.0.0/16", i)
        assert walk.take(100) == [-i for i in range(2, 64, 2)]

    def test_two_walks_over_one_table_are_independent(self, table):
        sixteens(table, 4)
        first, second = SnapshotWalk(table.routes), SnapshotWalk(table.routes)
        assert first.take(3) == [0, 1, 2]
        table.drop("10.0.0.0/16")
        assert second.take(2) == [1, 2]
        assert first.take(2) == [3] and second.take(2) == [3]


class TestPending:
    def test_pending_before_and_after_the_position(self, table):
        sixteens(table, 4)
        walk = SnapshotWalk(table.routes)
        assert walk.pending(net("10.0.0.0/16"))
        walk.take(2)
        assert walk.front == net("10.2.0.0/16")
        assert not walk.pending(net("10.0.0.0/16"))
        assert not walk.pending(net("10.1.0.0/16"))
        assert walk.pending(net("10.2.0.0/16"))
        assert walk.pending(net("10.3.0.0/16"))

    def test_a_key_added_after_the_start_is_behind_the_walk(self, table):
        """Ahead of the front in prefix order, but not in the snapshot: the
        walk will not emit it, so it is not pending."""
        table.put("10.0.0.0/16", "a")
        table.put("30.0.0.0/8", "c")
        walk = SnapshotWalk(table.routes)
        table.put("20.0.0.0/8", "b")
        assert walk.front == net("10.0.0.0/16")
        assert not walk.pending(net("20.0.0.0/8"))
        assert walk.pending(net("30.0.0.0/8"))
        assert walk.take(5) == ["a", "c"]

    def test_a_removed_key_readded_is_still_pending(self, table):
        sixteens(table, 4)
        walk = SnapshotWalk(table.routes)
        walk.take(1)
        table.drop("10.2.0.0/16")
        assert walk.pending(net("10.2.0.0/16"))  # it may come back
        table.put("10.2.0.0/16", "again")
        assert walk.pending(net("10.2.0.0/16"))
        assert walk.take(5) == [1, "again", 3]
        table.drop("10.1.0.0/16")
        table.put("10.1.0.0/16", "behind")
        assert not walk.pending(net("10.1.0.0/16"))

    def test_an_empty_table(self, table):
        walk = SnapshotWalk(table.routes)
        assert walk.exhausted and walk.front is None
        assert not walk.pending(net("10.0.0.0/8"))
        table.put("10.0.0.0/8", "late")
        assert walk.take(1) == [] and not walk.pending(net("10.0.0.0/8"))

    def test_close_ends_the_walk(self, table):
        sixteens(table, 4)
        walk = SnapshotWalk(table.routes)
        walk.take(1)
        walk.close()
        assert walk.exhausted and walk.take(4) == []
        assert not walk.pending(net("10.3.0.0/16"))


prefix_strategy = st.builds(
    lambda v, p: IPNet(IPv4(v << 24), p),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=8),
)

churn_strategy = st.lists(
    st.tuples(st.sampled_from(["put", "drop", "take", "pending"]),
              prefix_strategy, st.integers(min_value=0, max_value=3)),
    max_size=60,
)


class TestAgainstAModel:
    """Interleaved churn, takes and ``pending`` questions: the walk
    answers as the model says — the sorted keys at the start, a position,
    and the table read at each key the walk passes."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(prefix_strategy, max_size=30), churn_strategy,
           st.sampled_from(["dict", "trie"]))
    def test_walk_matches_the_model(self, start, ops, kind):
        table = Table(kind)
        model = {}
        for prefix in start:
            table.put(str(prefix), str(prefix))
            model[prefix] = str(prefix)
        walk = SnapshotWalk(table.routes)
        keys, pos = sorted(model), 0
        for op, prefix, count in ops:
            if op == "put":
                table.put(str(prefix), count)
                model[prefix] = count
            elif op == "drop" and prefix in model:
                table.drop(str(prefix))
                del model[prefix]
            elif op == "take":
                expected = []
                while len(expected) < count and pos < len(keys):
                    if keys[pos] in model:
                        expected.append(model[keys[pos]])
                    pos += 1
                assert walk.take(count) == expected
            else:
                assert walk.pending(prefix) == (prefix in keys[pos:])
            assert walk.exhausted == (pos == len(keys))
