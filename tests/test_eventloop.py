"""Unit tests for the event loop: clocks, timers, tasks, deferred calls."""

import socket

import pytest

from repro.eventloop import (
    EventLoop,
    SimulatedClock,
    SystemClock,
    TaskPriority,
)


@pytest.fixture
def loop():
    return EventLoop(SimulatedClock())


class TestClock:
    def test_simulated_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)

    def test_advance_to_never_goes_back(self):
        clock = SimulatedClock(10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0

    def test_system_clock_monotonic(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()

    def test_simulated_flag(self):
        assert SimulatedClock().is_simulated
        assert not SystemClock().is_simulated


class TestTimers:
    def test_one_shot_fires_at_deadline(self, loop):
        fired = []
        loop.call_later(5.0, lambda: fired.append(loop.now()))
        loop.run()
        assert fired == [5.0]

    def test_ordering(self, loop):
        order = []
        loop.call_later(2.0, lambda: order.append("b"))
        loop.call_later(1.0, lambda: order.append("a"))
        loop.call_later(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_cancel(self, loop):
        fired = []
        timer = loop.call_later(1.0, lambda: fired.append(1))
        timer.cancel()
        loop.run()
        assert fired == []
        assert not timer.scheduled

    def test_periodic(self, loop):
        times = []

        def tick():
            times.append(loop.now())
            if len(times) == 3:
                timer.cancel()

        timer = loop.call_periodic(10.0, tick)
        loop.run()
        assert times == [10.0, 20.0, 30.0]

    def test_periodic_rejects_nonpositive(self, loop):
        with pytest.raises(ValueError):
            loop.call_periodic(0, lambda: None)

    def test_reschedule(self, loop):
        fired = []
        timer = loop.call_later(1.0, lambda: fired.append(loop.now()))
        timer.reschedule_after(5.0)
        loop.run()
        assert fired == [5.0]

    def test_call_at(self, loop):
        fired = []
        loop.call_at(7.5, lambda: fired.append(loop.now()))
        loop.run()
        assert fired == [7.5]

    def test_timer_in_timer(self, loop):
        fired = []
        loop.call_later(1.0, lambda: loop.call_later(1.0, lambda: fired.append(loop.now())))
        loop.run()
        assert fired == [2.0]


class TestDeferred:
    def test_call_soon_runs_before_timers(self, loop):
        order = []
        loop.call_later(0.0, lambda: order.append("timer"))
        loop.call_soon(lambda: order.append("soon"))
        loop.run_once()
        assert order[0] == "soon"

    def test_call_soon_args(self, loop):
        seen = []
        loop.call_soon(seen.append, 42)
        loop.run_once()
        assert seen == [42]

    def test_nested_call_soon_defers_to_next_iteration(self, loop):
        order = []

        def outer():
            order.append("outer")
            loop.call_soon(lambda: order.append("inner"))

        loop.call_soon(outer)
        loop.run_once()
        assert order == ["outer"]
        loop.run_once()
        assert order == ["outer", "inner"]


class TestBackgroundTasks:
    def test_task_runs_to_completion(self, loop):
        work = []

        def step():
            work.append(len(work))
            return len(work) < 5

        loop.spawn_task(step)
        loop.run()
        assert work == [0, 1, 2, 3, 4]

    def test_completion_callback(self, loop):
        done = []
        loop.spawn_task(lambda: False, on_complete=lambda: done.append(True))
        loop.run()
        assert done == [True]

    def test_events_preempt_tasks(self, loop):
        """A background task must not run while events are pending."""
        order = []

        def step():
            order.append("task")
            return len([o for o in order if o == "task"]) < 3

        loop.spawn_task(step)
        loop.call_soon(lambda: order.append("event"))
        loop.run()
        assert order[0] == "event"

    def test_priorities(self, loop):
        order = []
        loop.spawn_task(lambda: order.append("bg") and False,
                        priority=TaskPriority.BACKGROUND)
        loop.spawn_task(lambda: order.append("hi") and False,
                        priority=TaskPriority.HIGH)
        loop.run()
        assert order[0] == "hi"

    def test_round_robin_same_priority(self, loop):
        order = []

        def make(tag):
            count = [0]

            def step():
                count[0] += 1
                order.append(tag)
                return count[0] < 2

            return step

        loop.spawn_task(make("a"))
        loop.spawn_task(make("b"))
        loop.run()
        assert order == ["a", "b", "a", "b"]

    def test_kill(self, loop):
        ran = []
        task = loop.spawn_task(lambda: ran.append(1) or True)
        task.kill()
        loop.run()
        assert ran == []
        assert not task.alive


class TestRunControl:
    def test_run_until_predicate(self, loop):
        state = []
        loop.call_later(3.0, lambda: state.append("x"))
        assert loop.run_until(lambda: bool(state), timeout=10.0)
        assert loop.now() == 3.0

    def test_run_until_timeout(self, loop):
        assert not loop.run_until(lambda: False, timeout=1.0)

    def test_run_duration(self, loop):
        loop.call_periodic(1.0, lambda: None)
        loop.run(duration=5.5)
        assert loop.now() >= 5.5

    def test_stop(self, loop):
        loop.call_later(1.0, loop.stop)
        loop.call_later(100.0, lambda: None)
        loop.run()
        assert loop.now() == 1.0

    def test_quiesces_when_nothing_to_do(self, loop):
        loop.run()  # must return, not hang
        assert loop.now() == 0.0


class TestRealSockets:
    def test_reader_dispatch(self):
        loop = EventLoop(SystemClock())
        a, b = socket.socketpair()
        try:
            a.setblocking(False)
            b.setblocking(False)
            received = []

            def on_readable():
                received.append(b.recv(100))
                loop.remove_reader(b)

            loop.add_reader(b, on_readable)
            a.send(b"hello")
            assert loop.run_until(lambda: bool(received), timeout=5.0)
            assert received == [b"hello"]
        finally:
            a.close()
            b.close()

    def test_writer_dispatch(self):
        loop = EventLoop(SystemClock())
        a, b = socket.socketpair()
        try:
            a.setblocking(False)
            wrote = []

            def on_writable():
                wrote.append(a.send(b"x"))
                loop.remove_writer(a)

            loop.add_writer(a, on_writable)
            assert loop.run_until(lambda: bool(wrote), timeout=5.0)
            assert b.recv(10) == b"x"
        finally:
            a.close()
            b.close()
