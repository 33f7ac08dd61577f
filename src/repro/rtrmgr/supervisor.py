"""Process supervision: the watchdog behind the paper's robustness claim.

    "If a routing protocol process dies, the FEA will know precisely
    which routes ... need to be removed, and the Router Manager knows it
    needs to restart the errant process."  (paper §3, §6.5)

The :class:`Supervisor` is the consumer the Finder's birth/death watches
were built for.  For every supervised module it:

* subscribes to lifetime events, so a crash is noticed the moment the
  dead process deregisters;
* XRL-pings ``common/0.1 get_status`` on a configurable period with a
  per-call deadline, so a *wedged* process (alive but unresponsive) is
  also caught;
* flushes the dead module's routes out of the RIB, so stale forwarding
  state does not outlive its owner;
* restarts the module through the Router Manager, with jittered
  exponential backoff between attempts, a restart-storm budget (give up
  after N restarts inside a sliding window), and dependency-aware
  ordering (the RIB is brought back before the protocols that feed it).

:meth:`Supervisor.add_module` is told each module's dependencies and RIB
tables (from its ``ModuleSpec``); the supervisor keeps no module table.

All timing comes off the shared event loop and all jitter from one
seeded RNG, so supervised recovery is deterministic under the simulated
clock — the chaos tests in ``tests/test_supervision.py`` depend on it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.xrl import XrlArgs, XrlError
from repro.xrl.finder import BIRTH, DEATH
from repro.xrl.xrl import Xrl

UP = "up"
DOWN = "down"
RESTARTING = "restarting"
FAILED = "failed"


class SupervisorPolicy(NamedTuple):
    """Tunable knobs of one supervisor (documented in DESIGN.md).

    *ping_period* / *ping_timeout* / *ping_failures*: how liveness is
    probed and how many consecutive missed pings declare a module wedged.

    *backoff_initial* × *backoff_multiplier* (capped at *backoff_max*,
    spread by ±\\ *jitter*) paces restart attempts; the attempt counter
    resets once a module stays up for *stable_after* seconds.

    *storm_budget* restarts within *storm_window* seconds mark the module
    FAILED — a crash loop is a bug, not a transient, and restarting it
    forever would hide that.
    """

    ping_period: float = 5.0
    ping_timeout: float = 2.0
    ping_failures: int = 3
    backoff_initial: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    storm_window: float = 300.0
    storm_budget: int = 5
    stable_after: float = 60.0
    seed: int = 0


class _ModuleState:
    __slots__ = ("name", "class_name", "restart", "depends_on",
                 "rib_protocols", "status", "instances", "ping_failures",
                 "attempts", "restart_times", "restart_timer",
                 "stable_timer", "last_error")

    def __init__(self, name: str, class_name: str, restart: Callable,
                 depends_on: Tuple[str, ...], rib_protocols: Tuple[str, ...]):
        self.name = name
        self.class_name = class_name
        self.restart = restart
        self.depends_on = depends_on
        self.rib_protocols = rib_protocols
        self.status = DOWN
        self.instances: set = set()
        self.ping_failures = 0
        self.attempts = 0          # consecutive restart attempts
        self.restart_times: List[float] = []   # storm-budget window
        self.restart_timer = None
        self.stable_timer = None
        self.last_error: Optional[str] = None

    def cancel_timers(self) -> None:
        for timer in (self.restart_timer, self.stable_timer):
            if timer is not None:
                timer.cancel()
        self.restart_timer = None
        self.stable_timer = None


class Supervisor:
    """Watchdog over the Router Manager's modules (and friends).

    The manager owns one and registers every module it starts;
    :meth:`add_module` also takes processes created outside the manager
    (a harness's own RIB or FEA) with a custom restart callable.  Call
    :meth:`start` once; :meth:`stop` cancels every timer and watch.
    """

    def __init__(self, manager, policy: Optional[SupervisorPolicy] = None):
        self.manager = manager
        self.loop = manager.loop
        self.finder = manager.host.finder
        self.policy = policy if policy is not None else SupervisorPolicy()
        self._rng = random.Random(self.policy.seed)
        self._modules: Dict[str, _ModuleState] = {}
        self._ping_timer = None
        self._running = False
        self._watcher = f"supervisor:{manager.xrl.instance_name}"
        #: hooks: on_restarted(name, process), on_gave_up(name, reason)
        self.on_restarted: Optional[Callable] = None
        self.on_gave_up: Optional[Callable] = None
        self.restarts = 0
        manager.metrics.gauge("supervisor.restarts", lambda: self.restarts)
        manager.metrics.gauge("supervisor.modules",
                              lambda: len(self._modules))

    # -- registration -------------------------------------------------------
    def add_module(self, name: str, *, restart: Callable,
                   class_name: Optional[str] = None,
                   depends_on: Iterable[str] = (),
                   rib_protocols: Iterable[str] = ()) -> None:
        """Supervise *name*; *restart* must return the new process."""
        if name in self._modules:
            raise ValueError(f"module {name!r} already supervised")
        state = _ModuleState(name, class_name or name, restart,
                             tuple(depends_on), tuple(rib_protocols))
        self._modules[name] = state
        if self._running:
            self._watch(state)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for state in self._modules.values():
            self._watch(state)
        if self.policy.ping_period > 0:
            self._ping_timer = self.loop.call_periodic(
                self.policy.ping_period, self._ping_all,
                name="supervisor-ping")

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._ping_timer is not None:
            self._ping_timer.cancel()
            self._ping_timer = None
        for state in self._modules.values():
            state.cancel_timers()
            self.finder.unwatch(self._watcher, state.class_name)

    def status(self, name: str) -> str:
        return self._modules[name].status

    def _watch(self, state: _ModuleState) -> None:
        # watch() replays a BIRTH per live instance, so status starts true.
        self.finder.watch(
            self._watcher, state.class_name,
            lambda event, cls, instance, s=state:
                self._on_lifetime(s, event, instance))

    # -- lifetime events -----------------------------------------------------
    def _on_lifetime(self, state: _ModuleState, event: str,
                     instance: str) -> None:
        if event == BIRTH:
            state.instances.add(instance)
            if state.status != FAILED:
                state.status = UP
                state.ping_failures = 0
            return
        if event == DEATH:
            state.instances.discard(instance)
            if state.instances or not self._running:
                return
            self.manager.flush_rib(state.rib_protocols)
            if state.status == UP:
                # Unexpected death: the crash path.  (RESTARTING deaths
                # are our own doing and already have a restart queued.)
                state.status = DOWN
                self._schedule_restart(state, f"{instance} died")

    # -- pinging -------------------------------------------------------------
    def _ping_all(self) -> None:
        for state in self._modules.values():
            if state.status == UP:
                self._ping(state)

    def _ping(self, state: _ModuleState) -> None:
        xrl = Xrl(state.class_name, "common", "0.1", "get_status", XrlArgs())

        def completion(error: XrlError, args: XrlArgs) -> None:
            if state.status != UP:
                return  # died (and was handled) while the ping was in flight
            if error.is_okay and args.get_txt("status") == "running":
                state.ping_failures = 0
                return
            state.ping_failures += 1
            if state.ping_failures >= self.policy.ping_failures:
                # Wedged: alive enough to be registered, too sick to
                # answer.  Treat like a death; restart_module tears the
                # old instance down first.
                state.status = DOWN
                self._schedule_restart(
                    state, f"{state.ping_failures} pings missed")

        self.manager.xrl.send(xrl, completion,
                              deadline=self.policy.ping_timeout)

    # -- restarting -----------------------------------------------------------
    def _backoff(self, attempts: int) -> float:
        policy = self.policy
        base = min(policy.backoff_max,
                   policy.backoff_initial * policy.backoff_multiplier
                   ** max(0, attempts))
        if policy.jitter <= 0:
            return base
        return base * (1.0 + policy.jitter * (2.0 * self._rng.random() - 1.0))

    def _schedule_restart(self, state: _ModuleState, reason: str) -> None:
        now = self.loop.now()
        window_start = now - self.policy.storm_window
        state.restart_times = [t for t in state.restart_times
                               if t > window_start]
        if len(state.restart_times) >= self.policy.storm_budget:
            self._give_up(state, f"restart storm: "
                          f"{len(state.restart_times)} restarts in "
                          f"{self.policy.storm_window}s ({reason})")
            return
        state.status = RESTARTING
        state.last_error = reason
        if state.stable_timer is not None:
            state.stable_timer.cancel()
            state.stable_timer = None
        delay = self._backoff(state.attempts)
        state.attempts += 1
        state.restart_timer = self.loop.call_later(
            delay, lambda: self._do_restart(state),
            name=f"supervisor-restart-{state.name}")

    def _do_restart(self, state: _ModuleState) -> None:
        if not self._running or state.status == FAILED:
            return
        state.restart_timer = None
        # Dependencies first: a protocol restarted before its RIB would
        # come up, fail to register its tables, and crash again.
        for dep_name in state.depends_on:
            dep = self._modules.get(dep_name)
            if dep is None:
                continue
            if dep.status == FAILED:
                self._give_up(state, f"dependency {dep_name!r} failed")
                return
            if dep.status != UP:
                if dep.restart_timer is not None:
                    dep.restart_timer.cancel()
                    dep.restart_timer = None
                self._do_restart(dep)
                if dep.status != UP:
                    self._give_up(
                        state, f"dependency {dep_name!r} unrestartable")
                    return
        state.restart_times.append(self.loop.now())
        try:
            process = state.restart()
        except Exception as exc:  # factory/reapply blew up; try again later
            state.status = DOWN
            self._schedule_restart(state, f"restart raised: {exc}")
            return
        state.status = UP
        state.ping_failures = 0
        self.restarts += 1
        if self.policy.stable_after > 0:
            state.stable_timer = self.loop.call_later(
                self.policy.stable_after,
                lambda: self._mark_stable(state),
                name=f"supervisor-stable-{state.name}")
        if self.on_restarted is not None:
            self.on_restarted(state.name, process)

    def _mark_stable(self, state: _ModuleState) -> None:
        state.stable_timer = None
        if state.status == UP:
            state.attempts = 0

    def _give_up(self, state: _ModuleState, reason: str) -> None:
        state.status = FAILED
        state.last_error = reason
        state.cancel_timers()
        if self.on_gave_up is not None:
            self.on_gave_up(state.name, reason)
