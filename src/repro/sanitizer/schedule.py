"""Deterministic schedule exploration (DPOR-lite for the event loop).

Paper §4's event model gives no ordering guarantee between two timers
that share a deadline, two callbacks deferred in the same iteration, or
two runnable background tasks at one priority.  Correct code therefore
must not care — and this module exists to find the code that does.

A :class:`ScheduleShuffler` stands in for the three dispatch points of
one run (the deferred-callback drain, the expired-timer batch, and the
background-task pick; installed through :mod:`repro.core.taps`) to
permute *only* the choices the contract leaves open, driven by a seeded
:class:`random.Random`.  Every choice made is recorded, so a run is
fully described by its scenario plus its seed.

:func:`explore` executes a scenario under the identity schedule and
under N seeded permutations, fingerprints the final state of each run,
and reports any divergence as a RACE001 violation carrying the two
minimal divergent schedules (both traces, trimmed to the first choice
point where they differ) — enough to replay either side exactly.

Everything here is deterministic: same scenario + same seeds produce a
byte-identical report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import taps
from repro.eventloop.eventloop import EventLoop
from repro.eventloop.tasks import TaskScheduler
from repro.eventloop.timers import TimerList
from repro.sanitizer.report import Violation, ViolationLog


def _callback_name(cb: Callable) -> str:
    """A stable, address-free label for a callback."""
    name = getattr(cb, "__qualname__", None)
    if name is None:
        name = type(cb).__name__
    return name


@dataclass(frozen=True)
class ChoicePoint:
    """One recorded scheduling decision among interchangeable events."""

    index: int
    kind: str              # "deferred" | "timer" | "task"
    time: float            # event-loop clock at the decision
    ready: Tuple[str, ...]  # labels of the interchangeable events
    order: Tuple[int, ...]  # permutation applied to *ready*

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "time": round(self.time, 9),
            "ready": list(self.ready),
            "order": list(self.order),
        }


class ScheduleShuffler:
    """Permutes same-deadline dispatch while armed; records every choice.

    ``seed=None`` is the identity schedule: nothing is permuted, but
    choice points are still recorded, giving the baseline trace that
    divergent traces are compared against.
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self.rng = random.Random(seed) if seed is not None else None
        self.trace: List[ChoicePoint] = []
        self._armed = False

    # -- choices -----------------------------------------------------------
    def _permutation(self, count: int) -> List[int]:
        order = list(range(count))
        if self.rng is not None:
            self.rng.shuffle(order)
        return order

    def _choose(self, kind: str, time: float, ready: Sequence[str]) -> List[int]:
        order = self._permutation(len(ready))
        self.trace.append(ChoicePoint(
            index=len(self.trace), kind=kind, time=time,
            ready=tuple(ready), order=tuple(order)))
        return order

    # -- arming ------------------------------------------------------------
    def _points(self) -> List[Tuple[type, str, Callable]]:
        return [(EventLoop, "_drain_deferred", self._drain_deferred),
                (TimerList, "run_expired", self._run_expired),
                (TaskScheduler, "run_one_slice", self._run_one_slice)]

    def arm(self) -> None:
        if self._armed:
            return
        # A dispatch point already stood in for cannot be stood in for again.
        if (EventLoop, "_drain_deferred") in taps.installed():
            raise RuntimeError("another ScheduleShuffler is already armed")
        self._armed = True
        for point in self._points():
            taps.wrap(*point)

    def disarm(self) -> None:
        if not self._armed:
            return
        for point in self._points():
            taps.unwrap(*point)
        self._armed = False

    def __enter__(self) -> "ScheduleShuffler":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    # -- the three dispatch points -----------------------------------------
    # Each stands in for the loop's own: *call*, the pristine function, is
    # never continued to.
    def _drain_deferred(self, call, loop: EventLoop) -> None:
        batch = []
        for __ in range(len(loop._deferred)):
            if not loop._deferred:
                break
            batch.append(loop._deferred.popleft())
        if len(batch) > 1:
            order = self._choose(
                "deferred", loop.clock.now(),
                [_callback_name(cb) for cb, __ in batch])
            batch = [batch[i] for i in order]
        for cb, args in batch:
            cb(*args)

    def _run_expired(self, call, timers: TimerList, limit: int = 64) -> int:
        now = timers.clock.now()
        entries = []
        while len(entries) < limit:
            entry = timers._pop_ready(now)
            if entry is None:
                break
            entries.append(entry)
        # Permute within runs of equal expiry only: ordering between
        # *different* deadlines is guaranteed and must be preserved.
        order: List[int] = []
        start = 0
        while start < len(entries):
            stop = start
            expiry = entries[start][0]._expiry
            while (stop < len(entries)
                   and entries[stop][0]._expiry == expiry):
                stop += 1
            group = list(range(start, stop))
            if len(group) > 1:
                perm = self._choose(
                    "timer", expiry,
                    [entries[i][0].name for i in group])
                group = [group[i] for i in perm]
            order.extend(group)
            start = stop
        fired = 0
        for index in order:
            timer, gen = entries[index]
            # An earlier sibling may have cancelled or rescheduled
            # this timer after we popped it; honour that.
            if not timer._scheduled or timer._gen != gen:
                continue
            if timer._interval is None:
                timer._scheduled = False
            timer._fire()
            fired += 1
        return fired

    def _run_one_slice(self, call, scheduler: TaskScheduler) -> bool:
        for priority in sorted(scheduler._queues):
            queue = scheduler._queues[priority]
            alive = [t for t in queue if t.alive]
            if not alive:
                queue.clear()
                continue
            index = 0
            if len(alive) > 1:
                order = self._choose(
                    "task", -1.0, [t.name for t in alive])
                index = order[0]
            task = alive[index]
            queue.remove(task)
            more = task._run_slice()
            if more and task.alive:
                queue.append(task)
            return True
        return False

    def trace_dicts(self) -> List[Dict[str, Any]]:
        return [point.to_dict() for point in self.trace]


# -- exploration -----------------------------------------------------------

@dataclass
class RunResult:
    """One scenario execution under one schedule."""

    seed: Optional[int]
    fingerprint: Any
    trace: List[Dict[str, Any]]
    violations: List[Violation] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "choice_points": len(self.trace),
            "violations": [v.to_dict() for v in self.violations],
        }


def _first_divergence(a: List[Dict[str, Any]],
                      b: List[Dict[str, Any]]) -> int:
    for index, (pa, pb) in enumerate(zip(a, b)):
        if pa != pb:
            return index
    return min(len(a), len(b))


def _fingerprint_diff(baseline: Any, other: Any) -> str:
    if isinstance(baseline, dict) and isinstance(other, dict):
        keys = sorted(k for k in set(baseline) | set(other)
                      if baseline.get(k) != other.get(k))
        return ", ".join(
            f"{k}: {baseline.get(k)!r} vs {other.get(k)!r}" for k in keys)
    return f"{baseline!r} vs {other!r}"


@dataclass
class ExplorationReport:
    """All runs of one scenario plus any divergence findings."""

    scenario: str
    runs: List[RunResult]
    log: ViolationLog

    @property
    def baseline(self) -> RunResult:
        return self.runs[0]

    @property
    def violations(self) -> List[Violation]:
        return self.log.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "runs": [run.to_dict() for run in self.runs],
            "violations": [v.to_dict() for v in self.log.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def explore(scenario: Callable[[], Any], *, name: str,
            seeds: Sequence[int],
            run_sanitizers: Optional[Callable[[], Any]] = None
            ) -> ExplorationReport:
    """Run *scenario* under the identity schedule plus one run per seed.

    *scenario* must build its own event loop (SimulatedClock) and return
    a JSON-able fingerprint of final state — routes, peers, convergence —
    and **not** timings, which legitimately vary across schedules.

    *run_sanitizers*, when given, is called before each run and must
    return an object with ``arm()``/``disarm()`` and ``violations``
    (a :class:`~repro.sanitizer.runtime.RuntimeSanitizer`): runtime
    violations are then attributed to the run that produced them.
    """
    log = ViolationLog()
    runs: List[RunResult] = []
    for seed in [None] + [int(s) for s in seeds]:
        shuffler = ScheduleShuffler(seed)
        sanitizer = run_sanitizers() if run_sanitizers is not None else None
        if sanitizer is not None:
            sanitizer.arm()
        try:
            with shuffler:
                fingerprint = scenario()
        finally:
            if sanitizer is not None:
                sanitizer.disarm()
        runs.append(RunResult(
            seed=seed, fingerprint=fingerprint,
            trace=shuffler.trace_dicts(),
            violations=sanitizer.violations if sanitizer is not None else []))

    baseline = runs[0]
    reported_fingerprints = set()
    for run in runs[1:]:
        for violation in run.violations:
            log.record(violation.rule, violation.origin,
                       f"under schedule seed {run.seed}: {violation.message}",
                       dict(violation.context, seed=run.seed))
        if run.fingerprint == baseline.fingerprint:
            continue
        key = json.dumps(run.fingerprint, sort_keys=True, default=str)
        if key in reported_fingerprints:
            continue
        reported_fingerprints.add(key)
        index = _first_divergence(baseline.trace, run.trace)
        log.record(
            "RACE001", f"schedule:{name}",
            f"final state diverges under schedule permutation seed "
            f"{run.seed}: {_fingerprint_diff(baseline.fingerprint, run.fingerprint)}; "
            f"schedules first differ at choice point {index}",
            {
                "seed": run.seed,
                "first_divergent_choice": index,
                "baseline_schedule": baseline.trace[:index + 1],
                "divergent_schedule": run.trace[:index + 1],
                "baseline_fingerprint": baseline.fingerprint,
                "divergent_fingerprint": run.fingerprint,
            })
    # Baseline-run sanitizer violations are schedule-independent bugs;
    # report them too (without a seed annotation).
    for violation in baseline.violations:
        log.record(violation.rule, violation.origin, violation.message,
                   dict(violation.context))
    return ExplorationReport(scenario=name, runs=runs, log=log)
