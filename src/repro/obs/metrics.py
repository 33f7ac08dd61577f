"""The metrics registry: counters, gauges, histograms, scraped over XRLs.

Every :class:`~repro.core.process.XorpProcess` owns one
:class:`MetricsRegistry` (namespace = the process name) and binds it to
``metrics/1.0`` on each of its components, so *any* router process can be
scraped by an external process with three XRLs — the same externally
scriptable shape as the paper's profiling interface (§8.1).

Naming scheme: ``<namespace>.<instrument>``, dotted, lowercase — e.g.
``bgp.xrl.retries``, ``rib.txq.depth``, ``fea.fib4.routes``.  The
namespace is the process name, so a collector scraping several processes
can merge reports without collisions.

Gauges are *pull* instruments: they hold a callable evaluated only at
scrape time, so registering a gauge costs the hot path nothing at all.
Counters and histograms are push instruments owned by code that is
already instrumented (the obs tracer, armed explicitly); nothing here
touches a hot path while disarmed.

Rendering is deterministic (sorted names, fixed float formatting):
under a simulated clock two identical runs scrape byte-identical
reports, which is what the CLI's ``--json`` byte-stability contract
rests on — the exceptions being the collector's ``gc.*`` gauges
(:mod:`repro.eventloop.collector`), which read real time under any clock,
and ``xrl.tcp.*``, whose writes depend on socket timing; that JSON
therefore leaves them out.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


def _fmt(value: Any) -> str:
    """Deterministic value rendering (no float repr jitter across runs)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return format(value, ".9g")
    return str(value)


class Counter:
    """Monotonic count of events."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def sample(self) -> str:
        return _fmt(self.value)


class Gauge:
    """A point-in-time reading, evaluated lazily at scrape time."""

    __slots__ = ("name", "fn")

    kind = "gauge"

    def __init__(self, name: str, fn: Callable[[], Any]):
        self.name = name
        self.fn = fn

    def read(self) -> Any:
        return self.fn()

    def sample(self) -> str:
        return _fmt(self.read())


class Histogram:
    """A distribution summary: count, sum, min, max.

    Deliberately bucket-free: the consumers here (dispatch latency,
    per-stage throughput) need magnitudes, and a fixed summary renders
    deterministically without choosing bucket bounds per deployment.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def sample(self) -> str:
        if self.count == 0:
            return "count=0"
        return (f"count={self.count} sum={_fmt(self.total)} "
                f"min={_fmt(self.min)} max={_fmt(self.max)}")


class MetricsRegistry:
    """One process's instruments, keyed ``<namespace>.<instrument>``.

    Also the ``metrics/1.0`` implementation: binding a registry to a
    component (``router.bind(METRICS_IDL, registry)``) exposes the whole
    namespace to external scrapers.
    """

    def __init__(self, namespace: str):
        self.namespace = namespace
        self._instruments: Dict[str, Any] = {}

    # -- registration ------------------------------------------------------
    def _full(self, name: str) -> str:
        return f"{self.namespace}.{name}"

    def _register(self, instrument: Any) -> Any:
        existing = self._instruments.get(instrument.name)
        if existing is not None:
            if type(existing) is not type(instrument):
                raise ValueError(
                    f"metric {instrument.name!r} already registered as "
                    f"{existing.kind}")
            return existing
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        """Register (or fetch) the counter ``<namespace>.<name>``."""
        return self._register(Counter(self._full(name)))

    def gauge(self, name: str, fn: Callable[[], Any]) -> Gauge:
        """Register the gauge ``<namespace>.<name>`` reading *fn()*.

        Re-registering an existing gauge rebinds its callable — a
        supervised restart replaces the dead object's reading with the
        reborn one's instead of raising.
        """
        full = self._full(name)
        existing = self._instruments.get(full)
        if isinstance(existing, Gauge):
            existing.fn = fn
            return existing
        return self._register(Gauge(full, fn))

    def histogram(self, name: str) -> Histogram:
        """Register (or fetch) the histogram ``<namespace>.<name>``."""
        return self._register(Histogram(self._full(name)))

    # -- reading -----------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Any]:
        return self._instruments.get(name)

    def sample(self, name: str) -> Tuple[str, str]:
        """``(kind, rendered value)`` for one instrument (KeyError if absent)."""
        instrument = self._instruments[name]
        return instrument.kind, instrument.sample()

    def report(self) -> str:
        """The full scrape: one ``name kind value`` line per instrument,
        sorted by name, trailing newline."""
        lines = []
        for name in self.names():
            kind, value = self.sample(name)
            lines.append(f"{name} {kind} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- metrics/1.0 handlers ----------------------------------------------
    def xrl_list_metrics(self) -> Dict[str, str]:
        return {"names": ",".join(self.names())}

    def xrl_get_metric(self, name: str) -> Dict[str, str]:
        instrument = self._instruments.get(name)
        if instrument is None:
            from repro.xrl import XrlError
            from repro.xrl.error import XrlErrorCode
            raise XrlError(XrlErrorCode.COMMAND_FAILED,
                           f"no metric {name!r} in namespace "
                           f"{self.namespace!r}")
        return {"kind": instrument.kind, "value": instrument.sample()}

    def xrl_get_metrics(self) -> Dict[str, str]:
        return {"report": self.report()}
