"""Figure 13: BGP route latency induced by a router.

255 routes at one-second intervals through a router under test; the
sink records per-route propagation delay.  Expected shape:

* XORP (our stack) and MRTD (event-driven monolithic): delay never
  exceeds one second — "the consistent behavior achieved by XORP";
* Cisco / Quagga (30-second route scanner): the classic sawtooth, with
  delays spread between ~0 and the scan interval and batched arrivals.
"""

import gc
import time

from conftest import FIG13_ROUTES

from repro.core import taps
from repro.core.stages import RouteTableStage
from repro.eventloop.eventloop import EventLoop
from repro.experiments.routeflow import run_route_flow
from repro.fea.fib import Fib
from repro.net import IPNet, IPv4
from repro.obs import Observability
from repro.sanitizer import StageSanitizer
from repro.xrl.router import XrlRouter


def test_fig13_route_flow(benchmark):
    box = {}

    def run():
        box["result"] = run_route_flow(route_count=FIG13_ROUTES)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = box["result"]
    print()
    print(result.table())
    for kind in ("xorp", "cisco"):
        print()
        print(result.ascii_plot(kind))

    # Event-driven routers: delay never exceeds one second.
    assert result.max_delay("xorp") < 1.0, result.max_delay("xorp")
    assert result.max_delay("mrtd") < 1.0, result.max_delay("mrtd")
    # "the multi-process architecture used by XORP delivers similar
    # performance to a closely-coupled single-process architecture":
    assert abs(result.mean_delay("xorp") - result.mean_delay("mrtd")) < 1.0
    # Scanner-based routers: sawtooth between 0 and ~30 s.
    for kind in ("cisco", "quagga"):
        delays = [d for __, d in result.series[kind]]
        assert max(delays) > 20.0, f"{kind}: no scanner sawtooth visible"
        assert result.mean_delay(kind) > 5.0
        assert max(delays) <= 31.0
    # The scanner's batching: many routes share one arrival instant.
    cisco = result.series["cisco"]
    arrival_times = [round(inject + delay, 1) for inject, delay in cisco]
    from collections import Counter

    biggest_batch = Counter(arrival_times).most_common(1)[0][1]
    assert biggest_batch >= 10, "expected batched arrivals from the scanner"


def test_fig13_sanitizer_overhead(benchmark):
    """Route flow with runtime sanitizers off vs on.

    Both timings land in the pytest-benchmark JSON output via
    ``extra_info``.  The ≤2% disabled-path guarantee is structural, not
    statistical: armed, the sanitizers are taps on the instrumentation
    seam (``repro.core.taps``), and with the last tap gone the seam has
    put the *original function objects* back, so the disabled hot path
    is byte-for-byte the uninstrumented code — no residual
    ``if sanitizer:`` checks, i.e. exactly 0% overhead.  That identity is
    gated in tier-1 (``tests/test_taps.py``, every arm/disarm order) and
    spot-checked below; what this test adds is adjacent before/after-flip
    pair ratios as a wall-clock backstop against a reintroduced hot-path
    guard.
    """
    routes = min(FIG13_ROUTES, 64)
    pristine_methods = {
        name: RouteTableStage.__dict__[name]
        for name in ("add_routes", "delete_routes", "replace_route",
                     "lookup_route")
    }

    def run_off():
        run_route_flow(kinds=["xorp"], route_count=routes)

    def run_on():
        with StageSanitizer() as sanitizer:
            run_route_flow(kinds=["xorp"], route_count=routes)
            assert not sanitizer.violations, [
                v.render() for v in sanitizer.violations]

    def timed(fn):
        gc.collect()
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    # CPU-frequency drift over the test dwarfs a 2% bound, so the
    # wall-clock check uses *adjacent* paired samples: a run just
    # before a bare arm/disarm flip vs a run just after it, compared
    # per pair.  The untimed run between flip and sample re-fills
    # Python's type-attribute cache (invalidated by the disarm's
    # setattr) so the pair compares steady state against steady state.
    # Armed runs are timed in a separate loop afterwards so their
    # extra work can't heat the pairs.
    run_off()
    baseline, disabled, pair_ratios = [], [], []
    for _ in range(5):
        base = timed(run_off)
        flip = StageSanitizer()
        flip.arm()
        flip.disarm()
        run_off()
        post = timed(run_off)
        baseline.append(base)
        disabled.append(post)
        pair_ratios.append(post / base)
    armed = [timed(run_on) for _ in range(3)]

    # Structural no-op proof — the actual ≤2% disabled-path gate: after
    # disarm the seam holds no tap on any class and every method we
    # sampled is the pristine function object again.  The disabled path
    # is byte-for-byte the uninstrumented code, i.e. exactly 0% overhead.
    assert taps.installed() == []
    for name, fn in pristine_methods.items():
        assert RouteTableStage.__dict__[name] is fn, (
            f"{name} not restored after disarm")

    # Best pair = the one window free of CPU-noise bursts; same-code
    # pairs reliably land near 1.0 there, while genuine residual
    # instrumentation (+10% or more) inflates every pair.
    disabled_ratio = min(pair_ratios)
    benchmark.extra_info["routes"] = routes
    benchmark.extra_info["sanitizers_off_s"] = round(min(baseline), 6)
    benchmark.extra_info["sanitizers_disabled_after_arm_s"] = round(
        min(disabled), 6)
    benchmark.extra_info["sanitizers_on_s"] = round(min(armed), 6)
    benchmark.extra_info["disabled_overhead_ratio"] = round(
        disabled_ratio, 4)
    benchmark.extra_info["armed_overhead_ratio"] = round(
        min(armed) / min(baseline), 4)
    print(f"\nsanitizers off {min(baseline):.3f}s  "
          f"disabled-after-arm {min(disabled):.3f}s  "
          f"on {min(armed):.3f}s  "
          f"(disabled ratio {disabled_ratio:.4f})")
    # Wall-clock backstop only: shared-runner timing has a ±5% noise
    # floor on *identical* code (these pair ratios measure the same
    # bytecode on both sides), so sub-2% discrimination is decidable
    # only structurally — see the identity asserts above.  This bound
    # still catches a reintroduced hot-path wrapper or guard, which
    # costs well over 10% on this workload (compare the armed ratio).
    assert disabled_ratio <= 1.05, (
        f"best disabled-path pair ratio {disabled_ratio:.4f} — a "
        "hot-path guard was likely reintroduced")

    benchmark.pedantic(run_off, rounds=1, iterations=1)


def test_fig13_obs_overhead(benchmark):
    """Route flow with the observability layer (repro.obs) off vs on.

    Same methodology as ``test_fig13_sanitizer_overhead``: the ≤2%
    disarmed-path guarantee is structural — armed, the tracer taps the
    stage methods, ``XrlRouter.send``/``dispatch_request``,
    ``EventLoop.call_soon`` and ``Fib.insert``/``remove`` through the
    seam; disarmed, the original function objects are back, so the
    disarmed hot path is byte-for-byte the uninstrumented code.  We
    spot-check that identity below (tier-1 gates it) and measure
    adjacent before/after-flip pair ratios as a wall-clock backstop.  Both off and on timings land in the
    pytest-benchmark JSON via ``extra_info`` (the acceptance artifact
    for the tracing layer's overhead).
    """
    routes = min(FIG13_ROUTES, 64)
    pristine_methods = {
        name: RouteTableStage.__dict__[name]
        for name in ("add_routes", "delete_routes", "replace_route")
    }
    pristine_send = XrlRouter.__dict__["send"]
    pristine_dispatch = XrlRouter.__dict__["dispatch_request"]
    pristine_call_soon = EventLoop.__dict__["call_soon"]
    pristine_fib = {name: Fib.__dict__[name] for name in ("insert", "remove")}

    # Trace one prefix per run so the armed path exercises every hook
    # (origin, stage, xrl send/recv, fib) rather than the early-out.
    traced_net = IPNet(IPv4("198.18.0.0"), 24)

    def run_off():
        run_route_flow(kinds=["xorp"], route_count=routes)

    def run_on():
        obs = Observability()
        obs.trace(traced_net)
        with obs:
            run_route_flow(kinds=["xorp"], route_count=routes)

    def timed(fn):
        gc.collect()
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    # Adjacent paired samples around a bare arm/disarm flip, with an
    # untimed cache-refill run between flip and sample — see the
    # sanitizer benchmark above for the full rationale.
    run_off()
    baseline, disabled, pair_ratios = [], [], []
    for _ in range(5):
        base = timed(run_off)
        flip = Observability()
        flip.arm()
        flip.disarm()
        run_off()
        post = timed(run_off)
        baseline.append(base)
        disabled.append(post)
        pair_ratios.append(post / base)
    armed = [timed(run_on) for _ in range(3)]

    # Structural no-op proof — the actual ≤2% disarmed-path gate.
    assert taps.installed() == []
    for name, fn in pristine_methods.items():
        assert RouteTableStage.__dict__[name] is fn, (
            f"{name} not restored after disarm")
    assert XrlRouter.__dict__["send"] is pristine_send
    assert XrlRouter.__dict__["dispatch_request"] is pristine_dispatch
    assert EventLoop.__dict__["call_soon"] is pristine_call_soon
    for name, fn in pristine_fib.items():
        assert Fib.__dict__[name] is fn, f"Fib.{name} not restored"

    disabled_ratio = min(pair_ratios)
    benchmark.extra_info["routes"] = routes
    benchmark.extra_info["obs_off_s"] = round(min(baseline), 6)
    benchmark.extra_info["obs_disabled_after_arm_s"] = round(min(disabled), 6)
    benchmark.extra_info["obs_on_s"] = round(min(armed), 6)
    benchmark.extra_info["obs_disabled_overhead_ratio"] = round(
        disabled_ratio, 4)
    benchmark.extra_info["obs_armed_overhead_ratio"] = round(
        min(armed) / min(baseline), 4)
    print(f"\nobs off {min(baseline):.3f}s  "
          f"disabled-after-arm {min(disabled):.3f}s  "
          f"on {min(armed):.3f}s  "
          f"(disabled ratio {disabled_ratio:.4f})")
    # Wall-clock backstop; the identity asserts above are the real gate
    # (see the sanitizer benchmark's noise-floor discussion).
    assert disabled_ratio <= 1.05, (
        f"best disarmed-path pair ratio {disabled_ratio:.4f} — a "
        "hot-path guard was likely reintroduced")

    benchmark.pedantic(run_off, rounds=1, iterations=1)
