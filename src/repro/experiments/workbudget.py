"""The work a fixed feed costs: Python calls and bytecode instructions
per route, layer by layer.

Run as ``python -m repro.experiments.workbudget`` it prints the four
tables; with ``--by-function`` it prints each phase's functions instead,
most instructions first.

The shape of ``python -m bench``'s ``feed_inproc`` bulk phases, on a
simulated clock so that every run makes the same calls: the Router
Manager builds BGP, RIB and FEA on one host from the latency
experiment's configuration, a :class:`~repro.simnet.baselines.Speaker`
peers with BGP, and the speaker's session carries a synthetic feed's
UPDATEs as bytes encoded beforehand.  The first :data:`BASE_SHARE` of the
feed is loaded uncounted; the tail is announced and withdrawn once to
warm every path, then once more with each phase under a
:class:`~repro.profiler.workcount.CallCounter`.  A phase ends when the
loop has nothing left to run, the FIB holding what it should.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from typing import Dict, List, Tuple

from repro.bgp.fsm import BgpState
from repro.bgp.messages import UpdateMessage
from repro.core.process import Host
from repro.experiments.latency import CONFIG
from repro.experiments.synth import synthetic_feed
from repro.profiler.workcount import CallCounter
from repro.rtrmgr import RouterManager
from repro.simnet.baselines import Speaker, wire

#: the synthetic feed's size and seed
ROUTES, SEED = 2000, 2004
#: share of the feed loaded before the counted tail (``feed_inproc``'s)
BASE_SHARE = 0.8


def run_work_budget() -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{"calls": phases, "instructions": phases}``, each ``phases``
    ``{"announce": table, "withdraw": table}``: the Python calls and the
    bytecode instructions per route of the feed's tail, each table
    ``{layer: count, "total": sum}`` (:meth:`CallCounter.per`)."""
    counters, units = count_phases()
    return {"calls": {name: counter.per(units)
                      for name, counter in counters.items()},
            "instructions": {name: counter.per(units, counter.instructions)
                             for name, counter in counters.items()}}


def count_phases(by_function: bool = False
                 ) -> Tuple[Dict[str, CallCounter], int]:
    """Each phase's :class:`CallCounter`, and the routes it moved."""
    host = Host()
    loop = host.loop
    manager = RouterManager(host)
    manager.load(CONFIG)
    manager.commit()
    bgp, fea = manager.modules["bgp"], manager.modules["fea"]
    speaker = Speaker(loop, "feed", 65002, "10.0.0.2")
    peering = speaker.add_peer("dut", bgp.local_as)
    speaker.start()
    wire(loop, peering, bgp.peers["10.0.0.2"])
    if not loop.run_until(
            lambda: peering.fsm.state == BgpState.ESTABLISHED, timeout=30):
        raise RuntimeError("the feed peering did not establish")
    session = peering.session

    groups = list(synthetic_feed(ROUTES, seed=SEED))
    cut = held = 0
    while held < BASE_SHARE * ROUTES:
        held += len(groups[cut][1])
        cut += 1
    tail = ROUTES - held
    announce = [UpdateMessage(attributes=attributes, nlri=nets).encode()
                for attributes, nets in groups]
    withdraw = [UpdateMessage(withdrawn=nets).encode()
                for __, nets in groups[cut:]]

    def phase(messages: List[bytes], fib_size: int) -> None:
        for message in messages:
            session.send(message)
        while loop.run_once(block=False):
            pass
        if len(fea.fib4) != fib_size:
            raise RuntimeError(f"FIB holds {len(fea.fib4)}, not {fib_size}")

    base_fib = len(fea.fib4) + held
    phase(announce[:cut], base_fib)
    counters = {}
    for counted in (False, True):  # the first round warms every path
        for name, messages, fib_size in (
                ("announce", announce[cut:], base_fib + tail),
                ("withdraw", withdraw, base_fib)):
            counter = CallCounter(by_function)
            with counter if counted else nullcontext():
                phase(messages, fib_size)
            counters[name] = counter
    host.shutdown()
    return counters, tail


if __name__ == "__main__":
    if "--by-function" in sys.argv[1:]:
        counters, units = count_phases(by_function=True)
        for name, counter in counters.items():
            print(f"{name}: calls, instructions per route")
            for row in counter.functions(units):
                print("  %-9s %-58s %8.2f %9.2f" % row)
    else:
        # The entry of tests/work_budget.json for this interpreter's version.
        print(json.dumps(run_work_budget(), indent=2, sort_keys=True))
