"""What one route costs on the XRL wire, counted rather than timed.

The XRL twin of ``test_table_budget.py``.  An in-process BGP+RIB+FEA
router announces and withdraws one 256-prefix UPDATE; the four vectorised
XRLs it sends are taken off the senders as they are and put through both
frame codecs.  The budget is the one DESIGN.md states ("XRL frame
codecs"): a route list travels as columns — name and tag once, then bare
fixed-width payloads — and the decoder's structural checks are the only
validation, so per route a frame costs its payload bytes, one address
object per address and no per-element call of the validators.  A list
that quietly falls back to the general form, a second validation pass or
a second copy of an address fails here before it shows up as throughput.
"""

import pytest

from repro.net import IPNet, IPv4
from repro.xrl import codec, types
from tests.test_codec import CODECS
from tests.test_table_budget import live
from tests.test_vector_route_stream import Router

ROUTES = 256
NETS = [IPNet(IPv4((20 << 24) | (i << 8)), 24) for i in range(ROUTES)]

#: method -> (wire bytes per route, addresses per route, prefixes per route)
BUDGET = {
    "add_routes4": (14, 2, 1),      # net 5 + nexthop 4 + metric 4
    "delete_routes4": (6, 1, 1),    # net 5
    "add_entries4": (15, 2, 1),     # net 5 + nexthop 4 + ifname and its NUL
    "delete_entries4": (6, 1, 1),
}


@pytest.fixture(scope="module")
def feed_xrls():
    """method -> the XrlArgs the router's own senders built for it."""
    router = Router()
    router.announce(0, [IPNet.parse("30.0.0.0/24")])  # warm the nexthop cache
    router.run()
    seen = {}
    for process in (router.bgp, router.rib):
        real_send = process.xrl.send

        def send(xrl, callback=None, _real=real_send, **kwargs):
            seen[xrl.method] = xrl.args
            return _real(xrl, callback, **kwargs)

        process.xrl.send = send
    router.announce(0, NETS)
    router.run()
    router.withdraw(0, NETS)
    router.run()
    router.host.shutdown()
    assert set(BUDGET) <= set(seen)
    return seen


@pytest.fixture
def validator_calls(monkeypatch):
    """Calls of the two per-atom validators, wherever they are bound."""
    seen = {"_validate": 0, "check_name": 0}

    def counted(name, real):
        def call(*args):
            seen[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(types, "_validate",
                        counted("_validate", types._validate))
    monkeypatch.setattr(types, "check_name",
                        counted("check_name", types.check_name))
    monkeypatch.setattr(codec, "check_name",
                        counted("check_name", codec.check_name))
    return seen


@pytest.mark.parametrize("make", CODECS)
@pytest.mark.parametrize("method", list(BUDGET))
def test_wire_bytes_per_route(feed_xrls, make, method):
    args = feed_xrls[method]
    assert all(len(atom.value) == ROUTES for atom in args
               if atom.type is types.LIST)
    sender = make()
    resolved = "0123456789abcdef0123456789abcdef/rib/1.0/" + method
    sender.encode_request(1, resolved, args)       # interned, if it interns
    frame = sender.encode_request(2, resolved, args)
    assert len(frame) / ROUTES <= BUDGET[method][0]


@pytest.mark.parametrize("make", CODECS)
@pytest.mark.parametrize("method", list(BUDGET))
def test_decode_validates_structurally_and_copies_nothing(
        feed_xrls, validator_calls, make, method):
    args = feed_xrls[method]
    frame = make().encode_request(1, method, args)
    make().decode_request(frame)  # the names are in CHECKED_NAMES from here on
    validator_calls.update(_validate=0, check_name=0)
    addresses, prefixes = live(IPv4), live(IPNet)
    decoded = make().decode_request(frame)[2]
    assert validator_calls == {"_validate": 0, "check_name": 0}
    __, per_route_addresses, per_route_prefixes = BUDGET[method]
    assert live(IPv4) - addresses == per_route_addresses * ROUTES
    assert live(IPNet) - prefixes == per_route_prefixes * ROUTES
    assert decoded == args
