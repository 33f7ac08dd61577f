"""Tests for the policy framework: parser, compiler, VM, adapters, BGP hookup."""

import pytest

from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.route import BGPRoute
from repro.net import IPNet, IPv4
from repro.policy import (
    BgpVarRW,
    PolicyParseError,
    PolicyResult,
    PolicyVM,
    RibVarRW,
    VarRW,
    compile_source,
    parse_policy,
)
from repro.rib.route import RibRoute


def run(source, values):
    vm = PolicyVM()
    varrw = VarRW(values)
    result = vm.run(compile_source(source), varrw)
    return result, varrw


class TestParser:
    def test_basic_shape(self):
        statements = parse_policy("""
            policy-statement "example" {
                term a {
                    from { metric == 5; }
                    then { localpref: 200; accept; }
                }
            }
        """)
        assert len(statements) == 1
        assert statements[0].name == "example"
        term = statements[0].terms[0]
        assert term.conditions[0].variable == "metric"
        assert term.actions[0].variable == "localpref"
        assert term.actions[1].kind == "accept"

    def test_empty_from_then(self):
        statements = parse_policy(
            'policy-statement x { term t { then { reject; } } }')
        assert statements[0].terms[0].conditions == []

    def test_prefix_and_addr_values(self):
        statements = parse_policy("""
            policy-statement x { term t {
                from { network4 orlonger 10.0.0.0/8; nexthop4: 1.2.3.4; }
                then { accept; }
            } }
        """)
        conds = statements[0].terms[0].conditions
        assert conds[0].value == IPNet.parse("10.0.0.0/8")
        assert conds[1].value == IPv4("1.2.3.4")

    def test_add_sub_actions(self):
        statements = parse_policy(
            'policy-statement x { term t { then { metric add 5; metric sub 2; } } }')
        actions = statements[0].terms[0].actions
        assert actions[0].mode == "add" and actions[1].mode == "sub"

    def test_comments_ignored(self):
        parse_policy("# leading comment\npolicy-statement x { term t { } }")

    def test_errors(self):
        with pytest.raises(PolicyParseError):
            parse_policy("")
        with pytest.raises(PolicyParseError):
            parse_policy("policy-statement x {")
        with pytest.raises(PolicyParseError):
            parse_policy("nonsense { }")
        with pytest.raises(PolicyParseError):
            parse_policy("policy-statement x { term t { from { metric ~ 5; } } }")


class TestVM:
    def test_accept_on_match(self):
        result, __ = run("""
            policy-statement p { term t {
                from { metric: 5; }
                then { accept; }
            } }
        """, {"metric": 5})
        assert result == PolicyResult.ACCEPT

    def test_fallthrough_on_no_match(self):
        result, __ = run("""
            policy-statement p { term t {
                from { metric: 5; }
                then { reject; }
            } }
        """, {"metric": 7})
        assert result == PolicyResult.FALLTHROUGH

    def test_reject(self):
        result, __ = run(
            'policy-statement p { term t { then { reject; } } }', {})
        assert result == PolicyResult.REJECT

    def test_modification_applied(self):
        result, varrw = run("""
            policy-statement p { term t {
                from { metric < 10; }
                then { metric: 99; accept; }
            } }
        """, {"metric": 5})
        assert varrw.read("metric") == 99

    def test_add_mode(self):
        __, varrw = run(
            'policy-statement p { term t { then { metric add 5; accept; } } }',
            {"metric": 10})
        assert varrw.read("metric") == 15

    def test_multiple_terms_first_match_wins(self):
        result, varrw = run("""
            policy-statement p {
                term a { from { metric: 1; } then { tag: 100; accept; } }
                term b { from { metric: 2; } then { tag: 200; accept; } }
            }
        """, {"metric": 2, "tag": 0})
        assert result == PolicyResult.ACCEPT
        assert varrw.read("tag") == 200

    def test_comparison_operators(self):
        for op, metric, expected in [("<", 4, PolicyResult.ACCEPT),
                                     ("<", 6, PolicyResult.FALLTHROUGH),
                                     (">=", 5, PolicyResult.ACCEPT),
                                     ("!=", 5, PolicyResult.FALLTHROUGH)]:
            result, __ = run(f"""
                policy-statement p {{ term t {{
                    from {{ metric {op} 5; }} then {{ accept; }}
                }} }}
            """, {"metric": metric})
            assert result == expected, (op, metric)

    def test_contains_on_list(self):
        result, __ = run("""
            policy-statement p { term t {
                from { aspath contains 65001; } then { reject; }
            } }
        """, {"aspath": [65000, 65001]})
        assert result == PolicyResult.REJECT

    def test_orlonger(self):
        source = """
            policy-statement p { term t {
                from { network4 orlonger 10.0.0.0/8; } then { accept; }
            } }
        """
        inside, __ = run(source, {"network4": IPNet.parse("10.1.0.0/16")})
        outside, __ = run(source, {"network4": IPNet.parse("11.0.0.0/8")})
        assert inside == PolicyResult.ACCEPT
        assert outside == PolicyResult.FALLTHROUGH

    def test_string_protocol_match(self):
        result, __ = run("""
            policy-statement p { term t {
                from { protocol: "static"; } then { accept; }
            } }
        """, {"protocol": "static"})
        assert result == PolicyResult.ACCEPT


def bgp_route(net_text="10.0.0.0/8", **attr_kw):
    attr_kw.setdefault("nexthop", IPv4("1.1.1.1"))
    attr_kw.setdefault("as_path", ASPath.from_sequence(65001, 65002))
    return BGPRoute(IPNet.parse(net_text), PathAttributeList(**attr_kw),
                    peer_id="p")


class TestBgpVarRW:
    def test_reads(self):
        varrw = BgpVarRW(bgp_route(med=7, local_pref=150,
                                   communities=[100, 200]),
                         neighbor=IPv4("9.9.9.9"))
        assert varrw.read("network4") == IPNet.parse("10.0.0.0/8")
        assert varrw.read("nexthop4") == IPv4("1.1.1.1")
        assert varrw.read("aspath") == [65001, 65002]
        assert varrw.read("aspath-length") == 2
        assert varrw.read("med") == 7
        assert varrw.read("localpref") == 150
        assert varrw.read("community") == [100, 200]
        assert varrw.read("neighbor") == IPv4("9.9.9.9")

    def test_defaults(self):
        varrw = BgpVarRW(bgp_route())
        assert varrw.read("med") == 0
        assert varrw.read("localpref") == 100

    def test_write_produces_new_route(self):
        original = bgp_route()
        varrw = BgpVarRW(original)
        varrw.write("localpref", 300)
        varrw.write("med", 42)
        result = varrw.result()
        assert result is not original
        assert result.attributes.local_pref == 300
        assert result.attributes.med == 42
        assert original.attributes.local_pref is None  # untouched

    def test_no_write_returns_original(self):
        original = bgp_route()
        assert BgpVarRW(original).result() is original

    def test_tag_write(self):
        varrw = BgpVarRW(bgp_route())
        varrw.write("tag", 42)
        assert varrw.result().policytags == (42,)

    def test_readonly_rejected(self):
        varrw = BgpVarRW(bgp_route())
        with pytest.raises(KeyError):
            varrw.write("aspath", [1])

    def test_full_policy_over_bgp_route(self):
        program = compile_source("""
            policy-statement prefer-customer {
                term customer {
                    from { aspath contains 65002; network4 orlonger 10.0.0.0/8; }
                    then { localpref: 200; community: 777; accept; }
                }
            }
        """)
        varrw = BgpVarRW(bgp_route())
        assert PolicyVM().run(program, varrw) == PolicyResult.ACCEPT
        result = varrw.result()
        assert result.attributes.local_pref == 200
        assert result.attributes.communities == (777,)


class TestRibVarRW:
    def _route(self):
        return RibRoute(IPNet.parse("10.0.0.0/8"), IPv4("1.1.1.1"), 5, "rip",
                        policytags=[7])

    def test_reads(self):
        varrw = RibVarRW(self._route())
        assert varrw.read("protocol") == "rip"
        assert varrw.read("metric") == 5
        assert varrw.read("admin-distance") == 120
        assert varrw.read("tag") == [7]

    def test_metric_rewrite(self):
        varrw = RibVarRW(self._route())
        varrw.write("metric", 11)
        assert varrw.result().metric == 11

    def test_redistribution_policy(self):
        program = compile_source("""
            policy-statement redist-rip {
                term only-rip {
                    from { protocol: "rip"; metric <= 8; }
                    then { metric add 1; accept; }
                }
                term rest { then { reject; } }
            }
        """)
        varrw = RibVarRW(self._route())
        assert PolicyVM().run(program, varrw) == PolicyResult.ACCEPT
        assert varrw.result().metric == 6


class TestBgpPolicyXrl:
    """configure_filter over XRLs, including background re-filtering."""

    def _setup(self):
        from repro.bgp import BgpProcess
        from repro.core.process import Host

        host = Host()
        bgp = BgpProcess(host, local_as=65000, rib_target=None)
        return host, bgp

    def test_import_policy_via_xrl(self):
        from repro.xrl import Xrl, XrlArgs

        host, bgp = self._setup()
        source = """
            policy-statement block-test {
                term t { from { network4 orlonger 10.0.0.0/8; }
                         then { reject; } }
            }
        """
        args = (XrlArgs().add_u32("filter_id", 1)
                .add_txt("policy_source", source))
        error, __ = bgp.xrl.send_sync(
            Xrl("bgp", "policy", "0.1", "configure_filter", args), deadline=5)
        assert error.is_okay, error
        assert bgp.import_policy is not None
        # The hook rejects matching routes.
        route = bgp_route("10.1.0.0/16")

        class FakePeer:
            class config:
                peer_addr = IPv4("9.9.9.9")

        assert bgp.import_policy(route, FakePeer()) is None
        assert bgp.import_policy(bgp_route("11.0.0.0/8"), FakePeer()) is not None

    def test_reset_filter(self):
        from repro.xrl import Xrl, XrlArgs

        host, bgp = self._setup()
        bgp.xrl_configure_filter(
            1, 'policy-statement x { term t { then { reject; } } }')
        bgp.xrl_reset_filter(1)
        assert bgp.import_policy is None

    def test_bad_filter_id(self):
        from repro.xrl import XrlError

        host, bgp = self._setup()
        with pytest.raises(XrlError):
            bgp.xrl_configure_filter(
                99, 'policy-statement x { term t { then { reject; } } }')
